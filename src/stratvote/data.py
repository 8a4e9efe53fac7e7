"""Dataset schema, CSV/manifest IO, the record table, and the synthetic experiment generator.

Canonical CSV layout (header required)::

    voter_id,round,n,s_1..s_m,u_1..u_m,action

Actions are serialized as 1-based candidate labels ("q2"); bare 1-based
integers are accepted on input.  A dataset's records are one
:class:`RecordTable` of columns, from the file to the reports: the loader,
the generator and the tests build it with :meth:`RecordTable.from_columns`.
Every row keeps the rules of ``_ROW_RULES``, named in this order: a voter
id that is a non-empty string with no surrounding whitespace; a round, a
poll size n at least 1 and scores, all at most ``2**63 - 1`` (they are held
as int64); strictly ordered utilities; non-negative scores; finite,
non-negative utilities; a non-negative round; an action in [0, m).  No two
rows share a (voter, round) key.  A JSON manifest rides alongside the CSV
with provenance (source tag, seed, per-voter model assignments for
synthetic data).
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import models
from .behavior import (
    SCENARIO_POSITIONS,
    SCENARIOS,
    inconsistent_rows,
    order_scenarios,
    tied_rows,
    unjustified_rows,
)
from .models import DecisionContext, Family, ModelDescriptor
from .seeding import make_rng


# The largest round, poll size or score a row may carry: the table holds them as int64.
_MAX_COUNT = 2**63 - 1

# The columns a row rule reads, in input order: ``voter`` indexes ``ids``, and
# an integer column holds Python ints (dtype object) when one is past int64.
_Rows = namedtuple("_Rows", "ids voter round n S U action")
_RowRule = namedtuple("_RowRule", "name broken problem")

# The rules every record keeps, in the order a row's first broken rule is
# named: per rule, its name, the rows that break it, and row j's problem in
# the loader's words, with the value that shows it.
_ROW_RULES = tuple(_RowRule(*rule) for rule in (
    ("voter_id",
     lambda r: ~np.array([isinstance(v, str) and v == v.strip() != "" for v in r.ids])[r.voter],
     lambda r, j: "voter_id must be a non-empty string with no surrounding whitespace, "
     f"got {r.ids[r.voter[j]]!r}"),
    ("round_max", lambda r: r.round > _MAX_COUNT,
     lambda r, j: f"round {r.round[j]} is above 2**63 - 1"),
    ("n_min", lambda r: r.n < 1, lambda r, j: f"poll size n must be positive, got {r.n[j]}"),
    ("n_max", lambda r: r.n > _MAX_COUNT, lambda r, j: f"poll size n {r.n[j]} is above 2**63 - 1"),
    ("score_max", lambda r: (r.S > _MAX_COUNT).any(axis=1),
     lambda r, j: f"score {r.S[j][r.S[j] > _MAX_COUNT][0]} is above 2**63 - 1"),
    ("strict_utilities", lambda r: tied_rows(r.U),
     lambda r, j: f"tied utilities {tuple(r.U[j].tolist())}; preferences must be strict"),
    ("score_min", lambda r: (r.S < 0).any(axis=1),
     lambda r, j: f"poll scores must be non-negative integers, got {tuple(r.S[j].tolist())}"),
    ("utility_range", lambda r: ~((r.U >= 0) & (r.U < np.inf)).all(axis=1),
     lambda r, j: f"utilities must be finite and non-negative, got {tuple(r.U[j].tolist())}"),
    ("round_min", lambda r: r.round < 0,
     lambda r, j: f"round must be non-negative, got {r.round[j]}"),
    ("action_range", lambda r: (r.action < 0) | (r.action >= r.S.shape[1]),
     lambda r, j: f"action {format_action(r.action[j])!r} out of range for m={r.S.shape[1]}"),
))

# Coarse poll-size conditions: bucket b holds n in [edge b-1, edge b), the
# edges being geometric midpoints of the sizes the buckets are named after.
POLL_BUCKETS = ("n<10", "n≈100", "n≈1000", "n≈10000")
_BUCKET_EDGES = (10, 550, 5500)


class DataError(Exception):
    """Raised for unreadable, malformed, or invariant-violating datasets."""


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class RecordTable:
    """A dataset's records as read-only columns, one row per record.

    Rows run voter by voter (``voter_ids``, sorted) and by round within a
    voter; ``voter`` indexes ``voter_ids``.  ``U`` (float64) and ``S``
    (int64) have shape (R, m); ``round``, ``n`` and ``action`` hold one
    int64 per row.  :meth:`from_columns` builds and checks a table, so no
    row's utilities tie.  The evaluation columns are derived when first
    read, so a table that is only generated and saved never computes them:
    ``order[j]`` is row j's strict preference order and ``rank[j, c]`` the
    position of candidate c in it; ``scenario`` indexes ``SCENARIO_LABELS``
    and ``bucket`` ``POLL_BUCKETS``; ``unjustified`` flags a dominated
    action (:func:`behavior.unjustified_rows`) and ``inconsistent`` a row
    that another of its voter's rows contradicts
    (:func:`behavior.inconsistent_rows`).
    """

    voter_ids: tuple[str, ...]
    voter: np.ndarray
    round: np.ndarray
    n: np.ndarray
    U: np.ndarray
    S: np.ndarray
    action: np.ndarray

    def __post_init__(self) -> None:
        for name in self._row_fields():
            _read_only(getattr(self, name))

    @classmethod
    def _row_fields(cls) -> list[str]:
        return [f.name for f in fields(cls) if f.name != "voter_ids"]

    @classmethod
    def from_columns(cls, voter_id: Sequence[str], round, n, S, U, action) -> "RecordTable":
        """The table of the rows ``(voter_id[j], round[j], n[j], S[j], U[j], action[j])``.

        Rows are sorted into (voter, round) order and m is the width of ``S``.
        Raises ``ValueError`` when there is no row, a round, n, score or
        action is a float with a fraction, or the columns disagree in length
        or shape or m < 2, else with the problem of the first row that is not
        a record (:func:`_check_rows`), then ``: row j (voter_id, round r)``.
        """
        checked = _check_rows(voter_id, round, n, S, U, action, range(len(voter_id)))
        if isinstance(checked, dict):
            j = min(checked)
            raise ValueError(f"{checked[j]}: row {j} ({voter_id[j]!r}, round {round[j]})")
        return checked

    def __len__(self) -> int:
        return len(self.voter)

    @property
    def m(self) -> int:
        return self.U.shape[1]

    @cached_property
    def order(self) -> np.ndarray:
        return _read_only(np.argsort(-self.U, axis=1, kind="stable"))

    @cached_property
    def rank(self) -> np.ndarray:
        return _read_only(np.argsort(self.order, axis=1))

    @cached_property
    def scenario(self) -> np.ndarray:
        return _read_only(order_scenarios(self.order, self.S))

    @cached_property
    def bucket(self) -> np.ndarray:
        return _read_only(np.searchsorted(_BUCKET_EDGES, self.n, side="right"))

    @cached_property
    def unjustified(self) -> np.ndarray:
        return _read_only(unjustified_rows(self.U, self.S, self.action))

    @cached_property
    def inconsistent(self) -> np.ndarray:
        flags = [inconsistent_rows(self.S[rows], self.action[rows]) for rows in self.voter_rows()]
        return _read_only(np.concatenate(flags))

    def rank_of(self, candidates: np.ndarray) -> np.ndarray:
        """The preference rank of ``candidates[j]`` in row j, for every row."""
        return self.rank[np.arange(len(self.voter)), candidates]

    def voter_rows(self) -> list[slice]:
        """The rows of each voter in the table, in ``voter_ids`` order."""
        starts = np.flatnonzero(np.diff(self.voter, prepend=-1)).tolist()
        return [slice(start, end) for start, end in zip(starts, [*starts[1:], len(self.voter)])]

    def select(self, rows: slice) -> "RecordTable":
        """The table of ``rows`` alone; ``voter`` still indexes all ``voter_ids``."""
        return RecordTable(
            voter_ids=self.voter_ids,
            **{name: getattr(self, name)[rows] for name in self._row_fields()},
        )


def _whole(name: str, column):
    """``column`` as a signed integer array when it reads as one, else as
    given, an array as Python numbers, once none of its values is a float
    with a fraction or not finite, which the int64 cast would truncate:
    ``ValueError`` names the first.  The cast takes Python numbers one by
    one, so a value past int64 raises ``OverflowError``, never wraps around.
    """
    values = np.asarray(column)
    if values.dtype.kind == "i":
        return values
    bad = [v for v in values.ravel().tolist() if isinstance(v, float) and not v.is_integer()]
    if bad:
        raise ValueError(f"{name} must be a whole number, got {bad[0]!r}")
    return values.tolist() if isinstance(column, np.ndarray) else column


def _check_rows(voter_id, round_, n, S, U, action, numbers) -> RecordTable | dict[int, str]:
    """The table of the rows of :meth:`RecordTable.from_columns`, or the first
    problem of each row that is not a record, by row index j: the first rule
    of ``_ROW_RULES`` it breaks, else the repeat of the (voter, round) key of
    an earlier row that keeps every rule, named as ``numbers[first]``.
    """
    if not (R := len(voter_id)):
        raise ValueError("a record table needs at least one row")
    named = zip(("round", "poll size n", "score", "action"), (round_, n, S, action))
    integers = [_whole(name, column) for name, column in named]
    try:
        round_, n, S, action = (np.asarray(c, dtype=np.int64) for c in integers)
    except OverflowError:  # rules see Python ints, so that -10**30 is a negative round
        round_, n, S, action = (np.asarray(c, dtype=object) for c in integers)
    U = np.asarray(U, dtype=float)
    if S.ndim != 2 or S.shape[1] < 2 or U.shape != S.shape or any(
        len(c) != R or c.ndim != 1 for c in (S[:, 0], round_, n, action)
    ):
        raise ValueError(f"columns disagree in shape: S {S.shape}, U {U.shape}, {R} voter ids")
    ids = sorted(set(voter_id), key=str)  # a bad id need not be a string
    index = {vid: i for i, vid in enumerate(ids)}
    voter = np.array([index[vid] for vid in voter_id], dtype=np.int64)
    rows = _Rows(ids, voter, round_, n, S, U, action)
    broken = np.array([rule.broken(rows) for rule in _ROW_RULES])
    bad = broken.any(axis=0)
    problems = {
        j: _ROW_RULES[broken[:, j].argmax()].problem(rows, j) for j in np.flatnonzero(bad).tolist()
    }
    kept = np.flatnonzero(~bad)
    order = kept[np.lexsort((round_[kept].astype(np.int64), rows.voter[kept]))]
    voter, round_ = rows.voter[order], round_[order].astype(np.int64)
    repeat = np.r_[False, (voter[1:] == voter[:-1]) & (round_[1:] == round_[:-1])]
    first = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(order))))
    for i in np.flatnonzero(repeat).tolist():
        key, seen = (ids[voter[i]], int(round_[i])), numbers[order[first[i]]]
        problems[int(order[i])] = f"duplicate (voter, round) {key}, first seen at row {seen}"
    if problems:
        return problems
    return RecordTable(tuple(ids), voter, round_, n[order], U[order], S[order], action[order])


@dataclass
class Dataset:
    """A record table with its manifest; ``len(dataset.records)`` counts the rows."""

    records: RecordTable
    manifest: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.records.m


_ACTION_PREFIX = "q"


def format_action(action: int) -> str:
    return f"{_ACTION_PREFIX}{action + 1}"


def parse_action(text: str, m: int) -> int:
    raw = text.strip().lower()
    if raw.startswith(_ACTION_PREFIX):
        raw = raw[len(_ACTION_PREFIX):]
    try:
        one_based = int(raw)
    except ValueError:
        raise ValueError(f"unparseable action {text!r}") from None
    if not 1 <= one_based <= m:
        raise ValueError(f"action {text!r} out of range for m={m}")
    return one_based - 1


def _format_utility(v: float) -> str:
    return str(int(v)) if v == int(v) else repr(v)


def _header(m: int) -> list[str]:
    candidates = range(1, m + 1)
    return ["voter_id", "round", "n", *(f"{c}_{i}" for c in "su" for i in candidates), "action"]


def save_dataset(dataset: Dataset, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``dataset.csv``, its rows in table order, and ``manifest.json`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "dataset.csv"
    manifest_path = out / "manifest.json"
    table, m = dataset.records, dataset.m
    columns = (table.voter, table.round, table.n, table.S, table.U, table.action)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(m))
        for voter, round_, n, scores, utilities, action in zip(*(c.tolist() for c in columns)):
            writer.writerow(
                [table.voter_ids[voter], round_, n, *scores]
                + [_format_utility(v) for v in utilities]
                + [format_action(action)]
            )
    manifest = dict(dataset.manifest)
    manifest.setdefault("m", m)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, manifest_path


def _parse_row(row: list[str], m: int) -> tuple:
    """One row's stripped voter id, round, n, scores, utilities and action.

    ``ValueError`` names the first field, in field order, that does not parse
    with Python's ``int`` or ``float`` or, for the action, :func:`parse_action`.
    The values are judged by the rules of ``_ROW_RULES``.
    """
    if len(row) != 2 * m + 4:
        raise ValueError(f"expected {2 * m + 4} fields, got {len(row)}")
    casts = [(int, "non-integer round"), (int, "non-integer n"), *[(int, "non-integer score")] * m]
    values = []
    for (cast, what), text in zip(casts + [(float, "non-numeric utility")] * m, row[1:]):
        try:
            values.append(cast(text))
        except ValueError:
            raise ValueError(f"{what} {text!r}") from None
    round_, n, *values = values
    return row[0].strip(), round_, n, values[:m], values[m:], parse_action(row[-1], m)


def _infer_m(header: list[str]) -> int:
    cleaned = [h.strip().lower() for h in header]
    if len(cleaned) < 5 or cleaned[:3] != ["voter_id", "round", "n"] or cleaned[-1] != "action":
        raise DataError(f"unrecognized header {header!r}")
    body = cleaned[3:-1]
    if len(body) % 2 != 0:
        raise DataError(f"header has unpaired score/utility columns: {header!r}")
    m = len(body) // 2
    if body != _header(m)[3:-1]:
        raise DataError(f"header columns {body!r} do not match the s_i/u_i schema")
    if m < 2:
        raise DataError("schema needs at least two candidates")
    return m


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset.

    ``path`` may be the CSV file or a directory containing ``dataset.csv``;
    a sibling ``manifest.json`` is picked up when present.  Each invalid row
    is reported with its first problem, numbered from 1 after the header:
    the first field that does not parse, in field order (an action outside
    1..m included); else the first rule it breaks, in this order: an empty
    voter id (ids are stripped), a round above ``2**63 - 1``, a poll size n
    below 1 or above ``2**63 - 1``, a score above ``2**63 - 1``, tied
    utilities, a negative score, a negative or non-finite utility, a
    negative round; else the repeat of an earlier valid row's (voter, round).
    """
    p = Path(path)
    if p.is_dir():
        p = p / "dataset.csv"
    if not p.exists():
        raise DataError(f"no such dataset: {p}")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {p}: {exc}") from exc
    if not rows:
        raise DataError(f"{p}: no records")
    m = _infer_m(rows[0])
    problems: dict[int, str] = {}  # the first problem of each bad row, by row number
    parsed, numbers = [], []  # the rows that parse, and their row numbers
    for row_num, row in enumerate(rows[1:], start=1):
        try:
            parsed.append(_parse_row(row, m))
            numbers.append(row_num)
        except ValueError as exc:
            problems[row_num] = str(exc)
    checked = _check_rows(*zip(*parsed), numbers) if parsed else {}
    if isinstance(checked, dict):
        problems.update((numbers[j], problem) for j, problem in checked.items())
    if problems:
        listed = [f"row {row_num}: {problems[row_num]}" for row_num in sorted(problems)]
        more = f" (+{len(listed) - 20} more)" if len(listed) > 20 else ""
        raise DataError(f"{p}: {'; '.join(listed[:20])}{more}")
    if not parsed:
        raise DataError(f"{p}: no records")
    manifest_path = p.parent / "manifest.json"
    manifest: dict = {}
    if manifest_path.exists():
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise DataError(f"cannot read manifest {manifest_path}: {exc}") from exc
    return Dataset(records=checked, manifest=manifest)


# --- synthetic generation ---------------------------------------------------


def _sampler_from_dict(spec: Mapping) -> "ParamSampler":
    if not isinstance(spec, Mapping):
        raise TypeError(f"a parameter sampler must be an object, got {spec!r}")
    kind = spec.get("type")
    if kind == "value":
        return ParamSampler.value(spec["value"])
    if kind == "choices":
        return ParamSampler.choices(list(spec["values"]))
    if kind == "uniform":
        low, high = (_number(spec[end], f"a uniform sampler's {end}") for end in ("low", "high"))
        return ParamSampler.uniform(low, high)
    raise ValueError(f"unknown sampler type {kind!r}")


@dataclass(frozen=True)
class ParamSampler:
    """Draws one model parameter per voter; deterministic given the rng."""

    kind: str
    payload: tuple

    @classmethod
    def value(cls, v) -> "ParamSampler":
        return cls(kind="value", payload=(v,))

    @classmethod
    def choices(cls, values: Sequence) -> "ParamSampler":
        if not values:
            raise ValueError("choices sampler needs at least one value")
        return cls(kind="choices", payload=tuple(values))

    @classmethod
    def uniform(cls, low: float, high: float) -> "ParamSampler":
        if not high >= low:
            raise ValueError(f"uniform sampler needs low <= high, got ({low}, {high})")
        return cls(kind="uniform", payload=(low, high))

    def sample(self, rng: np.random.Generator):
        if self.kind == "value":
            return self.payload[0]
        if self.kind == "choices":
            return self.payload[int(rng.integers(len(self.payload)))]
        low, high = self.payload
        return float(low + (high - low) * rng.random())

    def to_dict(self) -> dict:
        if self.kind == "value":
            return {"type": "value", "value": self.payload[0]}
        if self.kind == "choices":
            return {"type": "choices", "values": list(self.payload)}
        return {"type": "uniform", "low": self.payload[0], "high": self.payload[1]}


@dataclass(frozen=True)
class PopulationGroup:
    """A mixture component: one decision family plus parameter samplers."""

    family: Family
    weight: float
    params: Mapping[str, ParamSampler] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight < np.inf:
            raise ValueError(f"group weight must be finite and non-negative, got {self.weight!r}")
        if self.family is Family.NN:
            raise ValueError("the learned baseline cannot generate data")

    def sample_descriptor(self, rng: np.random.Generator) -> ModelDescriptor:
        kwargs = {name: self.params[name].sample(rng) for name in sorted(self.params)}
        return ModelDescriptor(family=self.family, **kwargs)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "weight": self.weight,
            "params": {k: v.to_dict() for k, v in sorted(self.params.items())},
        }

    @classmethod
    def from_dict(cls, spec: Mapping) -> "PopulationGroup":
        if not isinstance(spec, Mapping):
            raise TypeError(f"a population group must be an object, got {spec!r}")
        params = spec.get("params", {})
        if not isinstance(params, Mapping):
            raise TypeError(f"group params must map names to samplers, got {params!r}")
        return cls(
            family=Family(spec["family"]),
            weight=_number(spec.get("weight", 1.0), "group weight"),
            params={k: _sampler_from_dict(v) for k, v in params.items()},
        )


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines a synthetic dataset, bar the master seed's
    effect on individual draws.

    ``scenario_mode`` "sample" draws each round's scenario from the weights;
    "cycle" deals scenarios round-robin (weights as integer multiplicities),
    guaranteeing per-voter diversity.  ``poll_size_mode`` "per_voter" fixes
    one size per voter (a between-subject condition); "per_round" redraws
    the size every round.
    """

    num_voters: int
    rounds_per_voter: int
    groups: tuple[PopulationGroup, ...]
    poll_sizes: tuple[tuple[int, float], ...] = ((8, 0.25), (100, 0.25), (1000, 0.25), (10000, 0.25))
    poll_size_mode: str = "per_voter"
    scenario_weights: Mapping[str, float] = field(
        default_factory=lambda: {s: 1.0 for s in SCENARIOS}
    )
    scenario_mode: str = "sample"
    noise: float = 0.0
    master_seed: int = 0
    rewards: tuple[float, ...] = (10.0, 5.0, 0.0)
    # Dirichlet concentration(s) for poll shares; one value is drawn per
    # round.  1.0 gives diffuse polls, larger values closer races.
    poll_concentrations: tuple[float, ...] = (1.0,)
    # Each drawn round is shown `repeats` times in a row (test-retest
    # design).  rounds_per_voter counts shown rounds, not distinct draws.
    repeats: int = 1

    def __post_init__(self) -> None:
        for name in ("num_voters", "rounds_per_voter", "repeats"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.num_voters < 1:
            raise ValueError("need at least one voter")
        if self.rounds_per_voter < 1:
            raise ValueError("need at least one round per voter")
        if not self.groups:
            raise ValueError("population mix is empty")
        _check_weights("groups", [g.weight for g in self.groups])
        for n, _ in self.poll_sizes:
            if not isinstance(n, int) or isinstance(n, bool):
                raise TypeError(f"poll sizes must be integers, got {n!r}")
        if not self.poll_sizes or any(n < 2 for n, _ in self.poll_sizes):
            raise ValueError("poll sizes must be >= 2")
        if any(n > _MAX_COUNT for n, _ in self.poll_sizes):
            raise ValueError("poll sizes must be at most 2**63 - 1")
        _check_weights("poll_sizes", [w for _, w in self.poll_sizes])
        unknown = set(self.scenario_weights) - set(SCENARIOS)
        if unknown:
            raise ValueError(f"unknown scenarios {sorted(unknown)}")
        _check_weights("scenario_weights", list(self.scenario_weights.values()))
        if self.scenario_mode not in ("sample", "cycle"):
            raise ValueError(f"unknown scenario_mode {self.scenario_mode!r}")
        if self.poll_size_mode not in ("per_voter", "per_round"):
            raise ValueError(f"unknown poll_size_mode {self.poll_size_mode!r}")
        if not 0.0 <= _number(self.noise, "noise") <= 1.0:
            raise ValueError("noise must be within [0, 1]")
        if len(self.rewards) != 3 or len(set(self.rewards)) != 3:
            raise ValueError("rewards must be three distinct values")
        if not all(0.0 <= r < np.inf for r in self.rewards):
            raise ValueError("rewards must be finite and non-negative")
        if not self.poll_concentrations or not all(
            0.0 < c < np.inf for c in self.poll_concentrations
        ):
            raise ValueError("poll_concentrations must be finite and positive")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")

    def to_dict(self) -> dict:
        return {
            "num_voters": self.num_voters,
            "rounds_per_voter": self.rounds_per_voter,
            "groups": [g.to_dict() for g in self.groups],
            "poll_sizes": [[n, w] for n, w in self.poll_sizes],
            "poll_size_mode": self.poll_size_mode,
            "scenario_weights": dict(sorted(self.scenario_weights.items())),
            "scenario_mode": self.scenario_mode,
            "noise": self.noise,
            "master_seed": self.master_seed,
            "rewards": list(self.rewards),
            "poll_concentrations": list(self.poll_concentrations),
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, spec: Mapping) -> "GeneratorConfig":
        if not isinstance(spec, Mapping):
            raise TypeError(f"a generator config must be an object, got {spec!r}")
        kwargs = dict(spec)
        kwargs["groups"] = tuple(PopulationGroup.from_dict(g) for g in spec["groups"])
        if "poll_sizes" in kwargs:
            sizes = spec["poll_sizes"]
            kwargs["poll_sizes"] = tuple((n, _number(w, "each poll size weight")) for n, w in sizes)
        for name in ("rewards", "poll_concentrations"):
            if name in kwargs:
                kwargs[name] = tuple(_number(v, f"each of {name}") for v in spec[name])
        return cls(**kwargs)


def _number(value, what: str) -> float:
    """A config number as a float: an int or a float, not a string or a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{what} must be a finite number, got an integer too large") from None


def _check_weights(name: str, weights: Sequence[float]) -> None:
    """Sampling weights must be finite and non-negative, with a positive, finite sum."""
    for w in weights:
        if not 0.0 <= _number(w, f"each weight of {name}") < np.inf:
            raise ValueError(f"{name}: weights must be finite and non-negative, got {w!r}")
    if not 0.0 < sum(weights) < np.inf:
        raise ValueError(f"{name}: weights must have a positive, finite sum")


_MAX_POLL_TRIES = 1000


def _weighted_pick(rng: np.random.Generator, items: Sequence, weights: Sequence[float]):
    total = float(sum(weights))
    r = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if r < acc:
            return item
    return items[-1]


def _scenario_scores(
    rng: np.random.Generator, scenario: str, n: int, prefs: np.ndarray, concentration: float = 1.0
) -> np.ndarray:
    """The scores of a strict poll of ``n`` ballots realizing ``scenario`` for ``prefs``.

    Rejection-samples a strictly ordered 3-way split of the ballots: flat
    Dirichlet shares keep gaps diverse, larger concentrations give closer
    races.  Acceptance is ~70% at n=8 and approaches 1 for large n.
    """
    for _ in range(_MAX_POLL_TRIES):
        ordered = np.sort(rng.multinomial(n, rng.dirichlet((concentration,) * 3)))[::-1]
        if ordered[0] > ordered[1] > ordered[2]:
            scores = np.empty(3, dtype=np.int64)
            scores[prefs] = ordered[SCENARIO_POSITIONS[SCENARIOS.index(scenario)]]
            return scores
    raise DataError(f"could not draw a strictly ordered poll of size {n}")


def _scenario_schedule(config: GeneratorConfig, rng: np.random.Generator, count: int) -> list[str]:
    labels = [s for s in SCENARIOS if config.scenario_weights.get(s, 0.0) > 0]
    weights = [config.scenario_weights[s] for s in labels]
    if config.scenario_mode == "sample":
        return [_weighted_pick(rng, labels, weights) for _ in range(count)]
    # Round-robin over each label repeated max(1, round(w)) times, dealt from
    # the cumulative multiplicities: the repeated list may be huge.
    ends = list(accumulate(max(1, int(round(w))) for w in weights))
    return [labels[bisect_right(ends, k % ends[-1])] for k in range(count)]


def generate_synthetic(config: GeneratorConfig) -> Dataset:
    """Deterministic synthetic dataset per the configured experiment design.

    Per voter: an independent rng (derived from the master seed and the
    voter id), one sampled model descriptor, one poll size, and per drawn
    round a permuted reward assignment plus a strict scenario-matching
    poll.  Each drawn round is shown ``repeats`` times, and a shown round's
    action is replaced by a uniformly random one with probability
    ``noise``.  A voter's drawn rounds are decided after all of them are
    drawn, with one :func:`models.decide_matrix` call on its descriptor's
    one-point grid, built once per distinct descriptor: decisions draw
    nothing from the rng, and each row's depends on that row alone.
    """
    ctx = DecisionContext(pivot_cache={})
    grids: dict[models.ModelDescriptor, models.ParameterGrid] = {}
    voter_id: list[str] = []
    columns: list[tuple] = []  # per voter: n, S, U and action of its shown rounds
    assignments: dict[str, dict] = {}
    noisy_rounds: dict[str, list[int]] = {}
    width = max(3, len(str(config.num_voters)))
    group_weights = [g.weight for g in config.groups]
    size_values = [n for n, _ in config.poll_sizes]
    size_weights = [w for _, w in config.poll_sizes]
    base_rewards = sorted(config.rewards, reverse=True)
    m = 3

    num_distinct = -(-config.rounds_per_voter // config.repeats)
    # The drawn round each shown round repeats.
    shown = np.arange(config.rounds_per_voter) // config.repeats

    for i in range(1, config.num_voters + 1):
        vid = f"v{i:0{width}d}"
        rng = make_rng(config.master_seed, "voter", vid)
        group = _weighted_pick(rng, config.groups, group_weights)
        family = group.family
        bad_model = f"group {family.value} drew a bad model for voter {vid}"
        try:
            descriptor = group.sample_descriptor(rng)
        except ValueError as exc:
            raise DataError(f"{bad_model}: {exc}") from exc
        poll_size = _weighted_pick(rng, size_values, size_weights)
        scenarios = _scenario_schedule(config, rng, num_distinct)
        assignments[vid] = {
            "family": descriptor.family.value,
            "params": descriptor.params(),
            "poll_size": poll_size if config.poll_size_mode == "per_voter" else None,
        }
        n = np.empty(num_distinct, dtype=np.int64)
        S = np.empty((num_distinct, m), dtype=np.int64)
        U = np.empty((num_distinct, m))
        noise = np.full(config.rounds_per_voter, -1)  # a shown round's random action
        for k in range(num_distinct):
            if config.poll_size_mode == "per_round":
                poll_size = _weighted_pick(rng, size_values, size_weights)
            # The rewards are distinct and descending: perm is the preference order.
            perm = rng.permutation(m)
            U[k, perm] = base_rewards
            conc = config.poll_concentrations[
                int(rng.integers(len(config.poll_concentrations)))
            ]
            n[k] = poll_size
            S[k] = _scenario_scores(rng, scenarios[k], poll_size, perm, conc)
            for r in range(k * config.repeats, min((k + 1) * config.repeats, len(noise))):
                if config.noise > 0 and rng.random() < config.noise:
                    noise[r] = int(rng.integers(m))
                    noisy_rounds.setdefault(vid, []).append(r)
        if descriptor not in grids:
            grids[descriptor] = models.ParameterGrid(family, (descriptor.params(),))
        try:  # a point the family cannot take for m = 3, such as PRAG's k = 4
            (decided,) = models.decide_matrix(grids[descriptor], U, S, n, ctx)
        except ValueError as exc:
            raise DataError(f"{bad_model}: {exc}") from exc
        action = np.where(noise >= 0, noise, decided[shown])
        voter_id += [vid] * config.rounds_per_voter
        columns.append((n[shown], S[shown], U[shown], action))

    n, S, U, action = (np.concatenate(c) for c in zip(*columns))
    rounds = np.tile(np.arange(config.rounds_per_voter), config.num_voters)
    records = RecordTable.from_columns(voter_id, rounds, n, S, U, action)
    manifest = {
        "source": "synthetic",
        "m": m,
        "candidate_labels": [format_action(c) for c in range(m)],
        "seed": config.master_seed,
        "config": config.to_dict(),
        "model_assignments": assignments,
        "noisy_rounds": noisy_rounds,
    }
    return Dataset(records=records, manifest=manifest)
