"""Dataset schema, CSV/manifest IO, and the synthetic experiment generator.

Canonical CSV layout (header required)::

    voter_id,round,n,s_1..s_m,u_1..u_m,action

Actions are serialized as 1-based candidate labels ("q2"); bare 1-based
integers are accepted on input.  The loader rejects a row whose poll size
``n`` is below 1 or whose utilities tie, naming the row.  A JSON manifest
rides alongside the CSV with provenance (source tag, seed, per-voter model
assignments for synthetic data).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import models
from .behavior import SCENARIOS
from .core import Poll, UtilityFunction, preference_order
from .models import DecisionContext, Family, ModelDescriptor
from .seeding import make_rng


class DataError(Exception):
    """Raised for unreadable, malformed, or invariant-violating datasets."""


@dataclass(frozen=True)
class VoteRecord:
    """One observed (or generated) vote: who saw what and what they did."""

    voter_id: str
    round: int
    poll: Poll
    utilities: UtilityFunction
    action: int

    def __post_init__(self) -> None:
        if self.poll.m != self.utilities.m:
            raise ValueError(
                f"poll has {self.poll.m} candidates but utilities have {self.utilities.m}"
            )
        self.poll._check_candidate(self.action)
        if self.round < 0:
            raise ValueError(f"round must be non-negative, got {self.round}")


@dataclass
class Dataset:
    records: list[VoteRecord]
    manifest: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ms = {rec.poll.m for rec in self.records}
        if len(ms) > 1:
            raise ValueError(f"records mix candidate counts: {sorted(ms)}")
        seen = set()
        for rec in self.records:
            key = (rec.voter_id, rec.round)
            if key in seen:
                raise ValueError(f"duplicate (voter, round) pair {key}")
            seen.add(key)

    @property
    def m(self) -> int:
        if not self.records:
            raise ValueError("empty dataset has no candidate count")
        return self.records[0].poll.m

    def voters(self) -> list[str]:
        return sorted({rec.voter_id for rec in self.records})

    def by_voter(self) -> dict[str, list[VoteRecord]]:
        """Records grouped per voter, each group sorted by round."""
        grouped: dict[str, list[VoteRecord]] = {}
        for rec in self.records:
            grouped.setdefault(rec.voter_id, []).append(rec)
        for recs in grouped.values():
            recs.sort(key=lambda r: r.round)
        return dict(sorted(grouped.items()))


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
    return (
        ["voter_id", "round", "n"]
        + [f"s_{i}" for i in range(1, m + 1)]
        + [f"u_{i}" for i in range(1, m + 1)]
        + ["action"]
    )


def save_dataset(dataset: Dataset, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``dataset.csv`` and ``manifest.json`` under ``out_dir``."""
    if not dataset.records:
        raise DataError("refusing to save an empty dataset")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "dataset.csv"
    manifest_path = out / "manifest.json"
    m = dataset.m
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(m))
        for rec in dataset.records:
            writer.writerow(
                [rec.voter_id, rec.round, rec.poll.n]
                + [str(v) for v in rec.poll.scores]
                + [_format_utility(v) for v in rec.utilities.values]
                + [format_action(rec.action)]
            )
    manifest = dict(dataset.manifest)
    manifest.setdefault("m", m)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, manifest_path


def _parse_row(row: list[str], m: int, row_num: int) -> VoteRecord:
    expected = 3 + 2 * m + 1
    if len(row) != expected:
        raise ValueError(f"expected {expected} fields, got {len(row)}")
    voter_id = row[0].strip()
    if not voter_id:
        raise ValueError("empty voter_id")
    try:
        round_ = int(row[1])
    except ValueError:
        raise ValueError(f"non-integer round {row[1]!r}") from None
    try:
        n = int(row[2])
    except ValueError:
        raise ValueError(f"non-integer n {row[2]!r}") from None
    if n < 1:
        raise ValueError(f"poll size n must be positive, got {n}")
    scores = []
    for text in row[3 : 3 + m]:
        try:
            scores.append(int(text))
        except ValueError:
            raise ValueError(f"non-integer score {text!r}") from None
    utilities = []
    for text in row[3 + m : 3 + 2 * m]:
        try:
            utilities.append(float(text))
        except ValueError:
            raise ValueError(f"non-numeric utility {text!r}") from None
    if len(set(utilities)) != m:
        raise ValueError(f"tied utilities {tuple(utilities)}; preferences must be strict")
    action = parse_action(row[3 + 2 * m], m)
    return VoteRecord(
        voter_id=voter_id,
        round=round_,
        poll=Poll(scores=tuple(scores), n=n),
        utilities=UtilityFunction(values=tuple(utilities)),
        action=action,
    )


def _infer_m(header: list[str]) -> int:
    cleaned = [h.strip().lower() for h in header]
    if len(cleaned) < 5 or cleaned[:3] != ["voter_id", "round", "n"] or cleaned[-1] != "action":
        raise DataError(f"unrecognized header {header!r}")
    body = cleaned[3:-1]
    if len(body) % 2 != 0:
        raise DataError(f"header has unpaired score/utility columns: {header!r}")
    m = len(body) // 2
    want = [f"s_{i}" for i in range(1, m + 1)] + [f"u_{i}" for i in range(1, m + 1)]
    if body != want:
        raise DataError(f"header columns {body!r} do not match the s_i/u_i schema")
    if m < 2:
        raise DataError("schema needs at least two candidates")
    return m


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset.

    ``path`` may be the CSV file or a directory containing ``dataset.csv``;
    a sibling ``manifest.json`` is picked up when present.  All invalid rows
    are reported together, numbered from 1 after the header.
    """
    p = Path(path)
    if p.is_dir():
        p = p / "dataset.csv"
    if not p.exists():
        raise DataError(f"no such dataset: {p}")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc}") from exc
    if not rows:
        raise DataError(f"{p}: no records")
    m = _infer_m(rows[0])
    records: list[VoteRecord] = []
    problems: list[str] = []
    seen: dict[tuple[str, int], int] = {}
    for row_num, row in enumerate(rows[1:], start=1):
        try:
            rec = _parse_row(row, m, row_num)
        except ValueError as exc:
            problems.append(f"row {row_num}: {exc}")
            continue
        key = (rec.voter_id, rec.round)
        if key in seen:
            problems.append(
                f"row {row_num}: duplicate (voter, round) {key}, first seen at row {seen[key]}"
            )
            continue
        seen[key] = row_num
        records.append(rec)
    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise DataError(f"{p}: {shown}{more}")
    if not records:
        raise DataError(f"{p}: no records")
    manifest_path = p.parent / "manifest.json"
    manifest: dict = {}
    if manifest_path.exists():
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read manifest {manifest_path}: {exc}") from exc
    try:
        return Dataset(records=records, manifest=manifest)
    except ValueError as exc:
        raise DataError(f"{p}: {exc}") from exc


# --- synthetic generation ---------------------------------------------------


def _sampler_from_dict(spec: Mapping) -> "ParamSampler":
    kind = spec.get("type")
    if kind == "value":
        return ParamSampler.value(spec["value"])
    if kind == "choices":
        return ParamSampler.choices(list(spec["values"]))
    if kind == "uniform":
        return ParamSampler.uniform(float(spec["low"]), float(spec["high"]))
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
        if self.weight < 0:
            raise ValueError("group weight must be non-negative")
        if self.family is Family.NN:
            raise ValueError("the learned baseline cannot generate data")

    def sample_descriptor(self, rng: np.random.Generator) -> ModelDescriptor:
        kwargs = {
            name: self.params[name].sample(rng) for name in sorted(self.params)
        }
        return ModelDescriptor(family=self.family, **kwargs)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "weight": self.weight,
            "params": {k: v.to_dict() for k, v in sorted(self.params.items())},
        }

    @classmethod
    def from_dict(cls, spec: Mapping) -> "PopulationGroup":
        return cls(
            family=Family(spec["family"]),
            weight=float(spec.get("weight", 1.0)),
            params={
                k: _sampler_from_dict(v) for k, v in spec.get("params", {}).items()
            },
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
        if self.num_voters < 1:
            raise ValueError("need at least one voter")
        if self.rounds_per_voter < 1:
            raise ValueError("need at least one round per voter")
        if not self.groups:
            raise ValueError("population mix is empty")
        if sum(g.weight for g in self.groups) <= 0:
            raise ValueError("population weights sum to zero")
        if not self.poll_sizes or any(n < 2 or w < 0 for n, w in self.poll_sizes):
            raise ValueError("poll sizes must be >= 2 with non-negative weights")
        if sum(w for _, w in self.poll_sizes) <= 0:
            raise ValueError("poll size weights sum to zero")
        unknown = set(self.scenario_weights) - set(SCENARIOS)
        if unknown:
            raise ValueError(f"unknown scenarios {sorted(unknown)}")
        if sum(self.scenario_weights.values()) <= 0:
            raise ValueError("scenario weights sum to zero")
        if self.scenario_mode not in ("sample", "cycle"):
            raise ValueError(f"unknown scenario_mode {self.scenario_mode!r}")
        if self.poll_size_mode not in ("per_voter", "per_round"):
            raise ValueError(f"unknown poll_size_mode {self.poll_size_mode!r}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be within [0, 1]")
        if len(self.rewards) != 3 or len(set(self.rewards)) != 3:
            raise ValueError("rewards must be three distinct values")
        if not self.poll_concentrations or any(
            c <= 0 for c in self.poll_concentrations
        ):
            raise ValueError("poll concentrations must be positive")
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
        kwargs = dict(spec)
        kwargs["groups"] = tuple(
            PopulationGroup.from_dict(g) for g in spec["groups"]
        )
        if "poll_sizes" in kwargs:
            kwargs["poll_sizes"] = tuple(
                (int(n), float(w)) for n, w in spec["poll_sizes"]
            )
        if "rewards" in kwargs:
            kwargs["rewards"] = tuple(float(v) for v in spec["rewards"])
        if "poll_concentrations" in kwargs:
            kwargs["poll_concentrations"] = tuple(
                float(c) for c in spec["poll_concentrations"]
            )
        return cls(**kwargs)


# Scenario label -> poll rank of (Q, Q', Q''); 0 is the poll leader.
_SCENARIO_RANKS = {
    "A": (0, 1, 2),
    "B": (0, 2, 1),
    "C": (1, 0, 2),
    "D": (1, 2, 0),
    "E": (2, 0, 1),
    "F": (2, 1, 0),
}
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


def _strict_sorted_scores(
    rng: np.random.Generator, n: int, concentration: float = 1.0
) -> tuple[int, ...]:
    # Rejection-sample a strictly ordered 3-way split of n ballots.  Flat
    # Dirichlet shares keep gaps diverse; larger concentrations give closer
    # races.  Acceptance is ~70% at n=8 and approaches 1 for large n.
    alpha = (concentration,) * 3
    for _ in range(_MAX_POLL_TRIES):
        shares = rng.dirichlet(alpha)
        draw = rng.multinomial(n, shares)
        if len(set(draw.tolist())) == 3:
            return tuple(int(v) for v in sorted(draw, reverse=True))
    raise DataError(f"could not draw a strictly ordered poll of size {n}")


def _scenario_poll(
    rng: np.random.Generator,
    scenario: str,
    n: int,
    prefs: Sequence[int],
    concentration: float = 1.0,
) -> Poll:
    """A strict poll of ``n`` ballots realizing ``scenario`` for ``prefs``."""
    ordered = _strict_sorted_scores(rng, n, concentration)
    ranks = _SCENARIO_RANKS[scenario]
    scores = [0, 0, 0]
    for pref_pos, cand in enumerate(prefs):
        scores[cand] = ordered[ranks[pref_pos]]
    return Poll(scores=tuple(scores), n=n)


def _scenario_schedule(
    config: GeneratorConfig, rng: np.random.Generator, count: int
) -> list[str]:
    labels = [s for s in SCENARIOS if config.scenario_weights.get(s, 0.0) > 0]
    weights = [config.scenario_weights[s] for s in labels]
    if config.scenario_mode == "sample":
        return [_weighted_pick(rng, labels, weights) for _ in range(count)]
    expanded: list[str] = []
    for label, w in zip(labels, weights):
        expanded.extend([label] * max(1, int(round(w))))
    return [expanded[k % len(expanded)] for k in range(count)]


def generate_synthetic(config: GeneratorConfig) -> Dataset:
    """Deterministic synthetic dataset per the configured experiment design.

    Per voter: an independent rng (derived from the master seed and the
    voter id), one sampled model descriptor, one poll size, and per round a
    permuted reward assignment plus a strict scenario-matching poll.  The
    model's action is replaced by a uniformly random one with probability
    ``noise``.
    """
    ctx = DecisionContext(pivot_cache={})
    records: list[VoteRecord] = []
    assignments: dict[str, dict] = {}
    noisy_rounds: dict[str, list[int]] = {}
    width = max(3, len(str(config.num_voters)))
    group_weights = [g.weight for g in config.groups]
    size_values = [n for n, _ in config.poll_sizes]
    size_weights = [w for _, w in config.poll_sizes]
    base_rewards = tuple(sorted(config.rewards, reverse=True))
    m = 3

    num_distinct = -(-config.rounds_per_voter // config.repeats)

    for i in range(1, config.num_voters + 1):
        vid = f"v{i:0{width}d}"
        rng = make_rng(config.master_seed, "voter", vid)
        group = _weighted_pick(rng, config.groups, group_weights)
        descriptor = group.sample_descriptor(rng)
        poll_size = _weighted_pick(rng, size_values, size_weights)
        scenarios = _scenario_schedule(config, rng, num_distinct)
        assignments[vid] = {
            "family": descriptor.family.value,
            "params": descriptor.params(),
            "poll_size": poll_size if config.poll_size_mode == "per_voter" else None,
        }
        for k in range(num_distinct):
            if config.poll_size_mode == "per_round":
                poll_size = _weighted_pick(rng, size_values, size_weights)
            perm = rng.permutation(m)
            values = [0.0] * m
            for rank, cand in enumerate(perm):
                values[int(cand)] = base_rewards[rank]
            u = UtilityFunction(values=tuple(values))
            prefs = preference_order(u.values)
            conc = config.poll_concentrations[
                int(rng.integers(len(config.poll_concentrations)))
            ]
            poll = _scenario_poll(rng, scenarios[k], poll_size, prefs, conc)
            model_action = models.decide(descriptor, u, poll, ctx)
            for r in range(
                k * config.repeats,
                min((k + 1) * config.repeats, config.rounds_per_voter),
            ):
                action = model_action
                if config.noise > 0 and rng.random() < config.noise:
                    action = int(rng.integers(m))
                    noisy_rounds.setdefault(vid, []).append(r)
                records.append(
                    VoteRecord(
                        voter_id=vid, round=r, poll=poll, utilities=u, action=action
                    )
                )

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
