"""Parameter fitting, leave-one-out evaluation, and report assembly.

Predictions are scored in preference-rank space (did the voter pick Q, Q',
or Q''), so confusion matrices are comparable across rounds with different
candidate labelings.  Rows are the actual action, columns the predicted
one.

Fitting is a grid argmax of training-set 0/1 accuracy; ties resolve to the
earliest grid point, which makes refits reproducible.  A
:class:`RecordTable` annotates the dataset once for every family: arrays of
utilities, scores, preference ranks, scenario, poll-size bucket, and
unjustified and inconsistent actions.  Each voter's decision matrix (grid
point x record) is one call of :func:`models.decide_matrix` on the voter's
rows, and the reports are counted from the table's arrays.
Leave-one-out uses the match-matrix identity: with per-point match counts
over all rounds, each fold's training score is the total minus that fold's
column, so one decision matrix per voter serves every fold.  The ``NN``
baseline has no grid: each of a voter's folds trains its own network on
the other rounds (profile included).

Work is cut into one task per worker, each a contiguous run of voters of
about equal record count (one task, in process, for ``jobs=1``).  A task
decides one voter's matrix at a time, which keeps ``AU``'s memory per
voter, but hands every ``NN`` training set of its voters to one
:func:`nn.fit_folds` call, whose stacked per-fold weights equal separate
training bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from multiprocessing import get_context
from typing import Mapping, Sequence

import numpy as np

from . import models, nn as nn_mod
from .behavior import (
    SCENARIOS,
    UNCLASSIFIED,
    VoterProfile,
    build_profile,
    is_unjustified,
    scenario_or_none,
)
from .data import Dataset, VoteRecord
from .models import DecisionContext, Family, ModelDescriptor
from .seeding import derive_seed

POLL_BUCKETS = ("n<10", "n≈100", "n≈1000", "n≈10000")
_BUCKET_EDGES = (10, 550, 5500)
RANK_LABELS = ("Q", "Q'", "Q''")


def poll_size_bucket(n: int) -> str:
    """Coarse poll-size condition; edges are geometric midpoints."""
    if n < 1:
        raise ValueError(f"poll size must be positive, got {n}")
    for edge, bucket in zip(_BUCKET_EDGES, POLL_BUCKETS):
        if n < edge:
            return bucket
    return POLL_BUCKETS[-1]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row = actual class, column = predicted class."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def zeros(cls, m: int) -> "ConfusionMatrix":
        return cls(np.zeros((m, m), dtype=np.int64))

    @classmethod
    def from_pairs(cls, m: int, pairs: Sequence[tuple[int, int]]) -> "ConfusionMatrix":
        counts = np.zeros((m, m), dtype=np.int64)
        for actual, predicted in pairs:
            counts[actual, predicted] += 1
        return cls(counts)

    @property
    def m(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)


@dataclass(frozen=True)
class Metrics:
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f: tuple[float, ...]
    weighted_f: float

    def to_dict(self) -> dict:
        return {
            "precision": list(self.precision),
            "recall": list(self.recall),
            "f": list(self.f),
            "weighted_f": self.weighted_f,
        }


def metrics_from_confusion(matrix: ConfusionMatrix) -> Metrics:
    """Per-class precision/recall/F plus the frequency-weighted F.

    A class with an empty column (never predicted) gets precision 0, an
    empty row (never actual) recall 0; the harmonic mean is 0 whenever
    either side is.  Weights are actual-class frequencies, so empty rows
    contribute nothing to the weighted F.
    """
    counts = matrix.counts
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot compute metrics for an empty confusion matrix")
    diag = np.diag(counts).astype(float)
    col = counts.sum(axis=0).astype(float)
    row = counts.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(col > 0, diag / np.where(col > 0, col, 1), 0.0)
        recall = np.where(row > 0, diag / np.where(row > 0, row, 1), 0.0)
        denom = precision + recall
        f = np.where(denom > 0, 2 * precision * recall / np.where(denom > 0, denom, 1), 0.0)
    weighted = float((row * f).sum() / total)
    return Metrics(
        precision=tuple(float(v) for v in precision),
        recall=tuple(float(v) for v in recall),
        f=tuple(float(v) for v in f),
        weighted_f=weighted,
    )


# --- parameter grids ---------------------------------------------------------

_DEFAULT_CV_ETAS: tuple = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 10000,
    16384, 20000, "n",
)
_DEFAULT_ALPHAS = tuple(round(0.05 * i, 2) for i in range(41))
_DEFAULT_BETAS = tuple(range(51)) + tuple(range(60, 101, 10))


@dataclass(frozen=True)
class ParameterGrid:
    """Ordered candidate parameter points for one family.

    Every point is validated as a :class:`ModelDescriptor`.  The whole tuple
    is handed to :func:`models.decide_grid`, which returns one decision per
    point in this order; fitting ties resolve to the earliest point.
    """

    family: Family
    points: tuple[dict, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("parameter grid is empty")
        for point in self.points:
            ModelDescriptor(family=self.family, **point)  # validates

    @classmethod
    def default(
        cls,
        family: Family,
        *,
        m: int = 3,
        cv_etas: Sequence | None = None,
    ) -> "ParameterGrid":
        """The family's default grid for ``m``-candidate data.

        ``m`` only caps the ``PRAG`` grid, k in {1, 2, 3}, at k <= m.
        """
        family = Family(family)
        if family is Family.PRAG:
            return cls(family, tuple({"k": k} for k in (1, 2, 3) if k <= m))
        if family in (Family.LD, Family.LDLB):
            return cls(family, tuple({"r": round(0.01 * i, 2)} for i in range(101)))
        if family is Family.CV:
            etas = tuple(cv_etas) if cv_etas is not None else _DEFAULT_CV_ETAS
            return cls(family, tuple({"eta": e} for e in etas))
        if family is Family.AU:
            return cls(
                family,
                tuple({"alpha": a, "beta": b} for a in _DEFAULT_ALPHAS for b in _DEFAULT_BETAS),
            )
        if family is Family.TMG:
            return cls(family, tuple({"voter_type": t} for t in ("TRT", "CMP", "LB")))
        if family in (Family.TRUTH, Family.BR, Family.NN):
            return cls(family, ({},))
        raise ValueError(f"no default grid for family {family!r}")


# --- the record table --------------------------------------------------------

SCENARIO_LABELS = (*SCENARIOS, UNCLASSIFIED)


@dataclass(frozen=True)
class RecordTable:
    """A dataset's records as read-only columns, annotated once for every family.

    Rows run voter by voter (``voter_ids``, sorted) and by round within a
    voter, the order of :meth:`Dataset.by_voter`; ``voter`` indexes
    ``voter_ids``.  ``U`` and ``S`` have shape (R, m), every other array
    one entry per row.  ``order[j]`` is the record's preference order and
    ``rank[j, c]`` the position of candidate c in it.  ``scenario`` indexes
    ``SCENARIO_LABELS`` and ``bucket`` ``POLL_BUCKETS``.  ``unjustified``
    flags a dominated actual action (:func:`behavior.is_unjustified`) and
    ``inconsistent`` a record its voter's profile names as contradicted by
    another of their records.
    """

    voter_ids: tuple[str, ...]
    records: tuple[VoteRecord, ...]
    voter: np.ndarray
    round: np.ndarray
    n: np.ndarray
    U: np.ndarray
    S: np.ndarray
    action: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    scenario: np.ndarray
    bucket: np.ndarray
    unjustified: np.ndarray
    inconsistent: np.ndarray

    def __post_init__(self) -> None:
        for name in self._row_fields():
            getattr(self, name).setflags(write=False)

    @classmethod
    def _row_fields(cls) -> list[str]:
        return [f.name for f in fields(cls) if f.name not in ("voter_ids", "records")]

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, profiles: Mapping[str, VoterProfile] | None = None
    ) -> "RecordTable":
        """Annotate ``dataset``, building each voter's profile unless given."""
        by_voter = dataset.by_voter()
        if not by_voter:
            raise ValueError("cannot evaluate an empty dataset")
        if profiles is None:
            profiles = {vid: build_profile(vid, recs) for vid, recs in by_voter.items()}
        records = tuple(rec for recs in by_voter.values() for rec in recs)
        annotations = [
            (
                SCENARIO_LABELS.index(scenario_or_none(rec.utilities, rec.poll) or UNCLASSIFIED),
                POLL_BUCKETS.index(poll_size_bucket(rec.poll.n)),
                is_unjustified(rec.utilities, rec.poll, rec.action),
                i in profiles[vid].inconsistent_records,
            )
            for vid, recs in by_voter.items()
            for i, rec in enumerate(recs)
        ]
        scenario, bucket, unjustified, inconsistent = (np.array(col) for col in zip(*annotations))
        U = np.array([rec.utilities.values for rec in records], dtype=float)
        order = np.argsort(-U, axis=1, kind="stable")
        return cls(
            voter_ids=tuple(by_voter),
            records=records,
            voter=np.repeat(np.arange(len(by_voter)), [len(recs) for recs in by_voter.values()]),
            round=np.array([rec.round for rec in records]),
            n=np.array([rec.poll.n for rec in records]),
            U=U,
            S=np.array([rec.poll.scores for rec in records], dtype=np.int64),
            action=np.array([rec.action for rec in records]),
            order=order,
            rank=np.argsort(order, axis=1),
            scenario=scenario,
            bucket=bucket,
            unjustified=unjustified,
            inconsistent=inconsistent,
        )

    @property
    def m(self) -> int:
        return self.U.shape[1]

    def voter_rows(self) -> list[slice]:
        """The rows of each voter in the table, in ``voter_ids`` order."""
        starts = np.flatnonzero(np.diff(self.voter, prepend=-1)).tolist()
        return [slice(start, end) for start, end in zip(starts, [*starts[1:], len(self.voter)])]

    def select(self, rows: slice) -> "RecordTable":
        """The table of ``rows`` alone; ``voter`` still indexes all ``voter_ids``."""
        return RecordTable(
            voter_ids=self.voter_ids,
            records=self.records[rows],
            **{name: getattr(self, name)[rows] for name in self._row_fields()},
        )


# --- per-voter evaluation ----------------------------------------------------


def _decision_matrix(grid: ParameterGrid, block: RecordTable) -> np.ndarray:
    """Decisions for every (grid point, row of ``block``), shape (G, R)."""
    ctx = DecisionContext(pivot_cache={})
    return models.decide_matrix(grid.family, grid.points, block.U, block.S, block.n, ctx)


def _fit_grid(grid: ParameterGrid, block: RecordTable, mode: str) -> tuple[np.ndarray, dict]:
    """One voter's predictions and in-sample fit from its decision matrix."""
    D = _decision_matrix(grid, block)
    M = D == block.action[None, :]
    totals = M.sum(axis=1)
    fit_index = int(np.argmax(totals))
    if mode == "upper":
        picks = np.full(D.shape[1], fit_index)
    else:
        picks = np.argmax(totals[:, None] - M, axis=0)
    return D[picks, np.arange(D.shape[1])], dict(grid.points[fit_index])


def _predict_nn(voters: list[list[VoteRecord]], mode: str, seed: int) -> list[list[int]]:
    """Each voter's predictions, every network the voters need trained by one fit_folds.

    Under LOO each record is predicted by a network trained on the voter's
    other rounds; a single-record voter has nothing to train on, and its
    seeded initial network plays the role of the default grid point.
    """
    # picks[v][i] indexes the (network, profile) in ``fitted`` that predicts
    # voter v's record i: trained folds count from the front, the initial
    # networks of single-record voters from the back.
    folds, hypers, defaults, picks = [], [], [], []
    for records in voters:
        vid = records[0].voter_id
        if mode == "upper":
            picks.append([len(folds)] * len(records))
            folds.append(records)
            hypers.append(nn_mod.Hyperparams(seed=derive_seed(seed, "nn", vid, "all")))
        elif len(records) == 1:
            net = nn_mod.init_network(
                nn_mod.FEATURE_DIM, seed=derive_seed(seed, "nn", vid, records[0].round)
            )
            picks.append([-1 - len(defaults)])
            defaults.append((net, build_profile(vid, [])))
        else:
            picks.append(range(len(folds), len(folds) + len(records)))
            folds += [records[:i] + records[i + 1 :] for i in range(len(records))]
            hypers += [
                nn_mod.Hyperparams(seed=derive_seed(seed, "nn", vid, rec.round)) for rec in records
            ]
    fitted = (nn_mod.fit_folds(folds, hypers) if folds else []) + defaults[::-1]
    return [
        [nn_mod.predict_record(*fitted[i], rec) for i, rec in zip(pick, records)]
        for pick, records in zip(picks, voters)
    ]


def _evaluate_voters(task: tuple) -> list[dict]:
    """Fit and predict a run of voters' rows, one result per voter in order.

    A pure function of its arguments.  Grid families decide one voter's
    matrix at a time; ``NN`` trains all of the run's networks together.
    """
    block, grid, mode, seed = task
    voters = block.voter_rows()
    if grid.family is Family.NN:
        predictions = _predict_nn([list(block.records[rows]) for rows in voters], mode, seed)
        fits = [(predicted, {}) for predicted in predictions]
    else:
        fits = [_fit_grid(grid, block.select(rows), mode) for rows in voters]
    return [
        {
            "predicted": predicted,
            "fitted": fitted,
            "defaulted": mode != "upper" and rows.stop - rows.start == 1,
        }
        for rows, (predicted, fitted) in zip(voters, fits)
    ]


def _voter_runs(voter_rows: Sequence[slice], k: int) -> list[slice]:
    """The rows of ``k`` contiguous, non-empty runs of voters of about equal size.

    Each cut falls at the voter boundary nearest its share of the records,
    ties to the earlier one.
    """
    ends = np.array([rows.stop for rows in voter_rows])
    cuts = [0]
    for i in range(1, k):
        nearest = int(np.argmin(np.abs(ends - ends[-1] * i / k))) + 1
        cuts.append(min(max(nearest, cuts[-1] + 1), len(ends) - (k - i)))
    bounds = [0, *(int(ends[c - 1]) for c in cuts[1:]), int(ends[-1])]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class PredictionRow:
    voter_id: str
    round: int
    scenario: str
    bucket: str
    actual: int
    predicted: int
    actual_rank: int
    predicted_rank: int


@dataclass(frozen=True)
class EvaluationReport:
    family: str
    mode: str
    seed: int
    num_voters: int
    overall: ConfusionMatrix
    per_scenario: dict[str, ConfusionMatrix]
    per_bucket: dict[str, ConfusionMatrix]
    per_voter_f: dict[str, float]
    per_voter_records: dict[str, int]
    fitted_params: dict[str, dict]
    voter_bucket: dict[str, str]
    defaulted_voters: tuple[str, ...]
    rows: tuple[PredictionRow, ...]
    error_breakdown: dict[str, dict[str, int]]

    @property
    def metrics(self) -> Metrics:
        return metrics_from_confusion(self.overall)

    def to_dict(self) -> dict:
        def block(matrix: ConfusionMatrix) -> dict:
            out = {"confusion": matrix.counts.tolist()}
            if matrix.total > 0:
                out["metrics"] = metrics_from_confusion(matrix).to_dict()
            return out

        return {
            "family": self.family,
            "mode": self.mode,
            "seed": self.seed,
            "num_voters": self.num_voters,
            "num_records": self.overall.total,
            "classes": list(RANK_LABELS[: self.overall.m])
            if self.overall.m <= 3
            else [f"pref_{i}" for i in range(self.overall.m)],
            "overall": block(self.overall),
            "scenarios": {k: block(v) for k, v in sorted(self.per_scenario.items())},
            "poll_buckets": {k: block(v) for k, v in self.per_bucket.items()},
            "per_voter_f": dict(sorted(self.per_voter_f.items())),
            "per_voter_records": dict(sorted(self.per_voter_records.items())),
            "fitted_params": dict(sorted(self.fitted_params.items())),
            "voter_bucket": dict(sorted(self.voter_bucket.items())),
            "defaulted_voters": list(self.defaulted_voters),
            "error_breakdown": {
                k: dict(sorted(v.items())) for k, v in sorted(self.error_breakdown.items())
            },
            "predictions": [
                {
                    "voter_id": row.voter_id,
                    "round": row.round,
                    "scenario": row.scenario,
                    "bucket": row.bucket,
                    "actual": row.actual,
                    "predicted": row.predicted,
                    "actual_rank": row.actual_rank,
                    "predicted_rank": row.predicted_rank,
                }
                for row in self.rows
            ],
        }


ERROR_CLASSES = ("correct", "unjustified", "inconsistent", "unexplained")


def error_breakdown(
    dataset: Dataset | RecordTable,
    predictions: Mapping[tuple[str, int], int],
    profiles: Mapping[str, VoterProfile] | None = None,
) -> dict[str, dict[str, int]]:
    """Classify each prediction per scenario.

    Mispredictions are attributed to the actual action being unjustified
    (dominated), else to it being inconsistent with the voter's other
    records, else left unexplained.  Keys: scenarios plus "total".
    ``predictions`` maps (voter id, round) to the predicted action.
    ``profiles`` spares building each voter's profile from a ``Dataset``; a
    :class:`RecordTable` already holds the annotations.
    """
    table = (
        dataset if isinstance(dataset, RecordTable) else RecordTable.from_dataset(dataset, profiles)
    )
    predicted = []
    for rec in table.records:
        key = (rec.voter_id, rec.round)
        if key not in predictions:
            raise ValueError(f"missing prediction for {key}")
        predicted.append(predictions[key])
    error_class = np.select(
        [np.array(predicted) == table.action, table.unjustified, table.inconsistent],
        [0, 1, 2],
        default=3,
    )
    counts = np.zeros((len(SCENARIO_LABELS) + 1, len(ERROR_CLASSES)), dtype=np.int64)
    np.add.at(counts, (table.scenario, error_class), 1)
    counts[-1] = counts[:-1].sum(axis=0)
    return {
        label: dict(zip(ERROR_CLASSES, row))
        for label, row in zip([*SCENARIO_LABELS, "total"], counts.tolist())
    }


def _aggregate(
    family: Family,
    mode: str,
    seed: int,
    table: RecordTable,
    results: Sequence[dict],
) -> EvaluationReport:
    m, num_voters = table.m, len(table.voter_ids)
    predicted = np.concatenate([np.asarray(r["predicted"], dtype=np.int64) for r in results])
    rows = np.arange(len(table.records))
    actual_rank = table.rank[rows, table.action]
    predicted_rank = table.rank[rows, predicted]

    def confusions(groups: np.ndarray, size: int) -> np.ndarray:
        counts = np.zeros((size, m, m), dtype=np.int64)
        np.add.at(counts, (groups, actual_rank, predicted_rank), 1)
        return counts

    per_scenario = confusions(table.scenario, len(SCENARIO_LABELS))
    per_bucket = confusions(table.bucket, len(POLL_BUCKETS))
    per_voter = confusions(table.voter, num_voters)
    bucket_tally = np.zeros((num_voters, len(POLL_BUCKETS)), dtype=np.int64)
    np.add.at(bucket_tally, (table.voter, table.bucket), 1)
    prediction_rows = tuple(
        PredictionRow(
            voter_id=rec.voter_id,
            round=rec.round,
            scenario=SCENARIO_LABELS[scenario],
            bucket=POLL_BUCKETS[bucket],
            actual=rec.action,
            predicted=guess,
            actual_rank=a_rank,
            predicted_rank=p_rank,
        )
        for rec, scenario, bucket, guess, a_rank, p_rank in zip(
            table.records,
            table.scenario.tolist(),
            table.bucket.tolist(),
            predicted.tolist(),
            actual_rank.tolist(),
            predicted_rank.tolist(),
        )
    )
    predictions = {(row.voter_id, row.round): row.predicted for row in prediction_rows}
    return EvaluationReport(
        family=family.value,
        mode=mode,
        seed=seed,
        num_voters=num_voters,
        overall=ConfusionMatrix(per_bucket.sum(axis=0)),
        per_scenario={k: ConfusionMatrix(v) for k, v in zip(SCENARIO_LABELS, per_scenario)},
        per_bucket={k: ConfusionMatrix(v) for k, v in zip(POLL_BUCKETS, per_bucket)},
        per_voter_f={
            vid: metrics_from_confusion(ConfusionMatrix(counts)).weighted_f
            for vid, counts in zip(table.voter_ids, per_voter)
        },
        per_voter_records=dict(zip(table.voter_ids, per_voter.sum(axis=(1, 2)).tolist())),
        fitted_params={vid: r["fitted"] for vid, r in zip(table.voter_ids, results)},
        # The bucket holding most of the voter's records, ties to the earlier one.
        voter_bucket={
            vid: POLL_BUCKETS[b] for vid, b in zip(table.voter_ids, bucket_tally.argmax(axis=1))
        },
        defaulted_voters=tuple(vid for vid, r in zip(table.voter_ids, results) if r["defaulted"]),
        rows=prediction_rows,
        error_breakdown=error_breakdown(table, predictions),
    )


def _run(
    family: Family,
    grid: ParameterGrid,
    dataset: Dataset | RecordTable,
    mode: str,
    *,
    jobs: int = 1,
    seed: int = 0,
) -> EvaluationReport:
    family = Family(family)
    if grid.family is not family:
        raise ValueError(f"grid is for {grid.family}, not {family}")
    table = dataset if isinstance(dataset, RecordTable) else RecordTable.from_dataset(dataset)
    # One task per worker: a contiguous run of voters, so every NN network
    # a worker needs trains in one fit_folds call.
    voter_rows = table.voter_rows()
    workers = min(jobs, len(voter_rows))
    tasks = [
        (table.select(rows), grid, mode, seed) for rows in _voter_runs(voter_rows, workers)
    ]
    if workers > 1:
        if family is Family.CV:
            # Load the pivot kernels' scipy once here, not in every worker.
            import scipy.special  # noqa: F401
        with get_context("fork").Pool(processes=workers) as pool:
            chunks = pool.map(_evaluate_voters, tasks)
    else:
        chunks = [_evaluate_voters(task) for task in tasks]
    return _aggregate(family, mode, seed, table, [r for chunk in chunks for r in chunk])


def loo_evaluate(
    family: Family,
    grid: ParameterGrid,
    dataset: Dataset | RecordTable,
    *,
    jobs: int = 1,
    seed: int = 0,
) -> EvaluationReport:
    """Per voter, fit on every other round and predict the held-out one.

    Pass a :class:`RecordTable` to annotate a dataset once for several
    families.
    """
    return _run(family, grid, dataset, "loo", jobs=jobs, seed=seed)


def upper_bound_evaluate(
    family: Family,
    grid: ParameterGrid,
    dataset: Dataset | RecordTable,
    *,
    jobs: int = 1,
    seed: int = 0,
) -> EvaluationReport:
    """Fit and score on all records per voter: in-sample ceiling."""
    return _run(family, grid, dataset, "upper", jobs=jobs, seed=seed)


def parameter_distribution(report: EvaluationReport) -> list[dict]:
    """Per-voter fitted parameters with their poll-size condition tag.

    Families without parameters export nothing.
    """
    if all(not params for params in report.fitted_params.values()):
        return []
    rows = []
    for vid in sorted(report.fitted_params):
        rows.append(
            {
                "voter_id": vid,
                "family": report.family,
                "bucket": report.voter_bucket[vid],
                **report.fitted_params[vid],
            }
        )
    return rows
