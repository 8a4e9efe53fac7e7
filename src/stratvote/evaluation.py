"""Parameter fitting, leave-one-out evaluation, and report assembly.

Predictions are scored in preference-rank space (did the voter pick Q, Q',
or Q''), so confusion matrices are comparable across rounds with different
candidate labelings.  Rows are the actual action, columns the predicted
one.

Fitting is a grid argmax of training-set 0/1 accuracy; ties resolve to the
earliest grid point, which makes refits reproducible.  Each voter's
decision matrix (grid point x record) is built one record at a time from
:func:`models.decide_grid`, the single decision path of every family.
Leave-one-out uses the match-matrix identity: with per-point match counts
over all rounds, each fold's training score is the total minus that fold's
column, so one decision matrix per voter serves every fold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Mapping, Sequence

import numpy as np

from . import models, nn as nn_mod
from .behavior import (
    SCENARIOS,
    UNCLASSIFIED,
    VoterProfile,
    build_profile,
    scenario_or_none,
)
from .core import preference_order
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
        cv_etas: Sequence | None = None,
    ) -> "ParameterGrid":
        family = Family(family)
        if family is Family.PRAG:
            return cls(family, tuple({"k": k} for k in (1, 2, 3)))
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


# --- per-voter evaluation ----------------------------------------------------


def _decision_matrix(
    grid: ParameterGrid,
    records: Sequence[VoteRecord],
    seed: int,
    pivot_cache: dict,
) -> np.ndarray:
    """Decisions for every (grid point, record), shape (G, R)."""
    columns = []
    for rec in records:
        ctx = DecisionContext(
            master_seed=seed, voter_id=rec.voter_id, round=rec.round, pivot_cache=pivot_cache
        )
        columns.append(models.decide_grid(grid.family, grid.points, rec.utilities, rec.poll, ctx))
    return np.stack(columns, axis=1)


def _evaluate_voter_nn(
    vid: str, records: list[VoteRecord], mode: str, seed: int
) -> tuple[list[tuple[int, int]], bool]:
    predictions: list[tuple[int, int]] = []
    if mode == "upper":
        net, profile = nn_mod.fit_network(
            records, nn_mod.Hyperparams(seed=derive_seed(seed, "nn", vid, "all"))
        )
        for rec in records:
            predictions.append((rec.round, nn_mod.predict_record(net, profile, rec)))
        return predictions, False
    defaulted = False
    for i, rec in enumerate(records):
        train = records[:i] + records[i + 1 :]
        fold_seed = derive_seed(seed, "nn", vid, rec.round)
        if train:
            net, profile = nn_mod.fit_network(train, nn_mod.Hyperparams(seed=fold_seed))
        else:
            # Single-record voter: nothing to train on; the seeded initial
            # network plays the role of the default grid point.
            net = nn_mod.init_network(nn_mod.FEATURE_DIM, seed=fold_seed)
            profile = build_profile(vid, [])
            defaulted = True
        predictions.append((rec.round, nn_mod.predict_record(net, profile, rec)))
    return predictions, defaulted


def _evaluate_voter(task: tuple) -> dict:
    """Fit and predict one voter; pure function of its arguments."""
    vid, records, grid, mode, seed = task
    records = sorted(records, key=lambda r: r.round)
    if grid.family is Family.NN:
        preds, defaulted = _evaluate_voter_nn(vid, records, mode, seed)
        return {"voter_id": vid, "predictions": preds, "fitted": {}, "defaulted": defaulted}

    D = _decision_matrix(grid, records, seed, {})
    M = D == np.array([rec.action for rec in records])[None, :]
    totals = M.sum(axis=1)
    fit_index = int(np.argmax(totals))
    if mode == "upper":
        picks = [fit_index] * len(records)
    else:
        picks = [int(np.argmax(totals - M[:, j])) for j in range(len(records))]
    preds = [(rec.round, int(D[i, j])) for j, (rec, i) in enumerate(zip(records, picks))]
    return {
        "voter_id": vid,
        "predictions": preds,
        "fitted": dict(grid.points[fit_index]),
        "defaulted": mode != "upper" and len(records) == 1,
    }


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
    dataset: Dataset,
    predictions: Mapping[tuple[str, int], int],
    profiles: Mapping[str, VoterProfile] | None = None,
) -> dict[str, dict[str, int]]:
    """Classify each prediction per scenario.

    Mispredictions are attributed to the actual action being unjustified
    (dominated), else to it being inconsistent with the voter's other
    records, else left unexplained.  Keys: scenarios plus "total".
    """
    from .behavior import is_unjustified

    if profiles is None:
        profiles = {
            vid: build_profile(vid, recs) for vid, recs in dataset.by_voter().items()
        }
    out: dict[str, dict[str, int]] = {
        label: {cls: 0 for cls in ERROR_CLASSES}
        for label in list(SCENARIOS) + [UNCLASSIFIED, "total"]
    }
    by_voter = dataset.by_voter()
    for vid, recs in by_voter.items():
        inconsistent = profiles[vid].inconsistent_records
        for idx, rec in enumerate(recs):
            key = (vid, rec.round)
            if key not in predictions:
                raise ValueError(f"missing prediction for {key}")
            scenario = scenario_or_none(rec.utilities, rec.poll) or UNCLASSIFIED
            if predictions[key] == rec.action:
                cls = "correct"
            elif is_unjustified(rec.utilities, rec.poll, rec.action):
                cls = "unjustified"
            elif idx in inconsistent:
                cls = "inconsistent"
            else:
                cls = "unexplained"
            out[scenario][cls] += 1
            out["total"][cls] += 1
    return out


def _aggregate(
    family: Family,
    mode: str,
    seed: int,
    dataset: Dataset,
    results: Sequence[dict],
) -> EvaluationReport:
    by_voter = dataset.by_voter()
    m = dataset.m
    overall = np.zeros((m, m), dtype=np.int64)
    per_scenario = {
        label: np.zeros((m, m), dtype=np.int64) for label in list(SCENARIOS) + [UNCLASSIFIED]
    }
    per_bucket = {label: np.zeros((m, m), dtype=np.int64) for label in POLL_BUCKETS}
    per_voter_f: dict[str, float] = {}
    per_voter_records: dict[str, int] = {}
    fitted: dict[str, dict] = {}
    voter_bucket: dict[str, str] = {}
    defaulted: list[str] = []
    rows: list[PredictionRow] = []
    predictions_map: dict[tuple[str, int], int] = {}

    for result in results:
        vid = result["voter_id"]
        recs = by_voter[vid]
        preds = dict(result["predictions"])
        fitted[vid] = result["fitted"]
        if result["defaulted"]:
            defaulted.append(vid)
        voter_counts = np.zeros((m, m), dtype=np.int64)
        bucket_tally: Counter = Counter()
        for rec in recs:
            predicted = preds[rec.round]
            prefs = preference_order(rec.utilities.values)
            rank_of = {c: i for i, c in enumerate(prefs)}
            a_rank, p_rank = rank_of[rec.action], rank_of[predicted]
            scenario = scenario_or_none(rec.utilities, rec.poll) or UNCLASSIFIED
            bucket = poll_size_bucket(rec.poll.n)
            overall[a_rank, p_rank] += 1
            per_scenario[scenario][a_rank, p_rank] += 1
            per_bucket[bucket][a_rank, p_rank] += 1
            voter_counts[a_rank, p_rank] += 1
            bucket_tally[bucket] += 1
            predictions_map[(vid, rec.round)] = predicted
            rows.append(
                PredictionRow(
                    voter_id=vid,
                    round=rec.round,
                    scenario=scenario,
                    bucket=bucket,
                    actual=rec.action,
                    predicted=predicted,
                    actual_rank=a_rank,
                    predicted_rank=p_rank,
                )
            )
        per_voter_f[vid] = metrics_from_confusion(ConfusionMatrix(voter_counts)).weighted_f
        per_voter_records[vid] = len(recs)
        voter_bucket[vid] = max(
            POLL_BUCKETS, key=lambda b: (bucket_tally.get(b, 0), -POLL_BUCKETS.index(b))
        )

    breakdown = error_breakdown(dataset, predictions_map)
    return EvaluationReport(
        family=family.value,
        mode=mode,
        seed=seed,
        num_voters=len(by_voter),
        overall=ConfusionMatrix(overall),
        per_scenario={k: ConfusionMatrix(v) for k, v in per_scenario.items()},
        per_bucket={k: ConfusionMatrix(v) for k, v in per_bucket.items()},
        per_voter_f=per_voter_f,
        per_voter_records=per_voter_records,
        fitted_params=fitted,
        voter_bucket=voter_bucket,
        defaulted_voters=tuple(defaulted),
        rows=tuple(rows),
        error_breakdown=breakdown,
    )


def _run(
    family: Family,
    grid: ParameterGrid,
    dataset: Dataset,
    mode: str,
    *,
    jobs: int = 1,
    seed: int = 0,
) -> EvaluationReport:
    family = Family(family)
    if grid.family is not family:
        raise ValueError(f"grid is for {grid.family}, not {family}")
    if not dataset.records:
        raise ValueError("cannot evaluate an empty dataset")
    tasks = [(vid, recs, grid, mode, seed) for vid, recs in dataset.by_voter().items()]
    if jobs > 1 and len(tasks) > 1:
        with get_context("fork").Pool(processes=jobs) as pool:
            results = pool.map(_evaluate_voter, tasks)
    else:
        results = [_evaluate_voter(task) for task in tasks]
    return _aggregate(family, mode, seed, dataset, results)


def loo_evaluate(
    family: Family,
    grid: ParameterGrid,
    dataset: Dataset,
    *,
    jobs: int = 1,
    seed: int = 0,
) -> EvaluationReport:
    """Per voter, fit on every other round and predict the held-out one."""
    return _run(family, grid, dataset, "loo", jobs=jobs, seed=seed)


def upper_bound_evaluate(
    family: Family,
    grid: ParameterGrid,
    dataset: Dataset,
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
