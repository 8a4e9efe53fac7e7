"""Parameter fitting, leave-one-out evaluation, and report assembly.

Predictions are scored in preference-rank space (did the voter pick Q, Q',
or Q''), so confusion matrices are comparable across rounds with different
candidate labelings.  Rows are the actual action, columns the predicted
one.

Fitting is a grid argmax of training-set 0/1 accuracy; ties resolve to the
earliest grid point, which makes refits reproducible.  Every family reads
the dataset's one :class:`data.RecordTable`: columns of utilities, scores,
poll sizes and actions, and the preference ranks, scenario, poll-size
bucket and unjustified and inconsistent flags derived from them once, when
first read.  A family's :class:`models.ParameterGrid` is checked once, when
it is built, and every run of voters decides from its columns.  Voters are
decided in runs of at most ``_RUN_CELLS`` (grid point x record) cells: one
call of :func:`models.decide_matrix`, with one ``CV`` pivot cache, decides
each distinct (utilities, scores, n) row of a run once, and each voter reads
its columns of that matrix back through the inverse index.  That is exact
because every family decides a record from the record alone.  A report
keeps the table, one column of predicted candidates and one fitted point
per voter.  It counts one (scenario x poll-size bucket x actual rank x
predicted rank) cube when first read, whose sums are the per-scenario,
per-bucket and overall confusion matrices, and derives its summary, the
per-voter columns among it, in one place: :meth:`EvaluationReport.to_dict`.
Leave-one-out uses the match-matrix identity: with per-point match counts
over all rounds, each fold's training score is the total minus that fold's
column, so one decision matrix per voter serves every fold.  The ``NN``
baseline has no grid: each of a voter's folds trains its own network on
the other rounds, reading the same columns: a fold's profile is its voter's
summed ratio counts minus the held-out row's, the same identity.

A worker's task pickles only the table's arrays and voter ids.
:func:`evaluate_families` cuts the voters into one contiguous run per
worker, of about equal record count (one run, in process, for ``jobs=1``),
and makes one task per (family, run).  A task returns two int64 arrays:
its rows' predicted candidates and its voters' fitted points as indices
into the grid, which the parent maps to ``grid.points``.  One pool serves
every family: the tasks go in family order, and each family's report is
built from its tasks' concatenated returns as soon as they are back, while
the workers go on with the later families.  A task decides its voters one
run at a time and frees a run's decisions before it decides the next, which
bounds ``AU``'s memory by one run's cells, of which ``AU`` scores only the
rows where its vote can vary (:func:`models.decide_matrix`); it hands
every ``NN`` training set of its voters to one :func:`nn.fit_folds` call,
whose stacked per-fold weights equal separate training bit for bit.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import models
from .behavior import RANK_LABELS, SCENARIO_LABELS, ratio_counts
from .data import POLL_BUCKETS, Dataset, RecordTable
from .models import Family, ParameterGrid
from .seeding import derive_seed


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

    @property
    def m(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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


def _scores(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-class precision, recall and F, and the weighted F, of each (m, m) count.

    ``counts`` has shape (..., m, m); the per-class arrays come back with
    shape (..., m) and the weighted F with shape (...), NaN for an empty
    count.  A class with an empty column (never predicted) gets precision
    0, an empty row (never actual) recall 0; the harmonic mean is 0
    whenever either side is.  Weights are actual-class frequencies, so
    empty rows contribute nothing to the weighted F.
    """
    # Summation order follows the memory layout: C order makes every
    # matrix of a stack round as it would alone.
    counts = np.ascontiguousarray(counts)
    diag = np.diagonal(counts, axis1=-2, axis2=-1).astype(float)
    col = counts.sum(axis=-2).astype(float)
    row = counts.sum(axis=-1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(col > 0, diag / np.where(col > 0, col, 1), 0.0)
        recall = np.where(row > 0, diag / np.where(row > 0, row, 1), 0.0)
        denom = precision + recall
        f = np.where(denom > 0, 2 * precision * recall / np.where(denom > 0, denom, 1), 0.0)
        weighted = (row * f).sum(axis=-1) / counts.sum(axis=(-2, -1))
    return precision, recall, f, weighted


def metrics_from_confusion(matrix: ConfusionMatrix) -> Metrics:
    """Per-class precision/recall/F plus the frequency-weighted F of one matrix."""
    if matrix.total == 0:
        raise ValueError("cannot compute metrics for an empty confusion matrix")
    precision, recall, f, weighted = _scores(matrix.counts)
    return Metrics(
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f=tuple(f.tolist()),
        weighted_f=float(weighted),
    )


def weighted_f(counts: np.ndarray):
    """The weighted F of each (m, m) count of a (..., m, m) stack, ``""`` where it is empty.

    A float for one matrix, nested lists of them for a stack.
    """
    counts = np.asarray(counts)
    scores = np.asarray(_scores(counts)[3]).astype(object)
    scores[counts.sum(axis=(-2, -1)) == 0] = ""
    return scores.tolist()


# --- per-voter evaluation ----------------------------------------------------

# Cells (grid points x rows) one run of voters may hold: the run's distinct
# rows are decided in one decide_matrix call, which keeps AU's
# (points x rows) matrices a few MB whatever the voter count.
_RUN_CELLS = 1 << 18


def _grid_runs(voters: Sequence[slice], points: int) -> list[list[slice]]:
    """Consecutive voters cut into runs of at most ``_RUN_CELLS`` cells.

    A voter alone over the bound makes a run of its own.
    """
    runs: list[list[slice]] = []
    cells = _RUN_CELLS
    for rows in voters:
        size = points * (rows.stop - rows.start)
        if cells + size > _RUN_CELLS:
            runs.append([])
            cells = 0
        runs[-1].append(rows)
        cells += size
    return runs


def _decide_rows(
    grid: ParameterGrid, block: RecordTable, rows: slice
) -> tuple[np.ndarray, np.ndarray]:
    """Decisions of the distinct (U, S, n) rows among ``rows``, and each row's column.

    The distinct rows are decided in one call, which builds each distinct
    CV table once, shape (G, distinct); row ``rows.start + i`` is column
    ``inverse[i]``, since ``decide_matrix`` decides a row from that row
    alone.  The key compares utilities by their bits, so it is exact.
    """
    U, S, n = block.U[rows], block.S[rows], block.n[rows]
    key = np.column_stack([U.view(np.int64), S, n])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    D = models.decide_matrix(grid, U[first], S[first], n[first])
    return D, inverse.reshape(-1)


def _fit_grid(D: np.ndarray, action: np.ndarray, mode: str) -> tuple[np.ndarray, int]:
    """One voter's predictions and fitted grid point's index from its (G, R) decision matrix."""
    M = D == action[None, :]
    totals = M.sum(axis=1)
    fit_index = int(np.argmax(totals))
    if mode == "upper":
        picks = np.full(D.shape[1], fit_index)
    else:
        picks = np.argmax(totals[:, None] - M, axis=0)
    return D[picks, np.arange(D.shape[1])], fit_index


def _predict_nn(block: RecordTable, mode: str, seed: int) -> np.ndarray:
    """The predicted candidate of every row, every network trained by one fit_folds.

    A fold's profile comes from its training rows' ratio counts: its voter's
    sums, less the held-out row's under LOO, where a single-record voter's
    empty fold leaves its seeded initial network as the default point.
    """
    from . import nn as nn_mod  # only NN runs need the network code

    target = block.rank_of(block.action)
    base = nn_mod.record_features(block.S, block.n, block.order, block.scenario)
    voters, held_out = block.voter_rows(), mode == "loo"
    starts = [rows.start for rows in voters]
    available, selected = (
        np.repeat(np.add.reduceat(c, starts), np.diff([*starts, len(c)]), axis=0) - held_out * c
        for c in ratio_counts(block.scenario, target)
    )
    queries = nn_mod.features(base, available, selected)  # each row under its fold's profile
    rank = np.empty(len(target), dtype=np.int64)
    X, y, hypers, predicts = [], [], [], []  # per fold, and the rows its network predicts
    for rows in voters:
        vid = block.voter_ids[block.voter[rows.start]]
        every = np.arange(rows.start, rows.stop)
        if held_out:
            folds = [(every[every != j], [j], block.round[j].item()) for j in every]
        else:
            folds = [(every, every, "all")]
        for train, predicted, key in folds:
            hyper = nn_mod.Hyperparams(seed=derive_seed(seed, "nn", vid, key))
            if not len(train):
                net = nn_mod.init_network(nn_mod.FEATURE_DIM, seed=hyper.seed)
                rank[predicted] = nn_mod.predict(net, queries[predicted[0]])
                continue
            X.append(nn_mod.features(base[train], available[predicted[0]], selected[predicted[0]]))
            y.append(target[train])
            hypers.append(hyper)
            predicts.append(predicted)
    for predicted, net in zip(predicts, nn_mod.fit_folds(X, y, hypers) if X else []):
        rank[predicted] = [nn_mod.predict(net, queries[j]) for j in predicted]
    return block.order[np.arange(len(rank)), rank]


def _evaluate_voters(task: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A task's predicted candidate per row and fitted point's grid index per voter.

    Two int64 arrays, in order, and a pure function of the task.  Grid
    families cut the voters into runs of at most ``_RUN_CELLS`` (grid point
    x row) cells and decide each run's distinct rows at once; ``NN`` trains
    all of the task's networks together and fits no point: index 0 of its
    one-point grid ``({},)`` for every voter.
    """
    block, grid, mode, seed = task
    voters = block.voter_rows()
    if grid.family is Family.NN:
        return _predict_nn(block, mode, seed), np.zeros(len(voters), dtype=np.int64)
    predicted, fitted = np.empty(len(block.voter), dtype=np.int64), []
    for run in _grid_runs(voters, len(grid.points)):
        start = run[0].start
        # Each voter gathers its own columns: the run's full (G, rows)
        # matrix would add to the peak memory.
        D, inverse = _decide_rows(grid, block, slice(start, run[-1].stop))
        for rows in run:
            columns = D[:, inverse[rows.start - start : rows.stop - start]]
            predicted[rows], fit_index = _fit_grid(columns, block.action[rows], mode)
            fitted.append(fit_index)
        del D, columns  # one run's decisions at a time: freed before the next run's
    return predicted, np.array(fitted, dtype=np.int64)


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
class EvaluationReport:
    """One family's evaluation: the record table, its predictions and its fitted points.

    ``predicted[j]`` is the candidate predicted for the table's row j and
    ``fitted[i]`` the point fitted to voter ``table.voter_ids[i]`` (``{}``
    without parameters).  ``cube[s, b]``, counted when first read, is the
    confusion matrix, in preference-rank space, of the rows of scenario
    ``SCENARIO_LABELS[s]`` and bucket ``POLL_BUCKETS[b]``; the overall
    matrix is its sum.  Everything else a report states is derived by
    :meth:`to_dict`.  Under ``loo`` a voter of one record has no training
    round: it is defaulted.
    """

    family: str
    mode: str
    seed: int
    table: RecordTable
    predicted: np.ndarray
    fitted: Sequence[dict]

    def __post_init__(self) -> None:
        predicted, table = np.asarray(self.predicted, dtype=np.int64), self.table
        if predicted.shape != table.voter.shape or len(self.fitted) != len(table.voter_ids):
            raise ValueError("a report needs one prediction per row and one point per voter")
        predicted.setflags(write=False)
        object.__setattr__(self, "predicted", predicted)

    def _confusion(self, keys: tuple, sizes: tuple) -> np.ndarray:
        """Confusion counts per value of the ``keys`` columns, shape (*sizes, m, m)."""
        table = self.table
        counts = np.zeros((*sizes, table.m, table.m), dtype=np.int64)
        np.add.at(counts, (*keys, table.rank_of(table.action), table.rank_of(self.predicted)), 1)
        return counts

    @cached_property
    def cube(self) -> np.ndarray:
        keys = (self.table.scenario, self.table.bucket)
        cube = self._confusion(keys, (len(SCENARIO_LABELS), len(POLL_BUCKETS)))
        cube.setflags(write=False)
        return cube

    @property
    def overall(self) -> ConfusionMatrix:
        return ConfusionMatrix(self.cube.sum(axis=(0, 1)))

    @property
    def metrics(self) -> Metrics:
        return metrics_from_confusion(self.overall)

    def to_dict(self) -> dict:
        """The report's summary: every field of its report JSON but the per-row ``predictions``.

        Each per-voter entry runs in ``table.voter_ids`` order, which is
        sorted.  ``voter_bucket`` is the bucket holding most of a voter's
        records, ties to the earlier one.
        """

        def block(counts: np.ndarray) -> dict:
            out = {"confusion": counts.tolist()}
            if counts.any():
                out["metrics"] = metrics_from_confusion(ConfusionMatrix(counts)).to_dict()
            return out

        table, cube = self.table, self.cube
        voter_ids, m = table.voter_ids, table.m
        records = np.bincount(table.voter, minlength=len(voter_ids)).tolist()
        voter_f = weighted_f(self._confusion((table.voter,), (len(voter_ids),)))
        tally = np.zeros((len(voter_ids), len(POLL_BUCKETS)), dtype=np.int64)
        np.add.at(tally, (table.voter, table.bucket), 1)
        return {
            "family": self.family,
            "mode": self.mode,
            "seed": self.seed,
            "num_voters": len(voter_ids),
            "num_records": len(table.voter),
            "classes": list(RANK_LABELS[:m]) if m <= 3 else [f"pref_{i}" for i in range(m)],
            "overall": block(cube.sum(axis=(0, 1))),
            "scenarios": dict(zip(SCENARIO_LABELS, map(block, cube.sum(axis=1)))),
            "poll_buckets": dict(zip(POLL_BUCKETS, map(block, cube.sum(axis=0)))),
            "per_voter_f": dict(zip(voter_ids, voter_f)),
            "per_voter_records": dict(zip(voter_ids, records)),
            "fitted_params": dict(zip(voter_ids, self.fitted)),
            "voter_bucket": {vid: POLL_BUCKETS[b] for vid, b in zip(voter_ids, tally.argmax(1))},
            "defaulted_voters": [
                vid for vid, count in zip(voter_ids, records) if self.mode == "loo" and count == 1
            ],
            "error_breakdown": _error_counts(table, self.predicted),
        }


ERROR_CLASSES = ("correct", "unjustified", "inconsistent", "unexplained")


def error_breakdown(
    dataset: Dataset, predictions: Mapping[tuple[str, int], int]
) -> dict[str, dict[str, int]]:
    """Classify each prediction per scenario.

    Mispredictions are attributed to the actual action being unjustified
    (dominated), else to it being inconsistent with the voter's other
    records, else left unexplained.  Keys: scenarios plus "total".
    ``predictions`` maps (voter id, round) to the predicted action.
    """
    table = dataset.records
    predicted = []
    for voter, round_ in zip(table.voter.tolist(), table.round.tolist()):
        key = (table.voter_ids[voter], round_)
        if key not in predictions:
            raise ValueError(f"missing prediction for {key}")
        predicted.append(predictions[key])
    return _error_counts(table, np.array(predicted))


def _error_counts(table: RecordTable, predicted: np.ndarray) -> dict[str, dict[str, int]]:
    """:func:`error_breakdown` of the table's rows, ``predicted[j]`` for row j."""
    error_class = np.select(
        [predicted == table.action, table.unjustified, table.inconsistent],
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


def get_context(method: str):
    """``multiprocessing.get_context(method)``, imported only when a pool is made."""
    import multiprocessing

    return multiprocessing.get_context(method)


def evaluate_families(
    grids: Sequence[ParameterGrid],
    dataset: Dataset,
    mode: str,
    *,
    jobs: int = 1,
    seed: int = 0,
) -> Iterator[EvaluationReport]:
    """Evaluate each grid's family in ``mode``, yielding its report as soon as it is done.

    ``mode`` is ``"loo"`` (per voter, fit on every other round and predict
    the held-out one) or ``"upper"`` (fit and score on all of a voter's
    records: the in-sample ceiling).  Reports come in grid order.  One pool
    of ``min(jobs, voters)`` workers serves every family, so a caller can
    use a report while the workers run the later families.
    """
    if mode not in ("loo", "upper"):
        raise ValueError(f"mode must be 'loo' or 'upper', got {mode!r}")
    table = dataset.records
    # One task per worker and family: a contiguous run of voters, so every
    # NN network a worker needs for a family trains in one fit_folds call.
    voter_rows = table.voter_rows()
    workers = min(jobs, len(voter_rows))
    blocks = [table.select(rows) for rows in _voter_runs(voter_rows, workers)]
    tasks = [(block, grid, mode, seed) for grid in grids for block in blocks]
    # What a pooled family loads, load once here, not in every worker.
    pooled = {grid.family for grid in grids} if workers > 1 else set()
    if Family.CV in pooled:
        from . import pivot  # noqa: F401
    if Family.CV in pooled and table.m >= 4:
        import scipy.special  # noqa: F401  # binomial tails, from m = 4 on
    if Family.NN in pooled:
        from . import nn  # noqa: F401
    if Family.NN in pooled or (Family.CV in pooled and table.m >= 5):
        import hashlib  # noqa: F401  # OpenSSL: NN folds and m >= 5 tables derive seeds
    with get_context("fork").Pool(processes=workers) if workers > 1 else nullcontext() as pool:
        chunks = pool.imap(_evaluate_voters, tasks) if pool else map(_evaluate_voters, tasks)
        for grid in grids:
            predicted, fitted = map(np.concatenate, zip(*(next(chunks) for _ in blocks)))
            points = [grid.points[i] for i in fitted.tolist()]
            yield EvaluationReport(grid.family.value, mode, seed, table, predicted, points)


def loo_evaluate(
    family: Family,
    grid: ParameterGrid,
    dataset: Dataset,
    *,
    jobs: int = 1,
    seed: int = 0,
) -> EvaluationReport:
    """The one-family case of :func:`evaluate_families` in ``"loo"`` mode."""
    if grid.family is not Family(family):
        raise ValueError(f"grid is for {grid.family}, not {family}")
    (report,) = evaluate_families([grid], dataset, "loo", jobs=jobs, seed=seed)
    return report

