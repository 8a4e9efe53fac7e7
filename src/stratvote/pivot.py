"""Pivot probabilities under a multinomial poll belief, and the CV decisions.

The voter imagines ``eta`` independent ballots drawn with per-candidate
probability proportional to the poll scores.  ``P(x, y)`` is the probability
that one extra ballot for ``y`` either breaks x's sole lead into an {x, y}
tie or turns an existing {x, y} tie into a win for ``y``.  Only these
two-way events count; richer ties are deliberately ignored.

One exact kernel serves every m.  Each pivot event fixes the top two counts
(x = t, y = t - lead with lead 1 for a sole lead and 0 for a tie) and leaves
r = eta - 2t + lead ballots to the others, each of whom must stay at most
t - 1::

    P(x, y) = sum_{lead, t} Mult(eta; t, t - lead, r; p_x, p_y, q) * C(r, t - 1)

with q the others' total probability.  ``C(r, c)``, the chance that r
ballots over the others leave every count <= c, takes the others one at a
time in descending probability: for one other it is 1 on the summed range
(m <= 3; an m = 2 poll gets a phantom third candidate of probability zero),
for two it is a binomial interval (m = 4), and for more it is the first
other's binomial pmf times ``C`` of the rest, summed over that count
(m >= 5; the counts that leave the rest at most c between them are one
binomial interval, so only the lower counts are summed term by term).
Only those nested sums, and the t-sums that feed them, skip terms: a term
whose weight (its multinomial or binomial pmf) is below
``exp(-LOG_WINDOW)`` times the largest weight of its sum.  Every weight is
a probability and ``C <= 1``, so an m >= 5 entry is at most
``(m - 3) * (eta + 2) * exp(-LOG_WINDOW)`` below the exact sum.  The bound
is absolute: entries far below it, such as pairs that almost never lead,
can lose their relative precision.  m <= 4 skips nothing.

Every log is libm's, through ``math.log``, and log k! comes from one table,
shared by every table and grown to the largest k asked for (at least
doubling), that follows cephes ``lgam`` step for step; both are bit for bit
what scipy's ``xlogy`` and ``gammaln`` give.
So m <= 3 needs no scipy at all: only the binomial tails of m >= 4 import it.

A table depends on the poll's scores and ``eta`` only, never on its
reported size ``n``.  :func:`cv_votes` decides CV for a batch of records at
a list of etas in array operations, building each distinct (scores, eta)
table once, and :func:`decide_cv` is its one-record case.  Both are pure
functions of (utilities, poll, eta): a table comes from the kernel, which
refuses it once the nested sums take more than ``TERM_BUDGET`` terms (never
for m <= 4), and then from ``MC_SAMPLES`` draws seeded from the scores and
``eta``, so every voter who sees the same poll gets the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import Candidate, Poll, UtilityFunction
from .seeding import derive_seed

# Nested sums, and the t-sums feeding them, skip every term whose weight is
# below exp(-LOG_WINDOW) times the largest weight of its sum.
LOG_WINDOW = 40.0
# Most nested-sum terms a CV table lets the exact kernel take.
TERM_BUDGET = 2_000_000
# Draws behind a Monte-Carlo CV table.
MC_SAMPLES = 1_000_000
_MC_CHUNK = 1_000_000
# Most cells of the (pairs x t) grid, and about the most nested-sum terms,
# held at once.
_GRID_CELLS = 1 << 21
_BLOCK_TERMS = 1 << 18

# log k! for every k below its length, grown by _log_factorial to the
# largest k asked for, or to twice its length if that is more; it computes
# at most _LOG_FACTORIAL_CHUNK entries at a time.
_LOG_FACTORIAL_CHUNK = 1 << 16
_log_factorials = np.zeros(0)
# cephes lgam's constants: log(sqrt(2 pi)) and the Stirling correction's
# coefficients below x = 1000, highest power first.
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log(values: np.ndarray) -> np.ndarray:
    """libm's log of each of a few values, -inf at 0: ``np.log`` may differ
    in the last bit."""
    return np.array([math.log(v) if v > 0 else -math.inf for v in values.tolist()])


def _lgam_int(k: np.ndarray) -> np.ndarray:
    """log k! = log Gamma(k + 1) for integers 0 <= k < 2^53, by cephes lgam's steps.

    Bit for bit ``scipy.special.gammaln(k + 1.0)``: the log of the exact
    k! for k <= 11, else Stirling's series at x = k + 1 with a correction in
    1/x^2 (three terms from x = 1000 on).
    """
    x = k + 1.0
    q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), float, len(x)) - x + _LS2PI
    p = 1.0 / (x * x)
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    three_terms = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
    series = np.where(x >= 1000.0, three_terms + 0.0833333333333333333333, series)
    # lgam skips the correction past x = 1e8, where it is below half an ulp
    # of q, so adding it there changes no bit.
    q = q + series / x
    small = k <= 11
    q[small] = [math.log(math.factorial(j)) for j in k[small].tolist()]
    return q


def _log_factorial(k: np.ndarray | int) -> np.ndarray:
    """log k! for non-negative integers ``k``, from a table shared by every call."""
    global _log_factorials
    try:
        return _log_factorials[k]
    except IndexError:  # grow the table to hold the largest k
        have = len(_log_factorials)
        need = int(np.max(k)) + 1
        # At least doubling keeps the copying linear in the final length
        # over a run of ever larger etas; no entry's bits depend on it.
        table = np.empty(max(need, 2 * have))
        table[:have] = _log_factorials
        # A chunk at a time, so that the temporaries stay small.
        for start in range(have, len(table), _LOG_FACTORIAL_CHUNK):
            stop = min(start + _LOG_FACTORIAL_CHUNK, len(table))
            table[start:stop] = _lgam_int(np.arange(start, stop))
        _log_factorials = table
    return _log_factorials[k]


def _belief_probabilities(scores: tuple[int, ...]) -> np.ndarray:
    # Normalized by the score total (not the reported n) so the result is a
    # distribution even for polls whose reported size was rounded.  An
    # all-zero poll carries no information: fall back to uniform.
    total = sum(scores)
    if total == 0:
        return np.full(len(scores), 1.0 / len(scores))
    return np.asarray(scores, dtype=float) / float(total)


@dataclass(frozen=True)
class PivotTable:
    """Pairwise pivot probabilities; ``entries[x, y]`` is ``P(x, y)``."""

    entries: np.ndarray
    method: str  # "exact" | "monte_carlo"
    eta: int
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def composition_count(eta: int, m: int) -> int:
    """Number of ways ``eta`` ballots can split over ``m`` candidates."""
    return math.comb(eta + m - 1, m - 1)


def _check_eta(eta: int) -> int:
    if int(eta) != eta or eta < 1:
        raise ValueError(f"eta must be a positive integer, got {eta!r}")
    return int(eta)


@dataclass(frozen=True)
class _Pairs:
    """Every ordered pair (x, y) of a poll, with its others in descending probability.

    ``share[i, k]`` is the chance that a ballot for one of pair i's others
    from number k on goes to number k (1 where all of those have probability
    zero).  Nothing depends on candidate labels beyond ``x`` and ``y``, so
    relabeling a poll permutes the table bit for bit.
    """

    p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rest: np.ndarray  # the others' total probability
    share: np.ndarray

    @staticmethod
    def of(scores: tuple[int, ...]) -> "_Pairs":
        m = len(scores)
        p = np.append(_belief_probabilities(scores), np.zeros(max(0, 3 - m)))
        x, y = np.array([(x, y) for x in range(m) for y in range(m) if x != y]).T
        other = [[k for k in range(len(p)) if k != a and k != b] for a, b in zip(x, y)]
        others = -np.sort(-p[other], axis=1)
        tails = np.cumsum(others[:, ::-1], axis=1)[:, ::-1]
        share = np.divide(others, tails, out=np.ones_like(others), where=tails > 0)
        return _Pairs(p, x, y, others.sum(axis=1), share)

    def t_grids(self, eta: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (pair ids, log-weights, top, r) over chunks of pairs.

        Cell (i, j) is log Mult(eta; top, near, r; p_x, p_y, q) of pair i,
        with top = t, near = t - lead and r = eta - 2t + lead: the lead = 1
        columns (a sole lead) come first, then lead = 0 (a tie).  t runs
        over the range where the others can all stay at most t - 1.
        """
        m = self.share.shape[1] + 2
        t = [np.arange((eta + lead + 2 * m - 3) // m, (eta + lead) // 2 + 1) for lead in (1, 0)]
        top = np.concatenate(t)
        near = np.concatenate([t[0] - 1, t[1]])
        rest = eta - top - near
        # Only now that the grid fits in memory may the table grow to eta.
        log_choose = (
            _log_factorial(eta) - _log_factorial(top) - _log_factorial(near) - _log_factorial(rest)
        )
        log_p = _log(self.p)
        log_px, log_py, log_q = log_p[self.x, None], log_p[self.y, None], _log(self.rest)[:, None]
        step = max(1, _GRID_CELLS // max(len(top), 1))
        for start in range(0, len(self.x), step):
            ids = np.arange(start, min(start + step, len(self.x)))
            log_w = (
                log_choose
                + _xlogy(top, log_px[ids])
                + _xlogy(near, log_py[ids])
                + _xlogy(rest, log_q[ids])
            )
            yield ids, log_w, top, rest


def _xlogy(k: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """The (pairs x t) grid ``k * log_y``, 0 where k == 0, for k over t and
    log_y = log(y) a column over pairs: scipy's ``xlogy(k, y)`` bit for bit,
    since xlogy is ``k * log(y)`` with libm's log wherever k != 0."""
    out = np.zeros((len(log_y), len(k)))
    return np.multiply(k, log_y, out=out, where=k != 0)


def _binom_log_pmf(j: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    from scipy.special import xlog1py, xlogy

    log_choose = _log_factorial(n) - _log_factorial(j) - _log_factorial(n - j)
    return log_choose + xlogy(j, p) + xlog1py(n - j, -p)


def _binom_interval(lo: np.ndarray, hi: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``P(lo <= Bin(n, p) <= hi)`` row by row, 0 where ``lo > hi``.

    Needs ``0 <= lo`` and ``hi <= n``: ``bdtr`` is NaN for k outside
    [0, n].  An interval above the mean is a difference of upper tails, so
    a small result keeps its relative precision on either side.
    """
    from scipy.special import bdtr, bdtrc

    out = np.zeros(len(n))
    above = lo > n * p
    rows = np.flatnonzero((lo <= hi) & ~above)
    below = np.where(lo[rows] > 0, bdtr(np.maximum(lo[rows] - 1, 0), n[rows], p[rows]), 0.0)
    out[rows] = bdtr(hi[rows], n[rows], p[rows]) - below
    rows = np.flatnonzero((lo <= hi) & above)
    out[rows] = bdtrc(lo[rows] - 1, n[rows], p[rows]) - bdtrc(hi[rows], n[rows], p[rows])
    return np.maximum(out, 0.0)


def _window(
    r: np.ndarray, c: np.ndarray, p: np.ndarray, others: int
) -> tuple[np.ndarray, np.ndarray]:
    """(first, width): the first other's counts that C's nested sum adds one by one.

    The first other may take j in [max(0, r - (others - 1) c), min(c, r)].
    From j = r - c on the rest fits whatever its split, so that block is one
    binomial interval and only j < r - c is summed term by term.  Of those,
    only j within ``reach`` of the pmf's largest point j* on the whole range
    are kept: the binomial log-pmf has second differences below
    -4 / (r + 2), so every j farther away weighs less than
    ``exp(-LOG_WINDOW)`` times the pmf at j*.
    """
    lo = np.maximum(r - (others - 1) * c, 0)
    mode = np.clip(np.floor((r + 1) * p), lo, np.minimum(c, r))
    reach = np.floor(np.sqrt(LOG_WINDOW * (r + 2) / 2.0)) + 1.0
    first = np.maximum(lo, mode - reach).astype(np.int64)
    last = np.minimum(np.minimum(c, r - c - 1), mode + reach).astype(np.int64)
    return first, np.maximum(last - first + 1, 0)


def _expand(first: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, j) for every j in ``[first, first + width)`` of every row."""
    row = np.repeat(np.arange(len(first)), width)
    return row, first[row] + np.arange(len(row)) - np.repeat(np.cumsum(width) - width, width)


class _OverBudget(ValueError):
    """A table's nested sums would take more than ``TERM_BUDGET`` terms."""


@dataclass
class _TermBudget:
    """The nested-sum terms that the table ``table`` names may still take."""

    table: str
    left: int

    def take(self, terms: int) -> None:
        self.left -= terms
        if self.left < 0:
            raise _OverBudget(f"{self.table} takes more than TERM_BUDGET = {TERM_BUDGET} terms")


def _fits(
    r: np.ndarray, c: np.ndarray, ids: np.ndarray, share: np.ndarray, budget: _TermBudget
) -> np.ndarray:
    """``C(r, c)`` row by row: the chance that r ballots over pair ids'
    others, with shares ``share[ids]`` (two or more columns), leave every
    count at most c.  A nested sum takes its terms from ``budget`` first."""
    p = share[ids, 0]
    lo, hi = np.maximum(r - c, 0), np.minimum(c, r)
    if share.shape[1] == 2:
        return _binom_interval(lo, hi, r, p)
    first, width = _window(r, c, p, share.shape[1])
    budget.take(int(width.sum()))
    fits = _binom_interval(lo, hi, r, p)
    ends = np.cumsum(width)
    start = 0
    # About _BLOCK_TERMS terms at a time, a row's terms all in one block.
    while start < len(r):
        block_end = ends[start] - width[start] + _BLOCK_TERMS
        stop = max(start + 1, int(np.searchsorted(ends, block_end, "right")))
        row, j = _expand(first[start:stop], width[start:stop])
        row += start
        weight = np.exp(_binom_log_pmf(j, r[row], p[row]))
        inner = _fits(r[row] - j, c[row], ids[row], share[:, 1:], budget)
        fits[start:stop] += np.bincount(row - start, weights=weight * inner, minlength=stop - start)
        start = stop
    return fits


def _pivot_sums(scores: tuple[int, ...], eta: int) -> np.ndarray:
    pairs = _Pairs.of(scores)
    budget = _TermBudget(f"the pivot table of {scores} at eta {eta}", TERM_BUDGET)
    out = np.zeros((len(scores), len(scores)))
    others = pairs.share.shape[1]
    for ids, log_w, top, rest in pairs.t_grids(eta):
        w = np.exp(log_w)
        if others >= 2:
            # C is computed where the weight is nonzero and, if nested, in the window.
            keep = w > 0
            if others >= 3:
                keep &= log_w >= log_w.max(axis=1, keepdims=True) - LOG_WINDOW
            i, j = np.nonzero(keep)
            w = np.where(keep, w, 0.0)
            w[i, j] *= _fits(rest[j], top[j] - 1, ids[i], pairs.share, budget)
        out[pairs.x[ids], pairs.y[ids]] = w.sum(axis=1)
    return out


def pivot_table_exact(poll: Poll, eta: int) -> PivotTable:
    """Exact pivot probabilities for every ordered pair, for any m and eta.

    For m >= 5 the nested sums skip terms below the window of
    ``LOG_WINDOW`` (see the module notes); m <= 4 is exact to rounding.
    Raises ``ValueError`` past ``TERM_BUDGET`` nested-sum terms (never for m <= 4).
    """
    return _exact_table(poll.scores, _check_eta(eta))


def _exact_table(scores: tuple[int, ...], eta: int) -> PivotTable:
    """:func:`pivot_table_exact` of the score row ``scores``, eta already checked."""
    return PivotTable(np.clip(_pivot_sums(scores, eta), 0.0, 1.0), "exact", eta)


def _pair_event_weights(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum ``weights`` over pivot events for every ordered pair at once.

    The two clauses reduce to row statistics: a sole leader x with y exactly
    one ballot behind (the extra ballot creates the {x, y} tie), or an exact
    two-way {x, y} tie (the extra ballot elects y outright).  Equivalence
    with a literal two-clause event mask is checked by
    ``tests/test_pivot.py::TestPairEventWeights``.
    """
    m = block.shape[1]
    top = block.max(axis=1)
    is_top = block == top[:, None]
    top_count = is_top.sum(axis=1)
    out = np.zeros((m, m))

    sole = top_count == 1
    if sole.any():
        lead = is_top[sole] * weights[sole, None]
        near = (block[sole] == (top[sole, None] - 1)).astype(float)
        out += lead.T @ near
    pair_tie = top_count == 2
    if pair_tie.any():
        tied = is_top[pair_tie]
        both = (tied * weights[pair_tie, None]).T @ tied.astype(float)
        np.fill_diagonal(both, 0.0)
        out += both
    return out


def _mc_draws(scores: tuple[int, ...], eta: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    p = _belief_probabilities(scores)
    rng = np.random.default_rng(seed)
    remaining = samples
    # Fixed chunk size keeps memory bounded and the draw sequence (hence the
    # estimate) independent of how callers size their requests.
    while remaining > 0:
        take = min(_MC_CHUNK, remaining)
        yield rng.multinomial(eta, p, size=take).astype(np.int64)
        remaining -= take


def pivot_table_mc(poll: Poll, eta: int, samples: int, seed: int) -> PivotTable:
    """Monte-Carlo pivot probabilities for every ordered pair.

    Deterministic for fixed ``(poll, eta, samples, seed)``; the same draws
    serve every pair.
    """
    return _mc_table(poll.scores, _check_eta(eta), samples, seed)


def _mc_table(scores: tuple[int, ...], eta: int, samples: int, seed: int) -> PivotTable:
    """:func:`pivot_table_mc` of the score row ``scores``, eta already checked."""
    hits = np.zeros((len(scores), len(scores)))
    for block in _mc_draws(scores, eta, samples, seed):
        hits += _pair_event_weights(block, np.ones(block.shape[0]))
    return PivotTable(hits / samples, "monte_carlo", eta, samples, seed)


def _cv_table(scores: tuple[int, ...], eta: int) -> PivotTable:
    """The table CV decides with, a function of the score row ``scores`` and ``eta``.

    Exact unless the kernel refuses the table for taking more than
    ``TERM_BUDGET`` nested-sum terms (never for m <= 4), else
    ``MC_SAMPLES`` draws seeded from the scores and ``eta``.
    """
    try:
        return _exact_table(scores, eta)
    except _OverBudget:
        pass  # sample outside the handler, once the refused kernel's arrays are freed
    return _mc_table(scores, eta, MC_SAMPLES, derive_seed(0, "cv-pivot", eta, *scores))


def cv_votes(
    U: np.ndarray, S: np.ndarray, n: np.ndarray, etas: Sequence, cache: dict | None = None
) -> np.ndarray:
    """CV decisions at every (eta, record), int64 shape (len(etas), R).

    Record j has utilities ``U[j]`` and int64 poll scores ``S[j]`` (both
    (R, m)) from a poll of reported size ``n[j]``, the eta ``"n"`` stands
    for.  A negative score raises ``ValueError`` before any table is built,
    naming the first bad row; each eta is checked once, before its tables,
    and ``"n"`` names the first ``n[j]`` below 1.  Each distinct ``(scores,
    eta)`` table is taken from ``cache`` or built once into it from the
    score row alone; ``cache`` may be shared by any calls.  A record votes
    for the largest gain ``sum_x P(x, c) * (u(c) - u(x))``, ties broken
    toward the higher poll score, then the higher utility, then the lower
    index; in particular a voter whose belief shows no reachable tie at all
    follows the poll leader.
    """
    cache = {} if cache is None else cache
    R, m = S.shape
    if (S < 0).any():
        bad = tuple(S[(S < 0).any(axis=1)][0].tolist())
        raise ValueError(f"poll scores must be non-negative integers, got {bad!r}")
    scores = list(map(tuple, S.tolist()))
    rows = np.arange(R)
    # Candidates in tie-break order, so that an argmax keeps the first best.
    order = np.lexsort((-U, -S), axis=-1)
    ranked = (rows[:, None], order)
    diff = U[:, None, :] - U[:, :, None]
    votes = np.empty((len(etas), R), dtype=np.int64)
    for i, eta in enumerate(etas):
        # Each eta is checked once; "n" fails at its first row below 1.
        row_etas = n.tolist() if eta == "n" else [_check_eta(eta)] * R
        if eta == "n" and (n < 1).any():
            _check_eta(n[n < 1][0].item())
        distinct: dict = {}
        index = [distinct.setdefault(key, len(distinct)) for key in zip(scores, row_etas)]
        cache.update((key, _cv_table(*key)) for key in distinct if key not in cache)
        T = np.array([cache[key].entries for key in distinct]).reshape(-1, m, m)
        # gains[j, c] = sum_x P(x, c) * (U[j, c] - U[j, x]), summed in x order.
        gains = (T[index] * diff).sum(axis=1)
        votes[i] = order[rows, gains[ranked].argmax(axis=1)]
    return votes


def decide_cv(
    u: UtilityFunction, s: Poll, eta: int, *, cache: dict | None = None
) -> Candidate:
    """Vote maximizing the pivot-weighted expected gain: the one-record case of :func:`cv_votes`.

    The pivot table is exact for m <= 4 at any eta, and for m >= 5 while
    the kernel's nested sums fit ``TERM_BUDGET``; otherwise it is a
    Monte-Carlo estimate seeded from ``(s.scores, eta)``.  ``cache`` is
    as in :func:`cv_votes`.
    """
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")
    U, S = np.array([u.values]), np.array([s.scores], dtype=np.int64)
    return int(cv_votes(U, S, np.array([s.n]), (eta,), cache)[0, 0])
