"""Pivot probabilities under a multinomial poll belief, and the CV decider.

The voter imagines ``eta`` independent ballots drawn with per-candidate
probability proportional to the poll scores.  ``P(x, y)`` is the probability
that one extra ballot for ``y`` either breaks x's sole lead into an {x, y}
tie or turns an existing {x, y} tie into a win for ``y``.  Only these
two-way events count; richer ties are deliberately ignored.

For m <= 3 the exact table is a closed form: each pivot event fixes the
top two counts, so ``P(x, y)`` is a one-dimensional sum of multinomial
probabilities, O(eta) at any eta.  For m >= 4 the exact table enumerates
every score composition (rejected above ``COMPOSITION_BUDGET``), and the
Monte-Carlo path estimates the same events from seeded multinomial draws.

A table depends on the poll's scores and ``eta`` only, never on its
reported size ``n``.  :func:`decide_cv` is a pure function of (utilities,
poll, eta): where enumeration is over budget it estimates the table from
``MC_SAMPLES`` draws seeded from the scores and ``eta``, so every voter who
sees the same poll gets the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Candidate, Poll, UtilityFunction
from .seeding import derive_seed

# Largest composition count the m >= 4 enumerator takes on.
COMPOSITION_BUDGET = 10_000_000
# Draws behind a Monte-Carlo table in decide_cv.
MC_SAMPLES = 1_000_000
_MC_CHUNK = 1_000_000


class BudgetExceededError(ValueError):
    """Exact enumeration would exceed the composition budget."""


def _belief_probabilities(poll: Poll) -> np.ndarray:
    # Normalized by the score total (not the reported n) so the result is a
    # distribution even for polls whose reported size was rounded.  An
    # all-zero poll carries no information: fall back to uniform.
    total = sum(poll.scores)
    if total == 0:
        return np.full(poll.m, 1.0 / poll.m)
    return np.asarray(poll.scores, dtype=float) / float(total)


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


def _composition_blocks(total: int, parts: int) -> Iterator[np.ndarray]:
    """Yield int64 arrays jointly covering every composition of ``total``.

    Blocks are grouped by the leading coordinates so memory stays
    O(total * parts) even when the full composition count is large.
    """
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    if parts == 2:
        first = np.arange(total + 1, dtype=np.int64)
        yield np.stack([first, total - first], axis=1)
        return
    for head in range(total + 1):
        for rest in _composition_blocks(total - head, parts - 1):
            block = np.empty((rest.shape[0], parts), dtype=np.int64)
            block[:, 0] = head
            block[:, 1:] = rest
            yield block


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


def _exact_pair_probs(poll: Poll, eta: int) -> np.ndarray:
    from scipy.special import gammaln, xlogy

    p = _belief_probabilities(poll)
    log_fact = gammaln(np.arange(eta + 1) + 1.0)
    log_total = log_fact[eta]
    acc = np.zeros((poll.m, poll.m))
    for block in _composition_blocks(eta, poll.m):
        log_pmf = log_total - log_fact[block].sum(axis=1) + xlogy(block, p).sum(axis=1)
        pmf = np.exp(log_pmf)
        if pmf.any():
            acc += _pair_event_weights(block, pmf)
    return acc


def _check_eta(eta: int) -> int:
    if int(eta) != eta or eta < 1:
        raise ValueError(f"eta must be a positive integer, got {eta!r}")
    return int(eta)


def _closed_form_pair_probs(poll: Poll, eta: int) -> np.ndarray:
    """Exact ``P(x, y)`` for m <= 3 as a sum over the leader's count ``t``.

    With z the third candidate, y's extra ballot is pivotal against x on a
    sole lead (x = t, y = t-1, z = eta-2t+1) or on a two-way tie
    (x = y = t, z = eta-2t), with 0 <= z <= t-1 in both.  An m = 2 poll gets
    a phantom third candidate of probability zero; ``xlogy`` gives its
    nonzero counts probability zero.  Each entry is computed from its own
    pair's probabilities in (x, y, z) order, never in candidate order, so
    relabeling the poll permutes the table bit for bit.
    """
    from scipy.special import gammaln, xlogy

    p = np.append(_belief_probabilities(poll), np.zeros(3 - poll.m))
    x, y = np.array([(x, y) for x in range(poll.m) for y in range(poll.m) if x != y]).T
    z = 3 - x - y
    # lead = 1 is the sole-lead family, lead = 0 the tie family.
    t = [np.arange((eta + lead + 3) // 3, (eta + lead) // 2 + 1) for lead in (1, 0)]
    top = np.concatenate(t)
    near = np.concatenate([t[0] - 1, t[1]])
    rest = eta - top - near
    log_pmf = (
        gammaln(eta + 1.0)
        - gammaln(top + 1.0)
        - gammaln(near + 1.0)
        - gammaln(rest + 1.0)
        + xlogy(top, p[x, None])
        + xlogy(near, p[y, None])
        + xlogy(rest, p[z, None])
    )
    out = np.zeros((poll.m, poll.m))
    out[x, y] = np.exp(log_pmf).sum(axis=1)
    return out


def pivot_table_exact(poll: Poll, eta: int) -> PivotTable:
    """Exact pivot probabilities for every ordered pair.

    For m <= 3 the closed form :func:`_closed_form_pair_probs` serves any
    eta.  For m >= 4 every composition is enumerated, and
    :class:`BudgetExceededError` is raised when the count ``C(eta+m-1, m-1)``
    exceeds ``COMPOSITION_BUDGET``.
    """
    eta = _check_eta(eta)
    if poll.m <= 3:
        probs = _closed_form_pair_probs(poll, eta)
    else:
        count = composition_count(eta, poll.m)
        if count > COMPOSITION_BUDGET:
            raise BudgetExceededError(
                f"{count} compositions exceed the budget of {COMPOSITION_BUDGET}; "
                "use Monte-Carlo"
            )
        probs = _exact_pair_probs(poll, eta)
    return PivotTable(entries=np.clip(probs, 0.0, 1.0), method="exact", eta=eta)


def _mc_draws(poll: Poll, eta: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    p = _belief_probabilities(poll)
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
    eta = _check_eta(eta)
    hits = np.zeros((poll.m, poll.m))
    for block in _mc_draws(poll, eta, samples, seed):
        hits += _pair_event_weights(block, np.ones(block.shape[0]))
    return PivotTable(
        entries=hits / samples, method="monte_carlo", eta=eta, samples=samples, seed=seed
    )


def cv_gain_scores(u: UtilityFunction, table: PivotTable) -> np.ndarray:
    """Expected-gain score per candidate: ``sum_x P(x, c) * (u(c) - u(x))``.

    Gains only involve utility differences, so they are invariant to
    shifting all utilities.
    """
    entries = table.entries
    if u.m != entries.shape[0]:
        raise ValueError(f"utility/table dimension mismatch: {u.m} vs {entries.shape[0]}")
    uvec = np.asarray(u.values)
    return (entries * (uvec[None, :] - uvec[:, None])).sum(axis=0)


def _cv_table(poll: Poll, eta: int) -> PivotTable:
    """The table :func:`decide_cv` uses, a function of ``(poll.scores, eta)``.

    Exact when it can be (always for m <= 3), else ``MC_SAMPLES`` draws
    seeded from the scores and ``eta``.
    """
    if poll.m <= 3 or composition_count(eta, poll.m) <= COMPOSITION_BUDGET:
        return pivot_table_exact(poll, eta)
    seed = derive_seed(0, "cv-pivot", eta, *poll.scores)
    return pivot_table_mc(poll, eta, MC_SAMPLES, seed)


def decide_cv(
    u: UtilityFunction, s: Poll, eta: int, *, cache: dict | None = None
) -> Candidate:
    """Vote maximizing the pivot-weighted expected gain.

    The pivot table is exact for m <= 3 at any eta, and for m >= 4 when the
    composition count fits ``COMPOSITION_BUDGET``; otherwise it is a
    Monte-Carlo estimate seeded from ``(s.scores, eta)``.  ``cache`` maps
    ``(scores, eta)`` to tables and may be shared by any calls.  Ties break
    toward the higher poll score, then higher utility, then the lower
    index; in particular a voter whose belief shows no reachable tie at all
    follows the poll leader.
    """
    eta = _check_eta(eta)
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")
    key = (s.scores, eta)
    table = cache.get(key) if cache is not None else None
    if table is None:
        table = _cv_table(s, eta)
        if cache is not None:
            cache[key] = table
    gains = cv_gain_scores(u, table)
    order = sorted(range(s.m), key=lambda c: (-s.scores[c], -u[c], c))
    best = order[0]
    for c in order[1:]:
        if gains[c] > gains[best]:
            best = c
    return int(best)
