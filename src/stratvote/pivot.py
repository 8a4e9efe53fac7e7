"""Pivot probabilities under a multinomial poll belief, and the CV decider.

The voter imagines ``eta`` independent ballots drawn with per-candidate
probability proportional to the poll scores.  ``P(x, y)`` is the probability
that one extra ballot for ``y`` either breaks x's sole lead into an {x, y}
tie or turns an existing {x, y} tie into a win for ``y``.  Only these
two-way events count; richer ties are deliberately ignored.

For m <= 3 the exact table is a closed form: each pivot event fixes the
top two counts, so ``P(x, y)`` is a one-dimensional sum of multinomial
probabilities, O(eta) at any eta.  For m >= 4 the exact table enumerates
every score composition (rejected above a budget), and the Monte-Carlo
path estimates the same events from seeded multinomial draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import gammaln, xlogy

from .core import Candidate, Poll, UtilityFunction
from .seeding import derive_seed

DEFAULT_COMPOSITION_BUDGET = 10_000_000
_MC_CHUNK = 1_000_000


class BudgetExceededError(ValueError):
    """Exact enumeration would exceed the composition budget."""


@dataclass(frozen=True)
class BeliefModel:
    """Multinomial ballot belief: ``eta`` draws with the poll's vote shares."""

    eta: int
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if int(self.eta) != self.eta or self.eta < 1:
            raise ValueError(f"eta must be a positive integer, got {self.eta!r}")
        object.__setattr__(self, "eta", int(self.eta))
        probs = tuple(float(p) for p in self.probabilities)
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_poll(cls, poll: Poll, eta: int) -> "BeliefModel":
        return cls(eta=eta, probabilities=tuple(_belief_probabilities(poll)))


def _belief_probabilities(poll: Poll) -> np.ndarray:
    # Normalized by the score total (not the reported n) so the result is a
    # distribution even for polls whose reported size was rounded.  An
    # all-zero poll carries no information: fall back to uniform.
    total = sum(poll.scores)
    if total == 0:
        return np.full(poll.m, 1.0 / poll.m)
    return np.asarray(poll.scores, dtype=float) / float(total)


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo fallback configuration for :func:`decide_cv`."""

    samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be positive")


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


def pivot_table_exact(
    poll: Poll, eta: int, *, budget: int = DEFAULT_COMPOSITION_BUDGET
) -> PivotTable:
    """Exact pivot probabilities for every ordered pair.

    For m <= 3 the closed form :func:`_closed_form_pair_probs` serves any
    eta and ``budget`` is not consulted.  For m >= 4 every composition is
    enumerated, and :class:`BudgetExceededError` is raised when the count
    ``C(eta+m-1, m-1)`` exceeds ``budget``; callers fall back to Monte-Carlo.
    """
    eta = _check_eta(eta)
    if poll.m <= 3:
        probs = _closed_form_pair_probs(poll, eta)
    else:
        count = composition_count(eta, poll.m)
        if count > budget:
            raise BudgetExceededError(
                f"{count} compositions exceed the budget of {budget}; use Monte-Carlo"
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


def cv_gain_scores(
    u: UtilityFunction,
    s: Poll,
    belief: BeliefModel | None = None,
    *,
    table: PivotTable | None = None,
    budget: int = DEFAULT_COMPOSITION_BUDGET,
) -> np.ndarray:
    """Expected-gain score per candidate: ``sum_x P(x, c) * (u(c) - u(x))``.

    Accepts a precomputed table; otherwise computes the exact table for the
    belief (for m >= 4 propagating the budget rejection).  Gains only
    involve utility differences, so they are invariant to shifting all
    utilities.
    """
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")
    if table is None:
        if belief is None:
            raise ValueError("need either a belief or a precomputed table")
        table = pivot_table_exact(s, belief.eta, budget=budget)
    entries = table.entries
    uvec = np.asarray(u.values)
    return (entries * (uvec[None, :] - uvec[:, None])).sum(axis=0)


def decide_cv(
    u: UtilityFunction,
    s: Poll,
    eta: int,
    mc: McConfig | None = None,
    *,
    budget: int = DEFAULT_COMPOSITION_BUDGET,
    cache: dict | None = None,
) -> Candidate:
    """Vote maximizing the pivot-weighted expected gain.

    Uses the exact table for m <= 3 at any eta, and for m >= 4 when the
    composition count fits the budget; otherwise Monte-Carlo with a seed
    derived from ``mc.seed`` and the instance, so repeated calls are
    reproducible.  Ties break toward the higher poll score, then higher
    utility, then the lower index; in particular a voter whose belief shows
    no reachable tie at all follows the poll leader.
    """
    eta = _check_eta(eta)
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")
    mc = mc if mc is not None else McConfig()
    exact = s.m <= 3 or composition_count(eta, s.m) <= budget
    if exact:
        key = ("exact", s.scores, s.n, eta)
    else:
        seed = derive_seed(mc.seed, "cv-pivot", eta, s.n, *s.scores)
        key = ("mc", s.scores, s.n, eta, mc.samples, seed)
    table = cache.get(key) if cache is not None else None
    if table is None:
        if exact:
            table = pivot_table_exact(s, eta, budget=budget)
        else:
            table = pivot_table_mc(s, eta, mc.samples, seed)
        if cache is not None:
            cache[key] = table
    gains = cv_gain_scores(u, s, table=table)
    order = sorted(range(s.m), key=lambda c: (-s.scores[c], -u[c], c))
    best = order[0]
    for c in order[1:]:
        if gains[c] > gains[best]:
            best = c
    return int(best)
