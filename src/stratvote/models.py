"""Voting decision models: map (utilities, poll) to a single Plurality vote.

Families
--------
TRUTH   vote the most preferred candidate, ignoring the poll.
BR      best response treating the poll as the actual standings.
PRAG    k-pragmatist: most preferred among the k poll leaders.
CV      expected-gain maximization over pivot probabilities (see ``pivot``).
LD      local dominance within a score-uncertainty radius.
LDLB    local dominance with a leader bias when no tie is deemed possible.
TMG     fixed voter types: truthful / compromiser / leader-biased (m=3).
AU      multiplicative utility-attainability trade-off.
NN      learned baseline (see ``nn``); requires a trained network.

Every family has one decision path, :func:`decide_grid`, which decides a
whole parameter grid for one (utilities, poll) pair; :func:`decide` is its
one-point case.  LD and LDLB settle an ``r`` grid with one threshold
comparison and AU scores every (alpha, beta) point in one array pass; the
other families call their scalar decider once per point.

All deciders are deterministic functions of their inputs and parameters:
CV too, since its pivot tables (Monte-Carlo ones included) depend only on
the poll's scores and eta.  Tie-breaking conventions are documented per
function and are part of the model semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import pivot as pivot_mod
from .core import (
    Candidate,
    Poll,
    UtilityFunction,
    outcome_with_vote,
    poll_ranking,
    preference_order,
    winner_set_utility,
)

TMG_TYPES = ("TRT", "CMP", "LB")


class Family(str, Enum):
    TRUTH = "TRUTH"
    BR = "BR"
    PRAG = "PRAG"
    CV = "CV"
    LD = "LD"
    LDLB = "LDLB"
    TMG = "TMG"
    AU = "AU"
    NN = "NN"


# Smoothing constant added to both AU utility and attainability factors.
AU_EPSILON = 0.001

_FAMILY_PARAMS = {
    Family.TRUTH: (),
    Family.BR: (),
    Family.PRAG: ("k",),
    Family.CV: ("eta",),
    Family.LD: ("r",),
    Family.LDLB: ("r",),
    Family.TMG: ("voter_type",),
    Family.AU: ("alpha", "beta"),
    Family.NN: (),
}


@dataclass(frozen=True)
class ModelDescriptor:
    """A model family plus its parameter assignment.

    ``eta`` may be the string ``"n"``, resolved to the poll's participant
    count at decision time.
    """

    family: Family
    k: int | None = None
    r: float | None = None
    eta: int | str | None = None
    voter_type: str | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        allowed = _FAMILY_PARAMS[family]
        for name in ("k", "r", "eta", "voter_type", "alpha", "beta"):
            value = getattr(self, name)
            if name not in allowed:
                if value is not None:
                    raise ValueError(f"{family.value} does not take parameter {name!r}")
                continue
            if value is None:
                raise ValueError(f"{family.value} requires parameter {name!r}")
        if family is Family.PRAG and (int(self.k) != self.k or self.k < 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if family is Family.CV and self.eta != "n":
            if int(self.eta) != self.eta or self.eta < 1:
                raise ValueError(f"eta must be a positive integer or 'n', got {self.eta!r}")
        if family in (Family.LD, Family.LDLB) and not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r!r}")
        if family is Family.TMG and self.voter_type not in TMG_TYPES:
            raise ValueError(f"voter_type must be one of {TMG_TYPES}, got {self.voter_type!r}")
        if family is Family.AU:
            if not 0.0 <= self.alpha <= 2.0:
                raise ValueError(f"alpha must lie in [0, 2], got {self.alpha!r}")
            if not self.beta >= 0.0:
                raise ValueError(f"beta must be non-negative, got {self.beta!r}")

    def params(self) -> dict:
        return {name: getattr(self, name) for name in _FAMILY_PARAMS[self.family]}

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.family.value}({inner})" if inner else self.family.value

    def to_dict(self) -> dict:
        return {"family": self.family.value, **self.params()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelDescriptor":
        payload = dict(payload)
        family = Family(payload.pop("family"))
        return cls(family=family, **payload)


@dataclass
class DecisionContext:
    """Runtime inputs some families need beyond (u, s).

    ``network``/``profile`` carry the trained NN baseline and the voter's
    behavioral profile; ``pivot_cache`` shares CV pivot tables across calls
    (a table depends only on the poll's scores and eta, so any calls may
    share one cache).
    """

    network: object | None = None
    profile: object | None = None
    pivot_cache: dict | None = None


def _check_shapes(u: UtilityFunction, s: Poll) -> None:
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")


def decide_truth(u: UtilityFunction, s: Poll) -> Candidate:
    """Most preferred candidate; ties break toward the lowest index."""
    _check_shapes(u, s)
    return preference_order(u.values)[0]


def decide_best_response(u: UtilityFunction, s: Poll) -> Candidate:
    """Vote maximizing the winner-set utility of the poll plus that vote.

    Among maximizers, prefers the higher-utility candidate, then the lowest
    index.
    """
    _check_shapes(u, s)
    best = max(
        range(s.m),
        key=lambda c: (winner_set_utility(u, outcome_with_vote(s, c)), u[c], -c),
    )
    return best


def decide_pragmatist(u: UtilityFunction, s: Poll, k: int) -> Candidate:
    """Most preferred among the ``k`` top poll scorers.

    Score ties at the k-th place break toward the lower candidate index;
    preference ties toward the lower index.
    """
    _check_shapes(u, s)
    if not 1 <= k <= s.m:
        raise ValueError(f"k must lie in [1, m], got {k}")
    shortlist = poll_ranking(s.scores)[:k]
    return max(shortlist, key=lambda c: (u[c], -c))


def decide_tmg(u: UtilityFunction, s: Poll, voter_type: str) -> Candidate:
    """Fixed-type vote for three candidates.

    With Q, Q', Q'' the preference order (ties by index) and poll ranks
    strict after index tie-breaking:

    - ``TRT`` always votes Q.
    - ``CMP`` votes Q' when Q is ranked last in the poll, else Q.
    - ``LB``  votes Q' when Q' is ranked first, else behaves like CMP.
    """
    _check_shapes(u, s)
    if s.m != 3:
        raise ValueError("TMG types are defined for exactly three candidates")
    if voter_type not in TMG_TYPES:
        raise ValueError(f"voter_type must be one of {TMG_TYPES}, got {voter_type!r}")
    q, q_second, _ = preference_order(u.values)
    if voter_type == "TRT":
        return q
    ranking = poll_ranking(s.scores)
    if voter_type == "LB" and ranking[0] == q_second:
        return q_second
    return q_second if ranking[-1] == q else q


def _possible_winners(s: Poll, radii: Sequence[float]) -> np.ndarray:
    """``possible[i, c]``: ``s(c) >= max(s) - 2*r_i*n``, shape (len(radii), m)."""
    for r in radii:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {r}")
    threshold = max(s.scores) - 2.0 * np.asarray(radii, dtype=float) * s.n
    return np.asarray(s.scores)[None, :] >= threshold[:, None]


def undominated_set(u: UtilityFunction, s: Poll, r: float) -> frozenset:
    """Candidates not locally dominated at uncertainty radius ``r``.

    The possible-winner set is ``W = {c : s(c) >= max(s) - 2*r*n}``.  With
    two or more possible winners every W member except the least preferred
    is undominated (least-preferred ties break toward the higher index, so
    exactly one is removed); with a single possible winner no vote can
    matter and every candidate is undominated.  The LD grid decider votes
    the most preferred member of this set.
    """
    _check_shapes(u, s)
    possible = [int(c) for c in np.flatnonzero(_possible_winners(s, (r,))[0])]
    if len(possible) == 1:
        return frozenset(range(s.m))
    dropped = min(possible, key=lambda c: (u[c], -c))
    return frozenset(c for c in possible if c != dropped)


def _local_dominance_grid(
    family: Family, u: UtilityFunction, s: Poll, radii: Sequence[float]
) -> np.ndarray:
    """LD or LDLB decisions, one per radius.

    Both vote the most preferred possible winner, except that LD votes
    truthfully when only one candidate can win (with two or more it drops
    just the least preferred of them).  Preference ties break toward the
    lower index.
    """
    _check_shapes(u, s)
    order = np.asarray(preference_order(u.values))
    possible = _possible_winners(s, radii)[:, order]
    vote = order[np.argmax(possible, axis=1)]
    if family is Family.LD:
        vote = np.where(possible.sum(axis=1) >= 2, vote, order[0])
    return vote


def decide_ld(u: UtilityFunction, s: Poll, r: float) -> Candidate:
    """Most preferred undominated candidate; ties toward the lowest index."""
    return int(decide_grid(Family.LD, ({"r": r},), u, s)[0])


def decide_ld_lb(u: UtilityFunction, s: Poll, r: float) -> Candidate:
    """Local dominance with leader bias.

    Identical to :func:`decide_ld` whenever at least two candidates could
    win; when the possible-winner set is a singleton, votes its single
    member (the presumed winner) instead of the truthful choice.
    """
    return int(decide_grid(Family.LDLB, ({"r": r},), u, s)[0])


def _shares(s: Poll) -> np.ndarray:
    # A zero-participant poll carries no standing information; fall back to
    # the neutral share 1/m so the logistic sits at its midpoint.
    if s.n == 0:
        return np.full(s.m, 1.0 / s.m)
    return np.asarray(s.scores, dtype=float) / float(s.n)


def _attainability_vector(s: Poll, beta: float | np.ndarray) -> np.ndarray:
    margin = _shares(s) - 1.0 / s.m
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-beta * margin))


def attainability(c: Candidate, s: Poll, beta: float) -> float:
    """Logistic score of ``c`` reaching the top, from its poll share.

    ``1 / (1 + exp(-beta * (s(c)/n - 1/m)))``: 0.5 at share ``1/m`` or when
    ``beta`` is zero, increasing in the share for positive ``beta``.
    """
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    s._check_candidate(c)
    return float(_attainability_vector(s, beta)[c])


def _au_scores(
    u: UtilityFunction, s: Poll, alphas: Sequence[float], betas: Sequence[float]
) -> np.ndarray:
    """Scores ``(eps+u)^alpha * (eps+a)^(2-alpha)`` per point, shape (P, m)."""
    _check_shapes(u, s)
    al = np.asarray(alphas, dtype=float)[:, None]
    be = np.asarray(betas, dtype=float)[:, None]
    bad = ~((al >= 0.0) & (al <= 2.0))
    if bad.any():
        raise ValueError(f"alpha must lie in [0, 2], got {al[bad][0]}")
    bad = ~(be >= 0.0)
    if bad.any():
        raise ValueError(f"beta must be non-negative, got {be[bad][0]}")
    eu = AU_EPSILON + np.asarray(u.values)
    ea = AU_EPSILON + _attainability_vector(s, be)
    return np.power(eu[None, :], al) * np.power(ea, 2.0 - al)


def au_score(
    u: UtilityFunction, s: Poll, c: Candidate, alpha: float, beta: float
) -> float:
    """Attainability-utility score ``(eps+u)^alpha * (eps+a)^(2-alpha)``."""
    s._check_candidate(c)
    return float(_au_scores(u, s, (alpha,), (beta,))[0, c])


def au_decisions_grid(
    u: UtilityFunction,
    s: Poll,
    alphas: Sequence[float],
    betas: Sequence[float],
) -> np.ndarray:
    """AU decisions for the points ``(alphas[i], betas[i])``, shape (P,).

    Maximizes the attainability-utility score.  ``alpha=2`` reduces to the
    truthful vote and ``alpha=0`` to voting the poll leader (up to the
    shared epsilon smoothing).  Ties break toward the higher-utility
    candidate, then the lower index.
    """
    order = np.asarray(preference_order(u.values))
    scores = _au_scores(u, s, alphas, betas)[:, order]
    return order[np.argmax(scores, axis=1)]


def decide_au(u: UtilityFunction, s: Poll, alpha: float, beta: float) -> Candidate:
    """One-point case of :func:`au_decisions_grid`."""
    return int(au_decisions_grid(u, s, (alpha,), (beta,))[0])


def _decide_nn(u: UtilityFunction, s: Poll, ctx: DecisionContext) -> Candidate:
    if ctx.network is None:
        raise ValueError("NN descriptors require a trained network in the context")
    from . import nn as nn_mod

    features = nn_mod.features_from_parts(u, s, ctx.profile)
    rank = nn_mod.predict(ctx.network, features)
    return preference_order(u.values)[rank]


def decide_grid(
    family: Family,
    points: Sequence[dict],
    u: UtilityFunction,
    s: Poll,
    context: DecisionContext | None = None,
) -> np.ndarray:
    """Decisions of ``family`` at every parameter point, int64 shape (P,).

    ``points`` are parameter dicts as in :meth:`ModelDescriptor.params`.  CV
    resolves ``eta="n"`` against the poll and decides through
    :func:`pivot.decide_cv`, a pure function of (u, s, eta) whose tables are
    shared through ``context.pivot_cache``.  NN requires ``context.network``
    (and uses ``context.profile`` if set).
    """
    ctx = context if context is not None else DecisionContext()
    family = Family(family)
    if family in (Family.LD, Family.LDLB):
        return _local_dominance_grid(family, u, s, [p["r"] for p in points])
    if family is Family.AU:
        alphas = [p["alpha"] for p in points]
        return au_decisions_grid(u, s, alphas, [p["beta"] for p in points])
    if family is Family.CV:
        votes = [
            pivot_mod.decide_cv(
                u, s, s.n if p["eta"] == "n" else p["eta"], cache=ctx.pivot_cache
            )
            for p in points
        ]
    elif family is Family.TRUTH:
        votes = [decide_truth(u, s) for _ in points]
    elif family is Family.BR:
        votes = [decide_best_response(u, s) for _ in points]
    elif family is Family.PRAG:
        votes = [decide_pragmatist(u, s, p["k"]) for p in points]
    elif family is Family.TMG:
        votes = [decide_tmg(u, s, p["voter_type"]) for p in points]
    else:  # Family.NN
        votes = [_decide_nn(u, s, ctx) for _ in points]
    return np.array(votes, dtype=np.int64)


def decide(
    descriptor: ModelDescriptor,
    u: UtilityFunction,
    s: Poll,
    context: DecisionContext | None = None,
) -> Candidate:
    """The descriptor's decision: the one-point case of :func:`decide_grid`."""
    return int(decide_grid(descriptor.family, (descriptor.params(),), u, s, context)[0])
