"""Scalar deciders and the Plurality rule: the tests' oracle for ``decide_matrix``.

Each decider maps one (utilities, poll) to one vote by the family's
definition, candidate by candidate.  ``stratvote.models.decide_matrix``
decides whole grids over batches of records in array operations, and the
tests check it against these, decision for decision.  CV's oracle builds
its tables as the package does (``pivot._cv_table``) and computes the gains
and the tie-break one record at a time.

The Plurality rule with ties returns the full set of co-winners, and a
voter facing a tied winner set values it at the mean utility of its
members.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from record_oracle import preference_order
from stratvote.core import Candidate, Poll, UtilityFunction
from stratvote.models import TMG_TYPES, au_score, undominated_set
from stratvote.pivot import PivotTable, _check_eta, _cv_table

# --- the Plurality rule --------------------------------------------------------


def with_vote(poll: Poll, c: Candidate) -> Poll:
    """The poll after one additional vote for ``c``."""
    poll._check_candidate(c)
    scores = list(poll.scores)
    scores[c] += 1
    return Poll(tuple(scores), poll.n + 1)


def plurality_winners(poll: Poll) -> frozenset:
    """All candidates attaining the maximum score (co-winners on ties)."""
    top = max(poll.scores)
    return frozenset(c for c, s in enumerate(poll.scores) if s == top)


def outcome_with_vote(poll: Poll, c: Candidate) -> frozenset:
    """Winner set after casting one additional vote for ``c``."""
    return plurality_winners(with_vote(poll, c))


def winner_set_utility(u: UtilityFunction, winners: frozenset) -> float:
    """Mean utility over a (non-empty) winner set: ties resolve uniformly."""
    if not winners:
        raise ValueError("winner set must be non-empty")
    for c in winners:
        if not 0 <= c < u.m:
            raise ValueError(f"winner {c} out of range for m={u.m}")
    return sum(u[c] for c in winners) / len(winners)


def poll_ranking(scores: Sequence[int]) -> tuple[int, ...]:
    """Candidates sorted by descending score; equal scores break by lower index."""
    return tuple(sorted(range(len(scores)), key=lambda c: (-scores[c], c)))


# --- the deciders ----------------------------------------------------------------


def _check_shapes(u: UtilityFunction, s: Poll) -> None:
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")


def possible_winners(s: Poll, r: float) -> list[int]:
    """Candidates within ``2*r*n`` of the poll leader, in index order."""
    top = max(s.scores)
    return [c for c in range(s.m) if s.scores[c] >= top - 2.0 * r * s.n]


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
    return max(
        range(s.m),
        key=lambda c: (winner_set_utility(u, outcome_with_vote(s, c)), u[c], -c),
    )


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


def decide_ld(u: UtilityFunction, s: Poll, r: float) -> Candidate:
    """Most preferred undominated candidate; ties toward the lowest index."""
    return max(undominated_set(u, s, r), key=lambda c: (u[c], -c))


def decide_ld_lb(u: UtilityFunction, s: Poll, r: float) -> Candidate:
    """Local dominance with leader bias.

    Identical to :func:`decide_ld` whenever at least two candidates could
    win; when the possible-winner set is a singleton, votes its single
    member (the presumed winner) instead of the truthful choice.
    """
    possible = possible_winners(s, r)
    return possible[0] if len(possible) == 1 else decide_ld(u, s, r)


def decide_au(u: UtilityFunction, s: Poll, alpha: float, beta: float) -> Candidate:
    """Vote maximizing ``au_score``.

    ``alpha=2`` reduces to the truthful vote and ``alpha=0`` to voting the
    poll leader (up to the shared epsilon smoothing).  Ties break toward the
    higher-utility candidate, then the lower index.
    """
    return max(range(s.m), key=lambda c: (au_score(u, s, c, alpha, beta), u[c], -c))


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


def decide_cv(
    u: UtilityFunction, s: Poll, eta: int, *, cache: dict | None = None
) -> Candidate:
    """Vote maximizing the pivot-weighted expected gain.

    ``cache`` maps ``(scores, eta)`` to tables and may be shared by any
    calls.  Ties break toward the higher poll score, then higher utility,
    then the lower index; in particular a voter whose belief shows no
    reachable tie at all follows the poll leader.
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
