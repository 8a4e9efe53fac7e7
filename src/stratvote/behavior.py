"""Classify observed votes: scenarios, action quality, and voter profiles.

For three candidates, write Q, Q', Q'' for the voter's preference order
(most preferred first).  The strict poll order of those three defines six
scenarios:

====  ================
A     Q > Q' > Q''
B     Q > Q'' > Q'
C     Q' > Q > Q''
D     Q'' > Q > Q'
E     Q' > Q'' > Q
F     Q'' > Q' > Q
====  ================

Polls with ties among the three are left unclassified and excluded from
scenario statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import Candidate, Poll, UtilityFunction, preference_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .data import VoteRecord

SCENARIOS = ("A", "B", "C", "D", "E", "F")
UNCLASSIFIED = "UNCLASSIFIED"
SCENARIO_LABELS = (*SCENARIOS, UNCLASSIFIED)

SCENARIO_ORDER_TEXT = {
    "A": "Q > Q' > Q''",
    "B": "Q > Q'' > Q'",
    "C": "Q' > Q > Q''",
    "D": "Q'' > Q > Q'",
    "E": "Q' > Q'' > Q",
    "F": "Q'' > Q' > Q",
}

# Poll order of (Q, Q', Q''), best first, as preference ranks.
_ORDER_TO_SCENARIO = {
    (0, 1, 2): "A",
    (0, 2, 1): "B",
    (1, 0, 2): "C",
    (2, 0, 1): "D",
    (1, 2, 0): "E",
    (2, 1, 0): "F",
}

# The actions whose frequencies profile a voter, and the voter types they define.
RATIO_ACTIONS = ("TRT", "CMP", "LB")
VOTER_TYPES = ("TRT", "LB", "OTHER")
# A profile's voter type: TRT above this truthful ratio, else LB above
# this leader ratio, else OTHER.
TRT_THRESHOLD = 0.9
LB_THRESHOLD = 0.5


def strict_preferences(u: UtilityFunction) -> tuple[int, ...]:
    """The preference order of ``u``; raises ``ValueError`` if utilities tie."""
    if len(set(u.values)) != u.m:
        raise ValueError(f"utilities must be strictly ordered, got {u.values}")
    return preference_order(u.values)


def classify_scenario(u: UtilityFunction, s: Poll) -> str:
    """Scenario label A-F for a three-candidate record.

    Requires strictly ordered utilities and pairwise distinct scores for the
    three candidates; raises ``ValueError`` otherwise (tied polls are handled
    by :func:`scenario_or_none`).
    """
    if u.m != 3 or s.m != 3:
        raise ValueError("scenarios are defined for exactly three candidates")
    prefs = strict_preferences(u)
    if len(set(s.scores)) != 3:
        raise ValueError(f"tied poll {s.scores} has no scenario")
    rank_of = {c: rank for rank, c in enumerate(prefs)}
    by_score = sorted(range(3), key=lambda c: -s.scores[c])
    return _ORDER_TO_SCENARIO[tuple(rank_of[c] for c in by_score)]


def scenario_or_none(u: UtilityFunction, s: Poll) -> str | None:
    """Like :func:`classify_scenario` but ``None`` for tied or unrankable inputs."""
    try:
        return classify_scenario(u, s)
    except ValueError:
        return None


def scenario_index(u: UtilityFunction, s: Poll) -> int:
    """Position of the record's scenario in ``SCENARIO_LABELS``, ``UNCLASSIFIED`` if none."""
    return SCENARIO_LABELS.index(scenario_or_none(u, s) or UNCLASSIFIED)


def is_unjustified(u: UtilityFunction, s: Poll, action: Candidate) -> bool:
    """True when some candidate is both strictly preferred and weakly ahead.

    Such a vote cannot be optimal under any belief that is monotone in poll
    scores: switching to the dominating candidate never hurts.
    """
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")
    s._check_candidate(action)
    return any(
        u[c] > u[action] and s.scores[c] >= s.scores[action]
        for c in range(s.m)
    )


# Bools per block of the (rows x rows x candidates) comparison in
# inconsistent_rows, which bounds its temporaries whatever the voter's size.
_INCONSISTENT_BLOCK = 1 << 20


def inconsistent_rows(S: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Which of one voter's records another of their records contradicts, shape (R,).

    ``S`` holds the records' poll scores, shape (R, m), and ``action`` their
    actions.  Record i (scores s, action a) is inconsistent when some record
    j chose a different action even though its poll was weakly better for a
    (``s*(a) >= s(a)``) and weakly worse everywhere else.  Utilities are
    ignored: the check is purely score-based, so it only makes sense within
    one voter's records (callers group accordingly).
    """
    S, action = np.asarray(S), np.asarray(action)
    flagged = np.zeros(len(action), dtype=bool)
    step = max(1, _INCONSISTENT_BLOCK // max(1, S.size))
    for start in range(0, len(action), step):
        own = slice(start, start + step)
        # at_least[i, j, c]: record j's score for c is >= record i's.
        at_least = S[None, :, :] >= S[own, None, :]
        at_most = S[None, :, :] <= S[own, None, :]
        is_action = np.arange(S.shape[1]) == action[own, None]
        weakly_better = np.where(is_action[:, None, :], at_least, at_most).all(axis=2)
        flagged[own] = (weakly_better & (action[None, :] != action[own, None])).any(axis=1)
    return flagged


# _AVAILABLE[s, k]: action RATIO_ACTIONS[k], a vote for preference rank
# _ACTION_RANK[k], can be taken in scenario SCENARIO_LABELS[s]: TRT (vote Q)
# always, CMP (vote Q' while Q is ranked last) in E, F, LB (Q' leads) in C, E.
_AVAILABLE = np.array([[True, s in ("E", "F"), s in ("C", "E")] for s in SCENARIO_LABELS])
_ACTION_RANK = np.array([0, 1, 1])


def ratio_counts(scenario: np.ndarray, action_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each of ``RATIO_ACTIONS`` was available, and taken, per record.

    ``scenario`` indexes ``SCENARIO_LABELS`` and ``action_rank`` is the
    preference rank of the action, one entry per record; returns two (R, 3)
    int64 arrays, whose sums over a voter's records are the voter's counts.
    """
    available = _AVAILABLE[scenario]
    selected = available & (np.asarray(action_rank)[:, None] == _ACTION_RANK)
    return available.astype(np.int64), selected.astype(np.int64)


def ratio_stats(available, selected) -> tuple[np.ndarray, np.ndarray]:
    """Action ratios and voter types from summed counts of shape (..., 3).

    A ratio is 0 for an action that was never available.  The type indexes
    ``VOTER_TYPES``: ``TRT`` when the truthful ratio exceeds ``TRT_THRESHOLD``;
    otherwise ``LB`` when the leader ratio exceeds ``LB_THRESHOLD``; otherwise
    ``OTHER`` (which also covers voters whose leader ratio is undefined).
    """
    available = np.asarray(available)
    ratios = np.divide(selected, available, out=np.zeros(available.shape), where=available > 0)
    trt, lb = ratios[..., 0] > TRT_THRESHOLD, ratios[..., 2] > LB_THRESHOLD
    return ratios, np.where(trt, 0, np.where(lb, 1, 2))


@dataclass(frozen=True)
class VoterProfile:
    """One voter's summed :func:`ratio_counts` and inconsistent record indices."""

    voter_id: str
    available: tuple[int, ...]
    selected: tuple[int, ...]
    inconsistent_records: frozenset = frozenset()


def build_profile(voter_id: str, records: "Sequence[VoteRecord]") -> VoterProfile:
    """Profile a voter from all of their records; tied utilities raise ``ValueError``."""
    ranks = [strict_preferences(rec.utilities).index(rec.action) for rec in records]
    scenarios = [scenario_index(rec.utilities, rec.poll) for rec in records]
    available, selected = ratio_counts(np.array(scenarios, dtype=int), np.array(ranks, dtype=int))
    flagged = inconsistent_rows(
        np.array([rec.poll.scores for rec in records], dtype=np.int64),
        np.array([rec.action for rec in records], dtype=np.int64),
    )
    return VoterProfile(
        voter_id=voter_id,
        available=tuple(available.sum(axis=0).tolist()),
        selected=tuple(selected.sum(axis=0).tolist()),
        inconsistent_records=frozenset(np.flatnonzero(flagged).tolist()),
    )
