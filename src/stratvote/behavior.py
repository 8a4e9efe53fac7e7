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

``SCENARIO_POSITIONS`` is the definition: row s holds the poll positions
(0 leads) of Q, Q' and Q'' in scenario ``SCENARIOS[s]``.  The classifier,
``SCENARIO_ORDER_TEXT``, the actions a scenario offers (:func:`ratio_counts`)
and the generator's polls all read it.  Polls with ties among the three are
left unclassified and excluded from scenario statistics.  Records are
classified as (R, m) arrays of utilities and scores, the columns of a
``data.RecordTable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import Candidate, Poll, UtilityFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .data import RecordTable

SCENARIOS = ("A", "B", "C", "D", "E", "F")
UNCLASSIFIED = "UNCLASSIFIED"
SCENARIO_LABELS = (*SCENARIOS, UNCLASSIFIED)
RANK_LABELS = ("Q", "Q'", "Q''")

SCENARIO_POSITIONS = np.array([[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]])
SCENARIO_POSITIONS.setflags(write=False)

SCENARIO_ORDER_TEXT = {
    label: " > ".join(RANK_LABELS[rank] for rank in np.argsort(positions))
    for label, positions in zip(SCENARIOS, SCENARIO_POSITIONS)
}

# The actions whose frequencies profile a voter, and the voter types they define.
RATIO_ACTIONS = ("TRT", "CMP", "LB")
VOTER_TYPES = ("TRT", "LB", "OTHER")
# A profile's voter type: TRT above this truthful ratio, else LB above
# this leader ratio, else OTHER.
TRT_THRESHOLD = 0.9
LB_THRESHOLD = 0.5


def tied_rows(X: np.ndarray) -> np.ndarray:
    """Whether each row of ``X`` holds two equal entries (-0.0 equals 0.0)."""
    X = np.sort(X, axis=1)
    return (X[:, 1:] == X[:, :-1]).any(axis=1)


def poll_positions(S: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Poll position (0 leads, ties to the lower index) of each preference rank, shape (R, m)."""
    ranking = np.argsort(-S, axis=1, kind="stable")
    return np.argsort(ranking, axis=1)[np.arange(len(order))[:, None], order]


def order_scenarios(order: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Each record's scenario (an index into ``SCENARIO_LABELS``) from its strict
    preference order and scores: ``UNCLASSIFIED`` unless m = 3 and the scores differ."""
    ids = np.full(len(S), SCENARIO_LABELS.index(UNCLASSIFIED))
    if order.shape[1] == S.shape[1] == 3:
        strict = ~tied_rows(S)
        positions = poll_positions(S[strict], order[strict])
        ids[strict] = (positions[:, None, :] == SCENARIO_POSITIONS).all(axis=2).argmax(axis=1)
    return ids


def scenario_ids(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """:func:`order_scenarios` by U's orders; a row whose utilities tie is unclassified."""
    ids = order_scenarios(np.argsort(-U, axis=1, kind="stable"), S)
    ids[tied_rows(U)] = SCENARIO_LABELS.index(UNCLASSIFIED)
    return ids


def unjustified_rows(U: np.ndarray, S: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Whether some candidate is both strictly preferred to and weakly ahead of the action.

    Such a vote cannot be optimal under any belief that is monotone in poll
    scores: switching to the dominating candidate never hurts.  Shape (R,).
    """
    rows = np.arange(len(action))
    return ((U > U[rows, action][:, None]) & (S >= S[rows, action][:, None])).any(axis=1)


def scenario_or_none(u: UtilityFunction, s: Poll) -> str | None:
    """One record's scenario label, ``None`` when :func:`scenario_ids` leaves it unclassified."""
    (index,) = scenario_ids(np.array([u.values]), np.array([s.scores], dtype=np.int64))
    return SCENARIOS[index] if index < len(SCENARIOS) else None


def is_unjustified(u: UtilityFunction, s: Poll, action: Candidate) -> bool:
    """:func:`unjustified_rows` of one record."""
    if u.m != s.m:
        raise ValueError(f"utility/poll dimension mismatch: {u.m} vs {s.m}")
    s._check_candidate(action)
    U, S = np.array([u.values]), np.array([s.scores], dtype=np.int64)
    return bool(unjustified_rows(U, S, np.array([action]))[0])


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
# always, CMP (vote Q' while Q polls last) in E, F, LB (Q' leads) in C, E.
_AVAILABLE = np.array([[True, False, False]] * len(SCENARIO_LABELS))
_AVAILABLE[:-1, 1] = SCENARIO_POSITIONS[:, 0] == 2
_AVAILABLE[:-1, 2] = SCENARIO_POSITIONS[:, 1] == 0
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
    """One voter's :func:`ratio_counts`, summed over their records: per
    ``RATIO_ACTIONS`` entry, how often it was available and how often taken."""

    available: tuple[int, ...]
    selected: tuple[int, ...]


def build_profile(rows: "RecordTable") -> VoterProfile:
    """The profile of a voter's table rows, from the table's scenario and rank columns."""
    available, selected = ratio_counts(rows.scenario, rows.rank_of(rows.action))
    return VoterProfile(
        available=tuple(available.sum(axis=0).tolist()),
        selected=tuple(selected.sum(axis=0).tolist()),
    )
