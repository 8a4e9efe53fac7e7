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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .core import Candidate, Poll, UtilityFunction, preference_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .data import VoteRecord

SCENARIOS = ("A", "B", "C", "D", "E", "F")
UNCLASSIFIED = "UNCLASSIFIED"

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

VOTER_TYPES = ("TRT", "LB", "OTHER")
# A profile's voter type: TRT above this truthful ratio, else LB above
# this leader ratio, else OTHER.
TRT_THRESHOLD = 0.9
LB_THRESHOLD = 0.5


def _strict_preferences(u: UtilityFunction) -> tuple[int, ...]:
    if len(set(u.values)) != u.m:
        raise ValueError(f"scenario classification needs strictly ordered utilities, got {u.values}")
    return preference_order(u.values)


def classify_scenario(u: UtilityFunction, s: Poll) -> str:
    """Scenario label A-F for a three-candidate record.

    Requires strictly ordered utilities and pairwise distinct scores for the
    three candidates; raises ``ValueError`` otherwise (tied polls are handled
    by :func:`scenario_or_none`).
    """
    if u.m != 3 or s.m != 3:
        raise ValueError("scenarios are defined for exactly three candidates")
    prefs = _strict_preferences(u)
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


def find_inconsistent(records: "Sequence[VoteRecord]") -> set[int]:
    """Indices of records contradicted by another record of the same voter.

    Record i (poll s, action a) is inconsistent when some record j of the
    same voter chose a different action even though its poll was weakly
    better for a (``s*(a) >= s(a)``) and weakly worse everywhere else.
    Utilities are ignored: the check is purely score-based, so it only makes
    sense within one voter's records (callers group accordingly).
    """
    flagged: set[int] = set()
    for i, rec in enumerate(records):
        a = rec.action
        for j, other in enumerate(records):
            if i == j or other.action == a:
                continue
            if other.poll.m != rec.poll.m:
                raise ValueError("records must share the candidate set")
            if other.poll.scores[a] >= rec.poll.scores[a] and all(
                other.poll.scores[c] <= rec.poll.scores[c]
                for c in range(rec.poll.m)
                if c != a
            ):
                flagged.add(i)
                break
    return flagged


def action_ratios(records: "Sequence[VoteRecord]") -> dict[str, float]:
    """Per-action selection frequencies, normalized by availability.

    - ``TRT``: voted Q; available in every round.
    - ``CMP``: voted Q' while Q was ranked last (scenarios E, F).
    - ``LB``:  voted Q' while Q' led the poll (scenarios C, E).

    Actions that were never available are absent from the result rather
    than reported as zero.  Tied polls count only toward TRT availability.
    """
    available = {"TRT": 0, "CMP": 0, "LB": 0}
    selected = {"TRT": 0, "CMP": 0, "LB": 0}
    for rec in records:
        prefs = _strict_preferences(rec.utilities)
        q, q_second = prefs[0], prefs[1]
        available["TRT"] += 1
        if rec.action == q:
            selected["TRT"] += 1
        scenario = scenario_or_none(rec.utilities, rec.poll)
        if scenario is None:
            continue
        if scenario in ("E", "F"):
            available["CMP"] += 1
            if rec.action == q_second:
                selected["CMP"] += 1
        if scenario in ("C", "E"):
            available["LB"] += 1
            if rec.action == q_second:
                selected["LB"] += 1
    return {
        name: selected[name] / available[name]
        for name in ("TRT", "CMP", "LB")
        if available[name] > 0
    }


def unjustified_count(records: "Sequence[VoteRecord]") -> int:
    return sum(
        1 for rec in records if is_unjustified(rec.utilities, rec.poll, rec.action)
    )


@dataclass(frozen=True)
class VoterProfile:
    """Behavioral summary of one voter's records."""

    voter_id: str
    voter_type: str
    a_ratios: dict[str, float] = field(default_factory=dict)
    unjustified_actions: int = 0
    inconsistent_records: frozenset = frozenset()


def build_profile(voter_id: str, records: "Sequence[VoteRecord]") -> VoterProfile:
    """Profile a voter from all of their records.

    The voter type is ``TRT`` when the truthful ratio exceeds
    ``TRT_THRESHOLD``; otherwise ``LB`` when the leader ratio exceeds
    ``LB_THRESHOLD``; otherwise ``OTHER`` (which also covers voters whose
    leader ratio is undefined).
    """
    ratios = action_ratios(records)
    if ratios.get("TRT", 0.0) > TRT_THRESHOLD:
        voter_type = "TRT"
    elif ratios.get("LB", 0.0) > LB_THRESHOLD:
        voter_type = "LB"
    else:
        voter_type = "OTHER"
    return VoterProfile(
        voter_id=voter_id,
        voter_type=voter_type,
        a_ratios=ratios,
        unjustified_actions=unjustified_count(records),
        inconsistent_records=frozenset(find_inconsistent(records)),
    )
