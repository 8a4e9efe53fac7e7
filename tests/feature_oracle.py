"""Scalar NN features and action ratios: the tests' oracle for the columnar code.

``features_from_parts`` builds one record's 25 features from its utilities,
poll and its voter's profile, entry by entry, and ``action_ratios`` and
``voter_type`` build that profile from records one at a time.
``stratvote.nn.record_features`` and ``stratvote.nn.features`` build the same
rows from record columns and summed ratio counts (``behavior.ratio_counts``,
``behavior.ratio_stats``), and the tests check them against these, bit for
bit.  ``find_inconsistent`` compares a voter's records pair by pair, the
definition ``behavior.inconsistent_rows`` computes from score arrays.
``classify_scenario`` and ``is_unjustified`` classify one record at a time,
the definitions ``behavior.scenario_ids`` and ``behavior.unjustified_rows``
compute from (R, m) arrays.
"""

from __future__ import annotations

import numpy as np

from stratvote.behavior import (
    LB_THRESHOLD,
    SCENARIOS,
    TRT_THRESHOLD,
    VOTER_TYPES,
)
from record_oracle import preference_order
from stratvote.core import Candidate, Poll, UtilityFunction
from stratvote.nn import FEATURE_DIM

RATIO_KEYS = ("TRT", "CMP", "LB")

# Poll order of (Q, Q', Q''), best first, as preference ranks.
_ORDER_TO_SCENARIO = {
    (0, 1, 2): "A",
    (0, 2, 1): "B",
    (1, 0, 2): "C",
    (2, 0, 1): "D",
    (1, 2, 0): "E",
    (2, 1, 0): "F",
}


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


def is_unjustified(u: UtilityFunction, s: Poll, action: Candidate) -> bool:
    """True when some candidate is both strictly preferred and weakly ahead."""
    return any(u[c] > u[action] and s.scores[c] >= s.scores[action] for c in range(s.m))


def action_ratios(records) -> dict[str, float]:
    """Per-action selection frequencies, normalized by availability.

    - ``TRT``: voted Q; available in every round.
    - ``CMP``: voted Q' while Q was ranked last (scenarios E, F).
    - ``LB``:  voted Q' while Q' led the poll (scenarios C, E).

    Actions that were never available are absent from the result.  Tied
    polls count only toward TRT availability.
    """
    available = {"TRT": 0, "CMP": 0, "LB": 0}
    selected = {"TRT": 0, "CMP": 0, "LB": 0}
    for rec in records:
        prefs = preference_order(rec.utilities.values)
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
    return {name: selected[name] / available[name] for name in RATIO_KEYS if available[name] > 0}


def voter_type(ratios: dict[str, float]) -> str:
    if ratios.get("TRT", 0.0) > TRT_THRESHOLD:
        return "TRT"
    if ratios.get("LB", 0.0) > LB_THRESHOLD:
        return "LB"
    return "OTHER"


def features_from_parts(u: UtilityFunction, s: Poll, profile_records) -> np.ndarray:
    """One record's features, its profile taken from ``profile_records``."""
    if u.m != 3 or s.m != 3:
        raise ValueError("the classifier is defined for exactly three candidates")
    prefs = preference_order(u.values)
    if len(set(u.values)) != 3:
        raise ValueError("features need strictly ordered utilities")
    norm = s.n if s.n > 0 else (sum(s.scores) or 1)
    by_rank = [s.scores[c] / norm for c in prefs]
    gaps = [
        by_rank[0] - by_rank[1],
        by_rank[0] - by_rank[2],
        by_rank[1] - by_rank[2],
    ]
    pref_encoding = [c / 2.0 for c in prefs]
    leader_gap = [(max(s.scores) - s.scores[prefs[0]]) / norm]
    scenario = scenario_or_none(u, s)
    scenario_onehot = [1.0 if scenario == label else 0.0 for label in SCENARIOS]
    ratios = action_ratios(profile_records)
    kind = voter_type(ratios)
    ratio_values = [ratios.get(k, 0.0) for k in RATIO_KEYS]
    present = [1.0 if k in ratios else 0.0 for k in RATIO_KEYS]
    type_onehot = [1.0 if kind == t else 0.0 for t in VOTER_TYPES]
    vec = np.array(
        by_rank + gaps + pref_encoding + leader_gap + scenario_onehot
        + ratio_values + present + type_onehot,
        dtype=float,
    )
    assert vec.shape == (FEATURE_DIM,)
    return vec


def action_rank(record) -> int:
    prefs = preference_order(record.utilities.values)
    return prefs.index(record.action)


def find_inconsistent(records) -> set[int]:
    """Indices of records contradicted by another record of the same voter.

    Record i (poll s, action a) is inconsistent when some record j of the
    same voter chose a different action even though its poll was weakly
    better for a (``s*(a) >= s(a)``) and weakly worse everywhere else.
    """
    flagged: set[int] = set()
    for i, rec in enumerate(records):
        a = rec.action
        for j, other in enumerate(records):
            if i == j or other.action == a:
                continue
            if other.poll.scores[a] >= rec.poll.scores[a] and all(
                other.poll.scores[c] <= rec.poll.scores[c]
                for c in range(rec.poll.m)
                if c != a
            ):
                flagged.add(i)
                break
    return flagged
