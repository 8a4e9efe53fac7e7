import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feature_oracle
from stratvote import behavior
from stratvote.behavior import (
    RATIO_ACTIONS,
    SCENARIO_LABELS,
    SCENARIO_ORDER_TEXT,
    SCENARIOS,
    UNCLASSIFIED,
    VOTER_TYPES,
    build_profile,
    inconsistent_rows,
    is_unjustified,
    ratio_counts,
    ratio_stats,
    scenario_ids,
    scenario_or_none,
    unjustified_rows,
)
from stratvote.core import Poll, UtilityFunction
from stratvote.data import DataError, load_dataset
from feature_oracle import classify_scenario, find_inconsistent
from record_oracle import Record, preference_order, table_of

U = UtilityFunction((10.0, 5.0, 0.0))


def rec(scores, action, round=0, u=U, voter="v1"):
    return Record(voter, round, Poll.from_scores(tuple(scores)), u, action)


def records(*rows):
    return [rec(scores, action, round=i) for i, (scores, action) in enumerate(rows)]


def action_ratios(rows):
    """The profile's ratios of the actions that were ever available."""
    profile = build_profile(table_of(rows))
    ratios, _ = ratio_stats(profile.available, profile.selected)
    return {k: r for k, r, a in zip(RATIO_ACTIONS, ratios.tolist(), profile.available) if a > 0}


def inconsistent(rows):
    """The indices :func:`inconsistent_rows` flags among one voter's records."""
    S = np.array([r.poll.scores for r in rows], dtype=np.int64)
    flags = inconsistent_rows(S, np.array([r.action for r in rows]))
    return set(np.flatnonzero(flags).tolist())


def unjustified(rows):
    """The record table's unjustified flags of one voter's records."""
    return table_of(rows).unjustified.tolist()


def flagged(rows):
    """The indices of the record table's inconsistent flags, of one voter's records."""
    return set(np.flatnonzero(table_of(rows).inconsistent).tolist())


strict_u3 = st.permutations([10.0, 5.0, 0.0]).map(lambda v: UtilityFunction(tuple(v)))
strict_s3 = st.permutations([30, 50, 80]).map(lambda v: Poll.from_scores(tuple(v)))


INT64_MAX = 2**63 - 1

# Few distinct utilities and scores, so ties (-0.0 against 0.0 among them)
# are common; scores reach the int64 limit the loader accepts.
utility = st.sampled_from([0.0, -0.0, 1.0, 2.5, 10.0]) | st.floats(0.0, 100.0)
score = st.integers(0, 3) | st.just(INT64_MAX) | st.integers(0, INT64_MAX)
drawn_records = st.sampled_from([2, 3, 3, 4, 5]).flatmap(
    lambda m: st.lists(
        st.tuples(
            st.lists(utility, min_size=m, max_size=m),
            st.lists(score, min_size=m, max_size=m),
            st.integers(0, m - 1),
        ),
        min_size=1,
        max_size=10,
    )
)


class TestScenario:
    def test_examples(self):
        assert classify_scenario(U, Poll.from_scores((80, 50, 30))) == "A"
        assert classify_scenario(U, Poll.from_scores((50, 80, 30))) == "C"
        assert classify_scenario(U, Poll.from_scores((30, 50, 80))) == "F"

    def test_all_six_orders(self):
        want = {"A": (80, 50, 30), "B": (80, 30, 50), "C": (50, 80, 30),
                "D": (50, 30, 80), "E": (30, 80, 50), "F": (30, 50, 80)}
        for label, scores in want.items():
            assert classify_scenario(U, Poll.from_scores(scores)) == label
            assert scenario_or_none(U, Poll.from_scores(scores)) == label

    def test_tied_poll_rejected(self):
        with pytest.raises(ValueError):
            classify_scenario(U, Poll.from_scores((50, 50, 30)))

    def test_scenario_or_none_routes_ties(self):
        assert scenario_or_none(U, Poll.from_scores((50, 50, 30))) is None
        assert scenario_or_none(U, Poll.from_scores((80, 50, 30))) == "A"

    @given(strict_u3, strict_s3)
    def test_label_depends_only_on_preference_ranks(self, u, s):
        label = classify_scenario(u, s)
        assert label in SCENARIOS
        prefs = preference_order(u.values)
        ranked_scores = tuple(s.scores[c] for c in prefs)
        assert classify_scenario(U, Poll.from_scores(ranked_scores)) == label

    @settings(deadline=None)
    @given(drawn_records)
    def test_array_classifiers_equal_the_record_oracle(self, drawn):
        recs = [(UtilityFunction(tuple(u)), Poll(tuple(s), 1), a) for u, s, a in drawn]
        U_ = np.array([u.values for u, _, _ in recs])
        S = np.array([s.scores for _, s, _ in recs], dtype=np.int64)
        action = np.array([a for _, _, a in recs])
        want = [feature_oracle.scenario_or_none(u, s) for u, s, _ in recs]
        assert [SCENARIO_LABELS[i] for i in scenario_ids(U_, S)] == [
            label or UNCLASSIFIED for label in want
        ]
        assert [scenario_or_none(u, s) for u, s, _ in recs] == want
        dominated = [
            any(u[c] > u[a] and s.scores[c] >= s.scores[a] for c in range(s.m))
            for u, s, a in recs
        ]
        assert unjustified_rows(U_, S, action).tolist() == dominated
        assert [is_unjustified(u, s, a) for u, s, a in recs] == dominated

    def test_order_text_is_pinned(self):
        assert SCENARIO_ORDER_TEXT == {
            "A": "Q > Q' > Q''",
            "B": "Q > Q'' > Q'",
            "C": "Q' > Q > Q''",
            "D": "Q'' > Q > Q'",
            "E": "Q' > Q'' > Q",
            "F": "Q'' > Q' > Q",
        }

    def test_available_actions_are_pinned(self):
        # Rows A-F and UNCLASSIFIED; columns TRT, CMP (E, F) and LB (C, E).
        want = [[1, 0, 0], [1, 0, 0], [1, 0, 1], [1, 0, 0], [1, 1, 1], [1, 1, 0], [1, 0, 0]]
        scenario = np.arange(len(SCENARIO_LABELS))
        available, truthful = ratio_counts(scenario, np.zeros(len(scenario), dtype=int))
        assert available.tolist() == want
        assert truthful.tolist() == [[1, 0, 0]] * len(scenario)
        _, second = ratio_counts(scenario, np.ones(len(scenario), dtype=int))
        assert second.tolist() == [[0, *row[1:]] for row in want]

    @pytest.mark.parametrize(
        "values, text", [((5.0, 5.0, 0.0), "(5.0, 5.0, 0.0)"), ((0.0, 1.0, -0.0), "(0.0, 1.0, -0.0)")]
    )
    def test_tied_utilities_have_no_strict_order(self, values, text, tmp_path):
        # A record table holds no tied row, so every order it derives is
        # strict: from_columns and the loader name the tied values alike.
        strict = rec((80, 50, 30), 0, u=UtilityFunction((3.0, 2.0, 1.0)))
        assert table_of([strict]).order.tolist() == [[0, 1, 2]]
        with pytest.raises(ValueError) as got:
            table_of([strict, rec((80, 50, 30), 0, round=7, u=UtilityFunction(values))])
        assert str(got.value) == (
            f"tied utilities {text}; preferences must be strict: row 1 ('v1', round 7)"
        )
        path, header = tmp_path / "tied.csv", "voter_id,round,n,s_1,s_2,s_3,u_1,u_2,u_3,action"
        path.write_text(f"{header}\nv1,7,8,5,2,1,{','.join(map(str, values))},q1\n")
        with pytest.raises(DataError, match=re.escape(f"row 1: tied utilities {text};")):
            load_dataset(path)


class TestUnjustified:
    def test_dominated_vote(self):
        assert is_unjustified(U, Poll.from_scores((60, 50, 40)), 2) is True

    def test_top_choice_never_unjustified(self):
        for scores in ((60, 50, 40), (30, 50, 80), (0, 0, 0)):
            assert is_unjustified(U, Poll.from_scores(scores), 0) is False

    def test_compromise_for_the_leader_is_justified(self):
        assert is_unjustified(U, Poll.from_scores((30, 50, 80)), 1) is False

    def test_equal_score_counts_as_dominating(self):
        assert is_unjustified(U, Poll.from_scores((50, 50, 40)), 1) is True

    @given(strict_u3, strict_s3)
    def test_truthful_vote_always_justified(self, u, s):
        q = preference_order(u.values)[0]
        assert is_unjustified(u, s, q) is False


class TestInconsistent:
    def test_mutually_contradicting_pair_flags_both(self):
        rows = records(((50, 60, 40), 0), ((55, 60, 40), 1))
        assert inconsistent(rows) == {0, 1}

    def test_one_sided_contradiction_flags_one(self):
        rows = records(((50, 60, 40), 0), ((55, 60, 41), 1))
        assert inconsistent(rows) == {1}

    def test_constant_voter_is_consistent(self):
        rows = records(((50, 60, 40), 0), ((55, 60, 40), 0), ((80, 10, 10), 0))
        assert inconsistent(rows) == set()

    def test_single_record_is_consistent(self):
        assert inconsistent(records(((50, 60, 40), 0))) == set()

    def test_flags_are_order_independent(self):
        rows = records(((50, 60, 40), 0), ((55, 60, 41), 1), ((90, 5, 5), 0))
        flagged = inconsistent(rows)
        rev = list(reversed(rows))
        flagged_rev = {len(rows) - 1 - i for i in inconsistent(rev)}
        assert flagged == flagged_rev

    @settings(deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda m: st.lists(
                st.tuples(
                    st.lists(st.integers(0, 3), min_size=m, max_size=m),
                    st.integers(0, m - 1),
                ),
                min_size=1,
                max_size=12,
            )
        ),
        st.sampled_from([1, 7, 1 << 20]),
    )
    def test_array_flags_equal_the_record_oracle(self, drawn, block):
        # Scores from {0, ..., 3} make weak dominance common; a small block
        # compares a few rows at a time.
        u = UtilityFunction(tuple(float(c) for c in range(len(drawn[0][0]))))
        rows = [
            Record("v1", i, Poll(tuple(scores), 3), u, action)
            for i, (scores, action) in enumerate(drawn)
        ]
        want = find_inconsistent(rows)
        old_block = behavior._INCONSISTENT_BLOCK
        try:
            behavior._INCONSISTENT_BLOCK = block
            assert inconsistent(rows) == want
        finally:
            behavior._INCONSISTENT_BLOCK = old_block
        assert flagged(rows) == want


class TestActionRatios:
    def test_always_truthful(self):
        rows = records(*((((80, 50, 30)), 0) for _ in range(10)))
        assert action_ratios(rows)["TRT"] == 1.0

    def test_compromise_ratio_counts_availability(self):
        # Six rounds where the top choice trails the field; three compromises.
        rows = records(
            ((30, 50, 80), 1), ((30, 50, 80), 1), ((30, 50, 80), 1),
            ((30, 50, 80), 0), ((30, 50, 80), 0), ((30, 50, 80), 0),
        )
        assert action_ratios(rows)["CMP"] == 0.5

    def test_leader_ratio_absent_without_leading_second_choice(self):
        rows = records(((80, 50, 30), 0), ((30, 50, 80), 1))
        assert "LB" not in action_ratios(rows)

    def test_leader_ratio_counts_second_choice_leads(self):
        rows = records(((50, 80, 30), 1), ((30, 80, 50), 0))
        assert action_ratios(rows)["LB"] == 0.5


def voter_type(rows):
    profile = build_profile(table_of(rows))
    return VOTER_TYPES[ratio_stats(profile.available, profile.selected)[1]]


class TestVoterType:
    def test_all_truthful(self):
        rows = records(*(((80, 50, 30), 0) for _ in range(10)))
        assert voter_type(rows) == "TRT"

    def test_leader_follower(self):
        rows = records(
            *(((50, 80, 30), 1) for _ in range(6)),
            *(((80, 50, 30), 0) for _ in range(4)),
        )
        assert voter_type(rows) == "LB"

    def test_no_clear_pattern(self):
        rows = records(
            ((80, 50, 30), 2), ((50, 80, 30), 0), ((30, 50, 80), 2),
            ((80, 30, 50), 1), ((50, 30, 80), 2), ((30, 80, 50), 0),
        )
        assert voter_type(rows) == "OTHER"

    def test_thresholds_are_strict(self):
        # A truthful ratio of exactly 0.9 is not TRT, nor a leader ratio of
        # exactly 0.5 LB; one more truthful vote makes the voter TRT.
        at_both = [((50, 80, 30), 1), ((50, 80, 30), 0), *(((80, 50, 30), 0) for _ in range(8))]
        assert action_ratios(records(*at_both)) == {"TRT": 0.9, "LB": 0.5}
        assert voter_type(records(*at_both)) == "OTHER"
        assert voter_type(records(*at_both, ((80, 50, 30), 0))) == "TRT"


class TestProfile:
    def test_unjustified_needs_repetition(self):
        # The table flags every unjustified action, so a repeated one counts
        # twice.
        once = records(((60, 50, 40), 2), ((80, 50, 30), 0))
        assert unjustified(once) == [True, False]
        twice = records(((60, 50, 40), 2), ((60, 50, 40), 2))
        assert unjustified(twice) == [True, True]

    def test_profile_flags_unjustified_and_inconsistent_records(self):
        # The record table holds both flags; a profile holds only ratio counts.
        clean = records(((80, 50, 30), 0), ((30, 50, 80), 0))
        assert unjustified(clean) == [False, False]
        assert flagged(clean) == set()
        contradicting = records(((50, 60, 40), 0), ((55, 60, 40), 1))
        assert unjustified(contradicting) == [False, False]
        assert flagged(contradicting) == {0, 1}
        dominated = records(((60, 50, 40), 2), ((61, 50, 40), 2))
        assert unjustified(dominated) == [True, True]
        assert flagged(dominated) == set()

    def test_profile_carries_ratios(self):
        rows = records(*(((80, 50, 30), 0) for _ in range(4)))
        prof = build_profile(table_of(rows))
        assert (prof.available, prof.selected) == ((4, 0, 0), (4, 0, 0))
        assert voter_type(rows) == "TRT"
        assert action_ratios(rows) == {"TRT": 1.0}

    def test_tied_utilities_are_rejected(self):
        # No table holds a tied row, so no profile is built from one.
        tied = rec((80, 50, 30), 0, u=UtilityFunction((5.0, 5.0, 0.0)))
        with pytest.raises(ValueError, match="preferences must be strict"):
            table_of([tied])
