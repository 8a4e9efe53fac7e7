import pytest
from hypothesis import given, strategies as st

from scalar_deciders import (
    outcome_with_vote,
    plurality_winners,
    poll_ranking,
    winner_set_utility,
    with_vote,
)
from record_oracle import preference_order
from stratvote.core import Poll, UtilityFunction


def scores(*vals):
    return Poll.from_scores(tuple(vals))


polls = st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6).map(
    lambda xs: Poll.from_scores(tuple(xs))
)
utilities = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=6
)


class TestPoll:
    def test_from_scores_sets_n(self):
        p = scores(25, 70, 20, 100, 80)
        assert p.n == 295
        assert p.m == 5

    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            Poll.from_scores((3, -1, 0))

    def test_rejects_too_few_candidates(self):
        with pytest.raises(ValueError):
            Poll.from_scores((4,))

    def test_with_vote_increments_one_candidate(self):
        p = scores(3, 3, 0)
        q = with_vote(p, 2)
        assert q.scores == (3, 3, 1)
        assert q.n == p.n + 1
        assert p.scores == (3, 3, 0)

    def test_with_vote_rejects_unknown_candidate(self):
        with pytest.raises(ValueError):
            with_vote(scores(3, 3, 0), 3)

    def test_hashable(self):
        assert len({scores(1, 2), scores(1, 2), scores(2, 1)}) == 2


class TestPluralityWinners:
    def test_unique_leader(self):
        assert plurality_winners(scores(25, 70, 20, 100, 80)) == {3}

    def test_two_way_tie(self):
        assert plurality_winners(scores(3, 3, 0)) == {0, 1}

    def test_all_tied_at_zero(self):
        assert plurality_winners(scores(0, 0, 0)) == {0, 1, 2}

    @given(polls)
    def test_winners_hold_the_max_score(self, p):
        w = plurality_winners(p)
        top = max(p.scores)
        assert w == frozenset(c for c in range(p.m) if p.scores[c] == top)
        assert w


class TestOutcomeWithVote:
    def test_leader_reinforced(self):
        assert outcome_with_vote(scores(25, 70, 20, 100, 80), 3) == {3}

    def test_vote_breaks_tie(self):
        assert outcome_with_vote(scores(3, 3, 0), 0) == {0}

    def test_vote_creates_tie(self):
        assert outcome_with_vote(scores(4, 5, 0), 0) == {0, 1}

    @given(polls, st.data())
    def test_matches_incremented_poll(self, p, data):
        c = data.draw(st.integers(min_value=0, max_value=p.m - 1))
        assert outcome_with_vote(p, c) == plurality_winners(with_vote(p, c))

    @given(polls, st.data())
    def test_voting_for_a_winner_makes_it_unique(self, p, data):
        w = sorted(plurality_winners(p))
        c = data.draw(st.sampled_from(w))
        assert outcome_with_vote(p, c) == {c}


class TestWinnerSetUtility:
    u = UtilityFunction((40, 30, 20, 10, 0))

    def test_singleton(self):
        assert winner_set_utility(self.u, frozenset({0})) == 40

    def test_pair_mean(self):
        assert winner_set_utility(self.u, frozenset({0, 1})) == 35

    def test_full_set_mean(self):
        assert winner_set_utility(self.u, frozenset(range(5))) == 20

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            winner_set_utility(self.u, frozenset())

    def test_out_of_range_candidate_rejected(self):
        with pytest.raises((ValueError, IndexError)):
            winner_set_utility(self.u, frozenset({7}))

    @given(utilities, st.data())
    def test_bounded_by_member_utilities(self, vals, data):
        u = UtilityFunction(tuple(vals))
        members = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(vals) - 1), min_size=1)
        )
        got = winner_set_utility(u, frozenset(members))
        assert min(vals[c] for c in members) - 1e-9 <= got
        assert got <= max(vals[c] for c in members) + 1e-9


class TestOrderings:
    def test_preference_order_sorts_by_utility(self):
        assert preference_order((40, 30, 20, 10, 0)) == (0, 1, 2, 3, 4)

    def test_preference_order_breaks_ties_by_index(self):
        assert preference_order((5, 5, 3)) == (0, 1, 2)
        assert preference_order((3, 5, 5)) == (1, 2, 0)

    def test_poll_ranking_sorts_by_score(self):
        assert poll_ranking((25, 70, 20, 100, 80)) == (3, 4, 1, 0, 2)

    def test_poll_ranking_breaks_ties_by_index(self):
        assert poll_ranking((7, 9, 9)) == (1, 2, 0)

    @given(polls)
    def test_poll_ranking_is_a_permutation(self, p):
        r = poll_ranking(p.scores)
        assert sorted(r) == list(range(p.m))
        assert all(p.scores[a] >= p.scores[b] for a, b in zip(r, r[1:]))

    @given(utilities)
    def test_preference_order_is_a_permutation(self, vals):
        r = preference_order(tuple(vals))
        assert sorted(r) == list(range(len(vals)))
        assert all(vals[a] >= vals[b] for a, b in zip(r, r[1:]))
