"""Pivot probabilities checked against a direct rational enumerator."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratvote.core import Poll, UtilityFunction, plurality_winners
from stratvote.pivot import (
    COMPOSITION_BUDGET,
    MC_SAMPLES,
    BudgetExceededError,
    _closed_form_pair_probs,
    _composition_blocks,
    _exact_pair_probs,
    _mc_draws,
    _pair_event_weights,
    composition_count,
    cv_gain_scores,
    decide_cv,
    pivot_table_exact,
    pivot_table_mc,
)

U1 = UtilityFunction((40, 30, 20, 10, 0))
S1 = Poll.from_scores((25, 70, 20, 100, 80))


def winners(scores):
    top = max(scores)
    return frozenset(c for c, v in enumerate(scores) if v == top)


def pair_event(scores, x, y):
    """Two-way pivot event: y's extra ballot creates or resolves a tie with x."""
    plus = list(scores)
    plus[y] += 1
    f0, f1 = winners(scores), winners(plus)
    return (f0 == {x} and f1 == {x, y}) or (f0 == {x, y} and f1 == {y})


def exact_pivot_fraction(poll, eta, x, y):
    """P(x, y) summed over all compositions, in exact rationals."""
    total = sum(poll.scores)
    if total == 0:
        p = [Fraction(1, poll.m)] * poll.m
    else:
        p = [Fraction(c, total) for c in poll.scores]
    total = Fraction(0)
    for comp in itertools.product(range(eta + 1), repeat=poll.m - 1):
        rest = eta - sum(comp)
        if rest < 0:
            continue
        comp = (*comp, rest)
        if not pair_event(comp, x, y):
            continue
        prob = Fraction(math.factorial(eta))
        for k, pc in zip(comp, p):
            if k and pc == 0:
                prob = Fraction(0)
                break
            prob *= pc**k / math.factorial(k)
        total += prob
    return total


small_polls = st.lists(st.integers(min_value=0, max_value=12), min_size=3, max_size=3).map(
    lambda v: Poll.from_scores(tuple(v))
)


class TestExact:
    def test_even_race_single_extra_ballot(self):
        assert pivot_table_exact(Poll.from_scores((1, 1, 0)), 2).entries[0, 1] == pytest.approx(0.5)

    def test_certain_leader_one_ballot_back(self):
        # The lone sampled ballot lands on the leader; the voter's own ballot
        # for the runner-up then manufactures the two-way tie.
        assert pivot_table_exact(Poll.from_scores((2, 0, 0)), 1).entries[0, 1] == pytest.approx(1.0)

    def test_unreachable_gap_is_impossible(self):
        assert pivot_table_exact(Poll.from_scores((3, 0, 0)), 3).entries[0, 1] == pytest.approx(0.0)

    def test_zero_support_candidate_never_pivots(self):
        assert pivot_table_exact(Poll.from_scores((4, 3, 0)), 4).entries[0, 2] == pytest.approx(0.0)

    def test_budget_rejection(self):
        with pytest.raises(BudgetExceededError):
            pivot_table_exact(S1, 10000)

    def test_composition_count(self):
        assert composition_count(8, 5) == 495
        assert composition_count(2, 3) == 6

    @given(small_polls, st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_rational_enumerator(self, poll, eta, data):
        x = data.draw(st.integers(min_value=0, max_value=2))
        y = data.draw(st.integers(min_value=0, max_value=2).filter(lambda c: c != x))
        got = pivot_table_exact(poll, eta).entries[x, y]
        want = float(exact_pivot_fraction(poll, eta, x, y))
        assert got == pytest.approx(want, abs=1e-12)

    @given(small_polls, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_table_is_a_probability_matrix(self, poll, eta):
        t = pivot_table_exact(poll, eta)
        assert t.entries.shape == (3, 3)
        assert np.all(t.entries >= 0) and np.all(t.entries <= 1)
        assert np.all(np.diag(t.entries) == 0)

    @given(small_polls, st.integers(min_value=1, max_value=300), st.data())
    @settings(max_examples=40, deadline=None)
    def test_candidate_relabeling_permutes_the_table(self, poll, eta, data):
        # Bit for bit, not approximately: equal gains must stay equal under
        # relabeling so that decide_cv breaks ties equivariantly.
        perm = data.draw(st.permutations(range(3)))
        permuted = Poll.from_scores(tuple(poll.scores[perm.index(c)] for c in range(3)))
        t = pivot_table_exact(poll, eta).entries
        tp = pivot_table_exact(permuted, eta).entries
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert tp[perm[x], perm[y]] == t[x, y]


class TestClosedForm:
    @given(
        st.integers(min_value=2, max_value=3).flatmap(
            lambda m: st.lists(st.integers(min_value=0, max_value=50), min_size=m, max_size=m)
        ),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_enumerator(self, scores, eta):
        poll = Poll.from_scores(tuple(scores))
        got = _closed_form_pair_probs(poll, eta)
        want = _exact_pair_probs(poll, eta)
        assert np.abs(got - want).max() <= 1e-14

    def test_huge_electorate_is_fast_and_bounded(self):
        start = time.perf_counter()
        t = pivot_table_exact(Poll.from_scores((34, 33, 33)), 10**6)
        assert time.perf_counter() - start < 2.0
        assert t.method == "exact"
        assert np.all(t.entries >= 0) and np.all(t.entries <= 1)
        assert t.entries[0, 1] > 0

    def test_decide_cv_never_samples_three_candidates(self):
        cache = {}
        u = UtilityFunction((10.0, 5.0, 0.0))
        decide_cv(u, Poll.from_scores((45, 35, 20)), 10000, cache=cache)
        assert [table.method for table in cache.values()] == ["exact"]


class TestMonteCarlo:
    def test_even_race_estimate(self):
        got = pivot_table_mc(Poll.from_scores((1, 1, 0)), 2, 10**6, seed=0).entries[0, 1]
        assert abs(got - 0.5) < 0.002
        assert got == pytest.approx(0.500593, abs=1e-9)

    def test_deterministic_per_seed(self):
        args = (Poll.from_scores((1, 1, 0)), 2, 10**5)
        seven = pivot_table_mc(*args, seed=7).entries[0, 1]
        assert seven == pivot_table_mc(*args, seed=7).entries[0, 1]
        assert seven != pivot_table_mc(*args, seed=8).entries[0, 1]

    def test_impossible_event_is_exactly_zero(self):
        assert pivot_table_mc(Poll.from_scores((4, 3, 0)), 4, 10**4, seed=1).entries[0, 2] == 0.0

    def test_table_counts_the_literal_events_in_its_draws(self):
        poll = Poll.from_scores((3, 2, 1))
        t = pivot_table_mc(poll, 4, 10**4, seed=3)
        draws = np.concatenate(list(_mc_draws(poll, 4, 10**4, 3)))
        for x, y in itertools.permutations(range(3), 2):
            assert t.entries[x, y] == _pivot_event_mask(draws, x, y).sum() / 10**4

    @given(small_polls, st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=15, deadline=None)
    def test_within_four_sigma_of_exact(self, poll, eta, data):
        x = data.draw(st.integers(min_value=0, max_value=2))
        y = data.draw(st.integers(min_value=0, max_value=2).filter(lambda c: c != x))
        samples = 10**5
        exact = pivot_table_exact(poll, eta).entries[x, y]
        mc = pivot_table_mc(poll, eta, samples, seed=42).entries[x, y]
        sigma = math.sqrt(exact * (1 - exact) / samples)
        assert abs(mc - exact) <= 4 * sigma + 1e-9


class TestGains:
    def test_no_reachable_tie_means_no_gain(self):
        table = pivot_table_exact(Poll.from_scores((5, 0, 0)), 2)
        gains = cv_gain_scores(UtilityFunction((10, 5, 0)), table)
        assert np.all(gains == 0)

    def test_even_race_gains(self):
        table = pivot_table_exact(Poll.from_scores((1, 1, 0)), 2)
        gains = cv_gain_scores(UtilityFunction((10, 5, 0)), table)
        assert gains == pytest.approx([2.5, -2.5, 0.0], abs=1e-12)

    def test_dimension_mismatch_is_rejected(self):
        table = pivot_table_exact(Poll.from_scores((1, 1, 0)), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            cv_gain_scores(UtilityFunction((10, 5, 0, 1)), table)

    @given(small_polls, st.integers(min_value=1, max_value=5), st.floats(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_invariant_to_utility_shift(self, poll, eta, shift):
        u = UtilityFunction((10.0, 5.0, 0.0))
        shifted = UtilityFunction(tuple(v + shift for v in u.values))
        table = pivot_table_exact(poll, eta)
        a = cv_gain_scores(u, table)
        b = cv_gain_scores(shifted, table)
        assert a == pytest.approx(b, abs=1e-9)


class TestDecideCv:
    def test_small_electorate_backs_the_contender(self):
        assert decide_cv(U1, S1, 8) == 1

    def test_large_electorate_backs_the_leader(self):
        assert decide_cv(U1, S1, 10000) == 3

    def test_mc_path_is_reproducible(self):
        assert composition_count(10000, S1.m) > COMPOSITION_BUDGET
        first = decide_cv(U1, S1, 10000)
        assert decide_cv(U1, S1, 10000) == first

    def test_mc_tables_are_a_function_of_scores_and_eta(self):
        a, b = {}, {}
        decide_cv(U1, S1, 10000, cache=a)
        decide_cv(UtilityFunction((0, 10, 20, 30, 40)), S1, 10000, cache=b)
        (key, table), = a.items()
        assert table.method == "monte_carlo" and table.samples == MC_SAMPLES
        assert np.array_equal(table.entries, b[key].entries)
        assert table.seed == b[key].seed

    def test_polls_differing_only_in_n_share_one_table(self):
        cache = {}
        decide_cv(U1, S1, 8, cache=cache)
        decide_cv(U1, Poll(S1.scores, n=S1.n + 5), 8, cache=cache)
        assert len(cache) == 1

    def test_cache_does_not_change_results(self):
        cache = {}
        with_cache = decide_cv(U1, S1, 8, cache=cache)
        assert cache
        assert with_cache == decide_cv(U1, S1, 8)
        assert with_cache == decide_cv(U1, S1, 8, cache=cache)

    @given(small_polls, st.data())
    @settings(max_examples=30, deadline=None)
    def test_believed_electorate_of_poll_size_matches_rational_argmax(self, poll, data):
        if poll.n == 0:
            eta = 1
        else:
            eta = min(poll.n, 6)
        uvals = data.draw(st.permutations([10, 5, 0]))
        u = UtilityFunction(tuple(float(v) for v in uvals))
        gains = [
            sum(
                exact_pivot_fraction(poll, eta, x, c) * (uvals[c] - uvals[x])
                for x in range(3)
                if x != c
            )
            for c in range(3)
        ]
        order = sorted(range(3), key=lambda c: (-poll.scores[c], -uvals[c], c))
        want = order[0]
        for c in order[1:]:
            if gains[c] > gains[want]:
                want = c
        assert decide_cv(u, poll, eta) == want


def _pivot_event_mask(block, x, y):
    """Rows of ``block`` where a single extra ballot for ``y`` is pivotal vs ``x``.

    Literal implementation of the two clauses: sole winner {x} becomes the
    tie {x, y}, or the tie {x, y} becomes the sole winner {y}.  Kept as the
    reference the fast paths are tested against.
    """
    top = block.max(axis=1)
    top_count = (block == top[:, None]).sum(axis=1)
    plus = block.copy()
    plus[:, y] += 1
    top2 = plus.max(axis=1)
    top2_count = (plus == top2[:, None]).sum(axis=1)

    x_alone = (block[:, x] == top) & (top_count == 1)
    xy_tie_after = (plus[:, x] == top2) & (plus[:, y] == top2) & (top2_count == 2)
    xy_tie_before = (block[:, x] == top) & (block[:, y] == top) & (top_count == 2)
    y_alone_after = (plus[:, y] == top2) & (top2_count == 1)
    return (x_alone & xy_tie_after) | (xy_tie_before & y_alone_after)


class TestPairEventWeights:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_the_literal_event_mask(self, m, eta, seed):
        block = np.concatenate(list(_composition_blocks(eta, m)))
        weights = np.random.default_rng(seed).random(block.shape[0])
        got = _pair_event_weights(block, weights)
        for x in range(m):
            assert got[x, x] == 0.0
            for y in range(m):
                if x != y:
                    want = weights[_pivot_event_mask(block, x, y)].sum()
                    assert abs(got[x, y] - want) <= 1e-12
