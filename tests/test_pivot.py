"""Pivot probabilities checked against a direct rational enumerator."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, xlogy

from pivot_oracle import (
    closed_form_pair_probs,
    composition_blocks,
    exact_pair_probs,
    scipy_log_weights,
)
from scalar_deciders import cv_gain_scores
from stratvote import models, pivot
from stratvote.core import Poll, UtilityFunction
from stratvote.pivot import (
    MC_SAMPLES,
    TERM_BUDGET,
    _mc_draws,
    _pair_event_weights,
    composition_count,
    decide_cv,
    pivot_table_exact,
    pivot_table_mc,
)

U1 = UtilityFunction((40, 30, 20, 10, 0))
S1 = Poll.from_scores((25, 70, 20, 100, 80))
# Seven candidates at eta = 1000: far past TERM_BUDGET, so decide_cv samples.
U7 = UtilityFunction((0, 10, 20, 30, 40, 50, 60))
S7 = Poll.from_scores((7, 6, 5, 4, 3, 2, 1))


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


def polls(min_m, max_m, max_score=12):
    """Polls of min_m..max_m candidates; ties, zeros and all-zero polls included."""
    return st.integers(min_value=min_m, max_value=max_m).flatmap(
        lambda m: st.one_of(
            st.lists(st.integers(min_value=0, max_value=max_score), min_size=m, max_size=m),
            st.lists(st.integers(min_value=0, max_value=2), min_size=m, max_size=m),
        )
    ).map(lambda v: Poll.from_scores(tuple(v)))


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

    @given(polls(3, 5, max_score=40), st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_table_is_a_probability_matrix(self, poll, eta):
        t = pivot_table_exact(poll, eta)
        assert t.entries.shape == (poll.m, poll.m)
        assert not np.isnan(t.entries).any()
        assert np.all(t.entries >= 0) and np.all(t.entries <= 1)
        assert np.all(np.diag(t.entries) == 0)

    @given(polls(3, 5, max_score=40), st.integers(min_value=1, max_value=300), st.data())
    @settings(max_examples=40, deadline=None)
    def test_candidate_relabeling_permutes_the_table(self, poll, eta, data):
        # Bit for bit, not approximately: equal gains must stay equal under
        # relabeling so that decide_cv breaks ties equivariantly.
        perm = data.draw(st.permutations(range(poll.m)))
        permuted = Poll.from_scores(tuple(poll.scores[perm.index(c)] for c in range(poll.m)))
        t = pivot_table_exact(poll, eta).entries
        tp = pivot_table_exact(permuted, eta).entries
        for x in range(poll.m):
            for y in range(poll.m):
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
        got = pivot_table_exact(poll, eta).entries
        want = exact_pair_probs(poll, eta)
        assert np.abs(got - want).max() <= 1e-14

    @given(polls(2, 3, max_score=100), st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_the_closed_form(self, poll, eta):
        # One other candidate: C is 1 on the summed range, so the kernel is
        # the m <= 3 closed form operation for operation.
        assert np.array_equal(pivot._pivot_sums(poll.scores, eta), closed_form_pair_probs(poll, eta))

    def test_huge_electorate_is_fast_and_bounded(self):
        start = time.perf_counter()
        t = pivot_table_exact(Poll.from_scores((34, 33, 33)), 10**6)
        assert time.perf_counter() - start < 2.0
        assert t.method == "exact"
        assert np.all(t.entries >= 0) and np.all(t.entries <= 1)
        assert t.entries[0, 1] > 0

    def test_decide_cv_never_samples_three_candidates(self):
        # Nor four: m <= 4 has no nested sums, so it never reaches TERM_BUDGET.
        cache = {}
        three = UtilityFunction((10.0, 5.0, 0.0))
        decide_cv(three, Poll.from_scores((45, 35, 20)), 10000, cache=cache)
        u, poll = UtilityFunction((0.0, 20.0, 10.0, 30.0)), Poll.from_scores((11, 14, 44, 31))
        for eta in (10**4, 10**6):
            decide_cv(u, poll, eta, cache=cache)
        assert [table.method for table in cache.values()] == ["exact"] * 3


class TestLogs:
    """The kernel's logs come from libm and one log-factorial table, bit
    for bit scipy's ``gammaln`` and ``xlogy``."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(pivot, "_log_factorials", np.zeros(0))

    def test_log_factorial_is_gammaln(self):
        # Across k = 11 | 12 (k! | Stirling), x = 999 | 1000 (five | three
        # correction terms) and many chunk boundaries.
        k = np.arange(2 * 10**6)
        assert np.array_equal(pivot._log_factorial(k), gammaln(k + 1.0))

    def test_large_arguments_are_gammaln(self):
        # Past x = 1e8, where lgam drops the correction, up to 2^53: what a
        # table grown to k would hold.
        k = np.random.default_rng(3).integers(0, 2**53, 10**6)
        k = np.concatenate([k, 10**8 + np.arange(-3, 3), [2**53 - 1]])
        assert np.array_equal(pivot._lgam_int(k), gammaln(k + 1.0))

    def test_table_grown_in_steps_is_gammaln(self):
        # The table grows to the largest k + 1 asked for, or to twice its
        # length when that is more, and only when a k falls outside it.
        chunk = pivot._LOG_FACTORIAL_CHUNK
        steps = [
            ([5], 6),
            ([7], 12),  # doubles
            (np.arange(3 * chunk + 7), 3 * chunk + 7),
            (3, 3 * chunk + 7),
            ([], 3 * chunk + 7),
            ([chunk - 1, chunk, 9 * chunk + 1], 9 * chunk + 2),
            (2, 9 * chunk + 2),
            ([9 * chunk + 2], 18 * chunk + 4),  # doubles
        ]
        for k, length in steps:
            k = np.asarray(k, dtype=np.int64)
            assert np.array_equal(pivot._log_factorial(k), gammaln(k + 1.0))
            assert len(pivot._log_factorials) == length
        table = pivot._log_factorials
        assert np.array_equal(table, gammaln(np.arange(len(table)) + 1.0))

    def test_one_table_fills_only_what_its_eta_needs(self):
        pivot_table_exact(Poll.from_scores((5, 3, 2)), 10**4)
        table = pivot._log_factorials
        assert len(table) == 10**4 + 1
        assert np.array_equal(table, gammaln(np.arange(len(table)) + 1.0))

    def test_log_is_libm(self):
        rng = np.random.default_rng(4)
        edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0]
        p = np.concatenate([edges, rng.random(10**5), rng.random(10**4) * 1e-308])
        assert np.array_equal(pivot._log(p), xlogy(1.0, p))

    def test_xlogy_is_scipy(self):
        p = np.array([0.0, 5e-324, 1e-310, 1e-300, 1 / 3, 0.5, 1.0])
        k = np.array([0, 1, 2, 7, 10**6, 2**40])
        with np.errstate(all="raise"):
            got = pivot._xlogy(k, pivot._log(p)[:, None])
        assert np.array_equal(got, xlogy(k, p[:, None]))


class TestKernel:
    @given(
        st.sampled_from([(2, 30), (3, 30), (4, 16), (5, 10), (6, 7)]).flatmap(
            lambda m_eta: st.tuples(
                polls(m_eta[0], m_eta[0], max_score=30),
                st.integers(min_value=1, max_value=m_eta[1]),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_enumerator(self, case):
        poll, eta = case
        got = pivot_table_exact(poll, eta).entries
        want = exact_pair_probs(poll, eta)
        assert np.abs(got - want).max() <= 1e-14

    @given(polls(2, 6, max_score=100), st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_log_weights_are_scipys(self, poll, eta):
        pairs = pivot._Pairs.of(poll.scores)
        got = np.concatenate([log_w for _, log_w, _, _ in pairs.t_grids(eta)])
        assert np.array_equal(got, scipy_log_weights(pairs, eta))

    @pytest.mark.parametrize("log_window", [pivot.LOG_WINDOW, 3.0])
    @given(polls(5, 5, max_score=40), st.integers(min_value=1, max_value=300))
    @settings(max_examples=15, deadline=None)
    def test_window_tail_stays_within_its_bound(self, log_window, poll, eta):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pivot, "LOG_WINDOW", math.inf)
            full = pivot._pivot_sums(poll.scores, eta)
            patch.setattr(pivot, "LOG_WINDOW", log_window)
            windowed = pivot._pivot_sums(poll.scores, eta)
        bound = (poll.m - 3) * (eta + 2) * math.exp(-log_window)
        assert np.all(np.abs(full - windowed) <= bound + 4 * np.finfo(float).eps * full)

    def test_large_tables_are_fast(self):
        start = time.perf_counter()
        pivot_table_exact(Poll.from_scores((11, 14, 44, 31)), 10**6)
        four = time.perf_counter() - start
        start = time.perf_counter()
        pivot_table_exact(S1, 10**4)
        five = time.perf_counter() - start
        assert four < 2.0 and five < 2.0, (four, five)


class TestTermBudget:
    """The kernel refuses a table once its nested sums pass ``TERM_BUDGET``,
    and CV then samples it."""

    # (scores, eta, nested-sum terms) on both sides of the budget; the terms
    # were counted by a separate pass over the nested sums before the kernel
    # counted them itself.
    SWEEP = [
        ((25, 70, 20, 100, 80), 1000, 125_577),
        ((40, 18, 84, 2, 48), 10**5, 5_876_925),
        ((30, 25, 20, 12, 8, 5), 150, 575_580),
        ((30, 25, 20, 12, 8, 5), 300, 2_523_217),
        ((20, 19, 18, 16, 14, 13), 150, 607_060),
        ((20, 19, 18, 16, 14, 13), 300, 4_379_301),
        ((10,) * 6, 2000, 206_856_960),
        ((22, 18, 16, 14, 12, 10, 8), 64, 724_080),
        ((22, 18, 16, 14, 12, 10, 8), 150, 18_659_435),
        ((7, 6, 5, 4, 3, 2, 1), 64, 723_692),
        ((7, 6, 5, 4, 3, 2, 1), 150, 17_820_866),
    ]

    @pytest.mark.parametrize("scores, eta, terms", SWEEP)
    def test_exact_within_the_budget_else_refused(self, scores, eta, terms):
        poll = Poll.from_scores(scores)
        if terms <= TERM_BUDGET:
            assert pivot_table_exact(poll, eta).method == "exact"
        else:
            with pytest.raises(ValueError, match="TERM_BUDGET"):
                pivot_table_exact(poll, eta)

    def test_budget_boundary(self, monkeypatch):
        # S1 at eta = 10^4 takes 334,309 nested-sum terms.
        want = pivot_table_exact(S1, 10**4).entries
        monkeypatch.setattr(pivot, "TERM_BUDGET", 334_309)
        assert np.array_equal(pivot_table_exact(S1, 10**4).entries, want)
        assert pivot._cv_table(S1.scores, 10**4).method == "exact"
        monkeypatch.setattr(pivot, "TERM_BUDGET", 334_308)
        with pytest.raises(ValueError, match=r"\(25, 70, 20, 100, 80\) at eta 10000"):
            pivot_table_exact(S1, 10**4)
        table = pivot._cv_table(S1.scores, 10**4)
        assert (table.method, table.samples) == ("monte_carlo", MC_SAMPLES)


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
        draws = np.concatenate(list(_mc_draws(poll.scores, 4, 10**4, 3)))
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
    """The gain definition, on the oracle ``decide_matrix``'s CV path is checked against."""

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

    def test_four_candidates_back_the_exact_contender(self):
        # Sampled tables picked q3 and q1 here; the exact gains pick q4.
        for utilities, scores in (
            ((0, 20, 10, 30), (11, 14, 44, 31)),
            ((10, 0, 20, 30), (3599, 2565, 1304, 2532)),
        ):
            assert decide_cv(UtilityFunction(utilities), Poll.from_scores(scores), 1000) == 3

    def test_five_candidate_battery_table_is_exact(self):
        cache = {}
        decide_cv(U1, S1, 10000, cache=cache)
        assert [table.method for table in cache.values()] == ["exact"]

    def test_mc_path_is_reproducible(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="TERM_BUDGET"):
            pivot_table_exact(S7, 1000)
        assert time.perf_counter() - start < 1.0
        first = decide_cv(U7, S7, 1000)
        assert decide_cv(U7, S7, 1000) == first

    def test_mc_tables_are_a_function_of_scores_and_eta(self):
        a, b = {}, {}
        decide_cv(U7, S7, 1000, cache=a)
        decide_cv(UtilityFunction((60, 50, 40, 30, 20, 10, 0)), S7, 1000, cache=b)
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


class TestCvVotesInputs:
    """``cv_votes`` checks its inputs once per call, and builds its tables
    from score rows: no ``Poll`` per table."""

    U = np.array([[10.0, 5.0, 0.0], [0.0, 5.0, 10.0], [5.0, 10.0, 0.0], [0.0, 10.0, 5.0]])
    S = np.array([[5, 4, 1], [3, -1, 5], [2, 2, 6], [-7, 0, 1]], dtype=np.int64)
    NEGATIVE = "poll scores must be non-negative integers, got (3, -1, 5)"

    def test_a_negative_score_names_the_first_bad_row(self):
        n = self.S.clip(0).sum(axis=1)
        for etas in ((4,), ("n",), (1, 16, "n")):
            with pytest.raises(ValueError) as got:
                pivot.cv_votes(self.U, self.S, n, etas)
            assert str(got.value) == self.NEGATIVE
        grid = models.ParameterGrid(models.Family.CV, ({"eta": 8}, {"eta": "n"}))
        with pytest.raises(ValueError) as got:
            models.decide_matrix(grid, self.U, self.S, n)
        assert str(got.value) == self.NEGATIVE

    def test_a_bad_eta_is_named(self):
        S, n = self.S.clip(0), np.array([10, 0, -2, 7])
        for etas, bad in (((0,), 0), ((4, -3), -3), ((2.5,), 2.5), ((1, "n"), 0)):
            with pytest.raises(ValueError) as got:
                pivot.cv_votes(self.U, S, n, etas)
            assert str(got.value) == f"eta must be a positive integer, got {bad!r}"
        assert pivot.cv_votes(self.U, S, n, (4.0, 2)).shape == (2, 4)

    def test_a_negative_score_comes_before_a_bad_eta(self):
        with pytest.raises(ValueError) as got:
            pivot.cv_votes(self.U, self.S, np.array([10, 0, 10, 1]), (0, "n"))
        assert str(got.value) == self.NEGATIVE

    def test_no_poll_is_built_for_a_table(self, monkeypatch):
        built = []
        real = Poll.__post_init__

        def counting(poll):
            built.append(poll.scores)
            real(poll)

        monkeypatch.setattr(Poll, "__post_init__", counting)
        S, cache = self.S.clip(0), {}
        votes = pivot.cv_votes(self.U, S, S.sum(axis=1), (1, 4, "n"), cache)
        five = np.array([S1.scores, S1.scores[::-1]], dtype=np.int64)
        pivot.cv_votes(np.array([U1.values] * 2), five, five.sum(axis=1), (8, 32), cache)
        rows = [(tuple(row), sum(row)) for row in S.tolist()]
        want = {(r, eta) for r, total in rows for eta in (1, 4, total)}
        want |= {(r, eta) for r in (S1.scores, S1.scores[::-1]) for eta in (8, 32)}
        assert votes.shape == (3, 4) and cache.keys() == want
        assert built == []


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
        block = np.concatenate(list(composition_blocks(eta, m)))
        weights = np.random.default_rng(seed).random(block.shape[0])
        got = _pair_event_weights(block, weights)
        for x in range(m):
            assert got[x, x] == 0.0
            for y in range(m):
                if x != y:
                    want = weights[_pivot_event_mask(block, x, y)].sum()
                    assert abs(got[x, y] - want) <= 1e-12
