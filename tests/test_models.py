import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratvote.core import (
    Poll,
    UtilityFunction,
    outcome_with_vote,
    plurality_winners,
    preference_order,
    winner_set_utility,
)
from stratvote.models import (
    AU_EPSILON,
    DecisionContext,
    Family,
    ModelDescriptor,
    attainability,
    au_decisions_grid,
    au_score,
    decide,
    decide_au,
    decide_best_response,
    decide_grid,
    decide_ld,
    decide_ld_lb,
    decide_pragmatist,
    decide_tmg,
    decide_truth,
    undominated_set,
)

U1 = UtilityFunction((40, 30, 20, 10, 0))
S1 = Poll.from_scores((25, 70, 20, 100, 80))

u3 = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False), min_size=3, max_size=3
).map(lambda v: UtilityFunction(tuple(v)))
strict_u3 = st.permutations([10.0, 5.0, 0.0]).map(lambda v: UtilityFunction(tuple(v)))
s3 = st.lists(st.integers(min_value=0, max_value=60), min_size=3, max_size=3).map(
    lambda v: Poll.from_scores(tuple(v))
)
rs = st.floats(min_value=0, max_value=1, allow_nan=False)


class TestTruth:
    def test_picks_top_utility(self):
        assert decide_truth(U1, S1) == 0

    def test_ignores_poll(self):
        assert decide_truth(UtilityFunction((0, 0, 10)), Poll.from_scores((90, 5, 5))) == 2

    def test_tie_breaks_by_index(self):
        assert decide_truth(UtilityFunction((5, 5, 0)), Poll.from_scores((0, 9, 9))) == 0


class TestBestResponse:
    def test_unreachable_race_falls_back_to_truth(self):
        assert decide_best_response(U1, S1) == 0

    def test_joins_the_better_tied_candidate(self):
        assert decide_best_response(U1, Poll.from_scores((0, 5, 5, 0, 0))) == 1

    def test_breaks_tie_in_own_favor(self):
        assert decide_best_response(UtilityFunction((10, 5, 0)), Poll.from_scores((4, 4, 0))) == 0

    @given(u3, s3)
    def test_outcome_is_weakly_best_among_all_votes(self, u, s):
        a = decide_best_response(u, s)
        got = winner_set_utility(u, outcome_with_vote(s, a))
        for c in range(s.m):
            assert got >= winner_set_utility(u, outcome_with_vote(s, c)) - 1e-9


class TestPragmatist:
    def test_k2_picks_better_of_top_two(self):
        assert decide_pragmatist(U1, S1, 2) == 3

    def test_k4_reaches_most_preferred(self):
        assert decide_pragmatist(U1, S1, 4) == 0

    def test_k1_is_poll_leader(self):
        assert decide_pragmatist(U1, S1, 1) == 3

    def test_kth_place_score_tie_breaks_by_index(self):
        u = UtilityFunction((0, 5, 10))
        assert decide_pragmatist(u, Poll.from_scores((9, 4, 4)), 2) == 1

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decide_pragmatist(U1, S1, 0)
        with pytest.raises(ValueError):
            decide_pragmatist(U1, S1, 6)

    @given(u3, s3)
    def test_k_equals_m_is_truthful(self, u, s):
        assert decide_pragmatist(u, s, s.m) == decide_truth(u, s)


class TestTmg:
    u = UtilityFunction((10, 5, 0))

    def test_trt_always_truthful(self):
        assert decide_tmg(self.u, Poll.from_scores((20, 50, 30)), "TRT") == 0

    def test_cmp_compromises_when_last(self):
        assert decide_tmg(self.u, Poll.from_scores((20, 50, 30)), "CMP") == 1

    def test_cmp_truthful_otherwise(self):
        assert decide_tmg(self.u, Poll.from_scores((40, 50, 30)), "CMP") == 0

    def test_lb_follows_leading_second_choice(self):
        assert decide_tmg(self.u, Poll.from_scores((40, 50, 30)), "LB") == 1

    def test_lb_compromises_when_last(self):
        assert decide_tmg(self.u, Poll.from_scores((20, 50, 30)), "LB") == 1

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            decide_tmg(U1, S1, "TRT")

    @given(strict_u3, s3)
    def test_never_votes_least_preferred(self, u, s):
        worst = preference_order(u.values)[-1]
        for t in ("TRT", "CMP", "LB"):
            assert decide_tmg(u, s, t) != worst


class TestLocalDominance:
    def test_wide_radius_keeps_three_contenders(self):
        assert undominated_set(U1, S1, 0.08) == {1, 3}

    def test_narrow_radius_frees_all_candidates(self):
        assert undominated_set(U1, S1, 0.01) == {0, 1, 2, 3, 4}

    def test_full_radius_drops_least_preferred(self):
        assert undominated_set(U1, S1, 1.0) == {0, 1, 2, 3}

    def test_ld_examples(self):
        assert decide_ld(U1, S1, 0.01) == 0
        assert decide_ld(U1, S1, 0.08) == 1
        assert decide_ld(U1, S1, 1.0) == 0

    def test_ldlb_examples(self):
        assert decide_ld_lb(U1, S1, 0.01) == 3
        assert decide_ld_lb(U1, S1, 0.08) == 1

    def test_ldlb_matches_ld_on_contested_poll(self):
        u = UtilityFunction((10, 5, 0))
        assert decide_ld_lb(u, Poll.from_scores((5, 5, 0)), 0.0) == 0

    @given(u3, s3, rs, rs)
    def test_possible_winner_set_monotone_in_r(self, u, s, r1, r2):
        lo, hi = sorted((r1, r2))
        top = max(s.scores)
        w1 = {c for c in range(s.m) if s.scores[c] >= top - 2 * lo * s.n}
        w2 = {c for c in range(s.m) if s.scores[c] >= top - 2 * hi * s.n}
        assert w1 <= w2

    @given(u3, s3, rs)
    def test_ld_avoids_least_preferred_contender(self, u, s, r):
        top = max(s.scores)
        w = [c for c in range(s.m) if s.scores[c] >= top - 2 * r * s.n]
        a = decide_ld(u, s, r)
        if len(w) >= 2:
            worst = min(w, key=lambda c: (u[c], -c))
            assert a in w and a != worst
        else:
            assert a == decide_truth(u, s)

    @given(u3, s3, rs)
    def test_ldlb_deviates_only_on_runaway_leader(self, u, s, r):
        top = max(s.scores)
        w = [c for c in range(s.m) if s.scores[c] >= top - 2 * r * s.n]
        ld, lb = decide_ld(u, s, r), decide_ld_lb(u, s, r)
        if len(w) >= 2:
            assert lb == ld
        else:
            assert lb == w[0]


class TestAttainability:
    def test_frontrunner_value(self):
        a = attainability(3, S1, 30.0)
        assert abs(a - 0.9848) < 1e-3
        assert abs(a - 0.9847752571362814) < 1e-12

    def test_midpoint(self):
        assert attainability(0, Poll.from_scores((5, 6, 4)), 17.0) == pytest.approx(0.5)

    def test_equal_scores_equal_attainability(self):
        s = Poll.from_scores((25, 70, 25, 100, 80))
        assert attainability(0, s, 30.0) == attainability(2, s, 30.0)

    def test_beta_zero_is_flat(self):
        assert attainability(2, S1, 0.0) == 0.5

    @given(s3, st.floats(min_value=0.1, max_value=60, allow_nan=False))
    def test_strictly_increasing_in_score(self, s, beta):
        vals = [(s.scores[c], attainability(c, s, beta)) for c in range(s.m)]
        for sc_a, a_a in vals:
            for sc_b, a_b in vals:
                if sc_a > sc_b:
                    assert a_a > a_b


class TestAuHeuristic:
    def test_default_epsilon(self):
        assert AU_EPSILON == 0.001

    def test_score_matches_printed_values(self):
        h_q2 = au_score(U1, S1, 1, 1.8, 30.0)
        assert abs(h_q2 - 433.3) / 433.3 < 0.02
        h_q4 = au_score(U1, S1, 3, 0.2, 10.0)
        assert abs(h_q4 - 1.06) / 1.06 < 0.02

    def test_alpha_two_ignores_poll(self):
        for c in range(5):
            want = (AU_EPSILON + U1[c]) ** 2
            assert au_score(U1, S1, c, 2.0, 30.0) == pytest.approx(want)

    def test_decisions_across_parameter_rows(self):
        assert decide_au(U1, S1, 1.8, 30.0) == 1
        assert decide_au(U1, S1, 1.8, 10.0) == 0
        assert decide_au(U1, S1, 0.2, 30.0) == 3
        assert decide_au(U1, S1, 0.2, 10.0) == 3

    def test_alpha_two_is_truthful(self):
        assert decide_au(U1, S1, 2.0, 30.0) == 0

    def test_alpha_zero_follows_the_leader(self):
        assert decide_au(U1, S1, 0.0, 30.0) == 3

    def test_tie_breaks_by_index(self):
        u = UtilityFunction((10, 10, 0))
        assert decide_au(u, Poll.from_scores((5, 5, 2)), 1.0, 10.0) == 0

    @given(
        u3,
        s3,
        st.floats(min_value=0, max_value=2, allow_nan=False),
        st.floats(min_value=0, max_value=60, allow_nan=False),
    )
    def test_never_picks_a_dominated_candidate(self, u, s, alpha, beta):
        a = decide_au(u, s, alpha, beta)
        for c in range(s.m):
            assert not (u[c] > u[a] and s.scores[c] > s.scores[a])

    @given(strict_u3, s3, st.floats(min_value=0.5, max_value=60, allow_nan=False))
    def test_alpha_limits_match_reference_deciders(self, u, s, beta):
        if len(set(s.scores)) == s.m:
            assert decide_au(u, s, 0.0, beta) in plurality_winners(s)
        assert decide_au(u, s, 2.0, beta) == decide_truth(u, s)


class TestDescriptorAndDispatch:
    def test_dispatch_examples(self):
        assert decide(ModelDescriptor(Family.PRAG, k=2), U1, S1) == 3
        assert decide(ModelDescriptor(Family.TRUTH), U1, S1) == 0
        assert decide(ModelDescriptor(Family.LD, r=0.08), U1, S1) == 1

    def test_nn_requires_a_trained_network(self):
        u = UtilityFunction((10, 5, 0))
        s = Poll.from_scores((20, 50, 30))
        with pytest.raises(ValueError):
            decide(ModelDescriptor(Family.NN), u, s)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ModelDescriptor(Family.PRAG, k=0)
        with pytest.raises(ValueError):
            ModelDescriptor(Family.LD, r=1.5)
        with pytest.raises(ValueError):
            ModelDescriptor(Family.AU, alpha=2.5, beta=10.0)
        with pytest.raises(ValueError):
            ModelDescriptor(Family.AU, alpha=1.0, beta=-1.0)
        with pytest.raises(ValueError):
            ModelDescriptor(Family.CV, eta=0)
        with pytest.raises(ValueError):
            ModelDescriptor(Family.TMG, voter_type="XYZ")

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError):
            ModelDescriptor(Family.PRAG)
        with pytest.raises(ValueError):
            ModelDescriptor(Family.AU, alpha=1.0)

    @given(strict_u3, s3, st.floats(min_value=0.5, max_value=20, allow_nan=False))
    @settings(max_examples=40)
    def test_utility_scaling_leaves_ordinal_models_unchanged(self, u, s, lam):
        scaled = UtilityFunction(tuple(lam * v for v in u.values))
        cases = [
            ModelDescriptor(Family.TRUTH),
            ModelDescriptor(Family.BR),
            ModelDescriptor(Family.PRAG, k=2),
            ModelDescriptor(Family.LD, r=0.1),
            ModelDescriptor(Family.LDLB, r=0.1),
            ModelDescriptor(Family.TMG, voter_type="CMP"),
        ]
        for desc in cases:
            assert decide(desc, u, s) == decide(desc, scaled, s)

    @given(u3, s3)
    def test_deciders_are_pure(self, u, s):
        desc = ModelDescriptor(Family.AU, alpha=0.7, beta=12.0)
        assert decide(desc, u, s) == decide(desc, u, s)


def _utilities_and_poll(m):
    return st.tuples(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=m, max_size=m),
        st.lists(st.integers(min_value=0, max_value=60), min_size=m, max_size=m),
    ).map(lambda pair: (UtilityFunction(tuple(pair[0])), Poll.from_scores(tuple(pair[1]))))


any_m_instance = st.integers(min_value=2, max_value=5).flatmap(_utilities_and_poll)
radius_grids = st.lists(rs, min_size=1, max_size=12)


def possible_winners(s, r):
    top = max(s.scores)
    return [c for c in range(s.m) if s.scores[c] >= top - 2.0 * r * s.n]


class TestDecideGrid:
    @given(any_m_instance, radius_grids)
    def test_ld_grid_votes_most_preferred_undominated(self, instance, radii):
        u, s = instance
        got = decide_grid(Family.LD, [{"r": r} for r in radii], u, s)
        want = [max(undominated_set(u, s, r), key=lambda c: (u[c], -c)) for r in radii]
        assert got.dtype == np.int64
        assert got.tolist() == want

    @given(any_m_instance, radius_grids)
    def test_ldlb_grid_votes_sole_possible_winner(self, instance, radii):
        u, s = instance
        points = [{"r": r} for r in radii]
        ld = decide_grid(Family.LD, points, u, s)
        lb = decide_grid(Family.LDLB, points, u, s)
        for i, r in enumerate(radii):
            w = possible_winners(s, r)
            assert lb[i] == (w[0] if len(w) == 1 else ld[i])

    @given(
        any_m_instance,
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=2, allow_nan=False),
                st.floats(min_value=0, max_value=60, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_au_grid_matches_each_point(self, instance, points):
        u, s = instance
        alphas, betas = zip(*points)
        got = au_decisions_grid(u, s, alphas, betas)
        assert got.tolist() == [decide_au(u, s, a, b) for a, b in points]

    def test_decide_is_the_one_point_grid(self):
        ctx = DecisionContext(pivot_cache={})
        for desc in (
            ModelDescriptor(Family.TRUTH),
            ModelDescriptor(Family.BR),
            ModelDescriptor(Family.PRAG, k=2),
            ModelDescriptor(Family.CV, eta=8),
            ModelDescriptor(Family.CV, eta="n"),
            ModelDescriptor(Family.LD, r=0.08),
            ModelDescriptor(Family.LDLB, r=0.01),
            ModelDescriptor(Family.AU, alpha=1.8, beta=30.0),
        ):
            grid = decide_grid(desc.family, (desc.params(),), U1, S1, ctx)
            assert grid.shape == (1,) and grid.dtype == np.int64
            assert decide(desc, U1, S1, ctx) == grid[0]

    def test_grid_follows_point_order(self):
        points = [{"k": k} for k in (1, 4, 2)]
        assert decide_grid(Family.PRAG, points, U1, S1).tolist() == [3, 0, 3]
        radii = [{"r": r} for r in (0.08, 0.01, 1.0)]
        assert decide_grid(Family.LD, radii, U1, S1).tolist() == [1, 0, 0]
        assert decide_grid(Family.LDLB, radii, U1, S1).tolist() == [1, 3, 0]

    def test_scalar_errors_are_still_raised(self):
        three = UtilityFunction((10, 5, 0))
        with pytest.raises(ValueError, match="r must lie"):
            decide_grid(Family.LD, [{"r": 0.1}, {"r": 1.5}], U1, S1)
        with pytest.raises(ValueError, match="r must lie"):
            decide_ld_lb(U1, S1, -0.1)
        with pytest.raises(ValueError, match="k must lie"):
            decide_grid(Family.PRAG, [{"k": 2}, {"k": 6}], U1, S1)
        with pytest.raises(ValueError, match="three candidates"):
            decide_grid(Family.TMG, [{"voter_type": "TRT"}], U1, S1)
        with pytest.raises(ValueError, match="alpha must lie"):
            decide_au(U1, S1, 2.5, 10.0)
        with pytest.raises(ValueError, match="beta must be non-negative"):
            decide_au(U1, S1, 1.0, -1.0)
        for desc in (
            ModelDescriptor(Family.TRUTH),
            ModelDescriptor(Family.BR),
            ModelDescriptor(Family.PRAG, k=1),
            ModelDescriptor(Family.CV, eta=4),
            ModelDescriptor(Family.LD, r=0.1),
            ModelDescriptor(Family.LDLB, r=0.1),
            ModelDescriptor(Family.AU, alpha=1.0, beta=10.0),
        ):
            with pytest.raises(ValueError, match="dimension mismatch"):
                decide_grid(desc.family, (desc.params(),), three, S1)
