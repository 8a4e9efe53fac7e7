import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scalar_deciders import (
    decide_au,
    decide_best_response,
    decide_cv,
    decide_ld,
    decide_ld_lb,
    decide_pragmatist,
    decide_tmg,
    decide_truth,
    outcome_with_vote,
    plurality_winners,
    possible_winners,
    winner_set_utility,
)
from stratvote import models, pivot
from record_oracle import preference_order
from stratvote.core import Poll, UtilityFunction
from stratvote.models import (
    AU_EPSILON,
    DecisionContext,
    Family,
    ModelDescriptor,
    ParameterGrid,
    _as_rows,
    _attainability,
    _au_scores,
    au_score,
    check_points,
    decide,
    decide_matrix,
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


def attainability_row(s, beta):
    """``_attainability`` of every candidate of one poll at one beta, shape (m,)."""
    return _attainability(np.array([s.scores]), np.array([s.n]), [beta])[0, 0]


class TestAttainability:
    def test_frontrunner_value(self):
        a = attainability_row(S1, 30.0)[3]
        assert abs(a - 0.9848) < 1e-3
        assert abs(a - 0.9847752571362814) < 1e-12

    def test_midpoint(self):
        assert attainability_row(Poll.from_scores((5, 6, 4)), 17.0)[0] == pytest.approx(0.5)

    def test_equal_scores_equal_attainability(self):
        a = attainability_row(Poll.from_scores((25, 70, 25, 100, 80)), 30.0)
        assert a[0] == a[2]

    def test_beta_zero_is_flat(self):
        assert attainability_row(S1, 0.0).tolist() == [0.5] * 5

    @given(s3, st.floats(min_value=0.1, max_value=60, allow_nan=False))
    def test_strictly_increasing_in_score(self, s, beta):
        a = attainability_row(s, beta)
        for c in range(s.m):
            for d in range(s.m):
                if s.scores[c] > s.scores[d]:
                    assert a[c] > a[d]

    def test_grid_shape_is_beta_record_candidate(self):
        S = np.array([S1.scores, (5, 6, 4, 0, 0)])
        got = _attainability(S, np.array([S1.n, 15]), [0.0, 30.0, 17.0])
        assert got.shape == (3, 2, 5)
        assert got[1, 0].tolist() == attainability_row(S1, 30.0).tolist()


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
        with pytest.raises(ValueError, match="nn.predict_record"):
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

    @pytest.mark.parametrize(
        "family, points, message",
        [
            (Family.PRAG, [{"k": True}], "k must be a positive integer, got True"),
            (Family.PRAG, [{"k": 2}, {"k": np.True_}], "k must be a positive integer, got np.True_"),
            (Family.LD, [{"r": 0.5}, {"r": False}], "r must lie in [0, 1], got False"),
            (Family.CV, [{"eta": 4}, {"eta": True}], "eta must be a positive integer or 'n'"),
            (Family.AU, [{"alpha": True, "beta": 1}], "alpha must lie in [0, 2], got True"),
            (Family.AU, [{"alpha": 1.0, "beta": False}], "beta must be non-negative, got False"),
        ],
    )
    def test_bools_are_not_numbers(self, family, points, message):
        # A bool passed as 1 or 0 until the rules began to refuse it.
        with pytest.raises(ValueError, match=re.escape(message)):
            check_points(family, points)

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


class TestDecideGrid:
    """``decide_matrix`` over a grid of points for one record."""

    @given(any_m_instance, radius_grids)
    def test_ld_grid_votes_most_preferred_undominated(self, instance, radii):
        u, s = instance
        grid = ParameterGrid(Family.LD, [{"r": r} for r in radii])
        got = decide_matrix(grid, *_as_rows(u, s))[:, 0]
        want = [max(undominated_set(u, s, r), key=lambda c: (u[c], -c)) for r in radii]
        assert got.dtype == np.int64
        assert got.tolist() == want

    @given(any_m_instance, radius_grids)
    def test_ldlb_grid_votes_sole_possible_winner(self, instance, radii):
        u, s = instance
        points = [{"r": r} for r in radii]
        ld = decide_matrix(ParameterGrid(Family.LD, points), *_as_rows(u, s))[:, 0]
        lb = decide_matrix(ParameterGrid(Family.LDLB, points), *_as_rows(u, s))[:, 0]
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
    def test_au_grid_matches_each_point(self, instance, pairs):
        u, s = instance
        points = [{"alpha": a, "beta": b} for a, b in pairs]
        got = decide_matrix(ParameterGrid(Family.AU, points), *_as_rows(u, s))[:, 0]
        assert got.tolist() == [decide_au(u, s, a, b) for a, b in pairs]

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
            D = decide_matrix(ParameterGrid(desc.family, (desc.params(),)), *_as_rows(U1, S1), ctx)
            assert D.shape == (1, 1) and D.dtype == np.int64
            assert decide(desc, U1, S1, ctx) == D[0, 0]

    def test_grid_follows_point_order(self):
        def decided(family, points):
            return decide_matrix(ParameterGrid(family, points), *_as_rows(U1, S1)).tolist()

        assert decided(Family.PRAG, [{"k": k} for k in (1, 4, 2)]) == [[3], [0], [3]]
        radii = [{"r": r} for r in (0.08, 0.01, 1.0)]
        assert decided(Family.LD, radii) == [[1], [0], [0]]
        assert decided(Family.LDLB, radii) == [[1], [3], [0]]

    def test_scalar_errors_are_still_raised(self):
        three = UtilityFunction((10, 5, 0))
        for family, points, message in (
            (Family.LD, [{"r": 0.1}, {"r": 1.5}], "r must lie"),
            (Family.LDLB, [{"r": -0.1}], "r must lie"),
            (Family.PRAG, [{"k": 2}, {"k": 6}], "k must lie"),
            (Family.TMG, [{"voter_type": "TRT"}], "three candidates"),
            (Family.AU, [{"alpha": 2.5, "beta": 10.0}], "alpha must lie"),
            (Family.AU, [{"alpha": 1.0, "beta": -1.0}], "beta must be non-negative"),
        ):
            with pytest.raises(ValueError, match=message):  # the value rules, as the grid is built
                decide_matrix(ParameterGrid(family, points), *_as_rows(U1, S1))
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
                grid = ParameterGrid(desc.family, (desc.params(),))
                decide_matrix(grid, [three.values], [S1.scores], [S1.n])


# --- the array path against the scalar deciders ------------------------------

# Utilities and scores drawn from small sets, so preference ties, tied and
# zero poll scores are common; a reported n of None means the score total.
_utility = st.one_of(st.sampled_from([0.0, 10.0, 20.0]), st.floats(0, 100, allow_nan=False))
# CV's gains multiply utility differences, so its utilities also reach the
# float limit, where a gain can overflow to inf for several candidates.
_cv_utility = st.one_of(_utility, st.sampled_from([1e308, 1.7976931348623157e308]))
_alpha = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0, 2, allow_nan=False))
_beta = st.one_of(st.sampled_from([0.0, 1.0, 40.0]), st.floats(0, 100, allow_nan=False))


def _record(m, utility=_utility):
    return st.tuples(
        st.lists(utility, min_size=m, max_size=m),
        st.lists(st.integers(0, 12), min_size=m, max_size=m),
        st.one_of(st.none(), st.integers(0, 60)),
    ).map(
        lambda r: (
            UtilityFunction(tuple(r[0])),
            Poll(tuple(r[1]), sum(r[1]) if r[2] is None else r[2]),
        )
    )


def _records(m, max_size=6, utility=_utility):
    return st.lists(_record(m, utility), min_size=1, max_size=max_size)


any_m_records = st.integers(2, 5).flatmap(_records)
# R = 1 with a tied poll holding zeros and a zero reported size, and a
# two-record batch whose polls tie at the top.
_TIED = [(UtilityFunction((0.0, 10.0, 10.0)), Poll((0, 0, 0), 0))]
_TIED_TOP = [
    (UtilityFunction((5.0, 20.0, 0.0)), Poll((4, 4, 0), 8)),
    (UtilityFunction((20.0, 0.0, 5.0)), Poll((0, 7, 7), 14)),
]
# A vote for candidate 2 ties all three; their mean utility is
# 0.20000000000000004 summed in candidate order and 0.19999999999999998
# summed in reverse, so BR's choice depends on the summation order.
_SUM_ORDER = [(UtilityFunction((0.1, 0.2, 0.3)), Poll((1, 1, 0), 2))]


def _matrix(family, points, records, context=None):
    U = np.array([u.values for u, _ in records])
    S = np.array([s.scores for _, s in records])
    n = np.array([s.n for _, s in records])
    got = decide_matrix(ParameterGrid(family, points), U, S, n, context)
    assert got.dtype == np.int64 and got.shape == (len(points), len(records))
    return got


def _scalar(decider, points, records):
    return np.array([[decider(u, s, p) for u, s in records] for p in points], dtype=np.int64)


class TestDecideMatrixEqualsScalarDeciders:
    @settings(deadline=None)
    @given(any_m_records)
    @example(_TIED)
    @example(_TIED_TOP)
    @example(_SUM_ORDER)
    def test_truth_br_and_prag(self, records):
        m = records[0][0].m
        for family, decider in (
            (Family.TRUTH, lambda u, s, p: decide_truth(u, s)),
            (Family.BR, lambda u, s, p: decide_best_response(u, s)),
        ):
            got = _matrix(family, [{}, {}], records)
            assert np.array_equal(got, _scalar(decider, [{}, {}], records))
        points = [{"k": k} for k in range(m, 0, -1)]
        got = _matrix(Family.PRAG, points, records)
        want = _scalar(lambda u, s, p: decide_pragmatist(u, s, p["k"]), points, records)
        assert np.array_equal(got, want)

    @settings(deadline=None)
    @given(_records(3))
    @example(_TIED)
    @example(_TIED_TOP)
    def test_tmg(self, records):
        points = [{"voter_type": t} for t in ("LB", "TRT", "CMP", "LB")]
        got = _matrix(Family.TMG, points, records)
        want = _scalar(lambda u, s, p: decide_tmg(u, s, p["voter_type"]), points, records)
        assert np.array_equal(got, want)

    @settings(deadline=None)
    @given(any_m_records, st.lists(rs, min_size=1, max_size=8))
    @example(_TIED, [0.0, 1.0])
    @example(_TIED_TOP, [0.0, 0.5])
    def test_ld_and_ldlb(self, records, radii):
        points = [{"r": r} for r in radii]
        most_preferred_undominated = _scalar(
            lambda u, s, p: max(undominated_set(u, s, p["r"]), key=lambda c: (u[c], -c)),
            points,
            records,
        )
        got = _matrix(Family.LD, points, records)
        assert np.array_equal(got, most_preferred_undominated)
        assert np.array_equal(got, _scalar(lambda u, s, p: decide_ld(u, s, p["r"]), points, records))
        got = _matrix(Family.LDLB, points, records)
        want = _scalar(lambda u, s, p: decide_ld_lb(u, s, p["r"]), points, records)
        assert np.array_equal(got, want)

    @settings(deadline=None)
    @given(any_m_records, st.lists(st.tuples(_alpha, _beta), min_size=1, max_size=12))
    @example(_TIED, [(0.0, 0.0), (2.0, 100.0)])
    @example(_TIED_TOP, [(1.5, 40.0), (1.5, 40.0), (0.5, 1.0)])
    def test_au(self, records, pairs):
        points = [{"alpha": a, "beta": b} for a, b in pairs]
        got = _matrix(Family.AU, points, records)
        want = _scalar(lambda u, s, p: decide_au(u, s, p["alpha"], p["beta"]), points, records)
        assert np.array_equal(got, want)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda m: _records(m, max_size=2)))
    @example(_TIED)
    def test_au_full_default_grid(self, records):
        points = ParameterGrid.default(Family.AU).points
        got = _matrix(Family.AU, points, records)
        want = _scalar(lambda u, s, p: decide_au(u, s, p["alpha"], p["beta"]), points, records)
        assert np.array_equal(got, want)
        # The grid is scored in blocks of points; a voter with many
        # records gets smaller blocks and the same decisions.
        many = records * 300
        assert np.array_equal(_matrix(Family.AU, points, many), np.tile(got, 300))


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6).flatmap(lambda m: _records(m, max_size=4, utility=_cv_utility)),
        st.lists(st.sampled_from([1, 2, 3, 5, 8, 16, "n"]), min_size=1, max_size=4),
    )
    @example(_TIED, [1, "n"])
    @example(_TIED_TOP, [2, 16, "n"])
    @example(_SUM_ORDER, ["n", 1])
    @example([(UtilityFunction((1e308, 0.0, 1e308, 5.0)), Poll((3, 0, 3, 1), 9))] * 2, [1, 8])
    def test_cv(self, records, etas):
        points = [{"eta": eta} for eta in etas]
        if "n" in etas and any(s.n == 0 for _, s in records):
            with pytest.raises(ValueError, match="eta must be a positive integer"):
                _matrix(Family.CV, points, records)
            return
        cache = {}
        want = _scalar(
            lambda u, s, p: decide_cv(u, s, s.n if p["eta"] == "n" else p["eta"], cache=cache),
            points,
            records,
        )
        assert np.array_equal(_matrix(Family.CV, points, records), want)

    def test_cv_past_the_term_budget(self):
        # Seven candidates at eta = 1000: the kernel would take more than
        # TERM_BUDGET terms, so the table is Monte-Carlo.
        scores = (7, 6, 5, 4, 3, 2, 1)
        records = [
            (UtilityFunction((0, 10, 20, 30, 40, 50, 60)), Poll.from_scores(scores)),
            (UtilityFunction((60, 50, 40, 30, 20, 10, 0)), Poll(scores, 40)),
            (UtilityFunction((0, 60, 0, 60, 0, 0, 60)), Poll.from_scores(scores)),
        ]
        cache = {}
        want = _scalar(lambda u, s, p: decide_cv(u, s, 1000, cache=cache), [{}], records)
        assert [table.method for table in cache.values()] == ["monte_carlo"]
        ctx = DecisionContext(pivot_cache={})
        assert np.array_equal(_matrix(Family.CV, [{"eta": 1000}], records, ctx), want)
        assert ctx.pivot_cache.keys() == cache.keys()


def test_cv_builds_each_distinct_table_once(monkeypatch):
    built = []
    real = pivot._cv_table

    def counting(scores, eta):
        built.append((scores, eta))
        return real(scores, eta)

    monkeypatch.setattr(pivot, "_cv_table", counting)
    u, v = UtilityFunction((10.0, 5.0, 0.0)), UtilityFunction((0.0, 5.0, 10.0))
    # Under eta = "n" the first row needs the eta = 16 table and the last
    # two the eta = 4 ones, which the fixed etas build too.
    records = [
        (u, Poll((5, 4, 1), 16)),
        (v, Poll((5, 4, 1), 10)),
        (v, Poll((2, 2, 6), 4)),
        (u, Poll((5, 4, 1), 4)),
    ]
    _matrix(Family.CV, [{"eta": 4}, {"eta": 16}, {"eta": "n"}], records)
    assert sorted(built) == [
        ((2, 2, 6), 4), ((2, 2, 6), 16), ((5, 4, 1), 4), ((5, 4, 1), 10), ((5, 4, 1), 16),
    ]


@pytest.mark.parametrize("family", [family for family in Family if family is not Family.NN])
def test_decide_matrix_rejects_mismatched_shapes(family):
    grid = ParameterGrid(family, ParameterGrid.default(family).points[:1])
    u3, u4 = [10.0, 5.0, 0.0], [10.0, 5.0, 0.0, 1.0]
    for U, S, n in (
        ([u3], [[30, 20, 10, 40]], [100]),  # a fourth candidate leads the poll
        ([u4], [[30, 20, 10]], [60]),
        ([u3, u3], [[30, 20, 10], [10, 20, 30]], [60]),
        ([u3], [[30, 20, 10]], [60, 60]),
        ([u3], [[30, 20, 10]], 60),
        ([[1.0]], [[5]], [5]),  # one candidate
        (u3, [30, 20, 10], [60]),
    ):
        with pytest.raises(ValueError, match="dimension mismatch"):
            decide_matrix(grid, U, S, n)


def _au_argmax(U, S, n, points):
    """AU's votes by ``np.argmax`` over the scores of every row, in preference order.

    The oracle for ``decide_matrix``'s AU path, which scores only the rows
    where a less preferred candidate polls above Q and compares the rest
    with ``>``.
    """
    order = np.argsort(-U, axis=1, kind="stable")
    by_preference = (np.arange(len(U))[:, None], order)
    alphas, betas = [p["alpha"] for p in points], [p["beta"] for p in points]
    rank = np.empty((len(points), len(U)), dtype=np.int64)
    for block, scores in _au_scores(U[by_preference], S[by_preference], n, alphas, betas):
        rank[block] = np.argmax(scores, axis=-1)
    return order[np.arange(len(U)), rank]


def _ulps_above(x, k):
    for _ in range(k):
        x = np.nextafter(x, np.inf)
    return float(x)


def _au_rows(m):
    """One batch of (U, S, n) rows on ``m`` candidates, hostile to AU's skip.

    Utilities come from a small set, from [0, 100], from near 1e300, or a
    base moved a few ulps or a relative 1e-12 per candidate.  Scores come
    from a small set, from {0, 4} (ties at the top), or within 4 of 2**62,
    whose shares differ by less than an ulp; n is the score total, small,
    0 or up to 2**62.
    """
    base = st.one_of(st.sampled_from([0.0, 10.0]), st.floats(0, 100), st.floats(1e299, 1e301))
    steps = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    utilities = st.one_of(
        st.lists(st.one_of(_utility, st.floats(1e299, 1e301)), min_size=m, max_size=m),
        st.tuples(base, steps).map(lambda t: [_ulps_above(t[0], k) for k in t[1]]),
        st.tuples(base, steps).map(lambda t: [t[0] * (1 + 1e-12 * k) for k in t[1]]),
    )
    small = st.tuples(
        st.one_of(
            st.lists(st.integers(0, 12), min_size=m, max_size=m),
            st.lists(st.sampled_from([0, 4]), min_size=m, max_size=m),
        ),
        st.one_of(st.none(), st.integers(0, 60)),
    ).map(lambda t: (t[0], sum(t[0]) if t[1] is None else t[1]))
    huge = st.tuples(
        st.lists(st.integers(2**62 - 4, 2**62), min_size=m, max_size=m),
        st.one_of(st.just(2**62), st.integers(1, 2**62)),
    )
    row = st.tuples(utilities, st.one_of(small, huge))
    return st.lists(row, min_size=1, max_size=6).map(
        lambda rows: (
            np.array([u for u, _ in rows], dtype=float),
            np.array([s for _, (s, _) in rows], dtype=np.int64),
            np.array([n for _, (_, n) in rows], dtype=np.int64),
        )
    )


class TestAuVotesEqualTheArgmax:
    """AU votes Q unscored where Q polls top, and compares the rest with ``>``."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(_au_rows))
    @example((np.array([[0.0, 10.0, 10.0]]), np.array([[0, 0, 0]]), np.array([0])))
    @example((np.array([[20.0, 5.0, 0.0]]), np.array([[4, 4, 0]]), np.array([8])))
    @example((np.array([[5.0, 5.0]]), np.array([[2**62, 2**62 - 1]]), np.array([2**62])))
    @example((np.array([[1e300, 1e300 * (1 - 1e-12)]]), np.array([[7, 7]]), np.array([14])))
    def test_full_default_grid(self, rows):
        points = ParameterGrid.default(Family.AU).points
        with np.errstate(over="ignore"):  # utilities near 1e300 overflow at alpha near 2
            want = _au_argmax(*rows, points)
            assert np.array_equal(decide_matrix(ParameterGrid(Family.AU, points), *rows), want)

    def test_scores_only_rows_where_a_less_preferred_candidate_polls_above_q(self, monkeypatch):
        scored = []
        real = models._au_scores

        def recording(U, S, n, alphas, betas):
            scored.extend(S.tolist())
            return real(U, S, n, alphas, betas)

        monkeypatch.setattr(models, "_au_scores", recording)
        U = np.array([[10.0, 5.0, 0.0], [0.0, 5.0, 10.0], [10.0, 0.0, 5.0], [5.0, 10.0, 0.0]])
        S = np.array([[5, 5, 0], [1, 2, 9], [4, 6, 1], [7, 7, 7]])
        grid = ParameterGrid.default(Family.AU)
        got = decide_matrix(grid, U, S, S.sum(axis=1))
        # Rows 0, 1 and 3 have Q at the top of the poll, tied or not.
        assert scored == [[4, 1, 6]]  # in preference order
        assert (got[:, [0, 1, 3]] == [0, 2, 1]).all()
        assert np.array_equal(got, _au_argmax(U, S, S.sum(axis=1), grid.points))
        scored.clear()
        assert (decide_matrix(grid, U[[0, 1]], S[[0, 1]], [10, 12]) == [0, 2]).all()
        assert scored == []


@pytest.mark.parametrize("family", [family for family in Family if family is not Family.NN])
def test_decide_matrix_rejects_utilities_no_record_holds(family):
    # AU compares its scores with ">", which equals argmax only without NaN:
    # a negative utility under a fractional power, or a NaN, would make one.
    grid = ParameterGrid(family, ParameterGrid.default(family).points[:1])
    for bad in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="utilities must be finite and non-negative"):
            decide_matrix(grid, [[5.0, bad, 0.0]], [[1, 8, 1]], [10])


class TestDecideMatrixDecidesEachRowAlone:
    """Evaluation decides a run's distinct rows once and indexes them back."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 5).flatmap(_records),
        st.lists(st.integers(0, 63), min_size=1, max_size=24),
    )
    def test_repeated_and_shuffled_rows_index_back(self, records, picks):
        m = records[0][0].m
        index = [i % len(records) for i in picks]
        families = [Family.TRUTH, Family.BR, Family.PRAG, Family.LD, Family.LDLB, Family.AU]
        grids = [ParameterGrid.default(family, m=m) for family in families]
        if m == 3:
            grids.append(ParameterGrid.default(Family.TMG))
        grids.append(ParameterGrid.default(Family.CV, cv_etas=(1, 3, 12)))
        for grid in grids:
            distinct = _matrix(grid.family, grid.points, records)
            repeated = _matrix(grid.family, grid.points, [records[i] for i in index])
            assert np.array_equal(repeated, distinct[:, index]), grid.family


def test_best_response_at_the_int64_score_limit():
    # A vote for the leader at 2**63 - 1 would wrap to the lowest int64.
    top = 2**63 - 1
    records = [
        (UtilityFunction((10.0, 5.0, 0.0)), Poll((top, 3, 2), top)),
        (UtilityFunction((0.0, 5.0, 10.0)), Poll((top, top, 2), top)),
    ]
    want = _scalar(lambda u, s, p: decide_best_response(u, s), [{}], records)
    assert np.array_equal(_matrix(Family.BR, [{}], records), want)
    assert want.tolist() == [[0, 1]]
