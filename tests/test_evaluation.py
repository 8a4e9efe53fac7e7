import json

import numpy as np
import pytest

from stratvote.behavior import build_profile
from stratvote.core import Poll, UtilityFunction
from stratvote.data import (
    Dataset,
    GeneratorConfig,
    ParamSampler,
    PopulationGroup,
    VoteRecord,
    generate_synthetic,
)
from stratvote.evaluation import (
    ConfusionMatrix,
    ParameterGrid,
    error_breakdown,
    loo_evaluate,
    metrics_from_confusion,
    parameter_distribution,
    poll_size_bucket,
    upper_bound_evaluate,
)
from stratvote.models import DecisionContext, Family, ModelDescriptor, decide, decide_au
from stratvote.nn import FEATURE_DIM, init_network, predict_record
from stratvote.seeding import derive_seed

WORKED_COUNTS = [[5409, 441, 132], [32, 2538, 90], [117, 188, 373]]


def au_population(num_voters=8, seed=21, noise=0.0):
    group = PopulationGroup(
        family=Family.AU,
        weight=1.0,
        params={
            "alpha": ParamSampler.choices((0.2, 1.0, 1.8)),
            "beta": ParamSampler.choices((3.0, 12.0, 40.0)),
        },
    )
    config = GeneratorConfig(
        num_voters=num_voters,
        rounds_per_voter=12,
        groups=(group,),
        poll_sizes=((8, 0.5), (100, 0.5)),
        poll_size_mode="per_round",
        poll_concentrations=(1.0, 12.0),
        scenario_mode="cycle",
        repeats=2,
        noise=noise,
        master_seed=seed,
    )
    return generate_synthetic(config)


def truthful_population(num_voters=5, seed=2):
    config = GeneratorConfig(
        num_voters=num_voters,
        rounds_per_voter=6,
        groups=(PopulationGroup(family=Family.TRUTH, weight=1.0),),
        poll_sizes=((100, 1.0),),
        scenario_mode="cycle",
        master_seed=seed,
    )
    return generate_synthetic(config)


class TestMetrics:
    def test_worked_confusion_matrix(self):
        got = metrics_from_confusion(ConfusionMatrix(np.array(WORKED_COUNTS)))
        assert got.precision == pytest.approx(
            (0.9731917956099316, 0.8013893274392169, 0.626890756302521), abs=1e-12
        )
        assert got.recall == pytest.approx(
            (0.9042126379137412, 0.9541353383458646, 0.5501474926253688), abs=1e-12
        )
        assert got.f == pytest.approx(
            (0.9374350086655112, 0.8711172129740862, 0.5860172820109977), abs=1e-12
        )
        assert got.weighted_f == pytest.approx(0.8929428890076839, abs=1e-12)

    def test_worked_matrix_at_printed_precision(self):
        got = metrics_from_confusion(ConfusionMatrix(np.array(WORKED_COUNTS)))
        assert abs(got.precision[1] - 0.801) < 1e-3
        assert abs(got.recall[1] - 0.954) < 1e-3
        assert round(got.f[1], 2) == 0.87
        assert abs(got.f[0] - 0.937) < 1e-3
        assert abs(got.f[2] - 0.586) < 1e-3
        assert abs(got.weighted_f - 0.892) < 1e-3

    def test_diagonal_is_perfect(self):
        got = metrics_from_confusion(ConfusionMatrix(np.diag([7, 3, 2])))
        assert got.precision == (1.0, 1.0, 1.0)
        assert got.recall == (1.0, 1.0, 1.0)
        assert got.f == (1.0, 1.0, 1.0)
        assert got.weighted_f == 1.0

    def test_absent_class_contributes_no_weight(self):
        got = metrics_from_confusion(ConfusionMatrix(np.array([[5, 0], [0, 0]])))
        assert got.f[1] == 0.0
        assert got.weighted_f == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_confusion(ConfusionMatrix.zeros(3))

    def test_perfect_weighted_f_needs_a_diagonal(self):
        off = ConfusionMatrix(np.array([[5, 1, 0], [0, 3, 0], [0, 0, 2]]))
        assert metrics_from_confusion(off).weighted_f < 1.0

    def test_confusion_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, 2, 3]]))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))

    def test_from_pairs_and_add(self):
        a = ConfusionMatrix.from_pairs(3, [(0, 0), (1, 2)])
        b = ConfusionMatrix.from_pairs(3, [(1, 2)])
        assert (a + b).counts[1, 2] == 2
        assert (a + b).total == 3


class TestPollSizeBucket:
    def test_named_sizes(self):
        assert poll_size_bucket(8) == "n<10"
        assert poll_size_bucket(100) == "n≈100"
        assert poll_size_bucket(1000) == "n≈1000"
        assert poll_size_bucket(10000) == "n≈10000"

    def test_edges(self):
        assert poll_size_bucket(9) == "n<10"
        assert poll_size_bucket(10) == "n≈100"
        assert poll_size_bucket(549) == "n≈100"
        assert poll_size_bucket(550) == "n≈1000"
        assert poll_size_bucket(5499) == "n≈1000"
        assert poll_size_bucket(5500) == "n≈10000"

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            poll_size_bucket(0)


class TestParameterGrid:
    def test_default_sizes(self):
        assert len(ParameterGrid.default(Family.PRAG).points) == 3
        assert len(ParameterGrid.default(Family.TMG).points) == 3
        assert len(ParameterGrid.default(Family.LD).points) == 101
        assert len(ParameterGrid.default(Family.LDLB).points) == 101
        assert len(ParameterGrid.default(Family.CV).points) == 18
        assert len(ParameterGrid.default(Family.AU).points) == 41 * 56
        assert ParameterGrid.default(Family.TRUTH).points == ({},)

    def test_cv_grid_covers_the_poll_size_option(self):
        etas = [p["eta"] for p in ParameterGrid.default(Family.CV).points]
        assert etas[-1] == "n"
        assert 8 in etas and 10000 in etas

    def test_cv_etas_override(self):
        grid = ParameterGrid.default(Family.CV, cv_etas=(1, 2, "n"))
        assert [p["eta"] for p in grid.points] == [1, 2, "n"]

    def test_ld_grid_step(self):
        rs = [p["r"] for p in ParameterGrid.default(Family.LD).points]
        assert rs[0] == 0.0 and rs[-1] == 1.0
        assert rs[1] == 0.01 and rs[8] == 0.08

    def test_points_are_validated(self):
        with pytest.raises(ValueError):
            ParameterGrid(Family.LD, ({"r": 2.0},))
        with pytest.raises(ValueError):
            ParameterGrid(Family.PRAG, ())


class TestFitParameters:
    def rec(self, scores, action, round, u=(10.0, 5.0, 0.0)):
        return VoteRecord(
            voter_id="v1",
            round=round,
            poll=Poll.from_scores(tuple(scores)),
            utilities=UtilityFunction(tuple(u)),
            action=action,
        )

    def fit(self, family, grid, records):
        report = upper_bound_evaluate(family, grid, Dataset(records=list(records)))
        return report.fitted_params["v1"]

    def test_truthful_voter_is_perfectly_representable(self):
        # Scenario F rounds force utility weight; leader-following points fail.
        records = [
            self.rec((80, 50, 30), 0, 0),
            self.rec((30, 50, 80), 0, 1),
            self.rec((50, 30, 80), 0, 2),
            self.rec((30, 80, 50), 0, 3),
        ]
        grid = ParameterGrid.default(Family.AU)
        fitted = self.fit(Family.AU, grid, records)
        for r in records:
            got = decide_au(r.utilities, r.poll, fitted["alpha"], fitted["beta"])
            assert got == r.action

    def test_generated_voter_recovered_on_diverse_rounds(self):
        rng = np.random.default_rng(5)
        records = []
        for i in range(20):
            scores = tuple(int(v) for v in rng.permutation([30, 50, 80]))
            poll = Poll.from_scores(scores)
            u = UtilityFunction((10.0, 5.0, 0.0))
            records.append(self.rec(scores, decide_au(u, poll, 0.2, 10.0), i))
        fitted = self.fit(Family.AU, ParameterGrid.default(Family.AU), records)
        hits = sum(
            decide_au(r.utilities, r.poll, fitted["alpha"], fitted["beta"]) == r.action
            for r in records
        )
        assert hits >= 19

    def test_single_record_takes_the_first_matching_point(self):
        leader_vote = self.rec((30, 80, 50), 1, 0)
        fitted = self.fit(Family.PRAG, ParameterGrid.default(Family.PRAG), [leader_vote])
        assert fitted == {"k": 1}

    def test_refit_is_deterministic(self):
        records = [self.rec((80, 50, 30), 0, 0), self.rec((30, 50, 80), 1, 1)]
        grid = ParameterGrid.default(Family.LD)
        assert self.fit(Family.LD, grid, records) == self.fit(Family.LD, grid, records)

    def test_family_mismatch_and_empty_records(self):
        grid = ParameterGrid.default(Family.LD)
        with pytest.raises(ValueError):
            self.fit(Family.AU, grid, [self.rec((80, 50, 30), 0, 0)])
        with pytest.raises(ValueError):
            self.fit(Family.LD, grid, [])


class TestEvaluate:
    def test_truthful_population_is_fully_explained(self):
        ds = truthful_population()
        rep = loo_evaluate(Family.TRUTH, ParameterGrid.default(Family.TRUTH), ds)
        assert rep.metrics.weighted_f == 1.0

    def test_truth_upper_bound_equals_loo(self):
        ds = truthful_population()
        grid = ParameterGrid.default(Family.TRUTH)
        loo = loo_evaluate(Family.TRUTH, grid, ds)
        upper = upper_bound_evaluate(Family.TRUTH, grid, ds)
        assert loo.to_dict()["overall"] == upper.to_dict()["overall"]

    def test_generating_family_recovers_and_dominates(self):
        ds = au_population()
        au = loo_evaluate(Family.AU, ParameterGrid.default(Family.AU), ds, jobs=2)
        ld = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds, jobs=2)
        assert au.metrics.weighted_f >= 0.99
        assert ld.metrics.weighted_f < au.metrics.weighted_f

    def test_realizable_data_has_unit_ceiling(self):
        ds = au_population()
        rep = upper_bound_evaluate(Family.AU, ParameterGrid.default(Family.AU), ds, jobs=2)
        assert rep.metrics.weighted_f == 1.0

    def test_upper_bound_never_below_loo(self):
        ds = au_population(seed=33, noise=0.15)
        for family in (Family.AU, Family.LD, Family.PRAG, Family.TMG):
            grid = ParameterGrid.default(family)
            loo = loo_evaluate(family, grid, ds, jobs=2)
            upper = upper_bound_evaluate(family, grid, ds, jobs=2)
            assert upper.metrics.weighted_f >= loo.metrics.weighted_f - 1e-9

    def test_breakdowns_sum_to_overall(self):
        ds = au_population(seed=33, noise=0.15)
        rep = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds, jobs=2)
        scenario_total = sum(
            (m.counts for m in rep.per_scenario.values()),
            start=np.zeros((3, 3), dtype=np.int64),
        )
        bucket_total = sum(
            (m.counts for m in rep.per_bucket.values()),
            start=np.zeros((3, 3), dtype=np.int64),
        )
        assert np.array_equal(scenario_total, rep.overall.counts)
        assert np.array_equal(bucket_total, rep.overall.counts)
        assert rep.overall.total == len(ds.records)

    def test_worker_count_does_not_change_the_report(self):
        ds = au_population(seed=33, noise=0.15)
        grid = ParameterGrid.default(Family.AU)
        serial = loo_evaluate(Family.AU, grid, ds, jobs=1)
        parallel = loo_evaluate(Family.AU, grid, ds, jobs=4)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_single_record_voter_gets_default_point_and_flag(self):
        ds = au_population()
        keep = [r for r in ds.records if r.voter_id != "v001" or r.round == 0]
        trimmed = Dataset(records=keep, manifest={})
        rep = loo_evaluate(Family.PRAG, ParameterGrid.default(Family.PRAG), trimmed)
        assert rep.defaulted_voters == ("v001",)
        assert rep.fitted_params["v001"] == {"k": 1}

    def test_single_record_nn_voter_predicts_with_its_initial_network(self):
        ds = au_population()
        keep = [r for r in ds.records if r.voter_id != "v001" or r.round == 0]
        rep = loo_evaluate(
            Family.NN, ParameterGrid.default(Family.NN), Dataset(records=keep, manifest={})
        )
        assert rep.defaulted_voters == ("v001",)
        # Every voter keeps one record, each from a different round, so the
        # fold seed must name the voter and the round.
        voters = sorted({r.voter_id for r in ds.records})
        keep = [r for r in ds.records if r.round == voters.index(r.voter_id)]
        rep = loo_evaluate(
            Family.NN, ParameterGrid.default(Family.NN), Dataset(records=keep, manifest={}), seed=5
        )
        assert rep.defaulted_voters == tuple(voters)
        predicted = {row.voter_id: row.predicted for row in rep.rows}
        for r in keep:
            net = init_network(FEATURE_DIM, seed=derive_seed(5, "nn", r.voter_id, r.round))
            assert predicted[r.voter_id] == predict_record(net, build_profile(r.voter_id, []), r)

    def test_per_voter_f_covers_every_voter(self):
        ds = au_population()
        rep = loo_evaluate(Family.TMG, ParameterGrid.default(Family.TMG), ds)
        assert sorted(rep.per_voter_f) == ds.voters()
        assert all(0.0 <= f <= 1.0 for f in rep.per_voter_f.values())


class TestErrorBreakdown:
    def rec(self, vid, scores, action, round):
        return VoteRecord(
            voter_id=vid,
            round=round,
            poll=Poll.from_scores(tuple(scores)),
            utilities=UtilityFunction((10.0, 5.0, 0.0)),
            action=action,
        )

    def test_all_correct(self):
        ds = Dataset(records=[self.rec("v1", (80, 50, 30), 0, r) for r in range(3)])
        preds = {("v1", r): 0 for r in range(3)}
        got = error_breakdown(ds, preds)
        assert got["total"]["correct"] == 3
        assert got["total"]["unjustified"] == 0
        assert got["total"]["inconsistent"] == 0
        assert got["total"]["unexplained"] == 0

    def test_dominated_actual_is_unjustified(self):
        ds = Dataset(records=[self.rec("v1", (60, 50, 40), 2, 0)])
        got = error_breakdown(ds, {("v1", 0): 0})
        assert got["total"]["unjustified"] == 1
        assert got["A"]["unjustified"] == 1

    def test_contradicted_actual_is_inconsistent(self):
        ds = Dataset(
            records=[
                self.rec("v1", (50, 60, 40), 0, 0),
                self.rec("v1", (55, 60, 41), 1, 1),
            ]
        )
        got = error_breakdown(ds, {("v1", 0): 0, ("v1", 1): 0})
        assert got["total"]["inconsistent"] == 1
        assert got["total"]["correct"] == 1

    def test_residual_errors_are_unexplained(self):
        ds = Dataset(records=[self.rec("v1", (30, 50, 80), 1, 0)])
        got = error_breakdown(ds, {("v1", 0): 0})
        assert got["total"]["unexplained"] == 1


class TestParameterDistribution:
    def test_one_row_per_voter(self):
        ds = au_population()
        rep = loo_evaluate(Family.AU, ParameterGrid.default(Family.AU), ds, jobs=2)
        rows = parameter_distribution(rep)
        assert len(rows) == len(ds.voters())
        assert {row["voter_id"] for row in rows} == set(ds.voters())
        for row in rows:
            assert set(row) >= {"voter_id", "family", "bucket", "alpha", "beta"}

    def test_parameterless_family_exports_nothing(self):
        ds = truthful_population()
        rep = loo_evaluate(Family.TRUTH, ParameterGrid.default(Family.TRUTH), ds)
        assert parameter_distribution(rep) == []

    def test_rerun_is_identical(self):
        ds = au_population()
        grid = ParameterGrid.default(Family.AU)
        a = parameter_distribution(loo_evaluate(Family.AU, grid, ds, jobs=2))
        b = parameter_distribution(loo_evaluate(Family.AU, grid, ds, jobs=2))
        assert a == b
