import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stratvote import cli, evaluation
from stratvote.behavior import (
    SCENARIOS,
    UNCLASSIFIED,
    build_profile,
    is_unjustified,
    scenario_or_none,
)
from stratvote.core import Poll, UtilityFunction, preference_order
from stratvote.data import (
    Dataset,
    GeneratorConfig,
    ParamSampler,
    PopulationGroup,
    VoteRecord,
    generate_synthetic,
    save_dataset,
)
from stratvote.evaluation import (
    ERROR_CLASSES,
    POLL_BUCKETS,
    ConfusionMatrix,
    EvaluationReport,
    ParameterGrid,
    PredictionRow,
    RecordTable,
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


# --- the per-record aggregation the record table replaced, kept as the oracle


def oracle_error_breakdown(dataset, predictions):
    profiles = {vid: build_profile(vid, recs) for vid, recs in dataset.by_voter().items()}
    out = {
        label: {cls: 0 for cls in ERROR_CLASSES}
        for label in list(SCENARIOS) + [UNCLASSIFIED, "total"]
    }
    for vid, recs in dataset.by_voter().items():
        inconsistent = profiles[vid].inconsistent_records
        for idx, rec in enumerate(recs):
            scenario = scenario_or_none(rec.utilities, rec.poll) or UNCLASSIFIED
            if predictions[(vid, rec.round)] == rec.action:
                cls = "correct"
            elif is_unjustified(rec.utilities, rec.poll, rec.action):
                cls = "unjustified"
            elif idx in inconsistent:
                cls = "inconsistent"
            else:
                cls = "unexplained"
            out[scenario][cls] += 1
            out["total"][cls] += 1
    return out


def oracle_report(family, mode, seed, dataset, predictions, fitted, defaulted):
    by_voter = dataset.by_voter()
    m = dataset.m
    overall = np.zeros((m, m), dtype=np.int64)
    per_scenario = {
        label: np.zeros((m, m), dtype=np.int64) for label in list(SCENARIOS) + [UNCLASSIFIED]
    }
    per_bucket = {label: np.zeros((m, m), dtype=np.int64) for label in POLL_BUCKETS}
    per_voter_f, per_voter_records, voter_bucket, rows = {}, {}, {}, []
    for vid, recs in by_voter.items():
        voter_counts = np.zeros((m, m), dtype=np.int64)
        bucket_tally = Counter()
        for rec in recs:
            predicted = predictions[(vid, rec.round)]
            rank_of = {c: i for i, c in enumerate(preference_order(rec.utilities.values))}
            a_rank, p_rank = rank_of[rec.action], rank_of[predicted]
            scenario = scenario_or_none(rec.utilities, rec.poll) or UNCLASSIFIED
            bucket = poll_size_bucket(rec.poll.n)
            for counts in (overall, per_scenario[scenario], per_bucket[bucket], voter_counts):
                counts[a_rank, p_rank] += 1
            bucket_tally[bucket] += 1
            rows.append(
                PredictionRow(vid, rec.round, scenario, bucket, rec.action, predicted, a_rank, p_rank)
            )
        per_voter_f[vid] = metrics_from_confusion(ConfusionMatrix(voter_counts)).weighted_f
        per_voter_records[vid] = len(recs)
        voter_bucket[vid] = max(
            POLL_BUCKETS, key=lambda b: (bucket_tally.get(b, 0), -POLL_BUCKETS.index(b))
        )
    return EvaluationReport(
        family=family.value,
        mode=mode,
        seed=seed,
        num_voters=len(by_voter),
        overall=ConfusionMatrix(overall),
        per_scenario={k: ConfusionMatrix(v) for k, v in per_scenario.items()},
        per_bucket={k: ConfusionMatrix(v) for k, v in per_bucket.items()},
        per_voter_f=per_voter_f,
        per_voter_records=per_voter_records,
        fitted_params=dict(fitted),
        voter_bucket=voter_bucket,
        defaulted_voters=tuple(defaulted),
        rows=tuple(rows),
        error_breakdown=oracle_error_breakdown(dataset, predictions),
    )


def mixed_dataset(seed, m, num_voters=7, rounds=8):
    """Every poll-size bucket, tied polls, and unjustified and inconsistent votes.

    Odd rounds repeat the previous round's poll with a fresh random action,
    so two records of one poll with different actions contradict each other.
    """
    rng = np.random.default_rng(seed)
    records = []
    for v in range(num_voters):
        for r in range(rounds):
            if r % 2 == 0:
                u = UtilityFunction(tuple(float(x) for x in rng.permutation(m) * 10 + 5))
                n = int(rng.choice([8, 100, 1000, 10000]))
                if rng.random() < 0.3:
                    scores = [n // m] * m  # a tie: no scenario
                    scores[int(rng.integers(m))] = 0 if rng.random() < 0.5 else n // m
                    scores = tuple(scores)
                else:
                    scores = tuple(int(x) for x in rng.multinomial(n, rng.dirichlet(np.ones(m))))
                poll = Poll(scores, n)
            action = int(rng.integers(m))
            records.append(VoteRecord(f"v{v}", r, poll, u, action))
    return Dataset(records=records)


class TestRecordTableAggregation:
    @pytest.mark.parametrize("m, seed", [(3, 1), (3, 2), (4, 3)])
    def test_reports_equal_the_per_record_oracle(self, m, seed):
        ds = mixed_dataset(seed, m)
        table = RecordTable.from_dataset(ds)
        for family in (Family.LD, Family.AU, Family.TRUTH):
            grid = ParameterGrid.default(family, m=m)
            for mode, run in (("loo", loo_evaluate), ("upper", upper_bound_evaluate)):
                for data in (ds, table):
                    rep = run(family, grid, data, seed=5)
                    preds = {(row.voter_id, row.round): row.predicted for row in rep.rows}
                    want = oracle_report(
                        family, mode, 5, ds, preds, rep.fitted_params, rep.defaulted_voters
                    )
                    assert rep.to_dict() == want.to_dict()
        # Random predictions fill every cell the evaluations leave empty.
        rng = np.random.default_rng(seed)
        preds = {(rec.voter_id, rec.round): int(rng.integers(m)) for rec in ds.records}
        results = [
            {
                "predicted": [preds[(vid, rec.round)] for rec in recs],
                "fitted": {"r": 0.5},
                "defaulted": i % 3 == 0,
            }
            for i, (vid, recs) in enumerate(ds.by_voter().items())
        ]
        got = evaluation._aggregate(Family.LD, "loo", 9, table, results)
        fitted = {vid: {"r": 0.5} for vid in ds.voters()}
        defaulted = [vid for i, vid in enumerate(ds.voters()) if i % 3 == 0]
        want = oracle_report(Family.LD, "loo", 9, ds, preds, fitted, defaulted)
        assert got.to_dict() == want.to_dict()
        assert error_breakdown(ds, preds) == oracle_error_breakdown(ds, preds)
        # The data covers what the table annotates.
        total = want.error_breakdown["total"]
        assert total["unjustified"] > 0 and total["inconsistent"] > 0
        assert all(want.per_bucket[b].total > 0 for b in POLL_BUCKETS)
        assert want.per_scenario[UNCLASSIFIED].total > 0
        if m == 3:
            assert sum(want.per_scenario[s].total for s in SCENARIOS) > 0

    def test_error_breakdown_takes_given_profiles(self):
        ds = mixed_dataset(4, 3)
        preds = {(rec.voter_id, rec.round): 0 for rec in ds.records}
        profiles = {vid: build_profile(vid, recs) for vid, recs in ds.by_voter().items()}
        assert error_breakdown(ds, preds, profiles) == oracle_error_breakdown(ds, preds)
        with pytest.raises(ValueError, match="missing prediction"):
            error_breakdown(RecordTable.from_dataset(ds), {})

    def test_table_is_read_only(self):
        table = RecordTable.from_dataset(mixed_dataset(5, 3, num_voters=2, rounds=2))
        with pytest.raises(ValueError):
            table.U[0, 0] = 1.0
        block = table.select(table.voter_rows()[1])
        assert [rec.voter_id for rec in block.records] == ["v1", "v1"]
        assert block.voter.tolist() == [1, 1]

    def test_evaluate_builds_each_profile_once(self, tmp_path, monkeypatch):
        ds = mixed_dataset(6, 3)
        csv_path, _ = save_dataset(ds, tmp_path / "data")
        calls = []
        real = evaluation.build_profile

        def counting(vid, recs, **kwargs):
            calls.append(vid)
            return real(vid, recs, **kwargs)

        monkeypatch.setattr(evaluation, "build_profile", counting)
        argv = ["evaluate", "--data", str(csv_path), "--families", "TRUTH,LD,AU"]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert sorted(calls) == ds.voters()


class FakeContext:
    """Stands in for a fork context: records the pool size, maps in process."""

    def __init__(self, sizes):
        self.sizes = sizes

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


class TestWorkerPool:
    @pytest.mark.parametrize("jobs, voters, workers", [(8, 6, 6), (2, 6, 2), (1, 6, 0), (4, 1, 0)])
    def test_pool_has_at_most_one_worker_per_voter(self, monkeypatch, jobs, voters, workers):
        sizes = []
        monkeypatch.setattr(evaluation, "get_context", lambda method: FakeContext(sizes))
        ds = mixed_dataset(7, 3, num_voters=voters, rounds=2)
        serial = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds)
        pooled = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds, jobs=jobs)
        assert sizes == ([workers] if workers else [])
        assert pooled.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("family", [Family.LD, Family.NN])
    @pytest.mark.parametrize("jobs", [2, 3, 5, 8])
    def test_one_task_per_worker_covering_each_voter_once_in_order(
        self, monkeypatch, family, jobs
    ):
        sizes, tasks = [], []
        context = RecordingContext(sizes, tasks)
        monkeypatch.setattr(evaluation, "get_context", lambda method: context)
        # Voters of 1 to 6 records: v0 holds 1, v1 holds 2, and so on.
        records = mixed_dataset(5, 3, num_voters=6, rounds=6).records
        ds = Dataset([r for r in records if r.round <= int(r.voter_id[1:])])
        grid = ParameterGrid.default(family)
        pooled = loo_evaluate(family, grid, ds, jobs=jobs)
        workers = min(jobs, 6)
        assert sizes == [workers] and len(tasks) == workers
        voters = [v for block, *_ in tasks for v in block.voter.tolist()]
        assert voters == sorted(voters)
        assert sorted(set(voters)) == list(range(6))
        assert sum(len(block.records) for block, *_ in tasks) == len(ds.records)
        assert pooled.to_dict() == loo_evaluate(family, grid, ds).to_dict()


class RecordingContext(FakeContext):
    """A fake fork context that also keeps the tasks handed to ``map``."""

    def __init__(self, sizes, tasks):
        super().__init__(sizes)
        self.tasks = tasks

    def map(self, fn, tasks):
        self.tasks.extend(tasks)
        return super().map(fn, tasks)


@given(
    st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=30),
)
def test_voter_runs_are_contiguous_non_empty_and_balanced(counts, k):
    k = min(k, len(counts))
    ends = np.cumsum(counts).tolist()
    voter_rows = [slice(start, stop) for start, stop in zip([0, *ends], ends)]
    runs = evaluation._voter_runs(voter_rows, k)
    assert len(runs) == k
    assert [run.start for run in runs] == [0, *(run.stop for run in runs[:-1])]
    assert runs[-1].stop == ends[-1]
    assert all(run.stop > run.start and run.stop in ends for run in runs)
    if k == 2:
        # The one cut is the voter boundary nearest half the records.
        assert abs(runs[0].stop * 2 - ends[-1]) == min(abs(e * 2 - ends[-1]) for e in ends[:-1])


@pytest.mark.parametrize(
    "counts, k, stops",
    [
        ([1, 2, 5, 7], 2, [8, 15]),
        ([1, 2, 5, 7], 3, [3, 8, 15]),
        ([4, 4, 4, 4, 4, 4], 4, [4, 12, 16, 24]),  # ties go to the earlier boundary
        ([20, 1, 1, 1], 3, [20, 21, 23]),
        ([1, 1, 1, 20], 3, [2, 3, 23]),  # every run keeps a voter
    ],
)
def test_voter_runs_cut_at_the_nearest_boundary(counts, k, stops):
    ends = np.cumsum(counts).tolist()
    voter_rows = [slice(start, stop) for start, stop in zip([0, *ends], ends)]
    assert [run.stop for run in evaluation._voter_runs(voter_rows, k)] == stops


def test_cli_import_leaves_scipy_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = "import stratvote.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)}, check=True)


def test_cv_pool_loads_scipy_before_forking():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = """
import sys
from stratvote import evaluation
from stratvote.core import Poll, UtilityFunction
from stratvote.data import Dataset, VoteRecord
from stratvote.evaluation import ParameterGrid, loo_evaluate
from stratvote.models import Family

class Context:
    def Pool(self, processes):
        seen.append("scipy.special" in sys.modules)
        return self
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, tasks):
        return [fn(task) for task in tasks]

seen = []
evaluation.get_context = lambda method: Context()
u = UtilityFunction((10.0, 5.0, 0.0))
ds = Dataset([VoteRecord(v, 0, Poll((5, 3, 2), 10), u, 0) for v in ("a", "b")])
loo_evaluate(Family.TRUTH, ParameterGrid.default(Family.TRUTH), ds, jobs=2)
loo_evaluate(Family.CV, ParameterGrid.default(Family.CV, cv_etas=(4,)), ds, jobs=2)
assert seen == [False, True], seen
"""
    subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)}, check=True)
