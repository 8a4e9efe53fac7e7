import json
import pickle
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stratvote import behavior, cli, evaluation, models, nn, pivot
from stratvote.behavior import (
    SCENARIO_LABELS,
    SCENARIOS,
    UNCLASSIFIED,
    build_profile,
)
from stratvote.core import Poll, UtilityFunction
from stratvote.data import (
    Dataset,
    GeneratorConfig,
    ParamSampler,
    PopulationGroup,
    RecordTable,
    generate_synthetic,
    save_dataset,
)
from stratvote.evaluation import (
    ERROR_CLASSES,
    POLL_BUCKETS,
    RANK_LABELS,
    ConfusionMatrix,
    EvaluationReport,
    ParameterGrid,
    error_breakdown,
    evaluate_families,
    loo_evaluate,
    metrics_from_confusion,
    weighted_f,
)
from feature_oracle import find_inconsistent, is_unjustified, scenario_or_none
from record_oracle import (
    Record,
    by_voter,
    preference_order,
    records_of,
    report_payload,
    table_of,
)
from scalar_deciders import decide_au
from test_cli import workload_configs
from stratvote.models import DecisionContext, Family, ModelDescriptor, decide_matrix
from stratvote.nn import FEATURE_DIM, init_network, predict_record
from stratvote.seeding import derive_seed


def upper_report(grid, dataset, **kwargs):
    """A grid's ``upper`` report: each voter fit and scored on all of its records."""
    (report,) = evaluate_families([grid], dataset, "upper", **kwargs)
    return report


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
            metrics_from_confusion(ConfusionMatrix(np.zeros((3, 3))))

    def test_perfect_weighted_f_needs_a_diagonal(self):
        off = ConfusionMatrix(np.array([[5, 1, 0], [0, 3, 0], [0, 0, 2]]))
        assert metrics_from_confusion(off).weighted_f < 1.0

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 9])
    def test_weighted_f_of_a_stack_equals_each_matrix(self, m):
        rng = np.random.default_rng(m)
        for i in range(200):
            # Sparse counts leave rows, columns and whole matrices empty.
            shape = (*rng.integers(1, 4, size=rng.integers(1, 3)), m, m)
            counts = rng.integers(0, 6, size=shape) * (rng.random(shape) < 0.4)
            if i % 2:  # from m = 9 on, numpy's summation order follows the layout
                counts = np.asfortranarray(counts)
            got = np.array(weighted_f(counts), dtype=object).reshape(shape[:-2])
            for index in np.ndindex(shape[:-2]):
                if counts[index].sum():
                    want = metrics_from_confusion(ConfusionMatrix(counts[index])).weighted_f
                    assert type(got[index]) is float and got[index] == want
                else:
                    assert got[index] == ""
        assert weighted_f(np.zeros((m, m), dtype=np.int64)) == ""
        assert weighted_f(np.eye(m, dtype=np.int64)) == 1.0

    def test_confusion_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, 2, 3]]))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))


def poll_size_bucket(n: int) -> str:
    """The poll-size condition of one size, the oracle for the table's ``bucket`` column."""
    if n < 1:
        raise ValueError(f"poll size must be positive, got {n}")
    for edge, bucket in zip((10, 550, 5500), POLL_BUCKETS):
        if n < edge:
            return bucket
    return POLL_BUCKETS[-1]


def bucket_column(sizes):
    """The ``bucket`` labels a record table gives polls of these sizes."""
    u = UtilityFunction((3.0, 2.0, 1.0))
    records = [Record("v", r, Poll((n, 0, 0), n), u, 0) for r, n in enumerate(sizes)]
    return [POLL_BUCKETS[b] for b in table_of(records).bucket]


class TestPollSizeBucket:
    def test_named_sizes(self):
        sizes = [8, 100, 1000, 10000]
        assert bucket_column(sizes) == ["n<10", "n≈100", "n≈1000", "n≈10000"]
        assert bucket_column(sizes) == [poll_size_bucket(n) for n in sizes]

    def test_edges(self):
        sizes = [1, 9, 10, 549, 550, 5499, 5500, 2**63 - 1]
        assert bucket_column(sizes) == [poll_size_bucket(n) for n in sizes]
        assert bucket_column(sizes) == [
            "n<10", "n<10", "n≈100", "n≈100", "n≈1000", "n≈1000", "n≈10000", "n≈10000"
        ]

    def test_rejects_non_positive(self):
        # No bucket holds them, and no record table either.
        with pytest.raises(ValueError, match="poll size n must be positive, got 0: row 1 "):
            bucket_column([8, 0, 100])
        with pytest.raises(ValueError):
            poll_size_bucket(0)

    @pytest.mark.parametrize("name", ["cv_sweep", "many_voters", "nn_folds"])
    def test_workload_datasets(self, name):
        workload = workload_configs()[name]
        ds = generate_synthetic(GeneratorConfig.from_dict({**workload.config(), "master_seed": 1}))
        want = [poll_size_bucket(rec.poll.n) for rec in records_of(ds.records)]
        assert [POLL_BUCKETS[b] for b in ds.records.bucket] == want
        assert len(set(want)) > 1


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

    @pytest.mark.parametrize(
        "index, bad",
        [
            (-1, {"alpha": 2.05, "beta": 100}),
            (700, {"alpha": 0.5, "beta": float("nan")}),
            (3, {"alpha": 0.5, "beta": 3, "k": 1}),
            (3, {"alpha": 0.5}),
            (1500, {"alpha": [0.5], "beta": 3}),
            (1500, {"alpha": "x", "beta": 3}),
            (2000, {"alpha": 0.5, "beta": "3"}),
            (10, {"alpha": 0.5, "beta": [3]}),
        ],
    )
    def test_first_bad_point_raises_what_its_descriptor_raises(self, index, bad):
        with pytest.raises(Exception) as want:
            ModelDescriptor(family=Family.AU, **bad)
        points = list(ParameterGrid.default(Family.AU).points)
        assert len(points) == 2296
        points[index] = bad
        if index != -1:
            points[-1] = {"alpha": 0.5, "beta": -1}  # a later bad point
        with pytest.raises(type(want.value)) as got:
            ParameterGrid(Family.AU, tuple(points))
        assert str(got.value) == str(want.value)

    def test_evaluate_checks_no_point_again(self, monkeypatch):
        # A grid is checked once, when it is built; every run of voters
        # reads its columns.  Deciding checks only what needs the records.
        workload = workload_configs()["many_voters"]
        ds = generate_synthetic(GeneratorConfig.from_dict({**workload.config(), "master_seed": 1}))
        families = [Family(f) for f in workload.families.split(",")] + [Family.CV]
        grids = [ParameterGrid.default(f, cv_etas=(1, 4, "n")) for f in families]
        checked = []
        real = models.check_points

        def counting(family, points):
            checked.append(family)
            return real(family, points)

        monkeypatch.setattr(models, "check_points", counting)
        monkeypatch.setattr(evaluation, "_RUN_CELLS", 20_000)  # many runs per family
        reports = list(evaluate_families(grids, ds, "loo", seed=1))
        assert [r.family for r in reports] == [f.value for f in families]
        assert checked == []
        ParameterGrid.default(Family.AU)  # the counter counts
        assert checked == [Family.AU]

    def test_default_grid_builds_no_descriptor(self, monkeypatch):
        built = []
        monkeypatch.setattr(models.ModelDescriptor, "__post_init__", lambda self: built.append(self))
        for family in Family:
            ParameterGrid.default(family)
        assert built == []


class TestFitParameters:
    def rec(self, scores, action, round, u=(10.0, 5.0, 0.0)):
        poll, utilities = Poll.from_scores(tuple(scores)), UtilityFunction(tuple(u))
        return Record("v1", round, poll, utilities, action)

    def fit(self, grid, records):
        report = upper_report(grid, Dataset(table_of(records)))
        return report.to_dict()["fitted_params"]["v1"]

    def test_truthful_voter_is_perfectly_representable(self):
        # Scenario F rounds force utility weight; leader-following points fail.
        records = [
            self.rec((80, 50, 30), 0, 0),
            self.rec((30, 50, 80), 0, 1),
            self.rec((50, 30, 80), 0, 2),
            self.rec((30, 80, 50), 0, 3),
        ]
        grid = ParameterGrid.default(Family.AU)
        fitted = self.fit(grid, records)
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
        fitted = self.fit(ParameterGrid.default(Family.AU), records)
        hits = sum(
            decide_au(r.utilities, r.poll, fitted["alpha"], fitted["beta"]) == r.action
            for r in records
        )
        assert hits >= 19

    def test_single_record_takes_the_first_matching_point(self):
        leader_vote = self.rec((30, 80, 50), 1, 0)
        fitted = self.fit(ParameterGrid.default(Family.PRAG), [leader_vote])
        assert fitted == {"k": 1}

    def test_refit_is_deterministic(self):
        records = [self.rec((80, 50, 30), 0, 0), self.rec((30, 50, 80), 1, 1)]
        grid = ParameterGrid.default(Family.LD)
        assert self.fit(grid, records) == self.fit(grid, records)

    def test_family_mismatch_and_empty_records(self):
        grid = ParameterGrid.default(Family.LD)
        with pytest.raises(ValueError):
            loo_evaluate(Family.AU, grid, Dataset(table_of([self.rec((80, 50, 30), 0, 0)])))
        # No dataset holds no records.
        with pytest.raises(ValueError, match="at least one row"):
            RecordTable.from_columns([], [], [], np.empty((0, 3)), np.empty((0, 3)), [])


class TestEvaluate:
    def test_truthful_population_is_fully_explained(self):
        ds = truthful_population()
        rep = loo_evaluate(Family.TRUTH, ParameterGrid.default(Family.TRUTH), ds)
        assert rep.metrics.weighted_f == 1.0

    def test_truth_upper_bound_equals_loo(self):
        ds = truthful_population()
        grid = ParameterGrid.default(Family.TRUTH)
        loo = loo_evaluate(Family.TRUTH, grid, ds)
        upper = upper_report(grid, ds)
        assert loo.to_dict()["overall"] == upper.to_dict()["overall"]

    def test_generating_family_recovers_and_dominates(self):
        ds = au_population()
        au = loo_evaluate(Family.AU, ParameterGrid.default(Family.AU), ds, jobs=2)
        ld = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds, jobs=2)
        assert au.metrics.weighted_f >= 0.99
        assert ld.metrics.weighted_f < au.metrics.weighted_f

    def test_realizable_data_has_unit_ceiling(self):
        ds = au_population()
        rep = upper_report(ParameterGrid.default(Family.AU), ds, jobs=2)
        assert rep.metrics.weighted_f == 1.0

    def test_upper_bound_never_below_loo(self):
        ds = au_population(seed=33, noise=0.15)
        for family in (Family.AU, Family.LD, Family.PRAG, Family.TMG):
            grid = ParameterGrid.default(family)
            loo = loo_evaluate(family, grid, ds, jobs=2)
            upper = upper_report(grid, ds, jobs=2)
            assert upper.metrics.weighted_f >= loo.metrics.weighted_f - 1e-9

    def test_breakdowns_sum_to_overall(self):
        ds = au_population(seed=33, noise=0.15)
        rep = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds, jobs=2)
        summary = rep.to_dict()
        scenario_total, bucket_total = (
            np.sum([v["confusion"] for v in summary[key].values()], axis=0, dtype=np.int64)
            for key in ("scenarios", "poll_buckets")
        )
        assert np.array_equal(scenario_total, rep.overall.counts)
        assert np.array_equal(bucket_total, rep.overall.counts)
        assert rep.overall.total == len(ds.records)

    def test_worker_count_does_not_change_the_report(self):
        ds = au_population(seed=33, noise=0.15)
        grid = ParameterGrid.default(Family.AU)
        serial = loo_evaluate(Family.AU, grid, ds, jobs=1)
        parallel = loo_evaluate(Family.AU, grid, ds, jobs=4)
        assert json.dumps(report_payload(serial), sort_keys=True) == json.dumps(
            report_payload(parallel), sort_keys=True
        )

    def test_single_record_voter_gets_default_point_and_flag(self):
        ds = au_population()
        keep = [r for r in records_of(ds.records) if r.voter_id != "v001" or r.round == 0]
        trimmed = Dataset(table_of(keep))
        summary = loo_evaluate(Family.PRAG, ParameterGrid.default(Family.PRAG), trimmed).to_dict()
        assert summary["defaulted_voters"] == ["v001"]
        assert summary["fitted_params"]["v001"] == {"k": 1}

    def test_single_record_nn_voter_predicts_with_its_initial_network(self):
        ds = au_population()
        records = records_of(ds.records)
        keep = [r for r in records if r.voter_id != "v001" or r.round == 0]
        rep = loo_evaluate(Family.NN, ParameterGrid.default(Family.NN), Dataset(table_of(keep)))
        assert rep.to_dict()["defaulted_voters"] == ["v001"]
        # Every voter keeps one record, each from a different round, so the
        # fold seed must name the voter and the round.
        voters = list(ds.records.voter_ids)
        keep = [r for r in records if r.round == voters.index(r.voter_id)]
        rep = loo_evaluate(
            Family.NN, ParameterGrid.default(Family.NN), Dataset(table_of(keep)), seed=5
        )
        assert rep.to_dict()["defaulted_voters"] == voters
        predicted = predictions_of(rep)
        for r in keep:
            net = init_network(FEATURE_DIM, seed=derive_seed(5, "nn", r.voter_id, r.round))
            want = predict_record(net, build_profile(table_of([])), table_of([r]))
            assert predicted[(r.voter_id, r.round)] == want

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="mode must be"):
            next(evaluate_families([ParameterGrid.default(Family.LD)], au_population(), "LOO"))

    def test_per_voter_f_covers_every_voter(self):
        ds = au_population()
        per_voter_f = loo_evaluate(Family.TMG, ParameterGrid.default(Family.TMG), ds).to_dict()[
            "per_voter_f"
        ]
        assert list(per_voter_f) == list(ds.records.voter_ids)
        assert all(0.0 <= f <= 1.0 for f in per_voter_f.values())


class TestErrorBreakdown:
    def rec(self, vid, scores, action, round):
        poll, utilities = Poll.from_scores(tuple(scores)), UtilityFunction((10.0, 5.0, 0.0))
        return Record(vid, round, poll, utilities, action)

    def test_all_correct(self):
        ds = Dataset(table_of([self.rec("v1", (80, 50, 30), 0, r) for r in range(3)]))
        preds = {("v1", r): 0 for r in range(3)}
        got = error_breakdown(ds, preds)
        assert got["total"]["correct"] == 3
        assert got["total"]["unjustified"] == 0
        assert got["total"]["inconsistent"] == 0
        assert got["total"]["unexplained"] == 0

    def test_dominated_actual_is_unjustified(self):
        ds = Dataset(table_of([self.rec("v1", (60, 50, 40), 2, 0)]))
        got = error_breakdown(ds, {("v1", 0): 0})
        assert got["total"]["unjustified"] == 1
        assert got["A"]["unjustified"] == 1

    def test_contradicted_actual_is_inconsistent(self):
        ds = Dataset(
            table_of([self.rec("v1", (50, 60, 40), 0, 0), self.rec("v1", (55, 60, 41), 1, 1)])
        )
        got = error_breakdown(ds, {("v1", 0): 0, ("v1", 1): 0})
        assert got["total"]["inconsistent"] == 1
        assert got["total"]["correct"] == 1

    def test_residual_errors_are_unexplained(self):
        ds = Dataset(table_of([self.rec("v1", (30, 50, 80), 1, 0)]))
        got = error_breakdown(ds, {("v1", 0): 0})
        assert got["total"]["unexplained"] == 1


class TestParameterDistribution:
    """``cli._params_table``: each voter's fitted point and poll-size tag."""

    def test_one_row_per_voter(self):
        ds = au_population()
        summary = loo_evaluate(Family.AU, ParameterGrid.default(Family.AU), ds, jobs=2).to_dict()
        header, rows = cli._params_table(summary)
        assert header == ["voter_id", "family", "bucket", "alpha", "beta"]
        assert [row[0] for row in rows] == list(ds.records.voter_ids)
        for vid, family, bucket, alpha, beta in rows:
            assert family == "AU" and bucket == summary["voter_bucket"][vid]
            assert summary["fitted_params"][vid] == {"alpha": alpha, "beta": beta}

    def test_parameterless_family_exports_nothing(self):
        ds = truthful_population()
        rep = loo_evaluate(Family.TRUTH, ParameterGrid.default(Family.TRUTH), ds)
        assert cli._params_table(rep.to_dict()) == (["voter_id", "family", "bucket"], [])

    def test_rerun_is_identical(self):
        ds = au_population()
        grid = ParameterGrid.default(Family.AU)
        a = cli._params_table(loo_evaluate(Family.AU, grid, ds, jobs=2).to_dict())
        b = cli._params_table(loo_evaluate(Family.AU, grid, ds, jobs=2).to_dict())
        assert a == b


# --- the per-record aggregation the record table replaced, kept as the oracle


def oracle_error_breakdown(dataset, predictions):
    out = {
        label: {cls: 0 for cls in ERROR_CLASSES}
        for label in list(SCENARIOS) + [UNCLASSIFIED, "total"]
    }
    for vid, recs in by_voter(dataset.records).items():
        inconsistent = find_inconsistent(recs)
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


def predictions_of(report):
    """A report's predicted candidate per (voter id, round), read from its columns."""
    table = report.table
    keys = zip((table.voter_ids[v] for v in table.voter.tolist()), table.round.tolist())
    return dict(zip(keys, report.predicted.tolist()))


def oracle_block(counts):
    out = {"confusion": counts.tolist()}
    if counts.sum():
        out["metrics"] = metrics_from_confusion(ConfusionMatrix(counts)).to_dict()
    return out


def oracle_report(family, mode, seed, dataset, predictions, fitted):
    """A report's JSON object (:func:`report_payload`) counted record by record, one cell at a time.

    Under ``loo`` a voter of one record is defaulted: it has no training round.
    """
    grouped = by_voter(dataset.records)
    m = dataset.m
    overall = np.zeros((m, m), dtype=np.int64)
    per_scenario = {
        label: np.zeros((m, m), dtype=np.int64) for label in list(SCENARIOS) + [UNCLASSIFIED]
    }
    per_bucket = {label: np.zeros((m, m), dtype=np.int64) for label in POLL_BUCKETS}
    per_voter_f, per_voter_records, voter_bucket, rows = {}, {}, {}, []
    for vid, recs in grouped.items():
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
                {
                    "voter_id": vid,
                    "round": rec.round,
                    "scenario": scenario,
                    "bucket": bucket,
                    "actual": rec.action,
                    "predicted": predicted,
                    "actual_rank": a_rank,
                    "predicted_rank": p_rank,
                }
            )
        per_voter_f[vid] = metrics_from_confusion(ConfusionMatrix(voter_counts)).weighted_f
        per_voter_records[vid] = len(recs)
        voter_bucket[vid] = max(
            POLL_BUCKETS, key=lambda b: (bucket_tally.get(b, 0), -POLL_BUCKETS.index(b))
        )
    return {
        "family": family.value,
        "mode": mode,
        "seed": seed,
        "num_voters": len(grouped),
        "num_records": len(rows),
        "classes": list(RANK_LABELS[:m]) if m <= 3 else [f"pref_{i}" for i in range(m)],
        "overall": oracle_block(overall),
        "scenarios": {k: oracle_block(v) for k, v in per_scenario.items()},
        "poll_buckets": {k: oracle_block(v) for k, v in per_bucket.items()},
        "per_voter_f": per_voter_f,
        "per_voter_records": per_voter_records,
        "fitted_params": dict(fitted),
        "voter_bucket": voter_bucket,
        "defaulted_voters": [
            vid for vid, recs in grouped.items() if mode == "loo" and len(recs) == 1
        ],
        "error_breakdown": oracle_error_breakdown(dataset, predictions),
        "predictions": rows,
    }


def column_of(table, predictions):
    """The table's column of the predictions given per (voter id, round)."""
    keys = zip((table.voter_ids[v] for v in table.voter.tolist()), table.round.tolist())
    return [predictions[key] for key in keys]


def aggregate_predictions(dataset, predictions):
    """The report of the given predictions, one per (voter id, round)."""
    table = dataset.records
    fitted = [{} for _ in table.voter_ids]
    return EvaluationReport("LD", "loo", 0, table, column_of(table, predictions), fitted)


def oracle_poll_size_table(dataset, predictions):
    """The rows of ``cli._poll_size_table``, recounted record by record.

    Each (bucket, scenario) cell gathers its records' (actual rank,
    predicted rank) pairs and counts them one at a time, as the report
    writer did before the cube.
    """
    m = dataset.m
    per_bucket, cross = {}, {}
    for rec in records_of(dataset.records):
        rank_of = {c: i for i, c in enumerate(preference_order(rec.utilities.values))}
        pair = (rank_of[rec.action], rank_of[predictions[(rec.voter_id, rec.round)]])
        bucket = poll_size_bucket(rec.poll.n)
        scenario = scenario_or_none(rec.utilities, rec.poll) or UNCLASSIFIED
        per_bucket.setdefault(bucket, []).append(pair)
        cross.setdefault((bucket, scenario), []).append(pair)

    def weighted_f(pairs):
        if not pairs:
            return ""
        counts = np.zeros((m, m), dtype=np.int64)
        for actual, predicted in pairs:
            counts[actual, predicted] += 1
        return metrics_from_confusion(ConfusionMatrix(counts)).weighted_f

    return [
        [
            bucket,
            weighted_f(per_bucket.get(bucket)),
            *(weighted_f(cross.get((bucket, s))) for s in ("C", "D", "E", "F")),
        ]
        for bucket in POLL_BUCKETS
    ]


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
            records.append(Record(f"v{v}", r, poll, u, action))
    return Dataset(table_of(records))


class TestRecordTableAggregation:
    @pytest.mark.parametrize("m, seed", [(3, 1), (3, 2), (4, 3)])
    def test_reports_equal_the_per_record_oracle(self, m, seed):
        ds = mixed_dataset(seed, m)
        for family in (Family.LD, Family.AU, Family.TRUTH):
            grid = ParameterGrid.default(family, m=m)
            for mode in ("loo", "upper"):
                (rep,) = evaluate_families([grid], ds, mode, seed=5)
                fitted = rep.to_dict()["fitted_params"]
                want = oracle_report(family, mode, 5, ds, predictions_of(rep), fitted)
                assert report_payload(rep) == want
        # Random predictions fill every cell the evaluations leave empty, and
        # every third voter keeps one record: defaulted under loo alone.
        records = records_of(ds.records)
        ds = Dataset(table_of([r for r in records if int(r.voter_id[1:]) % 3 or r.round == 0]))
        table = ds.records
        rng = np.random.default_rng(seed)
        preds = {(rec.voter_id, rec.round): int(rng.integers(m)) for rec in records_of(table)}
        fitted = {vid: {"r": i / 100} for i, vid in enumerate(table.voter_ids)}
        for mode in ("loo", "upper"):
            got = EvaluationReport(
                "LD", mode, 9, table, column_of(table, preds), list(fitted.values())
            )
            want = oracle_report(Family.LD, mode, 9, ds, preds, fitted)
            assert report_payload(got) == want
            defaulted = ["v0", "v3", "v6"] if mode == "loo" else []
            assert got.to_dict()["defaulted_voters"] == defaulted
        assert error_breakdown(ds, preds) == oracle_error_breakdown(ds, preds)
        # The data covers what the table annotates.
        total = want["error_breakdown"]["total"]
        assert total["unjustified"] > 0 and total["inconsistent"] > 0
        assert all("metrics" in want["poll_buckets"][b] for b in POLL_BUCKETS)
        assert "metrics" in want["scenarios"][UNCLASSIFIED]
        if m == 3:
            assert any("metrics" in want["scenarios"][s] for s in SCENARIOS)

    def test_cube_counts_each_record_once_in_its_cell(self):
        # Repeated (actual, predicted) rank pairs add up in one cell.
        u, poll = UtilityFunction((3.0, 2.0, 1.0)), Poll((50, 30, 20), 100)
        table = table_of([Record("v", r, poll, u, a) for r, a in enumerate([0, 1, 1])])
        rep = EvaluationReport("LD", "upper", 0, table, [0, 2, 2], [{}])
        s, b = table.scenario[0], table.bucket[0]
        assert rep.cube[s, b].tolist() == [[1, 0, 0], [0, 0, 2], [0, 0, 0]]
        assert rep.cube.sum() == rep.overall.total == 3
        assert rep.overall.counts.tolist() == rep.cube[s, b].tolist()
        # On mixed data, cell by cell against the records.
        for m, seed in ((3, 1), (4, 3)):
            ds = mixed_dataset(seed, m)
            rng = np.random.default_rng(seed)
            records = records_of(ds.records)
            preds = {(rec.voter_id, rec.round): int(rng.integers(m)) for rec in records}
            rep = aggregate_predictions(ds, preds)
            want = np.zeros((len(SCENARIO_LABELS), len(POLL_BUCKETS), m, m), dtype=np.int64)
            for rec in records:
                rank_of = {c: i for i, c in enumerate(preference_order(rec.utilities.values))}
                scenario = scenario_or_none(rec.utilities, rec.poll) or UNCLASSIFIED
                cell = (
                    SCENARIO_LABELS.index(scenario),
                    POLL_BUCKETS.index(poll_size_bucket(rec.poll.n)),
                    rank_of[rec.action],
                    rank_of[preds[(rec.voter_id, rec.round)]],
                )
                want[cell] += 1
            assert rep.cube.dtype == np.int64 and np.array_equal(rep.cube, want)
            summary = rep.to_dict()
            for key, axis in (("scenarios", 1), ("poll_buckets", 0)):
                got = [block["confusion"] for block in summary[key].values()]
                assert got == want.sum(axis).tolist(), key
            with pytest.raises(ValueError):
                rep.cube[0, 0, 0, 0] = 1

    def test_report_keeps_its_inputs_and_counts_once(self):
        table = mixed_dataset(5, 3, num_voters=2, rounds=2).records
        fitted = [{"r": 0.1}, {"r": 0.2}]
        for predicted, points in (([0, 1, 2], fitted), ([0, 1, 2, 0], fitted[:1])):
            with pytest.raises(ValueError, match="one prediction per row"):
                EvaluationReport("LD", "loo", 0, table, predicted, points)
        rep = EvaluationReport("LD", "loo", 0, table, [0, 1, 2, 0], fitted)
        assert rep.predicted.dtype == np.int64
        assert rep.to_dict()["fitted_params"] == {"v0": {"r": 0.1}, "v1": {"r": 0.2}}
        with pytest.raises(ValueError):
            rep.predicted[0] = 1
        assert rep.cube is rep.cube

    @pytest.mark.parametrize("m, seed", [(3, 1), (3, 2), (4, 3)])
    def test_poll_size_table_equals_the_per_record_recount(self, m, seed):
        ds = mixed_dataset(seed, m)
        rng = np.random.default_rng(seed)
        random_preds = {
            (rec.voter_id, rec.round): int(rng.integers(m)) for rec in records_of(ds.records)
        }
        reports = [
            loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds),
            upper_report(ParameterGrid.default(Family.TRUTH), ds),
            aggregate_predictions(ds, random_preds),
        ]
        for rep in reports:
            header, rows = cli._poll_size_table(rep)
            assert header == ["bucket", "total", "C", "D", "E", "F"]
            assert rows == oracle_poll_size_table(ds, predictions_of(rep))
        strategic = [cell for row in rows for cell in row[2:]]
        if m == 3:
            assert "" in strategic and any(cell != "" for cell in strategic)
        else:
            assert set(strategic) == {""}

    def test_error_breakdown_needs_every_prediction(self):
        ds = mixed_dataset(4, 3)
        records = records_of(ds.records)
        preds = {(rec.voter_id, rec.round): 0 for rec in records}
        assert error_breakdown(ds, preds) == oracle_error_breakdown(ds, preds)
        del preds[(records[-1].voter_id, records[-1].round)]
        with pytest.raises(ValueError, match="missing prediction"):
            error_breakdown(ds, preds)

    def test_table_is_read_only(self):
        table = mixed_dataset(5, 3, num_voters=2, rounds=2).records
        with pytest.raises(ValueError):
            table.U[0, 0] = 1.0
        block = table.select(table.voter_rows()[1])
        assert [block.voter_ids[v] for v in block.voter] == ["v1", "v1"]
        assert block.voter.tolist() == [1, 1]
        assert block.round.tolist() == [0, 1]
        with pytest.raises(ValueError):
            block.action[0] = 2

    def test_table_is_columns_only(self):
        # A worker's task pickles arrays and voter ids, no record objects.
        table = mixed_dataset(5, 3, num_voters=2, rounds=2).records
        for field in fields(RecordTable):
            value = getattr(table, field.name)
            if field.name == "voter_ids":
                assert all(isinstance(vid, str) for vid in value)
            else:
                assert isinstance(value, np.ndarray), field.name
                assert len(value) == 4, field.name
        for family in (Family.LD, Family.NN):
            task = (table.select(table.voter_rows()[0]), ParameterGrid.default(family), "loo", 0)
            assert b"stratvote.core" not in pickle.dumps(task)

    def test_evaluate_builds_no_profile(self, tmp_path, monkeypatch):
        # The table flags inconsistent rows from its score and action
        # columns, and NN folds take their profiles from its ratio counts.
        ds = mixed_dataset(6, 3)
        csv_path, _ = save_dataset(ds, tmp_path / "data")
        calls = []
        real = behavior.build_profile

        def counting(rows):
            calls.append(rows)
            return real(rows)

        for module in (behavior, evaluation, nn, cli):
            monkeypatch.setattr(module, "build_profile", counting, raising=False)
        argv = ["evaluate", "--data", str(csv_path), "--families", "TRUTH,LD,AU,NN"]
        for mode in ("loo", "upper"):
            assert cli.main(argv + ["--mode", mode, "--out", str(tmp_path / mode)]) == 0
        assert calls == []
        assert ds.records.inconsistent.any()


# --- runs of voters: each distinct row decided once per run ------------------


def per_voter_oracle(grid, table, mode):
    """The per-voter fit that deciding each run's distinct rows replaced.

    One ``decide_matrix`` call, with a pivot cache of its own, on all of a
    voter's rows; the predicted column and fitted points, as
    ``evaluation.evaluate_families`` hands them to a report.
    """
    predicted, fitted = [], []
    for rows in table.voter_rows():
        ctx = DecisionContext(pivot_cache={})
        U, S, n = table.U[rows], table.S[rows], table.n[rows]
        D = decide_matrix(grid, U, S, n, ctx)
        M = D == table.action[rows][None, :]
        totals = M.sum(axis=1)
        fit_index = int(np.argmax(totals))
        if mode == "upper":
            picks = np.full(D.shape[1], fit_index)
        else:
            picks = np.argmax(totals[:, None] - M, axis=0)
        predicted.extend(D[picks, np.arange(D.shape[1])].tolist())
        fitted.append(dict(grid.points[fit_index]))
    return predicted, fitted


def shared_rows_dataset(seed, m, sizes=(1, 9, 4, 7, 2, 8, 5)):
    """Voters of the given sizes whose records draw on a pool of ten
    (utilities, poll) rows, so repeated rows cross voter, run and task
    boundaries."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(10):
        u = UtilityFunction(tuple(float(x) for x in rng.permutation(m) * 10 + 5))
        n = int(rng.choice([8, 100, 1000]))
        scores = tuple(int(x) for x in rng.multinomial(n, rng.dirichlet(np.ones(m))))
        pool.append((u, Poll(scores, n)))
    records = []
    for v, size in enumerate(sizes):
        for r in range(size):
            u, poll = pool[int(rng.integers(len(pool)))]
            records.append(Record(f"v{v}", r, poll, u, int(rng.integers(m))))
    return Dataset(table_of(records))


def row_keys(table, rows=slice(None)):
    return {
        (tuple(u), tuple(s), n)
        for u, s, n in zip(table.U[rows].tolist(), table.S[rows].tolist(), table.n[rows].tolist())
    }


class TestRunsOfVoters:
    @pytest.mark.parametrize("m, run_cells", [(3, None), (3, 3000), (4, None)])
    def test_reports_equal_the_per_voter_oracle(self, monkeypatch, m, run_cells):
        # 3000 cells put every AU voter in a run of their own and cut the
        # LD voters into two runs.
        if run_cells is not None:
            monkeypatch.setattr(evaluation, "_RUN_CELLS", run_cells)
        ds = shared_rows_dataset(8, m)
        table = ds.records
        per_voter = sum(len(row_keys(table, rows)) for rows in table.voter_rows())
        assert len(row_keys(table)) < per_voter < len(table.voter)
        for family in (Family.LD, Family.AU, Family.CV, Family.TRUTH):
            grid = ParameterGrid.default(family, m=m, cv_etas=(1, 4, "n"))
            for mode in ("loo", "upper"):
                oracle = per_voter_oracle(grid, table, mode)
                want = report_payload(EvaluationReport(family.value, mode, 3, table, *oracle))
                for jobs in (1, 2, 3):
                    (rep,) = evaluate_families([grid], ds, mode, jobs=jobs, seed=3)
                    assert report_payload(rep) == want

    @pytest.mark.parametrize("family", [Family.LD, Family.NN])
    def test_a_task_returns_two_int64_arrays(self, family):
        table = mixed_dataset(5, 3, num_voters=3, rounds=3).records
        grid = ParameterGrid.default(family)
        predicted, fitted = evaluation._evaluate_voters((table, grid, "loo", 0))
        assert predicted.dtype == fitted.dtype == np.int64
        assert predicted.shape == (len(table),) and fitted.shape == (len(table.voter_ids),)
        if family is Family.NN:  # an index into the one-point grid ({},)
            assert fitted.tolist() == [0, 0, 0]
        else:
            want_predicted, want_points = per_voter_oracle(grid, table, "loo")
            assert predicted.tolist() == want_predicted
            assert [grid.points[i] for i in fitted.tolist()] == want_points

    @pytest.mark.parametrize("family, run_cells", [(Family.LD, 101 * 75), (Family.AU, None)])
    def test_no_call_exceeds_the_cell_bound_but_a_single_voter(
        self, monkeypatch, family, run_cells
    ):
        if run_cells is not None:
            monkeypatch.setattr(evaluation, "_RUN_CELLS", run_cells)
        bound, grid = evaluation._RUN_CELLS, ParameterGrid.default(family)
        sizes = (30, 40, 50, 200, 5, 60)
        rng = np.random.default_rng(3)
        records = [
            Record(
                f"v{v}",
                r,
                Poll.from_scores(tuple(int(x) for x in rng.integers(0, 50, size=3))),
                # Voter v's utilities lie in [100 v, 100 v + 100): a row names its voter.
                UtilityFunction(tuple(float(x) for x in 100 * v + rng.permutation(3) * 10)),
                int(rng.integers(3)),
            )
            for v, size in enumerate(sizes)
            for r in range(size)
        ]
        calls = []
        real = models.decide_matrix

        def recording(grid, U, S, n, context=None):
            voters = sorted(set((U.max(axis=1) // 100).astype(int).tolist()))
            calls.append((len(grid.points), voters))
            return real(grid, U, S, n, context)

        monkeypatch.setattr(models, "decide_matrix", recording)
        ds = Dataset(table_of(records))
        table = ds.records
        got = loo_evaluate(family, grid, ds)
        cells = [(points * sum(sizes[v] for v in voters), voters) for points, voters in calls]
        assert all(size <= bound or len(voters) == 1 for size, voters in cells)
        assert [v for _, voters in cells for v in voters] == list(range(len(sizes)))
        assert any(len(voters) > 1 for _, voters in cells)
        assert any(size > bound for size, _ in cells)
        oracle = per_voter_oracle(grid, table, "loo")
        want = EvaluationReport(family.value, "loo", 0, table, *oracle)
        assert report_payload(got) == report_payload(want)

    def test_an_au_task_holds_one_run_of_decisions_at_a_time(self):
        # Each run's decision matrix is freed before the next run is
        # decided, so a task's traced peak does not grow with its runs.
        import tracemalloc

        grid, rows = ParameterGrid.default(Family.AU), 12
        per_run = evaluation._RUN_CELLS // (len(grid.points) * rows)  # voters
        rng = np.random.default_rng(5)

        def table(voters):
            R = voters * rows
            S = rng.integers(0, 1000, size=(R, 3))
            U = np.array([rng.permutation(3) * 10.0 + 100 * j for j in range(R)])  # all distinct
            ids = [f"v{v:03d}" for v in range(voters) for _ in range(rows)]
            return RecordTable.from_columns(
                ids, list(range(rows)) * voters, S.sum(axis=1), S, U, rng.integers(0, 3, R)
            )

        peaks = {}
        for runs in (1, 2, 8):
            task = (table(per_run * runs), grid, "loo", 0)
            assert len(evaluation._grid_runs(task[0].voter_rows(), len(grid.points))) == runs
            evaluation._evaluate_voters(task)  # warm numpy's caches first
            tracemalloc.start()
            try:
                evaluation._evaluate_voters(task)
                peaks[runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        matrix = 8 * len(grid.points) * per_run * rows  # one run's int64 decisions
        assert peaks[1] > matrix
        assert abs(peaks[8] - peaks[2]) < matrix / 4, peaks
        assert abs(peaks[8] - peaks[1]) < matrix / 4, peaks

    def test_cv_builds_each_table_once_per_run(self, monkeypatch):
        keys = []
        real = pivot._cv_table

        def counting(scores, eta):
            keys.append((scores, eta))
            return real(scores, eta)

        monkeypatch.setattr(pivot, "_cv_table", counting)
        ds = shared_rows_dataset(9, 3)
        table = ds.records
        etas = (1, 4, "n")
        grid = ParameterGrid.default(Family.CV, cv_etas=etas)

        def tables(rows):
            return {
                (tuple(s), n if eta == "n" else eta)
                for s, n in zip(table.S[rows].tolist(), table.n[rows].tolist())
                for eta in etas
            }

        # Every voter in one run: each table is built once.
        loo_evaluate(Family.CV, grid, ds)
        assert sorted(keys) == sorted(tables(slice(None)))
        # Every voter in a run of their own: once per voter that needs it.
        monkeypatch.setattr(evaluation, "_RUN_CELLS", 1)
        keys.clear()
        loo_evaluate(Family.CV, grid, ds)
        per_voter = [key for rows in table.voter_rows() for key in tables(rows)]
        assert sorted(keys) == sorted(per_voter)
        assert len(per_voter) > len(tables(slice(None)))


class FakeContext:
    """Stands in for a fork context: records the pool size, runs tasks in process."""

    def __init__(self, sizes):
        self.sizes = sizes

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks):
        return (fn(task) for task in tasks)


class TestWorkerPool:
    @pytest.mark.parametrize("jobs, voters, workers", [(8, 6, 6), (2, 6, 2), (1, 6, 0), (4, 1, 0)])
    def test_pool_has_at_most_one_worker_per_voter(self, monkeypatch, jobs, voters, workers):
        sizes = []
        monkeypatch.setattr(evaluation, "get_context", lambda method: FakeContext(sizes))
        ds = mixed_dataset(7, 3, num_voters=voters, rounds=2)
        serial = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds)
        pooled = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), ds, jobs=jobs)
        assert sizes == ([workers] if workers else [])
        assert report_payload(pooled) == report_payload(serial)

    @pytest.mark.parametrize("family", [Family.LD, Family.NN])
    @pytest.mark.parametrize("jobs", [2, 3, 5, 8])
    def test_one_task_per_worker_covering_each_voter_once_in_order(
        self, monkeypatch, family, jobs
    ):
        sizes, tasks = [], []
        context = RecordingContext(sizes, tasks)
        monkeypatch.setattr(evaluation, "get_context", lambda method: context)
        # Voters of 1 to 6 records: v0 holds 1, v1 holds 2, and so on.
        records = records_of(mixed_dataset(5, 3, num_voters=6, rounds=6).records)
        ds = Dataset(table_of([r for r in records if r.round <= int(r.voter_id[1:])]))
        grid = ParameterGrid.default(family)
        pooled = loo_evaluate(family, grid, ds, jobs=jobs)
        workers = min(jobs, 6)
        assert sizes == [workers] and len(tasks) == workers
        voters = [v for block, *_ in tasks for v in block.voter.tolist()]
        assert voters == sorted(voters)
        assert sorted(set(voters)) == list(range(6))
        assert sum(len(block.voter) for block, *_ in tasks) == len(ds.records)
        assert report_payload(pooled) == report_payload(loo_evaluate(family, grid, ds))

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_every_family_shares_one_pool(self, monkeypatch, jobs):
        sizes, tasks, done = [], [], []
        context = RecordingContext(sizes, tasks)
        monkeypatch.setattr(evaluation, "get_context", lambda method: context)
        real = evaluation._evaluate_voters

        def counting(task):
            done.append(task[1].family)
            return real(task)

        monkeypatch.setattr(evaluation, "_evaluate_voters", counting)
        ds = mixed_dataset(7, 3, num_voters=6, rounds=3)
        grids = [ParameterGrid.default(f) for f in (Family.LD, Family.NN, Family.AU)]
        stream = evaluate_families(grids, ds, "loo", jobs=jobs)
        first = next(stream)
        workers = min(jobs, 6)
        # The first report comes as soon as its own tasks are back.
        assert done == [Family.LD] * workers
        pooled = [first, *stream]
        assert sizes == [workers]
        assert [grid for _, grid, *_ in tasks] == [grid for grid in grids for _ in range(workers)]
        serial = evaluate_families(grids, ds, "loo")
        assert [report_payload(r) for r in pooled] == [report_payload(r) for r in serial]
        assert sizes == [workers]


class RecordingContext(FakeContext):
    """A fake fork context that also keeps the tasks handed to ``map``."""

    def __init__(self, sizes, tasks):
        super().__init__(sizes)
        self.tasks = tasks

    def imap(self, fn, tasks):
        self.tasks.extend(tasks)
        return super().imap(fn, tasks)


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
    # Nor OpenSSL (through hashlib) nor the pivot code: each loads on first use.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = """
import sys
import stratvote.cli
lazy = ("scipy", "multiprocessing", "stratvote.nn", "hashlib", "_hashlib", "stratvote.pivot")
loaded = [m for m in lazy if m in sys.modules]
assert not loaded, loaded
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cheap_families_leave_openssl_and_the_pivot_code_unloaded(tmp_path):
    # An in-process evaluate of TRUTH through AU derives no seed and builds
    # no pivot table, so it loads neither.
    import os
    import subprocess
    import sys
    from pathlib import Path

    config = {**workload_configs()["many_voters"].config(), "num_voters": 3}
    (tmp_path / "config.json").write_text(json.dumps(config))
    d = str(tmp_path)
    assert cli.main(["simulate", "--config", d + "/config.json", "--seed", "1", "--out", d]) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"""
import sys
from stratvote import cli

d = {d!r}
families = "TRUTH,BR,PRAG,LD,LDLB,TMG,AU"
argv = ["evaluate", "--data", d, "--families", families, "--jobs", "1", "--out", d + "/reports"]
assert cli.main(argv) == 0
loaded = [m for m in ("_hashlib", "stratvote.pivot") if m in sys.modules]
assert not loaded, loaded
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cv_pool_loads_scipy_before_forking():
    # Only m >= 4 tables take binomial tails from scipy, so only then is it
    # loaded once before the pool forks; m = 3 loads it nowhere.  Likewise
    # the pivot code is loaded before the fork only when CV is pooled, and
    # the network code and OpenSSL (NN folds derive seeds) when NN is.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = """
import sys
from stratvote import evaluation
from stratvote.data import Dataset, RecordTable
from stratvote.evaluation import ParameterGrid, evaluate_families, loo_evaluate
from stratvote.models import Family

class Context:
    def Pool(self, processes):
        seen.append(tuple(m in sys.modules for m in lazy))
        return self
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def imap(self, fn, tasks):
        return (fn(task) for task in tasks)

def dataset(scores):
    U = [[10.0 * k for k in range(len(scores))]] * 2
    return Dataset(RecordTable.from_columns(["a", "b"], [0, 0], [10, 10], [scores] * 2, U, [0, 0]))

seen, lazy = [], ("scipy.special", "stratvote.nn", "stratvote.pivot", "_hashlib")
evaluation.get_context = lambda method: Context()
three, four = dataset((5, 3, 2)), dataset((4, 3, 2, 1))
loo_evaluate(Family.TRUTH, ParameterGrid.default(Family.TRUTH), four, jobs=2)
grids = [ParameterGrid.default(f, cv_etas=(4, 1000)) for f in (Family.TRUTH, Family.CV)]
list(evaluate_families(grids, three, "loo", jobs=2))  # the tasks run in this process
assert "scipy" not in sys.modules and "stratvote.nn" not in sys.modules
nn_grids = [ParameterGrid.default(f) for f in (Family.TRUTH, Family.NN)]
list(evaluate_families(nn_grids, three, "loo", jobs=2))
# scipy loads numpy.random, and with it OpenSSL, so NN goes first.
list(evaluate_families(grids, four, "loo", jobs=2))  # one pool, CV among its families
want = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1)]
assert seen == [tuple(map(bool, w)) for w in want], seen
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_three_candidate_cv_runs_leave_scipy_unloaded(tmp_path):
    # simulate of a CV group, evaluate's default CV grid and predict --model
    # CV: every m = 3 table takes its logs from libm, not scipy, and none of
    # them makes a pool or trains a network.
    import os
    import subprocess
    import sys
    from pathlib import Path

    config = {**workload_configs()["cv_sweep"].config(), "num_voters": 2}
    (tmp_path / "config.json").write_text(json.dumps(config))
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"""
import sys
from stratvote import cli

d = {str(tmp_path)!r}
assert cli.main(["simulate", "--config", d + "/config.json", "--seed", "1", "--out", d]) == 0
argv = ["evaluate", "--data", d, "--families", "CV", "--jobs", "1", "--out", d + "/reports"]
assert cli.main(argv) == 0
argv = ["predict", "--data", d, "--model", "CV", "--eta", "n", "--out", d + "/predicted.csv"]
assert cli.main(argv) == 0
loaded = [m for m in ("scipy", "multiprocessing", "stratvote.nn") if m in sys.modules]
assert not loaded, loaded
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
