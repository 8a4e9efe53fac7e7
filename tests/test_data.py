import numpy as np
import pytest

from stratvote.behavior import SCENARIOS
from stratvote.core import Poll, UtilityFunction, preference_order
from stratvote.data import (
    DataError,
    Dataset,
    GeneratorConfig,
    ParamSampler,
    PopulationGroup,
    VoteRecord,
    format_action,
    generate_synthetic,
    load_dataset,
    parse_action,
    save_dataset,
)
from stratvote.models import Family, ModelDescriptor, decide
from feature_oracle import classify_scenario

HEADER = "voter_id,round,n,s_1,s_2,s_3,u_1,u_2,u_3,action\n"


def write(tmp_path, body, header=HEADER):
    path = tmp_path / "dataset.csv"
    path.write_text(header + body, encoding="utf-8")
    return path


def truth_config(**kwargs):
    defaults = dict(
        num_voters=4,
        rounds_per_voter=6,
        groups=(PopulationGroup(family=Family.TRUTH, weight=1.0),),
        poll_sizes=((100, 1.0),),
        master_seed=5,
    )
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


class TestActionCodec:
    def test_round_trip(self):
        for c in range(5):
            assert parse_action(format_action(c), 5) == c

    def test_one_based_labels(self):
        assert format_action(0) == "q1"
        assert parse_action("q2", 3) == 1
        assert parse_action("2", 3) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_action("q9", 3)
        with pytest.raises(ValueError):
            parse_action("q0", 3)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_action("qx", 3)


class TestLoad:
    def test_canonical_row(self, tmp_path):
        path = write(tmp_path, "v17,3,295,25,70,20,40,30,20,q2\n")
        ds = load_dataset(path)
        assert len(ds.records) == 1
        rec = ds.records[0]
        assert rec.voter_id == "v17"
        assert rec.round == 3
        assert rec.poll == Poll(scores=(25, 70, 20), n=295)
        assert rec.utilities.values == (40.0, 30.0, 20.0)
        assert rec.action == 1

    def test_directory_path_and_manifest_pickup(self, tmp_path):
        write(tmp_path, "v1,0,100,50,30,20,10,5,0,q1\n")
        (tmp_path / "manifest.json").write_text('{"m": 3, "source": "unit"}\n')
        ds = load_dataset(tmp_path)
        assert ds.manifest["source"] == "unit"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no records"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="no records"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such dataset"):
            load_dataset(tmp_path / "nope.csv")

    def test_bad_action_reported_with_row_number(self, tmp_path):
        path = write(
            tmp_path,
            "v1,0,100,50,30,20,10,5,0,q1\nv1,1,100,50,30,20,10,5,0,q9\n",
        )
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path)

    def test_duplicate_voter_round_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "v1,0,100,50,30,20,10,5,0,q1\nv1,0,100,50,30,20,10,5,0,q2\n",
        )
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path)

    def test_non_integer_score_rejected(self, tmp_path):
        path = write(tmp_path, "v1,0,100,50.5,30,20,10,5,0,q1\n")
        with pytest.raises(DataError, match="non-integer score"):
            load_dataset(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = write(tmp_path, "v1,0,100,50,30,20,10,5,0,q1\n", header="a,b,c\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    def test_all_problems_reported_together(self, tmp_path):
        path = write(
            tmp_path,
            "v1,0,100,50,30,20,10,5,0,q9\nv1,x,100,50,30,20,10,5,0,q1\n",
        )
        with pytest.raises(DataError, match="row 1.*row 2"):
            load_dataset(path)


class TestSaveLoadRoundTrip:
    def test_field_for_field(self, tmp_path):
        ds = generate_synthetic(truth_config())
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path / "dataset.csv")
        assert back.records == ds.records
        assert back.manifest["config"] == ds.manifest["config"]

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(DataError):
            save_dataset(Dataset(records=[]), tmp_path)


class TestDataset:
    def rec(self, vid, rnd, action=0):
        return VoteRecord(
            voter_id=vid,
            round=rnd,
            poll=Poll.from_scores((50, 30, 20)),
            utilities=UtilityFunction((10.0, 5.0, 0.0)),
            action=action,
        )

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            Dataset(records=[self.rec("v1", 0), self.rec("v1", 0)])

    def test_by_voter_sorts_rounds(self):
        ds = Dataset(records=[self.rec("v2", 1), self.rec("v1", 1), self.rec("v1", 0)])
        grouped = ds.by_voter()
        assert list(grouped) == ["v1", "v2"]
        assert [r.round for r in grouped["v1"]] == [0, 1]


class TestSamplers:
    def test_value(self):
        rng = np.random.default_rng(0)
        assert ParamSampler.value(2).sample(rng) == 2

    def test_choices_stay_in_support(self):
        rng = np.random.default_rng(0)
        s = ParamSampler.choices((0.02, 0.08, 0.30))
        assert all(s.sample(rng) in (0.02, 0.08, 0.30) for _ in range(50))

    def test_uniform_stays_in_range(self):
        rng = np.random.default_rng(0)
        s = ParamSampler.uniform(0.5, 1.5)
        assert all(0.5 <= s.sample(rng) <= 1.5 for _ in range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSampler.choices(())
        with pytest.raises(ValueError):
            ParamSampler.uniform(2.0, 1.0)


class TestGeneratorConfig:
    def test_round_trips_through_dict(self):
        config = truth_config(
            poll_sizes=((8, 0.5), (100, 0.5)),
            poll_size_mode="per_round",
            poll_concentrations=(1.0, 12.0),
            repeats=2,
            scenario_mode="cycle",
            noise=0.1,
        )
        assert GeneratorConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            truth_config(num_voters=0)
        with pytest.raises(ValueError):
            truth_config(noise=1.5)
        with pytest.raises(ValueError):
            truth_config(poll_sizes=((1, 1.0),))
        with pytest.raises(ValueError):
            truth_config(scenario_weights={"Z": 1.0})
        with pytest.raises(ValueError):
            truth_config(poll_concentrations=(0.0,))
        with pytest.raises(ValueError):
            truth_config(repeats=0)
        with pytest.raises(ValueError):
            truth_config(groups=())

    def test_nn_cannot_generate(self):
        with pytest.raises(ValueError):
            PopulationGroup(family=Family.NN, weight=1.0)


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path):
        config = truth_config(noise=0.2)
        save_dataset(generate_synthetic(config), tmp_path / "a")
        save_dataset(generate_synthetic(config), tmp_path / "b")
        assert (tmp_path / "a/dataset.csv").read_bytes() == (tmp_path / "b/dataset.csv").read_bytes()
        assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()

    def test_different_seeds_differ(self):
        a = generate_synthetic(truth_config(master_seed=1))
        b = generate_synthetic(truth_config(master_seed=2))
        assert a.records != b.records

    def test_noise_free_truth_votes_top_choice(self):
        ds = generate_synthetic(truth_config())
        for rec in ds.records:
            assert rec.action == preference_order(rec.utilities.values)[0]

    def test_generated_polls_are_strictly_ordered(self):
        ds = generate_synthetic(truth_config(num_voters=10))
        for rec in ds.records:
            assert len(set(rec.poll.scores)) == 3
            assert classify_scenario(rec.utilities, rec.poll) in SCENARIOS

    def test_actions_reproducible_from_recorded_descriptor(self):
        config = truth_config(
            groups=(
                PopulationGroup(
                    family=Family.AU,
                    weight=1.0,
                    params={
                        "alpha": ParamSampler.choices((0.2, 1.0, 1.8)),
                        "beta": ParamSampler.choices((3.0, 12.0, 40.0)),
                    },
                ),
                PopulationGroup(
                    family=Family.CV,
                    weight=1.0,
                    params={"eta": ParamSampler.choices((2, 8))},
                ),
            ),
            num_voters=6,
        )
        ds = generate_synthetic(config)
        assignments = ds.manifest["model_assignments"]
        for vid, recs in ds.by_voter().items():
            desc = ModelDescriptor(
                family=Family(assignments[vid]["family"]),
                **assignments[vid]["params"],
            )
            for rec in recs:
                assert decide(desc, rec.utilities, rec.poll) == rec.action

    def test_noisy_rounds_are_bookkept(self):
        ds = generate_synthetic(truth_config(num_voters=20, noise=0.3, master_seed=3))
        noisy = ds.manifest["noisy_rounds"]
        assert noisy
        clean = {(v, r) for v, rounds in noisy.items() for r in rounds}
        for rec in ds.records:
            truthful = preference_order(rec.utilities.values)[0]
            if (rec.voter_id, rec.round) not in clean:
                assert rec.action == truthful

    def test_scenario_sample_frequencies(self):
        config = truth_config(num_voters=100, rounds_per_voter=60, master_seed=11)
        ds = generate_synthetic(config)
        counts = {s: 0 for s in SCENARIOS}
        for rec in ds.records:
            counts[classify_scenario(rec.utilities, rec.poll)] += 1
        total = len(ds.records)
        assert total == 6000
        for s in SCENARIOS:
            assert abs(counts[s] / total - 1 / 6) < 0.02

    def test_scenario_cycle_covers_all_six_per_voter(self):
        config = truth_config(rounds_per_voter=6, scenario_mode="cycle")
        ds = generate_synthetic(config)
        for recs in ds.by_voter().values():
            seen = {classify_scenario(r.utilities, r.poll) for r in recs}
            assert seen == set(SCENARIOS)

    def test_scenario_cycle_deals_rounded_multiplicities(self):
        # round(2.5) is 2, a weight below 0.5 still deals once, and a weight
        # of 1e12 deals without a list of that many labels.
        weights = {"A": 2.5, "C": 0.2, "D": 1e12, "F": 0.0}
        config = truth_config(rounds_per_voter=6, scenario_mode="cycle", scenario_weights=weights)
        for recs in generate_synthetic(config).by_voter().values():
            seen = [classify_scenario(r.utilities, r.poll) for r in recs]
            assert seen == ["A", "A", "C", "D", "D", "D"]

    def test_repeats_show_each_context_twice(self):
        config = truth_config(rounds_per_voter=6, repeats=2, scenario_mode="cycle")
        ds = generate_synthetic(config)
        for recs in ds.by_voter().values():
            assert len(recs) == 6
            for a, b in zip(recs[0::2], recs[1::2]):
                assert a.poll == b.poll
                assert a.utilities == b.utilities

    def test_per_round_poll_sizes_vary(self):
        config = truth_config(
            poll_sizes=((8, 0.5), (100, 0.5)),
            poll_size_mode="per_round",
            num_voters=10,
            rounds_per_voter=12,
        )
        ds = generate_synthetic(config)
        sizes = {rec.poll.n for rec in ds.records}
        assert sizes == {8, 100}
