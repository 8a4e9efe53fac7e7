import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratvote import cli, models
from stratvote.cli import main
from stratvote.behavior import SCENARIO_LABELS, UNCLASSIFIED
from stratvote.core import Poll, UtilityFunction
from stratvote.data import (
    POLL_BUCKETS,
    Dataset,
    GeneratorConfig,
    RecordTable,
    format_action,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from stratvote.evaluation import EvaluationReport, ParameterGrid, loo_evaluate
from record_oracle import Record, report_payload, table_of
from stratvote.models import Family, ModelDescriptor

HEADER = "voter_id,round,n,s_1,s_2,s_3,u_1,u_2,u_3,action\n"
EX1_HEADER = "voter_id,round,n," + ",".join(
    [f"s_{i}" for i in range(1, 6)] + [f"u_{i}" for i in range(1, 6)]
) + ",action\n"


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("STRATVOTE_SEED", raising=False)


@pytest.fixture
def gen_config(tmp_path):
    config = {
        "num_voters": 4,
        "rounds_per_voter": 6,
        "groups": [{"family": "TRUTH", "weight": 1.0}],
        "poll_sizes": [[100, 1.0]],
        "scenario_mode": "cycle",
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def small_dataset(tmp_path, gen_config):
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(gen_config), "--seed", "7", "--out", str(out)]) == 0
    return out / "dataset.csv"


def write_rows(tmp_path, body, header=HEADER, name="hand.csv"):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


class TestSimulate:
    def test_writes_dataset_and_manifest(self, tmp_path, gen_config, capsys):
        out = tmp_path / "data"
        code = main(["simulate", "--config", str(gen_config), "--seed", "7", "--out", str(out)])
        assert code == 0
        assert (out / "dataset.csv").exists()
        assert (out / "manifest.json").exists()
        ds = load_dataset(out)
        assert ds.manifest["seed"] == 7
        assert len(ds.records) == 24
        assert "wrote" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path, gen_config):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(gen_config), "--seed", "7", "--out", str(a)])
        main(["simulate", "--config", str(gen_config), "--seed", "7", "--out", str(b)])
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_seed_changes_the_data(self, tmp_path, gen_config):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(gen_config), "--seed", "7", "--out", str(a)])
        main(["simulate", "--config", str(gen_config), "--seed", "8", "--out", str(b)])
        assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()

    def test_missing_seed_is_a_usage_error(self, tmp_path, gen_config, capsys):
        code = main(["simulate", "--config", str(gen_config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, gen_config, monkeypatch):
        monkeypatch.setenv("STRATVOTE_SEED", "7")
        env_out, flag_out = tmp_path / "env", tmp_path / "flag"
        assert main(["simulate", "--config", str(gen_config), "--out", str(env_out)]) == 0
        main(["simulate", "--config", str(gen_config), "--seed", "7", "--out", str(flag_out)])
        assert (env_out / "dataset.csv").read_bytes() == (flag_out / "dataset.csv").read_bytes()

    def test_config_errors_are_data_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"num_voters": 0, "rounds_per_voter": 1, "groups": []}))
        code = main(["simulate", "--config", str(bad), "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"groups": [{"family": "PRAG", "params": {"k": {"type": "value", "value": 0}}}]},
                "group PRAG drew a bad model for voter v",
            ),
            (
                {"groups": [{"family": "PRAG", "params": {"k": {"type": "value", "value": 4}}}]},
                "group PRAG drew a bad model for voter v001: k must lie in [1, m], got 4",
            ),
            ({"groups": [{"family": "LD"}]}, "group LD drew a bad model for voter v"),
            (
                {"groups": [{"family": "AU", "params": {
                    "alpha": {"type": "uniform", "low": 0, "high": 5},
                    "beta": {"type": "value", "value": 1},
                }}]},
                "group AU drew a bad model for voter v",
            ),
            ({"poll_sizes": [[10**20, 1]]}, "poll sizes must be at most 2**63 - 1"),
            # A poll size is an integer, as num_voters is: none is cut to one.
            ({"poll_sizes": [[8.7, 1], [100, 1]]}, "poll sizes must be integers, got 8.7"),
            ({"poll_sizes": [["9", 1]]}, "poll sizes must be integers, got '9'"),
            ({"rewards": [10, 5, -1]}, "rewards must be finite and non-negative"),
            # A number given as a string or a bool is no number: none is converted.
            ({"rewards": ["10", "5", "0"]}, "each of rewards must be a number, got '10'"),
            (
                {"groups": [{"family": "TRUTH", "weight": "2"}]},
                "group weight must be a number, got '2'",
            ),
            (
                {"groups": [{"family": "TRUTH", "weight": True}]},
                "group weight must be a number, got True",
            ),
            (
                {"groups": [{"family": "AU", "params": {
                    "alpha": {"type": "uniform", "low": "0.5", "high": 1},
                    "beta": {"type": "value", "value": 1},
                }}]},
                "a uniform sampler's low must be a number, got '0.5'",
            ),
            ({"poll_sizes": [[8, "1"]]}, "each poll size weight must be a number, got '1'"),
            (
                {"poll_concentrations": ["3"]},
                "each of poll_concentrations must be a number, got '3'",
            ),
            (
                {"scenario_weights": {"A": True}},
                "each weight of scenario_weights must be a number, got True",
            ),
            ({"noise": True}, "noise must be a number, got True"),
            # JSON reads a bare NaN or Infinity.  Each of these used to exit 0,
            # quietly picking the last item or dropping a label, or exit 3.
            ({"poll_sizes": [[8, float("nan")], [100, 1]]}, "poll_sizes: weights must be finite"),
            ({"poll_sizes": [[8, float("inf")], [100, 1]]}, "poll_sizes: weights must be finite"),
            (
                {"poll_sizes": [[8, 1e308], [100, 1e308]]},
                "poll_sizes: weights must have a positive, finite sum",
            ),
            (
                {"groups": [{"family": "TRUTH", "weight": float("nan")}, {"family": "BR"}]},
                "group weight must be finite and non-negative",
            ),
            (
                {"scenario_weights": {"A": float("nan"), "B": 1}},
                "scenario_weights: weights must be finite",
            ),
            ({"scenario_weights": {"A": -1, "B": 1}}, "scenario_weights: weights must be finite"),
            (
                {"scenario_mode": "cycle", "scenario_weights": {"A": float("inf")}},
                "scenario_weights: weights must be finite",
            ),
            ({"poll_concentrations": [float("nan")]}, "poll_concentrations must be finite"),
            ({"poll_concentrations": [float("inf")]}, "poll_concentrations must be finite"),
            # An integer past the float range used to end in exit 3 (OverflowError).
            ({"rewards": [10**400, 5, 0]}, "each of rewards must be a finite number"),
            (
                {"groups": [{"family": "TRUTH", "weight": 10**400}]},
                "group weight must be a finite number",
            ),
            (
                {"groups": [{"family": "LD", "params": {
                    "r": {"type": "uniform", "low": 0, "high": 10**400},
                }}]},
                "a uniform sampler's high must be a finite number",
            ),
            # A sampler that draws a non-number for a numeric parameter.
            (
                {"groups": [{"family": "AU", "params": {
                    "alpha": {"type": "value", "value": "x"},
                    "beta": {"type": "value", "value": 1},
                }}]},
                "group AU drew a bad model for voter v001: alpha must lie in [0, 2], got 'x'",
            ),
            (
                {"groups": [{"family": "CV", "params": {"eta": {"type": "value", "value": [4]}}}]},
                "group CV drew a bad model for voter v001: eta must be a positive integer or 'n'",
            ),
            (
                {"groups": [{"family": "PRAG", "params": {"k": {"type": "value", "value": "2"}}}]},
                "group PRAG drew a bad model for voter v001: k must be a positive integer, got '2'",
            ),
            # A bool is not a number, for a model parameter either: each of
            # these exited 0 and wrote the bool to the manifest.
            (
                {"groups": [{"family": "PRAG", "params": {
                    "k": {"type": "choices", "values": [True]},
                }}]},
                "group PRAG drew a bad model for voter v001: k must be a positive integer, got True",
            ),
            (
                {"groups": [{"family": "AU", "params": {
                    "alpha": {"type": "value", "value": True},
                    "beta": {"type": "value", "value": False},
                }}]},
                "group AU drew a bad model for voter v001: alpha must lie in [0, 2], got True",
            ),
            # scenario_weights that are not an object used to exit 3 (AttributeError).
            ({"scenario_weights": ["A"]}, "scenario_weights must be an object, got ['A']"),
            ({"scenario_weights": "AB"}, "scenario_weights must be an object, got 'AB'"),
        ],
        ids=[
            "prag-k-0", "prag-k-above-m", "ld-without-r", "au-alpha-above-2",
            "poll-size-above-int64", "poll-size-float", "poll-size-string", "negative-reward",
            "reward-strings", "group-weight-string", "group-weight-bool", "uniform-low-string",
            "poll-size-weight-string", "concentration-string", "scenario-weight-bool", "noise-bool",
            "poll-size-weight-nan", "poll-size-weight-inf", "poll-size-weights-overflow",
            "group-weight-nan", "scenario-weight-nan", "scenario-weight-negative",
            "cycle-scenario-weight-inf", "concentration-nan", "concentration-inf",
            "reward-past-float-range", "group-weight-past-float-range",
            "uniform-high-past-float-range",
            "au-alpha-string", "cv-eta-list", "prag-k-string", "prag-k-bool", "au-alpha-beta-bool",
            "scenario-weights-list", "scenario-weights-string",
        ],
    )
    def test_bad_configs_are_data_errors(self, tmp_path, changes, message, capsys):
        # Each used to end in an internal error (exit 3) or in a dataset that
        # ignored the bad value.
        config = {"num_voters": 4, "rounds_per_voter": 2, "groups": [{"family": "TRUTH"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**config, **changes}))
        code = main(["simulate", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 2


class TestEvaluate:
    def test_truthful_data_truth_family(self, tmp_path, small_dataset, capsys):
        out = tmp_path / "rep"
        code = main(
            ["evaluate", "--data", str(small_dataset), "--families", "TRUTH", "--out", str(out)]
        )
        assert code == 0
        assert "TRUTH: F_A=1.0000 (loo)" in capsys.readouterr().out
        report = json.loads((out / "loo_TRUTH_report.json").read_text())
        assert report["overall"]["metrics"]["weighted_f"] == 1.0
        for suffix in ("per_voter_f", "poll_size_f", "error_breakdown", "params"):
            assert (out / f"loo_TRUTH_{suffix}.csv").exists()

    def test_scenario_table_shape(self, tmp_path, small_dataset):
        out = tmp_path / "rep"
        main(
            [
                "evaluate", "--data", str(small_dataset),
                "--families", "TRUTH,PRAG", "--out", str(out),
            ]
        )
        lines = (out / "loo_scenario_f.csv").read_text().splitlines()
        assert lines[0] == "scenario,order,frequency_pct,TRUTH,PRAG"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["A", "B", "C", "D", "E", "F", "total"]

    def test_upper_mode_writes_its_own_prefix(self, tmp_path, small_dataset):
        out = tmp_path / "rep"
        main(
            [
                "evaluate", "--data", str(small_dataset), "--families", "TRUTH",
                "--mode", "upper", "--out", str(out),
            ]
        )
        assert (out / "upper_TRUTH_report.json").exists()
        assert (out / "upper_scenario_f.csv").exists()

    def test_unknown_family_is_a_usage_error(self, tmp_path, small_dataset, capsys):
        code = main(
            ["evaluate", "--data", str(small_dataset), "--families", "XYZ", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "unknown family" in capsys.readouterr().err

    def test_missing_data_is_a_data_error(self, tmp_path):
        code = main(
            ["evaluate", "--data", str(tmp_path / "nope.csv"), "--families", "TRUTH", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_header_only_csv_is_a_data_error(self, tmp_path, capsys):
        path = write_rows(tmp_path, "")
        out = str(tmp_path / "out")
        for argv in (
            ["evaluate", "--data", str(path), "--families", "TRUTH", "--out", out],
            ["predict", "--data", str(path), "--model", "TRUTH", "--out", out + ".csv"],
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert "no records" in capsys.readouterr().err

    def test_bad_cv_etas_is_a_usage_error(self, tmp_path, small_dataset, capsys):
        # An empty list is no request for the default grid.
        for etas, message in (
            ("1,x", "entries must be integers or 'n'"),
            ("", "must name at least one sample size"),
            (",,", "must name at least one sample size"),
        ):
            code = main(
                [
                    "evaluate", "--data", str(small_dataset), "--families", "CV",
                    "--cv-etas", etas, "--out", str(tmp_path / "r"),
                ]
            )
            assert code == 1, etas
            assert message in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("etas", ["0", "-3", "1,0"])
    def test_non_positive_cv_eta_is_a_usage_error(self, tmp_path, small_dataset, etas, capsys):
        code = main(
            [
                "evaluate", "--data", str(small_dataset), "--families", "CV",
                "--cv-etas", etas, "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 1
        assert "--cv-etas entries must be positive" in capsys.readouterr().err

    def test_prag_on_two_candidates(self, tmp_path):
        data = write_rows(
            tmp_path,
            "v1,0,100,60,40,10,0,q1\nv1,1,100,40,60,10,0,q2\nv1,2,100,30,70,10,0,q2\n",
            header="voter_id,round,n,s_1,s_2,u_1,u_2,action\n",
        )
        out = tmp_path / "r"
        code = main(["evaluate", "--data", str(data), "--families", "PRAG", "--out", str(out)])
        assert code == 0
        fitted = json.loads((out / "loo_PRAG_report.json").read_text())["fitted_params"]
        assert fitted == {"v1": {"k": 1}}

    @pytest.mark.parametrize("families", ["TMG", "NN", "TRUTH,TMG", "TRUTH,NN"])
    def test_three_candidate_family_on_four_candidates_is_a_data_error(
        self, tmp_path, families, capsys
    ):
        header = "voter_id,round,n," + ",".join(
            [f"s_{i}" for i in range(1, 5)] + [f"u_{i}" for i in range(1, 5)]
        ) + ",action\n"
        data = write_rows(
            tmp_path,
            "v1,0,100,40,30,20,10,30,20,10,0,q1\nv1,1,100,10,40,30,20,30,20,10,0,q2\n",
            header=header,
        )
        out = tmp_path / "r"
        code = main(["evaluate", "--data", str(data), "--families", families, "--out", str(out)])
        assert code == 2
        family = families.split(",")[-1]
        assert f"cannot apply {family} to this dataset" in capsys.readouterr().err
        # Families the data can take are not written either: no file at all.
        assert list(out.iterdir()) == []

    def test_tied_utilities_are_a_data_error_naming_the_row(self, tmp_path, capsys):
        data = write_rows(
            tmp_path, "v1,0,100,50,30,20,10,5,0,q1\nv1,1,100,50,30,20,10,10,0,q1\n"
        )
        code = main(
            ["evaluate", "--data", str(data), "--families", "TRUTH", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "row 2: tied utilities" in capsys.readouterr().err

    def test_empty_poll_is_a_data_error_naming_the_row(self, tmp_path, capsys):
        data = write_rows(tmp_path, "v1,0,0,0,0,0,10,5,0,q1\nv1,1,100,50,30,20,10,5,0,q1\n")
        code = main(
            ["evaluate", "--data", str(data), "--families", "TRUTH", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "row 1: poll size n must be positive" in capsys.readouterr().err

    def test_poll_size_above_int64_is_a_data_error_naming_the_row(self, tmp_path, capsys):
        # It used to exit 0 with the table's n column silently float64.
        data = write_rows(
            tmp_path, "v1,0,100,50,30,20,10,5,0,q1\nv1,1,10000000000000000000,50,30,20,10,5,0,q1\n"
        )
        code = main(
            ["evaluate", "--data", str(data), "--families", "LD", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2: poll size n 10000000000000000000 is above 2**63 - 1" in err

    def test_score_above_int64_is_a_data_error_naming_the_row(self, tmp_path, capsys):
        # It used to end in an internal error building the table's scores.
        data = write_rows(
            tmp_path, "v1,0,100,10000000000000000000,30,20,10,5,0,q1\nv1,1,100,50,30,20,10,5,0,q1\n"
        )
        code = main(
            ["evaluate", "--data", str(data), "--families", "TRUTH", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "row 1: score 10000000000000000000 is above 2**63 - 1" in capsys.readouterr().err

    def test_int64_limit_is_accepted_and_held_exactly(self, tmp_path):
        top = 2**63 - 1
        data = write_rows(
            tmp_path, f"v1,0,{top},{top},30,20,10,5,0,q1\nv1,1,100,50,{top},20,10,5,0,q2\n"
        )
        table = load_dataset(data).records
        assert table.n.dtype == np.int64 and table.n.tolist() == [top, 100]
        assert table.S.dtype == np.int64 and table.S[:, :2].tolist() == [[top, 30], [50, top]]
        code = main(
            ["evaluate", "--data", str(data), "--families", "TRUTH,BR,LD,AU",
             "--out", str(tmp_path / "r")]
        )
        assert code == 0

    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_round_above_int64_is_a_data_error_naming_the_row(self, tmp_path, family, capsys):
        # NN used to end in an internal error on the table's object round column.
        data = write_rows(
            tmp_path,
            "v1,100000000000000000000,100,50,30,20,10,5,0,q1\n"
            "v1,1,100,50,30,20,10,5,0,q2\nv1,2,100,20,30,50,10,5,0,q2\n",
        )
        code = main(
            ["evaluate", "--data", str(data), "--families", family, "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "row 1: round 100000000000000000000 is above 2**63 - 1" in capsys.readouterr().err

    def test_round_at_int64_limit_evaluates_nn_and_is_held_exactly(self, tmp_path):
        top = 2**63 - 1
        data = write_rows(
            tmp_path,
            f"v1,{top},100,50,30,20,10,5,0,q1\nv1,1,100,50,30,20,10,5,0,q2\n"
            "v1,2,100,20,30,50,10,5,0,q2\n",
        )
        table = load_dataset(data).records
        assert table.round.dtype == np.int64 and table.round.tolist() == [1, 2, top]
        out = tmp_path / "r"
        assert main(["evaluate", "--data", str(data), "--families", "NN", "--out", str(out)]) == 0
        report = json.loads((out / "loo_NN_report.json").read_text())
        assert [row["round"] for row in report["predictions"]] == [1, 2, top]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_is_a_usage_error(self, tmp_path, small_dataset, jobs, capsys):
        code = main(
            [
                "evaluate", "--data", str(small_dataset), "--families", "TRUTH",
                "--jobs", jobs, "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 1
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_do_not_change_report_bytes(self, tmp_path, small_dataset):
        # Every family shares one pool, whose tasks come back in family order.
        for mode in ("loo", "upper"):
            base = [
                "evaluate", "--data", str(small_dataset), "--mode", mode,
                "--families", "TRUTH,AU,NN,CV,PRAG", "--cv-etas", "1,4,n",
            ]
            outs = [tmp_path / f"{mode}{jobs}" for jobs in (1, 2, 3)]
            for jobs, out in zip((1, 2, 3), outs):
                assert main(base + ["--jobs", str(jobs), "--out", str(out)]) == 0
            names = sorted(path.name for path in outs[0].iterdir())
            assert len(names) == 5 * 5 + 1  # five files per family, one scenario table
            for out in outs[1:]:
                assert sorted(path.name for path in out.iterdir()) == names
                for name in names:
                    assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

    @pytest.mark.parametrize("mode", ["loo", "upper"])
    def test_jobs_do_not_change_nn_report_bytes(self, tmp_path, small_dataset, mode):
        out1, out3 = tmp_path / "r1", tmp_path / "r3"
        base = ["evaluate", "--data", str(small_dataset), "--families", "NN", "--mode", mode]
        assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(base + ["--jobs", "3", "--out", str(out3)]) == 0
        names = sorted(path.name for path in out1.iterdir())
        assert names == sorted(path.name for path in out3.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()

    @pytest.mark.parametrize("mode", ["loo", "upper"])
    def test_jobs_do_not_change_nn_report_bytes_on_uneven_voters(self, tmp_path, mode):
        # Voters of 1, 2, 5 and 7 records: each worker's run of voters
        # mixes fold sizes, and a single-record voter keeps its initial network.
        rng = np.random.default_rng(3)
        body = ""
        for vid, rounds in (("a", 1), ("b", 2), ("c", 5), ("d", 7)):
            for r in range(rounds):
                cells = [*rng.multinomial(100, [0.5, 0.3, 0.2]), *rng.permutation([30, 20, 10])]
                body += f"{vid},{r},100,{','.join(map(str, cells))},q{rng.integers(1, 4)}\n"
        data = write_rows(tmp_path, body)
        base = ["evaluate", "--data", str(data), "--families", "NN", "--mode", mode]
        outs = [tmp_path / f"r{jobs}" for jobs in (1, 2, 3)]
        for jobs, out in zip((1, 2, 3), outs):
            assert main(base + ["--jobs", str(jobs), "--out", str(out)]) == 0
        report = json.loads((outs[0] / f"{mode}_NN_report.json").read_text())
        assert report["defaulted_voters"] == (["a"] if mode == "loo" else [])
        names = sorted(path.name for path in outs[0].iterdir())
        for out in outs[1:]:
            assert sorted(path.name for path in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

    @pytest.mark.parametrize("mode", ["loo", "upper"])
    def test_shuffled_rows_do_not_change_report_bytes(self, tmp_path, mode):
        # The loader sorts rows by (voter, round), so the order in the file
        # reaches neither the distinct rows of a run nor the CV tables' cache.
        from test_evaluation import mixed_dataset

        csv_path, _ = save_dataset(mixed_dataset(1, 3), tmp_path / "data")
        header, *rows = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
        assert shuffled != rows
        shuffled_path = write_rows(tmp_path, "".join(shuffled), header=header)
        families = "TRUTH,BR,PRAG,CV,LD,LDLB,TMG,AU,NN"
        trees = []
        for data, out in ((csv_path, tmp_path / "r"), (shuffled_path, tmp_path / "s")):
            argv = ["evaluate", "--data", str(data), "--families", families, "--mode", mode]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--cv-etas", "1,4,n", "--seed", "2", "--out", str(out)]) == 0
            trees.append(tree_bytes(out))
        assert len(trees[0]) == 9 * 5 + 1 and trees[1] == trees[0]

    @pytest.mark.parametrize("mode", ["loo", "upper"])
    @pytest.mark.parametrize("dataset", ["many_voters", "m4"])
    def test_relabelled_candidates_give_the_same_reports(self, tmp_path, dataset, mode):
        # Relabelling the candidates of a CSV with strict polls and strict
        # utilities changes only the candidate indices that the reports
        # print: every CSV keeps its bytes, and each report JSON is equal
        # once `actual` and `predicted` are named back.  NN is left out (its
        # features hold candidate indices), and so is m >= 5 (the Monte-Carlo
        # table's seed follows column order).
        if dataset == "many_voters":
            config, sim = tmp_path / "config.json", tmp_path / "sim"
            config.write_text(json.dumps(workload_configs()["many_voters"].config()))
            argv = ["simulate", "--config", str(config), "--seed", "1", "--out", str(sim)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            table, perm = load_dataset(sim).records, np.array([2, 0, 1])
            families = "TRUTH,BR,PRAG,LD,LDLB,TMG,AU,CV"
        else:
            table, perm = strict_m4_table(), np.array([2, 0, 3, 1])
            families = "TRUTH,BR,PRAG,LD,LDLB,AU,CV"
        # Column k of the relabelled table is column perm[k] of the table.
        inverse = np.argsort(perm)
        vids = [table.voter_ids[v] for v in table.voter.tolist()]
        relabelled = RecordTable.from_columns(
            vids, table.round, table.n, table.S[:, perm], table.U[:, perm], inverse[table.action]
        )
        trees = []
        for name, records in (("a", table), ("b", relabelled)):
            csv_path, _ = save_dataset(Dataset(records), tmp_path / name)
            argv = ["evaluate", "--data", str(csv_path), "--families", families, "--mode", mode]
            out = tmp_path / f"{name}_out"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--cv-etas", "1,4,16,n", "--seed", "1", "--out", str(out)]) == 0
            trees.append(tree_bytes(out))
        assert trees[1].keys() == trees[0].keys()
        for name, data in trees[0].items():
            if name.endswith(".csv"):
                assert trees[1][name] == data, name
                continue
            report = json.loads(trees[1][name])
            for row in report["predictions"]:
                row["actual"] = int(perm[row["actual"]])
                row["predicted"] = int(perm[row["predicted"]])
            assert report == json.loads(data), name

    def test_rerun_is_byte_identical(self, tmp_path, small_dataset):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        base = ["evaluate", "--data", str(small_dataset), "--families", "NN,TMG"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        for path1 in sorted(out1.iterdir()):
            assert path1.read_bytes() == (out2 / path1.name).read_bytes()


class TestPredict:
    def test_explicit_au_reproduces_printed_decision(self, tmp_path, capsys):
        data = write_rows(
            tmp_path,
            "v17,0,295,25,70,20,100,80,40,30,20,10,0,q1\n",
            header=EX1_HEADER,
        )
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--data", str(data), "--model", "AU",
                "--alpha", "1.8", "--beta", "30", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines() == ["voter_id,round,predicted", "v17,0,q2"]

    def test_explicit_prag_votes_poll_leaders(self, tmp_path):
        data = write_rows(
            tmp_path,
            "v1,0,160,50,80,30,10,5,0,q1\nv1,1,160,80,50,30,10,5,0,q1\n",
        )
        out = tmp_path / "pred.csv"
        assert main(
            ["predict", "--data", str(data), "--model", "PRAG", "--k", "1", "--out", str(out)]
        ) == 0
        assert out.read_text().splitlines() == [
            "voter_id,round,predicted",
            "v1,0,q2",
            "v1,1,q1",
        ]

    def test_params_route_uses_fitted_parameters(self, tmp_path):
        # An upper-bound report predicts every record with its voter's fitted
        # point, so predict --params on it writes exactly its predictions.
        from test_evaluation import mixed_dataset

        grid_families = [f.value for f in Family if f is not Family.NN]
        cases = [
            (mixed_dataset(1, 3), grid_families),  # tied polls
            (mixed_dataset(3, 4), [f for f in grid_families if f != "TMG"]),
        ]
        for case, (dataset, families) in enumerate(cases):
            data, _ = save_dataset(dataset, tmp_path / f"data{case}")
            rep = tmp_path / f"rep{case}"
            assert main(
                ["evaluate", "--data", str(data), "--families", ",".join(families),
                 "--mode", "upper", "--cv-etas", "1,4,16,n", "--out", str(rep)]
            ) == 0
            for family in families:
                report = json.loads((rep / f"upper_{family}_report.json").read_text())
                out = tmp_path / f"pred{case}_{family}.csv"
                assert main(
                    ["predict", "--data", str(data),
                     "--params", str(rep / f"upper_{family}_report.json"), "--out", str(out)]
                ) == 0
                want = [
                    f"{row['voter_id']},{row['round']},{format_action(row['predicted'])}"
                    for row in report["predictions"]
                ]
                assert out.read_text().splitlines() == ["voter_id,round,predicted", *want], family

    def test_one_decision_call_per_distinct_point(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(workload_configs()["many_voters"].config()))
        assert main(["simulate", "--config", str(config), "--seed", "1",
                     "--out", str(tmp_path / "data")]) == 0
        data = str(tmp_path / "data" / "dataset.csv")
        report = tmp_path / "reports" / "upper_AU_report.json"
        assert main(["evaluate", "--data", data, "--families", "AU", "--mode", "upper",
                     "--seed", "1", "--out", str(tmp_path / "reports")]) == 0
        fitted = json.loads(report.read_text())["fitted_params"]
        points = {ModelDescriptor(Family.AU, **params) for params in fitted.values()}
        calls = []
        real = models.decide_matrix

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(models, "decide_matrix", counting)
        # The CSV bytes predict wrote when it decided voter by voter.
        for route, n_points, digest in (
            (["--model", "AU", "--alpha", "1", "--beta", "12"], 1,
             "4ac11928100a5e0daa05f3e78b50c9eae21b259b322481a1e20214d594ad9493"),
            (["--params", str(report)], len(points),
             "34be9519fabbf41c94a3ccc13d3e4eb307cd0b829396a039ac7c99f4af575cc3"),
        ):
            calls.clear()
            out = tmp_path / "pred.csv"
            assert main(["predict", "--data", data, *route, "--out", str(out)]) == 0
            assert len(calls) == n_points and n_points < len(fitted)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, route

    def test_needs_exactly_one_of_model_and_params(self, tmp_path, small_dataset, capsys):
        out = str(tmp_path / "pred.csv")
        assert main(["predict", "--data", str(small_dataset), "--out", out]) == 1
        assert main(
            [
                "predict", "--data", str(small_dataset), "--model", "TRUTH",
                "--params", "x.json", "--out", out,
            ]
        ) == 1

    def test_malformed_flag_value_is_a_usage_error(self, tmp_path, small_dataset, capsys):
        code = main(
            [
                "predict", "--data", str(small_dataset), "--model", "PRAG",
                "--k", "two", "--out", str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_family_dataset_mismatch_is_a_data_error(self, tmp_path, capsys):
        data = write_rows(
            tmp_path,
            "v17,0,295,25,70,20,100,80,40,30,20,10,0,q1\n",
            header=EX1_HEADER,
        )
        code = main(
            [
                "predict", "--data", str(data), "--model", "TMG",
                "--voter-type", "TRT", "--out", str(tmp_path / "pred.csv"),
            ]
        )
        assert code == 2
        assert "cannot apply TMG" in capsys.readouterr().err

    def test_nn_model_requires_network_weights(self, tmp_path, small_dataset, capsys):
        # No command writes a network: evaluate trains and scores NN itself.
        rep = tmp_path / "rep"
        assert main(["evaluate", "--data", str(small_dataset), "--families", "NN", "--out", str(rep)]) == 0
        out = str(tmp_path / "p.csv")
        capsys.readouterr()
        for route in (["--model", "NN"], ["--params", str(rep / "loo_NN_report.json")]):
            assert main(["predict", "--data", str(small_dataset), *route, "--out", out]) == 1
            assert capsys.readouterr().err == (
                "usage error: predict cannot apply NN: evaluate trains and scores its networks\n"
            )
        assert not Path(out).exists()


SAMPLER = {"type": "value", "value": 3}
MALFORMED_JSON = {
    "params_file_is_a_list": ("--params", [1, 2]),
    "fitted_params_is_a_number": ("--params", {"family": "AU", "fitted_params": 5}),
    "sampler_is_a_list": (
        "--config",
        {"num_voters": 2, "rounds_per_voter": 2,
         "groups": [{"family": "AU", "params": {"alpha": [1], "beta": SAMPLER}}]},
    ),
    "group_params_is_a_list": (
        "--config",
        {"num_voters": 2, "rounds_per_voter": 2, "groups": [{"family": "AU", "params": [1]}]},
    ),
    "voter_count_is_a_fraction": (
        "--config", {"num_voters": 2.5, "rounds_per_voter": 2, "groups": [{"family": "TRUTH"}]},
    ),
}


@pytest.mark.parametrize("flag, payload", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_malformed_json_input_is_a_data_error_naming_the_file(
    tmp_path, small_dataset, flag, payload, capsys
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = str(tmp_path / "out")
    if flag == "--config":
        argv = ["simulate", "--config", str(path), "--seed", "1", "--out", out]
    else:
        argv = ["predict", "--data", str(small_dataset), flag, str(path), "--out", out]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err


@pytest.mark.parametrize(
    "case", ["csv_evaluate", "csv_predict", "csv_field_over_limit", "manifest", "config", "params"]
)
def test_an_unreadable_file_is_a_data_error_naming_it(tmp_path, small_dataset, case, capsys):
    # Each used to end in an internal error (exit 3): a byte that is not
    # UTF-8 in each file read, or a CSV field over the csv module's limit.
    data, json_path = tmp_path / "in", tmp_path / "input.json"
    data.mkdir()
    csv_path = data / "dataset.csv"
    bad = {"manifest": data / "manifest.json", "config": json_path, "params": json_path}
    bad = bad.get(case, csv_path)
    rows = small_dataset.read_bytes()
    voter = b"v" * 200_000 if case == "csv_field_over_limit" else b"v\xff"
    csv_path.write_bytes(rows.replace(b"v001,", voter + b"01,") if bad == csv_path else rows)
    if bad != csv_path:
        bad.write_bytes(b'{"family": "TRUTH", "note": "\xff"}')
    argv = {
        "csv_predict": ["predict", "--data", str(data), "--model", "TRUTH"],
        "config": ["simulate", "--config", str(json_path), "--seed", "1"],
        "params": ["predict", "--data", str(data), "--params", str(json_path)],
    }.get(case, ["evaluate", "--data", str(data), "--families", "TRUTH"])
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_no_command_is_a_usage_error(self):
        assert main([]) == 1

    def test_unexpected_exceptions_map_to_internal(self, tmp_path, small_dataset, monkeypatch, capsys):
        import stratvote.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "evaluate_families", boom)
        code = main(
            ["evaluate", "--data", str(small_dataset), "--families", "TRUTH", "--out", str(tmp_path)]
        )
        assert code == 3
        assert "internal error" in capsys.readouterr().err


# The largest round, poll size and score the loader accepts.
INT64_MAX = 2**63 - 1


@st.composite
def accepted_csvs(draw):
    """CSV text the loader accepts: m in {2, ..., 6}, strict utilities.

    m = 5 and 6 take CV through the exact kernel's nested sums.  n is at
    most 30 or the int64 limit, and a score at most n or that limit.  A
    voter's rounds are distinct and reach that limit too.
    """
    m = draw(st.integers(min_value=2, max_value=6))
    header = "voter_id,round,n," + ",".join(
        [f"s_{i}" for i in range(1, m + 1)] + [f"u_{i}" for i in range(1, m + 1)]
    ) + ",action\n"
    rows = []
    for voter in range(draw(st.integers(min_value=1, max_value=3))):
        rounds = st.integers(min_value=0, max_value=30) | st.just(INT64_MAX)
        count = draw(st.integers(min_value=1, max_value=4))
        for rnd in draw(st.lists(rounds, min_size=count, max_size=count, unique=True)):
            n = draw(st.integers(min_value=1, max_value=30) | st.just(INT64_MAX))
            score = st.integers(min_value=0, max_value=min(n, 30)) | st.just(INT64_MAX)
            scores = draw(st.lists(score, min_size=m, max_size=m))
            utilities = draw(
                st.lists(st.integers(min_value=0, max_value=100), min_size=m, max_size=m, unique=True)
            )
            action = draw(st.integers(min_value=1, max_value=m))
            rows.append(",".join(map(str, [f"v{voter}", rnd, n, *scores, *utilities, f"q{action}"])))
    return header + "\n".join(rows) + "\n"


class TestFuzz:
    @given(accepted_csvs())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_accepted_inputs_never_end_in_an_internal_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "fuzz.csv"
            data.write_text(text, encoding="utf-8")
            # A CV table at eta = n costs time and memory linear in n, so
            # eta = n runs only on small polls.
            small = load_dataset(data).records.n.max() <= 30
            runs = [
                ["evaluate", "--data", str(data), "--families", family.value,
                 "--cv-etas", "1,4,n" if small else "1,4", "--out", str(Path(tmp) / "r")]
                for family in Family
            ]
            for model in (
                ["PRAG", "--k", "1"],
                ["AU", "--alpha", "1.8", "--beta", "30"],
                ["CV", "--eta", "4"],
                ["LD", "--r", "0.1"],
                ["BR"],
                ["TMG", "--voter-type", "LB"],
            ):
                runs.append(
                    ["predict", "--data", str(data), "--model", *model,
                     "--out", str(Path(tmp) / "p.csv")]
                )
            for argv in runs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), (argv[4], code, err.getvalue())
                assert "internal error" not in err.getvalue()


def workload_configs():
    """The benchmark workloads' generator configs and families, from ``perfbench/workloads.py``."""
    import importlib.util
    import sys

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module.WORKLOADS


HOSTILE_IDS = (
    'quo"te', "back\\slash", "ctl\x01char", "line\u2028sep", "astral\U0001f600id", "voté", "選挙"
)


def hostile_table(m, seed=4):
    """Voters whose ids need escaping, rounds 0 and 2**63 - 1, every bucket and scenario.

    Every fourth poll is tied, so unclassified; for m = 3 the others are
    strict, and the seed puts them in all six scenarios.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for v, vid in enumerate(HOSTILE_IDS):
        for i, round_ in enumerate((0, 1, 2, 3, 4, 5, 2**63 - 1)):
            n = (8, 100, 1000, 10000)[(v + i) % 4]
            scores = [n // m] * m if (v + i) % 4 == 3 else rng.permutation(m) * (n // (2 * m))
            utilities = rng.permutation(m) * 10.0 + 1
            rows.append((vid, round_, n, scores, utilities, int(rng.integers(m))))
    return RecordTable.from_columns(*zip(*rows))


def strict_m4_table(voters=12, rounds=6, seed=6):
    """Four candidates: every poll and every voter's utilities strict, actions at random."""
    rng = np.random.default_rng(seed)
    S = np.array([rng.choice(60, size=4, replace=False) for _ in range(voters * rounds)])
    U = np.array([rng.choice(20, size=4, replace=False) for _ in range(voters * rounds)])
    return RecordTable.from_columns(
        [f"v{i // rounds:02d}" for i in range(voters * rounds)],
        np.tile(np.arange(rounds), voters),
        S.sum(axis=1),
        S,
        U.astype(float),
        rng.integers(0, 4, size=voters * rounds),
    )


def tree_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestReportWriter:
    """The report writer gives the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

    @staticmethod
    def assert_same_bytes(out, report):
        """Writes the report and checks it against the oracle; returns the file's JSON."""
        out.mkdir(exist_ok=True)
        cli._write_family_reports(out, report.mode, report, cli._row_text(report.table))
        path = out / f"{report.mode}_{report.family}_report.json"
        want = json.dumps(report_payload(report), sort_keys=True, indent=2) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        return json.loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("name", ["cv_sweep", "many_voters", "nn_folds"])
    def test_workload_reports(self, tmp_path, name):
        workload = workload_configs()[name]
        config = GeneratorConfig.from_dict({**workload.config(), "master_seed": 1})
        dataset = generate_synthetic(config)
        for family in workload.families.split(","):
            etas = workload.cv_etas.split(",") if workload.cv_etas else None
            etas = etas and tuple(e if e == "n" else int(e) for e in etas)
            grid = ParameterGrid.default(Family(family), cv_etas=etas)
            report = loo_evaluate(Family(family), grid, dataset, seed=1)
            self.assert_same_bytes(tmp_path, report)

    def test_empty_predictions_non_ascii_ids_and_m4(self, tmp_path):
        u = UtilityFunction((4.0, 3.0, 2.0, 1.0))
        records = [
            Record(vid, r, Poll((40 + r, 30, 20, 10 * r), 100), u, r % 4)
            for vid in ("voté", "選挙", "\u2603")
            for r in range(3)
        ]
        dataset = Dataset(table_of(records))
        report = loo_evaluate(Family.LD, ParameterGrid.default(Family.LD), dataset)
        assert report.to_dict()["classes"] == ["pref_0", "pref_1", "pref_2", "pref_3"]
        self.assert_same_bytes(tmp_path, report)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_hostile_ids_rounds_scenarios_and_buckets(self, tmp_path, m):
        table = hostile_table(m)
        assert set(table.voter_ids) == set(HOSTILE_IDS) and 2**63 - 1 in table.round.tolist()
        labels = set(SCENARIO_LABELS) if m == 3 else {UNCLASSIFIED}
        assert {SCENARIO_LABELS[s] for s in table.scenario.tolist()} == labels
        assert {POLL_BUCKETS[b] for b in table.bucket.tolist()} == set(POLL_BUCKETS)
        predicted = np.random.default_rng(m).integers(m, size=len(table))
        fitted = [{"r": i / 8} for i in range(len(table.voter_ids))]
        for mode in ("loo", "upper"):
            report = EvaluationReport("LD", mode, 2**63 - 1, table, predicted, fitted)
            got = self.assert_same_bytes(tmp_path, report)
            keys = [(row["voter_id"], row["round"]) for row in got["predictions"]]
            rows = zip(table.voter.tolist(), table.round.tolist())
            assert keys == [(table.voter_ids[v], r) for v, r in rows]

    @pytest.mark.parametrize("mode", ["loo", "upper"])
    def test_csv_tables_agree_with_the_report_json(self, tmp_path, small_dataset, mode):
        # The hostile table fills every scenario and bucket; the simulated
        # data leaves the unclassified scenario and three buckets empty.
        def table(prefix, name, numbers):
            """A CSV's header and rows, the cells from column ``numbers`` on
            read back as JSON reads numbers ("" stays)."""
            with open(f"{prefix}_{name}.csv", newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            return header, [
                [json.loads(c) if i >= numbers and c else c for i, c in enumerate(row)]
                for row in rows
            ]

        hostile = tmp_path / "hostile"
        save_dataset(Dataset(hostile_table(3)), hostile)
        empty = set()
        for data in (hostile, small_dataset):
            out = tmp_path / "out" / data.name
            argv = ["evaluate", "--data", str(data), "--families", "AU,TRUTH", "--mode", mode]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out", str(out)]) == 0
            for family in ("AU", "TRUTH"):
                prefix = out / f"{mode}_{family}"
                report = json.loads(Path(f"{prefix}_report.json").read_text("utf-8"))
                f, records = report["per_voter_f"], report["per_voter_records"]
                assert table(prefix, "per_voter_f", 1) == (
                    ["voter_id", "records", "f"], [[vid, records[vid], f[vid]] for vid in f]
                )
                header, rows = table(prefix, "params", 3)
                fitted, buckets = report["fitted_params"], report["voter_bucket"]
                keys = header[3:]
                assert keys == sorted({k for point in fitted.values() for k in point})
                want = [
                    [vid, family, buckets[vid], *(point[k] for k in keys)]
                    for vid, point in fitted.items()
                ]
                assert rows == (want if keys else []) and len(keys) == (family == "AU") * 2
                header, rows = table(prefix, "error_breakdown", 1)
                breakdown = report["error_breakdown"]
                empty |= {label for label, counts in breakdown.items() if not any(counts.values())}
                assert {row[0]: dict(zip(header[1:], row[1:])) for row in rows} == {
                    label: counts
                    for label, counts in breakdown.items()
                    if label == "total" or any(counts.values())
                }
                _, rows = table(prefix, "poll_size_f", 1)
                assert [row[:2] for row in rows] == [
                    [bucket, block["metrics"]["weighted_f"] if "metrics" in block else ""]
                    for bucket, block in report["poll_buckets"].items()
                ]
        assert UNCLASSIFIED in empty

    def test_shared_row_text_is_built_once_per_evaluate(self, tmp_path, monkeypatch):
        calls = []
        real = cli._row_text

        def counting(table):
            calls.append(len(table))
            return real(table)

        monkeypatch.setattr(cli, "_row_text", counting)
        data = tmp_path / "data"
        save_dataset(Dataset(hostile_table(3)), data)
        families = "TRUTH,BR,PRAG,LD,LDLB,TMG,AU"
        trees = []
        for jobs in ("1", "3"):
            out = tmp_path / f"r{jobs}"
            argv = ["evaluate", "--data", str(data), "--families", families, "--jobs", jobs]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out", str(out)]) == 0
            trees.append(tree_bytes(out))
        assert calls == [len(HOSTILE_IDS) * 7] * 2
        assert len(trees[0]) == 7 * 5 + 1 and trees[0] == trees[1]
        report = json.loads(trees[0]["loo_AU_report.json"])
        assert {row["voter_id"] for row in report["predictions"]} == set(HOSTILE_IDS)
