import json

import pytest

from stratvote.cli import main
from stratvote.data import GeneratorConfig, load_dataset
from stratvote.models import Family

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

    def test_bad_cv_etas_is_a_usage_error(self, tmp_path, small_dataset):
        code = main(
            [
                "evaluate", "--data", str(small_dataset), "--families", "CV",
                "--cv-etas", "1,x", "--out", str(tmp_path),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("family", ["TMG", "NN"])
    def test_three_candidate_family_on_four_candidates_is_a_data_error(
        self, tmp_path, family, capsys
    ):
        header = "voter_id,round,n," + ",".join(
            [f"s_{i}" for i in range(1, 5)] + [f"u_{i}" for i in range(1, 5)]
        ) + ",action\n"
        data = write_rows(
            tmp_path,
            "v1,0,100,40,30,20,10,30,20,10,0,q1\nv1,1,100,10,40,30,20,30,20,10,0,q2\n",
            header=header,
        )
        code = main(
            ["evaluate", "--data", str(data), "--families", family, "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert f"cannot apply {family}" in capsys.readouterr().err

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
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        base = [
            "evaluate", "--data", str(small_dataset),
            "--families", "AU,CV", "--cv-etas", "1,4,n",
        ]
        assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(base + ["--jobs", "3", "--out", str(out2)]) == 0
        for path1 in sorted(out1.iterdir()):
            assert path1.read_bytes() == (out2 / path1.name).read_bytes()

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

    def test_params_route_uses_fitted_parameters(self, tmp_path, small_dataset):
        rep = tmp_path / "rep"
        main(["evaluate", "--data", str(small_dataset), "--families", "LD", "--out", str(rep)])
        out = tmp_path / "pred.csv"
        code = main(
            [
                "predict", "--data", str(small_dataset),
                "--params", str(rep / "loo_LD_report.json"), "--out", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "voter_id,round,predicted"
        assert len(rows) == 25

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

    def test_nn_model_requires_network_weights(self, tmp_path, small_dataset):
        code = main(
            ["predict", "--data", str(small_dataset), "--model", "NN", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 1


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

        monkeypatch.setattr(cli_mod, "loo_evaluate", boom)
        code = main(
            ["evaluate", "--data", str(small_dataset), "--families", "TRUTH", "--out", str(tmp_path)]
        )
        assert code == 3
        assert "internal error" in capsys.readouterr().err
