"""The ``simulate`` files and the ``--out`` tree of every benchmark workload, pinned by sha256.

Each workload of ``perfbench/workloads.py`` is simulated and evaluated in
process, as ``perfbench/run.py`` runs it (``--jobs 1 --seed 1``), and the
report directory is hashed by the harness's rule: per file, in sorted path
order, the relative name, a NUL byte and the sha256 of the file's bytes.  A
change that means to alter report bytes updates the digest here and names
the change in CHANGES.md.

``simulate`` writes the same ``dataset.csv`` and ``manifest.json`` bytes
for every workload config at seed 1, and for one more config that draws
what the workloads do not: ``CV`` at ``eta = "n"``, uniform samplers, a
group weight below 1, noise, per-voter poll sizes, sampled scenarios and a
round count that ``repeats`` does not divide.

Three hand-made datasets pin what no workload reaches: ``mixed_dataset`` of
``test_evaluation.py`` at m = 3 holds tied polls (unclassified rows) beside
unjustified and inconsistent votes, at m = 4 every row is unclassified, and
at m = 5 ``CV`` takes the kernel's nested sums and ``eta = "n"``.
"""

import hashlib
import json

import pytest

from stratvote import cli
from stratvote.data import save_dataset
from test_cli import workload_configs
from test_evaluation import mixed_dataset

DIGESTS = {
    "cv_sweep": "67ff6b9460b06d70707d99f1423c819dc544014ffbadcedcd957e7907c773195",
    "many_voters": "43c8f0ff12daa98315b3ccbd5df563dff95db7f9c11edce3672a40963f4d6bda",
    "nn_folds": "eb9b4edcf7f2253d268f350967ce81c1f440e1da7187d2cc5dd40c36bae04e91",
}


def tree_sha256(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            name = str(path.relative_to(directory))
            h.update(name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


SIMULATE_CONFIGS = {
    "mixed_groups": {
        "num_voters": 24,
        "rounds_per_voter": 7,
        "repeats": 2,
        "groups": [
            {"family": "CV", "params": {"eta": {"type": "choices", "values": [4, "n", 1000]}}},
            {
                "family": "AU",
                "params": {
                    "alpha": {"type": "uniform", "low": 0.0, "high": 2.0},
                    "beta": {"type": "value", "value": 12},
                },
            },
            {"family": "LDLB", "params": {"r": {"type": "uniform", "low": 0.0, "high": 0.3}}},
            {"family": "BR", "weight": 0.5},
            {"family": "TRUTH"},
            {"family": "PRAG", "params": {"k": {"type": "value", "value": 2}}},
        ],
        "noise": 0.2,
        "poll_size_mode": "per_voter",
        "scenario_mode": "sample",
    },
}
# The sha256 of dataset.csv and of manifest.json, per config, at seed 1.
SIMULATE_DIGESTS = {
    "cv_sweep": (
        "3e950f6fdc6876d7c356db6e25ac34f36f43b2c82da797f8dc9ef19411266dcc",
        "0fe4233ca5a9c85baff3ceb27c830ccd780b3ccc9984d1f8ea6a3caed2d268ff",
    ),
    "many_voters": (
        "34b2b18bdec0addeccc18ee2418a7d632c51064457e622f23e477be6e2944789",
        "dbfde6264d59edb4e990a5579e850d50730672f17479ec6de655f5c80a8adc72",
    ),
    "mixed_groups": (
        "ef78fa8e600565d071793dee47d8f11e68d5cf42b87ace9f1061852d64d9f684",
        "78ecfdcf3bb826b413e2cc91c8b53ad268641c5b81d19a6d5ab29b6fcb9d2ae0",
    ),
    "nn_folds": (
        "500c1c63e9071bec3b6cbe16eab2fb8f5ec063377b76d3ed438d7ff4f8921a9b",
        "415f9f7eb438bedb1bc0f9a37983c2405cd51a01fca6e5690b5886a229f2c6a2",
    ),
}


def simulate_config(name):
    if name in SIMULATE_CONFIGS:
        return SIMULATE_CONFIGS[name]
    return workload_configs()[name].config()


@pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
def test_simulate_keeps_its_bytes(name, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(simulate_config(name)), encoding="utf-8")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
    files = ("dataset.csv", "manifest.json")
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files)
    assert got == SIMULATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_reports_keep_their_bytes(name, tmp_path, capsys):
    workload = workload_configs()[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config()), encoding="utf-8")
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--seed", "1", "--out", str(sim)]) == 0
    argv = ["evaluate", "--data", str(sim / "dataset.csv"), *workload.evaluate_flags()]
    assert cli.main([*argv, "--jobs", "1", "--seed", "1", "--out", str(out)]) == 0
    assert tree_sha256(out) == DIGESTS[name]


# mixed_dataset's (seed, m), the families evaluated on it and its CV etas,
# and the tree digest per mode.
MIXED = {
    "m3": (1, 3, "TRUTH,BR,PRAG,CV,LD,LDLB,TMG,AU,NN", "1,4,16"),
    "m4": (3, 4, "TRUTH,BR,PRAG,CV,LD,LDLB,AU", "1,4,16"),
    "m5": (5, 5, "CV", "1,4,16,n"),
}
MIXED_DIGESTS = {
    ("m3", "loo"): "02553117ac33f122874433e9ddd87ccb85f195d2904dd9e154fbfad857e6392f",
    ("m3", "upper"): "3a994a8c5dceee3454e605ef70ba2e5409aba2a3b598125c963a7f00c044bfe1",
    ("m4", "loo"): "413234bfc2882a8f87bf60ed3ecff42f42dafb89c5b3f3e35aca535827aee2ad",
    ("m4", "upper"): "fe16f292241f6406eb53efd085cf5a653898a0128ef17d0c694ae8ca5f647bea",
    ("m5", "loo"): "1ad2ab4b12d32cf4b5747471fd34c3620eff03f99072d8eca3ae2f0b05e69ecf",
    ("m5", "upper"): "066ed9990da639d381eefaee077f5f617c758df66e9d25048eb340da5eb9056e",
}


@pytest.mark.parametrize("name, mode", sorted(MIXED_DIGESTS))
def test_mixed_reports_keep_their_bytes(name, mode, tmp_path, capsys):
    seed, m, families, etas = MIXED[name]
    save_dataset(mixed_dataset(seed, m), tmp_path / "data")
    argv = [
        "evaluate", "--data", str(tmp_path / "data" / "dataset.csv"), "--families", families,
        "--cv-etas", etas, "--mode", mode, "--jobs", "1", "--seed", "1",
        "--out", str(tmp_path / "out"),
    ]
    assert cli.main(argv) == 0
    assert tree_sha256(tmp_path / "out") == MIXED_DIGESTS[name, mode]
