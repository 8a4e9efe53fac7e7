"""The ``--out`` tree of every benchmark workload, pinned by its sha256 at seed 1.

Each workload of ``perfbench/workloads.py`` is simulated and evaluated in
process, as ``perfbench/run.py`` runs it (``--jobs 1 --seed 1``), and the
report directory is hashed by the harness's rule: per file, in sorted path
order, the relative name, a NUL byte and the sha256 of the file's bytes.  A
change that means to alter report bytes updates the digest here and names
the change in CHANGES.md.
"""

import hashlib
import json

import pytest

from stratvote import cli
from test_cli import workload_configs

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
