"""Every package function the benchmark calls or wraps must still fit it.

``perfbench/tracer.py`` replaces each ``stratvote.<module>.<name>`` listed in
its ``LAYERS`` table by a timing wrapper; a missing name would break
``perfbench/run.py --trace 1``.  The table is read from the source, not
imported, so the tracer module stays untouched.  The pivot kernels are also
called directly, with fixed argument shapes, by ``perfbench/kernels.py`` and
by the tracer's work counters.  The tracer itself runs on a small dataset,
in a child process as the benchmark runs it, so a hook that no longer fits
what it wraps fails here too.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from stratvote import pivot
from stratvote.core import Poll
from test_cli import workload_configs

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def traced_layers() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_function_resolves():
    layers = traced_layers()
    assert layers
    missing = []
    for module_name, names in layers.items():
        module = importlib.import_module(f"stratvote.{module_name}")
        missing += [
            f"stratvote.{module_name}.{name}"
            for name in names
            if not callable(getattr(module, name, None))
        ]
    assert not missing, f"traced names no longer exist: {missing}"


def test_pivot_call_shapes_still_bind():
    poll = Poll.from_scores((45, 35, 20))
    # kernels.py: pivot_table_exact(poll, eta) and pivot_table_mc(poll, eta, samples, seed).
    exact = inspect.signature(pivot.pivot_table_exact).bind(poll, 8)
    mc = inspect.signature(pivot.pivot_table_mc).bind(poll, 8, 100, 0)
    # tracer.py reads these arguments by name and counts compositions.
    assert {"poll", "eta"} <= exact.arguments.keys()
    assert {"poll", "eta", "samples"} <= mc.arguments.keys()
    inspect.signature(pivot.composition_count).bind(8, poll.m)


def test_tracer_traces_simulate_and_evaluate(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    config, data = tmp_path / "config.json", tmp_path / "data"
    config.write_text(json.dumps(workload_configs()["nn_folds"].config()), encoding="utf-8")
    commands = {
        "simulate": ["simulate", "--config", str(config), "--seed", "1", "--out", str(data)],
        "evaluate": [
            "evaluate", "--data", str(data / "dataset.csv"), "--families", "TRUTH,CV",
            "--cv-etas", "1,16", "--jobs", "1", "--out", str(tmp_path / "reports"),
        ],
    }
    traces = {}
    for name, argv in commands.items():
        trace = tmp_path / f"{name}.json"
        run = subprocess.run(
            [sys.executable, str(TRACER), str(trace), "--", *argv],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        traces[name] = json.loads(trace.read_text(encoding="utf-8"))
        assert traces[name]["exit_code"] == 0
    assert traces["simulate"]["stats"]["data.generate_synthetic"]["calls"] == 1
    rows = len((data / "dataset.csv").read_text(encoding="utf-8").splitlines()) - 1
    assert rows == 144
    assert traces["evaluate"]["stats"]["data.load_dataset"]["records"] == rows
