"""Every package function the benchmark calls or wraps must still fit it.

``perfbench/tracer.py`` replaces each ``stratvote.<module>.<name>`` listed in
its ``LAYERS`` table by a timing wrapper; a missing name would break
``perfbench/run.py --trace 1``.  The table is read from the source, not
imported, so the tracer module stays untouched.  The pivot kernels are also
called directly, with fixed argument shapes, by ``perfbench/kernels.py`` and
by the tracer's work counters.
"""

import ast
import importlib
import inspect
from pathlib import Path

from stratvote import pivot
from stratvote.core import Poll

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
