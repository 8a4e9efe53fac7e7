"""Every function the benchmark tracer wraps must still exist in the package.

``perfbench/tracer.py`` replaces each ``stratvote.<module>.<name>`` listed in
its ``LAYERS`` table by a timing wrapper; a missing name would break
``perfbench/run.py --trace 1``.  The table is read from the source, not
imported, so the tracer module stays untouched.
"""

import ast
import importlib
from pathlib import Path

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
