"""Every public function and class in ``src/stratvote`` has a caller outside the tests.

A static check: each public module-level ``def`` or ``class`` of a package
module (``__init__.py`` aside) must be referenced from another part of the
package, from the benchmark harness under ``perfbench/`` (its code and the
names listed in the tracer's ``LAYERS`` table, read as
``test_bench_contract.py`` reads it), from the acceptance tests, or from
the README's Python example.  Code that only the per-module tests call
belongs in those tests, as their oracle, and not in the package.
"""

import ast
import re
from pathlib import Path

from test_bench_contract import traced_layers

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stratvote"


def _referenced(tree: ast.AST) -> set[str]:
    """Names a tree reads, looks up as attributes, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _readme_example() -> ast.Module:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    return ast.parse(block)


def _outside_callers() -> set[str]:
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= _referenced(_parse(path))
    for layer_names in traced_layers().values():
        names |= set(layer_names)
    names |= _referenced(_parse(ROOT / "tests" / "test_acceptance.py"))
    names |= _referenced(_readme_example())
    return names


def test_every_public_definition_has_a_caller():
    modules = {
        path.stem: _parse(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = _outside_callers()
    uncalled = []
    for name, tree in modules.items():
        # A definition's references to itself (recursion) do not count.
        others = outside.union(
            *(_referenced(t) for n, t in modules.items() if n != name),
        )
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in others | _referenced(rest):
                uncalled.append(f"stratvote.{name}.{node.name}")
    assert not uncalled, f"public definitions only the tests (or nothing) call: {uncalled}"
