"""Every public function and class in ``src/stratvote`` has a caller outside the tests.

A static check: each public module-level ``def`` or ``class`` of a package
module (``__init__.py`` aside) must be referenced from another part of the
package, from the benchmark harness under ``perfbench/`` (its code and the
names listed in the tracer's ``LAYERS`` table, read as
``test_bench_contract.py`` reads it), from the acceptance tests, or from
the README's Python example.  Code that only the per-module tests call
belongs in those tests, as their oracle, and not in the package.

A reference is a name read or imported.  In the package, the acceptance
tests and the README example, an attribute read counts only on a name bound
to a ``stratvote`` module (``nn_mod.fit_folds``): ``report.cube`` would
reference no module-level ``evaluation.cube``.  ``perfbench/`` reaches the
modules through a dict (``modules["pivot"].composition_count``), so there
every attribute read counts by its name.
"""

import ast
import re
from pathlib import Path

from test_bench_contract import traced_layers

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stratvote"
MODULES = {path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}


def _module_names(tree: ast.AST) -> set[str]:
    """Names the tree binds to a stratvote module: ``from . import nn as nn_mod``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "stratvote")
        for alias in node.names
        if alias.name in MODULES
    }


def _referenced(tree: ast.AST, *, any_attribute: bool = False) -> set[str]:
    """Names a tree reads or imports, and the attributes it reads on modules.

    With ``any_attribute`` every attribute read counts, whatever its object.
    """
    module_names = _module_names(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):  # a dataclass field named alike is no read
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if any_attribute or (
                isinstance(node.value, ast.Name) and node.value.id in module_names
            ):
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
        names |= _referenced(_parse(path), any_attribute=True)
    for layer_names in traced_layers().values():
        names |= set(layer_names)
    names |= _referenced(_parse(ROOT / "tests" / "test_acceptance.py"))
    names |= _referenced(_readme_example())
    return names


def _uncalled(modules: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """The public definitions of ``modules`` that nothing references."""
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
    return uncalled


def test_every_public_definition_has_a_caller():
    modules = {stem: _parse(PACKAGE / f"{stem}.py") for stem in sorted(MODULES)}
    uncalled = _uncalled(modules, _outside_callers())
    assert not uncalled, f"public definitions only the tests (or nothing) call: {uncalled}"


def test_an_attribute_read_on_an_object_is_no_call():
    defining = ast.parse("def helper():\n    pass\n")
    on_object = ast.parse("def _use(report):\n    return report.helper\n")
    assert _uncalled({"models": defining, "cli": on_object}, set()) == ["stratvote.models.helper"]
    # Nor is a dataclass field of the same name.
    field = ast.parse("class _Report:\n    helper: int\n")
    assert _uncalled({"models": defining, "cli": field}, set()) == ["stratvote.models.helper"]
    for caller in (
        "from . import models\nmodels.helper()\n",
        "from . import models as m\nm.helper()\n",
        "from stratvote import models\nmodels.helper()\n",
        "from .models import helper\n",
    ):
        assert _uncalled({"models": defining, "cli": ast.parse(caller)}, set()) == []
    # perfbench's attribute reads count by name.
    by_name = _referenced(on_object, any_attribute=True)
    assert _uncalled({"models": defining, "cli": ast.parse("")}, by_name) == []


def _package() -> dict[str, ast.Module]:
    return {stem: _parse(PACKAGE / f"{stem}.py") for stem in sorted(MODULES)}


def _unreferenced_private(modules: dict[str, ast.Module]) -> list[str]:
    """The private module-level functions that no part of the package references."""
    unreferenced = []
    for name, tree in modules.items():
        others = set().union(*(_referenced(t) for n, t in modules.items() if n != name))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in others | _referenced(rest):
                unreferenced.append(f"stratvote.{name}.{node.name}")
    return unreferenced


def _private_reads(modules: dict[str, ast.Module]) -> list[str]:
    """Each read of another module's private name: ``from .pivot import _x`` or ``pivot._x``."""
    reads = []
    for name, tree in modules.items():
        module_names = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").removeprefix("stratvote.")
                if source in MODULES and (node.level or node.module.startswith("stratvote")):
                    private = [a.name for a in node.names if a.name.startswith("_")]
                    reads += [f"{name} imports {source}.{p}" for p in private]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_names
                and node.attr.startswith("_")
            ):
                reads.append(f"{name} reads {node.value.id}.{node.attr}")
    return reads


def test_every_private_function_is_referenced_in_the_package():
    unreferenced = _unreferenced_private(_package())
    assert not unreferenced, f"private functions nothing in the package references: {unreferenced}"


def test_no_module_reads_another_modules_private_names():
    reads = _private_reads(_package())
    assert not reads, f"private names read across modules: {reads}"


def test_the_private_name_checks_can_fail():
    helper = "def _helper():\n    return _helper()\n"  # recursion is no reference
    assert _unreferenced_private({"models": ast.parse(helper)}) == ["stratvote.models._helper"]
    for caller in ("from .models import _helper\n", "x = _helper\n"):
        modules = {"models": ast.parse(helper), "cli": ast.parse(caller)}
        assert _unreferenced_private(modules) == []
    for reader, read in (
        ("from .models import _RULES\n", "cli imports models._RULES"),
        ("from stratvote.models import _RULES\n", "cli imports models._RULES"),
        ("from . import models as m\nm._RULES\n", "cli reads m._RULES"),
    ):
        assert _private_reads({"cli": ast.parse(reader)}) == [read]
    assert _private_reads({"cli": ast.parse("from .models import RULES\nreport._RULES\n")}) == []
