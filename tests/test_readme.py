"""The README's library example runs against the current API, and every
package name and call shape the README documents still exists and binds."""

import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# ``stratvote.<module>.<name>``, then the arguments of a documented call, if any.
NAMED = re.compile(r"stratvote\.(\w+)\.(\w+)((?:\.\w+)*)(?:\(([^()`]*)\))?")


def test_library_example_prints_its_documented_decision(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "3\n"


def documented_names(text: str) -> list[tuple[str, str, str, str | None]]:
    return [match.groups() for match in NAMED.finditer(text)]


def unbound_names(text: str) -> list[str]:
    """Each ``stratvote.<module>.<name>`` of ``text`` that does not resolve,
    and each documented call whose positional arguments do not bind."""
    problems = []
    for module_name, name, attributes, arguments in documented_names(text):
        label = f"stratvote.{module_name}.{name}{attributes}"
        try:
            target = getattr(importlib.import_module(f"stratvote.{module_name}"), name)
            for attribute in filter(None, attributes.split(".")):
                target = getattr(target, attribute)
        except (ImportError, AttributeError):
            problems.append(f"{label} does not resolve")
            continue
        if arguments is None:
            continue
        names = [a.strip() for a in arguments.replace("\n", " ").split(",") if a.strip()]
        # A starred name stands for any number of arguments: bind it as one.
        args = [object() for a in names if "=" not in a and not a.startswith("**")]
        kwargs = {a.partition("=")[0].strip(): object() for a in names if "=" in a}
        try:
            inspect.signature(target).bind(*args, **kwargs)
        except TypeError as exc:
            problems.append(f"{label}({arguments}) does not bind: {exc}")
    return problems


def test_every_documented_name_resolves_and_binds():
    text = README.read_text(encoding="utf-8")
    assert len(documented_names(text)) >= 10
    assert unbound_names(text) == []


def test_the_name_check_can_fail():
    assert unbound_names("`stratvote.models.no_such_name`") == [
        "stratvote.models.no_such_name does not resolve"
    ]
    assert unbound_names("`stratvote.nosuchmodule.decide`") == [
        "stratvote.nosuchmodule.decide does not resolve"
    ]
    (problem,) = unbound_names("`stratvote.models.decide(descriptor, u)`")
    assert problem.startswith("stratvote.models.decide(descriptor, u) does not bind")
    assert unbound_names("`stratvote.models.decide(descriptor, u, s)`") == []
    assert unbound_names("`stratvote.seeding.derive_seed(master, *parts)`") == []
    (problem,) = unbound_names("`stratvote.evaluation.ParameterGrid.default(family, m=3, k=2)`")
    assert "does not bind" in problem
