"""Per-layer trace of one stratvote CLI command, taken from outside the package.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py TRACE.json -- evaluate --data ... --jobs 1

Before running the command in this process, every function listed in
``LAYERS`` is replaced by a timing wrapper in each ``stratvote`` module
namespace that holds it, so names imported into other modules (such as
``build_profile`` or ``derive_seed``) are timed at every call site.  Calls
are aggregated in place per function: call count, inclusive seconds, and
the part of that spent in other wrapped functions, from which self time
follows.  Coarse functions, called a few times per command, also keep one
span each (name, start, end, parent).  ``core`` is not wrapped; its cost
lands in its callers' self time.

Only code running in this process is seen, so trace with ``--jobs 1``.
The trace is written as JSON when the command returns; the exit status is
the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = {
    "pivot": ("pivot_table_exact", "pivot_table_mc", "decide_cv"),
    "models": ("decide", "undominated_set", "au_decisions_grid"),
    "evaluation": ("loo_evaluate", "error_breakdown"),
    "behavior": ("build_profile", "scenario_or_none", "is_unjustified"),
    "nn": ("fit_network", "train", "predict_record"),
    "data": ("generate_synthetic", "save_dataset", "load_dataset"),
    "cli": ("cmd_simulate", "cmd_evaluate"),
    "seeding": ("derive_seed",),
}

# Functions called a handful of times per command keep individual spans.
COARSE = {
    "cli.cmd_simulate",
    "cli.cmd_evaluate",
    "data.generate_synthetic",
    "data.save_dataset",
    "data.load_dataset",
    "evaluation.loo_evaluate",
    "evaluation.error_breakdown",
}


class Stat:
    __slots__ = ("calls", "total", "child", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.extra: dict[str, float] = {}

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "s": self.total,
            "self_s": self.total - self.child,
            **self.extra,
        }


def _bound_arg(signature: inspect.Signature, name: str, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _extra_hooks(modules: dict) -> dict:
    """Work counters read from the arguments or result of a call."""
    pivot = modules["pivot"]
    nn_train = inspect.signature(modules["nn"].train)
    mc_table = inspect.signature(modules["pivot"].pivot_table_mc)
    exact_table = inspect.signature(modules["pivot"].pivot_table_exact)
    loo = inspect.signature(modules["evaluation"].loo_evaluate)

    def add(stat: Stat, key: str, value: float) -> None:
        stat.extra[key] = stat.extra.get(key, 0) + value

    def exact(stat, args, kwargs, result, dt):
        poll = _bound_arg(exact_table, "poll", args, kwargs)
        eta = _bound_arg(exact_table, "eta", args, kwargs)
        add(stat, "compositions", pivot.composition_count(int(eta), poll.m))

    def mc(stat, args, kwargs, result, dt):
        add(stat, "draws", int(_bound_arg(mc_table, "samples", args, kwargs)))

    def train(stat, args, kwargs, result, dt):
        add(stat, "epochs", _bound_arg(nn_train, "hyper", args, kwargs).epochs)

    def family_time(stat, args, kwargs, result, dt):
        family = _bound_arg(loo, "family", args, kwargs)
        add(stat, f"{getattr(family, 'value', family)}.s", dt)

    def records(stat, args, kwargs, result, dt):
        add(stat, "records", len(result.records))

    return {
        "pivot.pivot_table_exact": exact,
        "pivot.pivot_table_mc": mc,
        "nn.train": train,
        "evaluation.loo_evaluate": family_time,
        "data.load_dataset": records,
    }


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, seconds spent in wrapped children]
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn, hook=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans if name in COARSE else None
        origin = self._origin

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stat.calls += 1
                stat.total += dt
                stat.child += frame[1]
                if hook is not None and result is not None:
                    hook(stat, args, kwargs, result, dt)
                if spans is not None:
                    spans.append(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": start + dt - origin,
                            "parent": stack[-1][0] if stack else None,
                        }
                    )

        return wrapper

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"stratvote.{layer}") for layer in LAYERS
        }
        hooks = _extra_hooks(modules)
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "stratvote" or key.startswith("stratvote.")
        ]
        for layer, names in LAYERS.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                qualified = f"{layer}.{fname}"
                wrapper = self.wrap(qualified, original, hooks.get(qualified))
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def to_dict(self) -> dict:
        return {
            "stats": {name: stat.to_dict() for name, stat in sorted(self.stats.items())},
            "spans": self.spans,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from stratvote import cli

    start = time.perf_counter()
    code = cli.main(cli_args)
    payload = tracer.to_dict()
    payload["exit_code"] = code
    payload["command_s"] = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
