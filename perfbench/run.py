"""Benchmark `stratvote simulate` and `stratvote evaluate --mode loo` end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload cv_sweep --seed 1 --seconds 40 --trace 0

Every CLI command runs in a fresh interpreter, one at a time, with
``PYTHONPATH=src`` and ``OPENBLAS_NUM_THREADS=1``, so imports and lazy
set-up count.  ``--trace 0`` times the commands; ``--trace 1`` runs one
evaluate untraced and once under ``perfbench/tracer.py`` and reports the
per-layer numbers.  Outputs are checked on every run; an operation (one CLI
invocation) fails on a non-zero exit or a failed check.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are diagnostics.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

SIMULATE_REPEATS = 3
# Children still running this long after the start are killed (and count as
# failed), so a run ends well inside the 180 s it may take.
RUN_DEADLINE_S = 165
FAMILIES = ("TRUTH", "BR", "PRAG", "CV", "LD", "LDLB", "TMG", "AU", "NN")
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k not in ("STRATVOTE_SEED", "PYTHONPATH")},
    "PYTHONPATH": str(ROOT / "src"),
    # One BLAS thread per process keeps --jobs 2 at two busy threads.
    "OPENBLAS_NUM_THREADS": "1",
}


@dataclass
class Op:
    """One CLI invocation and what it cost."""

    label: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems

    def line(self) -> str:
        status = "ok" if self.ok else "FAILED " + "; ".join(
            ([f"exit {self.code}"] if self.code else []) + self.problems
        )
        return (
            f"op {self.label}: wall {self.wall_s:.4f} s, user+sys {self.cpu_s:.4f} s, "
            f"peak rss {self.rss_mb:.1f} MB, {status}"
        )


class Runner:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.ops: list[Op] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def run(self, label: str, argv: list[str], *, counted: bool = True) -> Op:
        """Run one child to completion; wall, CPU and peak RSS are its own.

        ``counted`` operations are the CLI invocations behind ``attempted``.
        """
        log = self.work / f"{label}.log"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=CHILD_ENV, stdout=fh, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(
            label=label,
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )
        if op.code:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            op.problems.append("output: " + (tail[-1] if tail else "(none)"))
        if counted:
            self.ops.append(op)
        return op

    def cli(self, label: str, args: list[str]) -> Op:
        return self.run(label, [sys.executable, "-m", "stratvote.cli", *args])

    def traced(self, label: str, trace_path: Path, args: list[str]) -> Op:
        return self.run(
            label, [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *args]
        )


# --- output checks -----------------------------------------------------------


def dataset_keys(csv_path: Path) -> list[tuple[str, int]]:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return [(row["voter_id"], int(row["round"])) for row in csv.DictReader(fh)]


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def tree_sha256(directory: Path) -> str:
    h = hashlib.sha256()
    for name, payload in tree_bytes(directory).items():
        h.update(name.encode() + b"\0" + hashlib.sha256(payload).digest())
    return h.hexdigest()


def check_simulate(op: Op, out: Path, workload: Workload, reference: Path | None) -> None:
    csv_path = out / "dataset.csv"
    if not csv_path.is_file() or not (out / "manifest.json").is_file():
        op.problems.append("dataset.csv or manifest.json missing")
        return
    want = workload.num_voters * workload.rounds_per_voter
    got = len(dataset_keys(csv_path))
    if got != want:
        op.problems.append(f"{got} records, expected {want}")
    if reference is not None and tree_bytes(out) != tree_bytes(reference):
        op.problems.append(f"output differs from {reference.name} for the same seed")


def check_reports(op: Op, out: Path, workload: Workload, keys: list[tuple[str, int]]) -> None:
    """One prediction per dataset record in every report; the F floor."""
    want = sorted(keys)
    for family in workload.families.split(","):
        path = out / f"loo_{family}_report.json"
        if not path.is_file():
            op.problems.append(f"{path.name} missing")
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        got = sorted((p["voter_id"], p["round"]) for p in report["predictions"])
        if got != want:
            op.problems.append(f"{path.name}: predictions do not match the dataset records")
        floor = workload.min_weighted_f
        weighted_f = report["overall"]["metrics"]["weighted_f"]
        if floor is not None and weighted_f < floor:
            op.problems.append(f"{family} weighted F {weighted_f:.4f} < {floor}")


def check_same(op: Op, out: Path, reference: Path) -> None:
    if tree_bytes(out) != tree_bytes(reference):
        op.problems.append(f"reports differ from {reference.name}")


# --- the two passes ------------------------------------------------------------


def simulate_args(config_path: Path, seed: int, out: Path) -> list[str]:
    return ["simulate", "--config", str(config_path), "--seed", str(seed), "--out", str(out)]


def evaluate_args(workload: Workload, data: Path, seed: int, jobs: int, out: Path) -> list[str]:
    return [
        "evaluate", "--data", str(data), *workload.evaluate_flags(),
        "--jobs", str(jobs), "--seed", str(seed), "--out", str(out),
    ]


def timed_pass(runner: Runner, workload: Workload, config: Path, seed: int, seconds: int):
    work = runner.work
    sims = []
    for i in range(SIMULATE_REPEATS):
        out = work / f"sim{i}"
        op = runner.cli(f"simulate#{i}", simulate_args(config, seed, out))
        if op.code == 0:
            check_simulate(op, out, workload, work / "sim0" if i else None)
        sims.append(op)
    data = work / "sim0" / "dataset.csv"
    keys = dataset_keys(data) if data.is_file() else []

    # Alternate --jobs 1 and --jobs 2 until the next pair would overrun.
    jobs1: list[Op] = []
    jobs2: list[Op] = []
    outputs: list[Path] = []
    start = time.perf_counter()
    while True:
        k = len(jobs1)
        for jobs, ops in ((1, jobs1), (2, jobs2)):
            out = work / f"eval{k}_jobs{jobs}"
            op = runner.cli(f"evaluate#{k}_jobs{jobs}", evaluate_args(workload, data, seed, jobs, out))
            if op.code == 0:
                check_reports(op, out, workload, keys)
                if outputs:
                    check_same(op, out, outputs[0])
            ops.append(op)
            outputs.append(out)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(jobs1) > seconds:
            break
    print(f"info: report sha256 {tree_sha256(outputs[0])}")
    metrics = {
        "setup_s": statistics.median(op.wall_s for op in sims),
        "evaluate_s": statistics.median(op.wall_s for op in jobs1),
        "evaluate_jobs2_s": statistics.median(op.wall_s for op in jobs2),
        "evaluate_peak_rss_mb": statistics.median(op.rss_mb for op in jobs1),
    }
    return metrics, len(keys), {}


# Per-layer metric -> (traced command, wrapped function, statistic).
TRACED = {
    "pivot.exact.calls": ("evaluate", "pivot.pivot_table_exact", "calls"),
    "pivot.exact.s": ("evaluate", "pivot.pivot_table_exact", "s"),
    "pivot.exact.compositions": ("evaluate", "pivot.pivot_table_exact", "compositions"),
    "pivot.mc.calls": ("evaluate", "pivot.pivot_table_mc", "calls"),
    "pivot.mc.s": ("evaluate", "pivot.pivot_table_mc", "s"),
    "pivot.mc.draws": ("evaluate", "pivot.pivot_table_mc", "draws"),
    "pivot.decide_cv.calls": ("evaluate", "pivot.decide_cv", "calls"),
    "pivot.decide_cv.self_s": ("evaluate", "pivot.decide_cv", "self_s"),
    "models.decide.calls": ("evaluate", "models.decide", "calls"),
    "models.decide.self_s": ("evaluate", "models.decide", "self_s"),
    "models.undominated_set.calls": ("evaluate", "models.undominated_set", "calls"),
    "models.undominated_set.s": ("evaluate", "models.undominated_set", "s"),
    "models.au_decisions_grid.calls": ("evaluate", "models.au_decisions_grid", "calls"),
    "models.au_decisions_grid.s": ("evaluate", "models.au_decisions_grid", "s"),
    "evaluation.loo_evaluate.s": ("evaluate", "evaluation.loo_evaluate", "s"),
    **{
        f"evaluation.loo_evaluate.{family}.s": ("evaluate", "evaluation.loo_evaluate", f"{family}.s")
        for family in FAMILIES
    },
    "evaluation.error_breakdown.s": ("evaluate", "evaluation.error_breakdown", "s"),
    "behavior.build_profile.calls": ("evaluate", "behavior.build_profile", "calls"),
    "behavior.build_profile.s": ("evaluate", "behavior.build_profile", "s"),
    "behavior.scenario_or_none.calls": ("evaluate", "behavior.scenario_or_none", "calls"),
    "behavior.scenario_or_none.s": ("evaluate", "behavior.scenario_or_none", "s"),
    "behavior.is_unjustified.calls": ("evaluate", "behavior.is_unjustified", "calls"),
    "behavior.is_unjustified.s": ("evaluate", "behavior.is_unjustified", "s"),
    "nn.fit_network.calls": ("evaluate", "nn.fit_network", "calls"),
    "nn.fit_network.s": ("evaluate", "nn.fit_network", "s"),
    "nn.train.epochs": ("evaluate", "nn.train", "epochs"),
    "nn.predict_record.calls": ("evaluate", "nn.predict_record", "calls"),
    "nn.predict_record.s": ("evaluate", "nn.predict_record", "s"),
    "data.generate_synthetic.s": ("simulate", "data.generate_synthetic", "s"),
    "data.save_dataset.s": ("simulate", "data.save_dataset", "s"),
    "data.load_dataset.s": ("evaluate", "data.load_dataset", "s"),
    "data.records": ("evaluate", "data.load_dataset", "records"),
    # Report assembly and writing is what cmd_evaluate does itself.
    "cli.write_reports.s": ("evaluate", "cli.cmd_evaluate", "self_s"),
    "seeding.derive_seed.calls": ("evaluate", "seeding.derive_seed", "calls"),
    "seeding.derive_seed.s": ("evaluate", "seeding.derive_seed", "s"),
}


def _stat(trace: dict, name: str, key: str) -> float:
    return trace.get("stats", {}).get(name, {}).get(key, 0)


def layer_metrics(traces: dict[str, dict]) -> dict[str, float]:
    out = {
        metric: _stat(traces[command], name, key)
        for metric, (command, name, key) in TRACED.items()
    }
    ev = traces["evaluate"]
    out["evaluation.self_s"] = _stat(ev, "evaluation.loo_evaluate", "self_s") + _stat(
        ev, "evaluation.error_breakdown", "self_s"
    )
    calls = out["pivot.decide_cv.calls"]
    built = out["pivot.exact.calls"] + out["pivot.mc.calls"]
    out["pivot.table_reuse_ratio"] = 1 - built / calls if calls else 0.0
    return out


def _load_trace(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def traced_pass(runner: Runner, workload: Workload, config: Path, seed: int):
    work = runner.work
    sim_out = work / "sim_traced"
    sim_trace = work / "trace_simulate.json"
    op = runner.traced("simulate_traced", sim_trace, simulate_args(config, seed, sim_out))
    if op.code == 0:
        check_simulate(op, sim_out, workload, None)
    data = sim_out / "dataset.csv"
    keys = dataset_keys(data) if data.is_file() else []

    plain_out = work / "eval_untraced"
    plain = runner.cli("evaluate_untraced", evaluate_args(workload, data, seed, 1, plain_out))
    if plain.code == 0:
        check_reports(plain, plain_out, workload, keys)
    traced_out = work / "eval_traced"
    eval_trace = work / "trace_evaluate.json"
    traced = runner.traced("evaluate_traced", eval_trace, evaluate_args(workload, data, seed, 1, traced_out))
    if traced.code == 0:
        check_reports(traced, traced_out, workload, keys)
        check_same(traced, traced_out, plain_out)
    print(f"info: report sha256 {tree_sha256(plain_out)}")

    kernels = runner.run("pivot_kernels", [sys.executable, str(HERE / "kernels.py")], counted=False)
    print(kernels.line())
    kernel_times = {}
    if kernels.code == 0:
        log = (work / "pivot_kernels.log").read_text(encoding="utf-8").strip().splitlines()
        kernel_times = json.loads(log[-1])

    traces = {"simulate": _load_trace(sim_trace), "evaluate": _load_trace(eval_trace)}
    metrics = layer_metrics(traces)
    metrics.update(kernel_times)
    metrics["cli.report_bytes"] = sum(len(b) for b in tree_bytes(traced_out).values())
    metrics["trace_overhead_ratio"] = traced.wall_s / plain.wall_s
    for span in traces["evaluate"].get("spans", []):
        print(f"span: {span['name']} {span['end'] - span['start']:.4f} s (parent {span['parent']})")
    command_s = _stat(traces["evaluate"], "cli.cmd_evaluate", "s")
    shares = {
        "pivot.exact.s + pivot.mc.s": metrics["pivot.exact.s"] + metrics["pivot.mc.s"],
        "nn.fit_network.s": metrics["nn.fit_network.s"],
    }
    for name, seconds in shares.items():
        print(
            f"info: {name} is {seconds / command_s if command_s else 0:.3f} of the traced "
            f"evaluate command and {seconds / traced.wall_s:.3f} of its process wall time"
        )
    work_counts = {
        k: metrics[k] for k in ("pivot.exact.compositions", "pivot.mc.draws", "nn.train.epochs")
    }
    return metrics, len(keys), work_counts


# --- provenance and output -------------------------------------------------------


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # Outside a git checkout, do not pick up a repository above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def library_versions() -> dict:
    probe = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=CHILD_ENV, capture_output=True, text=True, timeout=60
    )
    numpy_v, scipy_v = (out.stdout.split() + ["unknown", "unknown"])[:2]
    return {"numpy": numpy_v, "scipy": scipy_v}


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def cpu_steal_s() -> float | None:
    """Seconds of CPU stolen from this virtual machine so far, if Linux says."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stratvote" / "cli.py").is_file():
        print(f"error: no stratvote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = declared_metrics("per_layer" if args.trace else "end_to_end")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workload.config(), indent=1), encoding="utf-8")
        load_before = os.getloadavg()
        steal_before = cpu_steal_s()
        runner = Runner(work)
        # Compile the package's bytecode before anything is timed.
        warm = runner.run(
            "warm_import", [sys.executable, "-c", "import stratvote.cli"], counted=False
        )
        if warm.code:
            print(f"error: cannot import stratvote: {warm.problems}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, records, work_counts = traced_pass(runner, workload, config, args.seed)
        else:
            metrics, records, work_counts = timed_pass(
                runner, workload, config, args.seed, args.seconds
            )
        load_after = os.getloadavg()
        steal_after = cpu_steal_s()
        for op in runner.ops:
            print(op.line())

        attempted = len(runner.ops)
        failed = sum(not op.ok for op in runner.ops)
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **library_versions(),
            "child_env": {"OPENBLAS_NUM_THREADS": CHILD_ENV["OPENBLAS_NUM_THREADS"]},
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "cpu_steal_s": None if steal_before is None else steal_after - steal_before,
            "records": records,
            **work_counts,
        }
        print("provenance: " + json.dumps(provenance, sort_keys=True))
        for name, value in sorted(metrics.items()):
            print(f"metric: {name} = {value!r} {units.get(name, '')}")
        print(f"metric: failed_ratio = {failed / attempted!r} ratio ({failed}/{attempted} operations)")
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"error: metrics not measured: {missing}", file=sys.stderr)
            return 1
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
