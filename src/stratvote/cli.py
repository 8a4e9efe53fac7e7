"""Command line front end: simulate datasets, evaluate families, predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
``STRATVOTE_SEED`` is consulted when --seed is omitted from simulate or
evaluate.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import models, nn as nn_mod
from .behavior import SCENARIO_ORDER_TEXT, SCENARIOS, UNCLASSIFIED, build_profile
from .data import (
    DataError,
    Dataset,
    GeneratorConfig,
    format_action,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .evaluation import (
    POLL_BUCKETS,
    ConfusionMatrix,
    EvaluationReport,
    ParameterGrid,
    loo_evaluate,
    metrics_from_confusion,
    parameter_distribution,
    upper_bound_evaluate,
)
from .models import DecisionContext, Family, ModelDescriptor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through UsageError
    # so usage problems stay distinct from data errors.
    def error(self, message: str):
        raise UsageError(message)


def _resolve_seed(value: int | None, *, required: bool, command: str) -> int:
    if value is not None:
        return value
    env = os.environ.get("STRATVOTE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"STRATVOTE_SEED must be an integer, got {env!r}")
    if required:
        raise UsageError(f"{command} needs --seed (or the STRATVOTE_SEED variable)")
    return 0


def _parse_families(raw: str) -> list[Family]:
    out: list[Family] = []
    for token in raw.split(","):
        name = token.strip().upper()
        if not name:
            continue
        try:
            fam = Family(name)
        except ValueError:
            known = ",".join(f.value for f in Family)
            raise UsageError(f"unknown family {token.strip()!r} (known: {known})")
        if fam not in out:
            out.append(fam)
    if not out:
        raise UsageError("--families must name at least one family")
    return out


def _parse_etas(raw: str) -> tuple:
    etas = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "n":
            etas.append("n")
            continue
        try:
            eta = int(token)
        except ValueError:
            raise UsageError(f"--cv-etas entries must be integers or 'n', got {token!r}")
        if eta < 1:
            raise UsageError(f"--cv-etas entries must be positive, got {eta}")
        etas.append(eta)
    if not etas:
        raise UsageError("--cv-etas must name at least one sample size")
    return tuple(etas)


def _load_json(path: str | Path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} is not valid JSON ({path}): {exc}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --- simulate ------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed, required=True, command="simulate")
    spec = _load_json(args.config, "generator config")
    try:
        config = GeneratorConfig.from_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid generator config: {exc}")
    config = dataclasses.replace(config, master_seed=seed)
    dataset = generate_synthetic(config)
    csv_path, manifest_path = save_dataset(dataset, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {manifest_path}")
    return EXIT_OK


# --- evaluate ------------------------------------------------------------


def _scenario_f(report: EvaluationReport, scenario: str):
    matrix = report.per_scenario.get(scenario)
    if matrix is None or matrix.total == 0:
        return ""
    return metrics_from_confusion(matrix).weighted_f


def _scenario_table(
    reports: dict[str, EvaluationReport], mode: str, total_records: int
) -> tuple[list[str], list[list]]:
    """One row per scenario, one f-measure column per family."""
    fams = list(reports)
    first = next(iter(reports.values()))
    labels = [s for s in SCENARIOS]
    if first.per_scenario.get(UNCLASSIFIED) is not None and first.per_scenario[UNCLASSIFIED].total:
        labels.append(UNCLASSIFIED)
    rows: list[list] = []
    for scenario in labels:
        row: list = [scenario]
        if mode == "loo":
            count = first.per_scenario[scenario].total if scenario in first.per_scenario else 0
            row.append(SCENARIO_ORDER_TEXT.get(scenario, ""))
            row.append(100.0 * count / total_records if total_records else "")
        row.extend(_scenario_f(reports[f], scenario) for f in fams)
        rows.append(row)
    total_row: list = ["total"]
    if mode == "loo":
        total_row.extend(["", ""])
    total_row.extend(reports[f].metrics.weighted_f for f in fams)
    rows.append(total_row)
    header = ["scenario"]
    if mode == "loo":
        header.extend(["order", "frequency_pct"])
    header.extend(fams)
    return header, rows


def _poll_size_table(report: EvaluationReport) -> tuple[list[str], list[list]]:
    """Per poll-size bucket: overall F plus the four strategic scenarios."""
    strategic = ("C", "D", "E", "F")
    cross: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for row in report.rows:
        cross.setdefault((row.bucket, row.scenario), []).append(
            (row.actual_rank, row.predicted_rank)
        )
    out: list[list] = []
    for bucket in POLL_BUCKETS:
        matrix = report.per_bucket.get(bucket)
        line: list = [bucket]
        line.append(
            metrics_from_confusion(matrix).weighted_f if matrix and matrix.total else ""
        )
        for scenario in strategic:
            pairs = cross.get((bucket, scenario))
            if pairs:
                m = ConfusionMatrix.from_pairs(3, pairs)
                line.append(metrics_from_confusion(m).weighted_f)
            else:
                line.append("")
        out.append(line)
    return ["bucket", "total", *strategic], out


def _error_table(report: EvaluationReport) -> tuple[list[str], list[list]]:
    classes = ("correct", "unjustified", "inconsistent", "unexplained")
    labels = [*SCENARIOS, UNCLASSIFIED, "total"]
    rows = []
    for label in labels:
        counts = report.error_breakdown.get(label, {})
        if label not in ("total",) and not any(counts.values()):
            continue
        rows.append([label, *(counts.get(c, 0) for c in classes)])
    return ["scenario", *classes], rows


def _params_table(report: EvaluationReport) -> tuple[list[str], list[list]]:
    dist = parameter_distribution(report)
    keys = sorted({k for row in dist for k in row if k not in ("voter_id", "family", "bucket")})
    header = ["voter_id", "family", "bucket", *keys]
    rows = [
        [row["voter_id"], row["family"], row["bucket"], *(row.get(k, "") for k in keys)]
        for row in dist
    ]
    return header, rows


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    seed = _resolve_seed(args.seed, required=False, command="evaluate")
    families = _parse_families(args.families)
    dataset = load_dataset(args.data)
    if not dataset.records:
        raise DataError(f"dataset {args.data} holds no records")
    cv_etas = _parse_etas(args.cv_etas) if args.cv_etas else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runner = loo_evaluate if args.mode == "loo" else upper_bound_evaluate
    reports: dict[str, EvaluationReport] = {}
    for family in families:
        try:
            grid = ParameterGrid.default(
                family, m=dataset.m, cv_etas=cv_etas if family is Family.CV else None
            )
            reports[family.value] = runner(family, grid, dataset, jobs=args.jobs, seed=seed)
        except ValueError as exc:
            raise DataError(f"cannot apply {family.value} to this dataset: {exc}")

    mode = args.mode
    for name, report in reports.items():
        _write_json(out_dir / f"{mode}_{name}_report.json", report.to_dict())
        _write_csv(
            out_dir / f"{mode}_{name}_per_voter_f.csv",
            ["voter_id", "records", "f"],
            [
                [vid, report.per_voter_records[vid], report.per_voter_f[vid]]
                for vid in sorted(report.per_voter_f)
            ],
        )
        header, rows = _poll_size_table(report)
        _write_csv(out_dir / f"{mode}_{name}_poll_size_f.csv", header, rows)
        header, rows = _error_table(report)
        _write_csv(out_dir / f"{mode}_{name}_error_breakdown.csv", header, rows)
        header, rows = _params_table(report)
        _write_csv(out_dir / f"{mode}_{name}_params.csv", header, rows)

    header, rows = _scenario_table(reports, mode, len(dataset.records))
    _write_csv(out_dir / f"{mode}_scenario_f.csv", header, rows)
    for name, report in reports.items():
        print(f"{name}: F_A={report.metrics.weighted_f:.4f} ({args.mode})")
    print(f"wrote reports to {out_dir}")
    return EXIT_OK


# --- predict --------------------------------------------------------------


def _explicit_descriptor(args: argparse.Namespace) -> ModelDescriptor:
    try:
        family = Family(args.model.strip().upper())
    except ValueError:
        known = ",".join(f.value for f in Family)
        raise UsageError(f"unknown family {args.model!r} (known: {known})")
    kwargs = {}
    for key in ("k", "r", "eta", "voter_type", "alpha", "beta"):
        value = getattr(args, key)
        if value is not None:
            kwargs[key] = value
    if kwargs.get("eta") is not None and kwargs["eta"] != "n":
        try:
            kwargs["eta"] = int(kwargs["eta"])
        except ValueError:
            raise UsageError(f"--eta must be an integer or 'n', got {kwargs['eta']!r}")
    try:
        return ModelDescriptor(family=family, **kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad parameters for {family.value}: {exc}")


def _descriptor_from_params(spec: dict, voter_id: str) -> ModelDescriptor:
    try:
        family = Family(spec["family"])
    except (KeyError, ValueError):
        raise DataError("parameter file lacks a known 'family' entry")
    if family is Family.NN:
        raise DataError(
            "NN reports carry no per-voter parameters; use --model NN --network"
        )
    fitted = spec.get("fitted_params", {})
    if voter_id not in fitted:
        raise DataError(f"no fitted parameters for voter {voter_id!r}")
    try:
        return ModelDescriptor(family=family, **fitted[voter_id])
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad fitted parameters for voter {voter_id!r}: {exc}")


def cmd_predict(args: argparse.Namespace) -> int:
    if bool(args.model) == bool(args.params):
        raise UsageError("predict needs exactly one of --model or --params")
    dataset = load_dataset(args.data)
    if not dataset.records:
        raise DataError(f"dataset {args.data} holds no records")

    network = None
    profiles: dict[str, object] = {}
    params_spec = None
    descriptor = None
    if args.model:
        descriptor = _explicit_descriptor(args)
        if descriptor.family is Family.NN:
            if not args.network:
                raise UsageError("--model NN needs --network with trained weights")
            try:
                network = nn_mod.Network.from_dict(_load_json(args.network, "network file"))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"invalid network file: {exc}")
            profiles = {
                vid: build_profile(vid, recs) for vid, recs in dataset.by_voter().items()
            }
    else:
        params_spec = _load_json(args.params, "parameter file")

    pivot_cache: dict = {}
    rows: list[list] = []
    for rec in sorted(dataset.records, key=lambda r: (r.voter_id, r.round)):
        desc = descriptor if descriptor is not None else _descriptor_from_params(params_spec, rec.voter_id)
        ctx = DecisionContext(
            network=network,
            profile=profiles.get(rec.voter_id),
            pivot_cache=pivot_cache,
        )
        try:
            predicted = models.decide(desc, rec.utilities, rec.poll, ctx)
        except ValueError as exc:
            raise DataError(f"cannot apply {desc.family.value} to this dataset: {exc}")
        rows.append([rec.voter_id, rec.round, format_action(predicted)])

    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["voter_id", "round", "predicted"], rows)
    print(f"wrote {out}")
    return EXIT_OK


# --- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stratvote", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--config", required=True, help="generator config JSON")
    sim.add_argument("--seed", type=int, default=None, help="master seed (required)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("evaluate", help="fit families and emit report tables")
    ev.add_argument("--data", required=True, help="dataset CSV (or its directory)")
    ev.add_argument("--families", required=True, help="comma-separated family names")
    ev.add_argument("--mode", choices=("loo", "upper"), default="loo")
    ev.add_argument("--out", default=".", help="report output directory")
    ev.add_argument("--jobs", type=int, default=1, help="parallel voter workers")
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--cv-etas", default=None, help="CV grid sample sizes, e.g. 1,2,4,n")
    ev.set_defaults(func=cmd_evaluate)

    pred = sub.add_parser("predict", help="predict actions for every record")
    pred.add_argument("--data", required=True, help="dataset CSV (or its directory)")
    pred.add_argument("--out", default="predictions.csv", help="output CSV path")
    pred.add_argument("--model", default=None, help="family for an explicit descriptor")
    pred.add_argument("--params", default=None, help="evaluation report JSON with fitted_params")
    pred.add_argument("--k", type=int, default=None)
    pred.add_argument("--r", type=float, default=None)
    pred.add_argument("--eta", default=None)
    pred.add_argument("--voter-type", dest="voter_type", default=None)
    pred.add_argument("--alpha", type=float, default=None)
    pred.add_argument("--beta", type=float, default=None)
    pred.add_argument("--network", default=None, help="trained network JSON (NN only)")
    pred.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # argparse --help
        code = exc.code if exc.code is not None else 0
        return int(code)
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
