"""Command line front end: simulate datasets, evaluate families, predict.

``predict`` decides every record with one parameter point (--model) or with
each voter's fitted point from an evaluation report (--params); on an
``upper`` report that reproduces the report's predictions.  NN is trained
and scored only by ``evaluate``.

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
from contextlib import closing
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import models
from .behavior import SCENARIO_ORDER_TEXT, SCENARIOS
from .data import (
    DataError,
    GeneratorConfig,
    RecordTable,
    format_action,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .evaluation import (
    ERROR_CLASSES,
    POLL_BUCKETS,
    SCENARIO_LABELS,
    EvaluationReport,
    evaluate_families,
    weighted_f,
)
from .models import DecisionContext, Family, ModelDescriptor, ParameterGrid

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
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{what} is not valid JSON ({path}): {exc}")


def _row_text(table: RecordTable) -> tuple[list[str], list[str]]:
    """Each row's ``predictions`` text before and after the two fields its family predicts.

    A row's eight fields stand in key order, as ``json.dumps(sort_keys=True,
    indent=2)`` lays them out: ``actual``, ``actual_rank`` and ``bucket``,
    then ``predicted`` and ``predicted_rank``, then ``round``, ``scenario``
    and ``voter_id``.  All but the middle two come from the table alone, so
    every family of a run shares this text.  Strings are escaped as
    ``json.dumps`` escapes them.
    """
    buckets = [encode_basestring_ascii(label) for label in POLL_BUCKETS]
    scenarios = [encode_basestring_ascii(label) for label in SCENARIO_LABELS]
    voters = [encode_basestring_ascii(vid) for vid in table.voter_ids]
    head = [
        '    {\n      "actual": %d,\n      "actual_rank": %d,\n      "bucket": %s,\n      '
        % (action, rank, buckets[bucket])
        for action, rank, bucket in zip(
            table.action.tolist(), table.rank_of(table.action).tolist(), table.bucket.tolist()
        )
    ]
    tail = [
        ',\n      "round": %d,\n      "scenario": %s,\n      "voter_id": %s\n    }'
        % (round_, scenarios[scenario], voters[voter])
        for round_, scenario, voter in zip(
            table.round.tolist(), table.scenario.tolist(), table.voter.tolist()
        )
    ]
    return head, tail


def _report_text(
    report: EvaluationReport, summary: dict, shared: tuple[list[str], list[str]]
) -> str:
    """The report file's text: ``json.dumps(sort_keys=True, indent=2)`` of its summary and rows.

    ``summary`` is ``report.to_dict()`` and ``shared`` :func:`_row_text` of
    the report's table; each row's middle is one of the m * m texts of a
    (predicted, predicted_rank) pair.
    """
    table, (head, tail) = report.table, shared
    m = table.m
    middle = ['"predicted": %d,\n      "predicted_rank": %d' % divmod(k, m) for k in range(m * m)]
    picks = (report.predicted * m + table.rank_of(report.predicted)).tolist()
    text = json.dumps({**summary, "predictions": []}, sort_keys=True, indent=2)
    # Only a top-level key starts a line with exactly two spaces.
    before, after = text.split('\n  "predictions": []')
    # One join of the shared pieces: part 4j + 1 starts row j, part 4j + 4 ends it.
    parts = [",\n"] * (4 * len(picks) + 1)
    parts[0], parts[-1] = before + '\n  "predictions": [\n', "\n  ]" + after + "\n"
    parts[1::4], parts[2::4], parts[3::4] = head, [middle[k] for k in picks], tail
    return "".join(parts)


def _write_csv(path: Path, header: list[str], rows: list) -> None:
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
        raise DataError(f"invalid generator config {args.config}: {exc}")
    config = dataclasses.replace(config, master_seed=seed)
    dataset = generate_synthetic(config)
    csv_path, manifest_path = save_dataset(dataset, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {manifest_path}")
    return EXIT_OK


# --- evaluate ------------------------------------------------------------


def _scenario_table(
    reports: dict[str, EvaluationReport], mode: str, total_records: int
) -> tuple[list[str], list[list]]:
    """One row per scenario, one f-measure column per family."""
    fams = list(reports)
    per_scenario = np.stack([reports[f].cube.sum(axis=1) for f in fams])
    # Per family, each scenario's F and then the overall F.
    scores = weighted_f(np.concatenate([per_scenario, per_scenario.sum(1, keepdims=True)], 1))
    sizes = per_scenario[0].sum(axis=(1, 2)).tolist()
    rows: list[list] = []
    # UNCLASSIFIED, the last label, gets a row only when it holds records.
    for s, label in enumerate(SCENARIO_LABELS if sizes[-1] else SCENARIOS):
        row: list = [label]
        if mode == "loo":
            row.append(SCENARIO_ORDER_TEXT.get(label, ""))
            row.append(100.0 * sizes[s] / total_records if total_records else "")
        row.extend(family_scores[s] for family_scores in scores)
        rows.append(row)
    total_row: list = ["total"]
    if mode == "loo":
        total_row.extend(["", ""])
    total_row.extend(family_scores[-1] for family_scores in scores)
    rows.append(total_row)
    header = ["scenario"]
    if mode == "loo":
        header.extend(["order", "frequency_pct"])
    header.extend(fams)
    return header, rows


def _poll_size_table(report: EvaluationReport) -> tuple[list[str], list[list]]:
    """Per poll-size bucket: overall F plus the four strategic scenarios."""
    strategic = ("C", "D", "E", "F")
    cube = report.cube
    by_scenario = cube[[SCENARIO_LABELS.index(s) for s in strategic]].swapaxes(0, 1)
    scores = weighted_f(np.concatenate([cube.sum(axis=0)[:, None], by_scenario], axis=1))
    return ["bucket", "total", *strategic], [[b, *row] for b, row in zip(POLL_BUCKETS, scores)]


def _error_table(summary: dict) -> tuple[list[str], list[list]]:
    """A report summary's error classes per scenario that holds records, then the total."""
    rows = [
        [label, *(counts[c] for c in ERROR_CLASSES)]
        for label, counts in summary["error_breakdown"].items()
        if label == "total" or any(counts.values())
    ]
    return ["scenario", *ERROR_CLASSES], rows


def _params_table(summary: dict) -> tuple[list[str], list[list]]:
    """Each voter's fitted point and poll-size tag; only the header for a family without any."""
    fitted, buckets = summary["fitted_params"], summary["voter_bucket"]
    keys = sorted({k for point in fitted.values() for k in point})
    rows = [
        [vid, summary["family"], buckets[vid], *(point.get(k, "") for k in keys)]
        for vid, point in fitted.items()
    ]
    return ["voter_id", "family", "bucket", *keys], rows if keys else []


def _write_family_reports(
    out_dir: Path, mode: str, report: EvaluationReport, shared: tuple[list[str], list[str]]
) -> None:
    """One family's report JSON, ``shared`` being :func:`_row_text`, and its four CSV tables.

    The JSON and the per-voter, error and parameter tables are written
    from one summary, ``report.to_dict()``.
    """
    name, summary = report.family, report.to_dict()
    text = _report_text(report, summary, shared)
    (out_dir / f"{mode}_{name}_report.json").write_text(text, encoding="utf-8")
    records = summary["per_voter_records"]
    _write_csv(
        out_dir / f"{mode}_{name}_per_voter_f.csv",
        ["voter_id", "records", "f"],
        [[vid, records[vid], f] for vid, f in summary["per_voter_f"].items()],
    )
    header, rows = _poll_size_table(report)
    _write_csv(out_dir / f"{mode}_{name}_poll_size_f.csv", header, rows)
    header, rows = _error_table(summary)
    _write_csv(out_dir / f"{mode}_{name}_error_breakdown.csv", header, rows)
    header, rows = _params_table(summary)
    _write_csv(out_dir / f"{mode}_{name}_params.csv", header, rows)


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    seed = _resolve_seed(args.seed, required=False, command="evaluate")
    families = _parse_families(args.families)
    dataset = load_dataset(args.data)
    cv_etas = _parse_etas(args.cv_etas) if args.cv_etas is not None else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    grids = []
    for family in families:
        etas = cv_etas if family is Family.CV else None
        try:
            grids.append(ParameterGrid.default(family, m=dataset.m, cv_etas=etas))
        except ValueError as exc:
            raise DataError(f"cannot apply {family.value} to this dataset: {exc}")

    mode = args.mode
    shared = None  # every family's report rows share it
    reports: dict[str, EvaluationReport] = {}
    # Closing the stream ends its worker pool, also when a write fails.
    with closing(evaluate_families(grids, dataset, mode, jobs=args.jobs, seed=seed)) as stream:
        for grid in grids:
            name = grid.family.value
            try:
                report = next(stream)
            except ValueError as exc:
                raise DataError(f"cannot apply {name} to this dataset: {exc}")
            # Written while the workers run the later families.
            if shared is None:
                shared = _row_text(dataset.records)
            _write_family_reports(out_dir, mode, report, shared)
            reports[name] = report

    header, rows = _scenario_table(reports, mode, len(dataset.records))
    _write_csv(out_dir / f"{mode}_scenario_f.csv", header, rows)
    for name, report in reports.items():
        print(f"{name}: F_A={report.metrics.weighted_f:.4f} ({mode})")
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


def _load_params(path: str) -> tuple[Family, dict]:
    """The family and per-voter fitted parameters of an evaluation report."""
    spec = _load_json(path, "parameter file")
    if not isinstance(spec, dict):
        raise DataError(f"parameter file {path} is not an evaluation report (a JSON object)")
    try:
        family = Family(spec["family"])
    except (KeyError, TypeError, ValueError):
        raise DataError(f"parameter file {path} lacks a known 'family' entry")
    fitted = spec.get("fitted_params", {})
    if not isinstance(fitted, dict):
        raise DataError(f"parameter file {path}: 'fitted_params' must map voter ids to parameters")
    return family, fitted


def _descriptor_from_params(family: Family, fitted: dict, voter_id: str) -> ModelDescriptor:
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

    if args.model:
        descriptor = _explicit_descriptor(args)
        family = descriptor.family
    else:
        family, fitted = _load_params(args.params)
    if family is Family.NN:
        raise UsageError("predict cannot apply NN: evaluate trains and scores its networks")

    table = dataset.records
    # Each distinct parameter point decides all of its voters' rows in one call.
    point_rows: dict[ModelDescriptor, list[np.ndarray]] = {}
    for rows in table.voter_rows():
        vid = table.voter_ids[table.voter[rows.start]]
        desc = descriptor if args.model else _descriptor_from_params(family, fitted, vid)
        point_rows.setdefault(desc, []).append(np.arange(rows.start, rows.stop))
    ctx = DecisionContext(pivot_cache={})
    predicted = np.empty(len(table.voter), dtype=np.int64)
    for desc, parts in point_rows.items():
        rows, grid = np.concatenate(parts), ParameterGrid(family, (desc.params(),))
        try:
            predicted[rows] = models.decide_matrix(
                grid, table.U[rows], table.S[rows], table.n[rows], ctx
            )[0]
        except ValueError as exc:
            raise DataError(f"cannot apply {family.value} to this dataset: {exc}")
    vids = [table.voter_ids[v] for v in table.voter.tolist()]
    lines = list(zip(vids, table.round.tolist(), map(format_action, predicted.tolist())))

    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ["voter_id", "round", "predicted"], lines)
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
