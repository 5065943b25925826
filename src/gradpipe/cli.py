"""Command-line driver.

Subcommands: ``run`` (train end to end), ``predict`` (analytic totals
from a calibration/params file), ``calibrate`` (measure stage times and
network parameters), ``compare`` (measured vs predicted iteration
times), ``chart`` (SVGs from existing CSVs).

``run`` and ``calibrate`` take ``--config FILE`` and one flag per run
key, that is per field of ``ExperimentConfig``: ``--<field-with-dashes>``,
except ``--k`` (depth), ``--iters``, ``--lr`` and ``--out`` (out_dir). A
flag overrides the file's value, and both are parsed by the same
``config_from_mapping``, so a bad flag value is a config error, as it is
for the numeric flags that ``predict`` and ``compare`` convert themselves.

Exit codes: 0 success, 2 configuration error (including an unreadable
input file), 3 transport failure, 4 prediction disagreement above
threshold in ``compare``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, GradPipeError, TransportError
from .harness import (
    ExperimentConfig,
    calibrate,
    calibration_text,
    compare_prediction,
    compare_table,
    config_from_mapping,
    load_config_file,
    parse_breakdown_csv,
    parse_calibration,
    parse_metrics_csv,
    prediction_table,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_THRESHOLD = 4

# Run keys whose flag is not --<field-with-dashes>.
_FLAG_NAMES = {
    "depth": "k", "iterations": "iters", "learning_rate": "lr", "out_dir": "out",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for f in fields(ExperimentConfig):
        flag = _FLAG_NAMES.get(f.name, f.name.replace("_", "-"))
        parser.add_argument(f"--{flag}", dest=f.name, help=f"config key {f.name}")


def _gather_config(args: argparse.Namespace) -> ExperimentConfig:
    values = load_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            values[f.name] = value
    return config_from_mapping(values)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _gather_config(args)
    result = run_experiment(config)
    where = f" -> {result.out_dir}" if result.out_dir else ""
    print(
        f"{config.mode} p={config.workers} T={config.iterations} "
        f"codec={config.codec.name.lower()}: wall {result.wall_seconds:.3f} s, "
        f"final loss {result.final_loss:.6f}, "
        f"accuracy {result.final_accuracy:.4f}{where}"
    )
    return EXIT_OK


def _flag(args: argparse.Namespace, name: str, kind: type):
    """The value of --name as `kind`; a bad value is a config error."""
    raw = getattr(args, name)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"flag --{name}: bad value {raw!r}") from None


def _cmd_predict(args: argparse.Namespace) -> int:
    iters, depth = _flag(args, "iters", int), _flag(args, "k", int)
    stages, cluster = parse_calibration(load_config_file(args.params))
    text, csv_text = prediction_table(iters, depth, stages, cluster)
    print(text, end="")
    if args.csv:
        Path(args.csv).write_text(csv_text)
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = _gather_config(args)
    stages, cluster = calibrate(config)
    text = calibration_text(stages, cluster)
    print(text, end="")
    if args.out_file:
        Path(args.out_file).write_text(text)
        print(f"wrote {args.out_file}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    threshold = _flag(args, "threshold", float)
    stages, cluster = parse_calibration(load_config_file(args.params))
    measured = []
    for path in args.measured:
        measured.extend(parse_breakdown_csv(Path(path).read_text()))
    rows = compare_prediction(measured, stages, cluster, threshold)
    print(compare_table(rows), end="")
    return EXIT_THRESHOLD if any(r.flagged for r in rows) else EXIT_OK


def _cmd_chart(args: argparse.Namespace) -> int:
    from .charts import accuracy_chart, breakdown_chart, loss_chart

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wrote = []
    if args.metrics:
        runs = [
            (Path(p).stem if Path(p).stem != "metrics" else Path(p).parent.name,
             parse_metrics_csv(Path(p).read_text()))
            for p in args.metrics
        ]
        if any(any(acc is not None for *_, acc in rows) for _, rows in runs):
            accuracy_chart(runs, out / "accuracy_vs_wallclock.svg")
            wrote.append("accuracy_vs_wallclock.svg")
        loss_chart(runs, out / "loss_vs_wallclock.svg")
        wrote.append("loss_vs_wallclock.svg")
    if args.breakdown:
        reports = []
        for path in args.breakdown:
            reports.extend(parse_breakdown_csv(Path(path).read_text()))
        breakdown_chart(reports, out / "breakdown.svg")
        wrote.append("breakdown.svg")
    if not wrote:
        raise ConfigError("chart needs --metrics and/or --breakdown inputs")
    print(f"wrote {', '.join(wrote)} in {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradpipe",
        description="distributed SGD runner with ring collectives and timing models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one training experiment")
    _add_run_flags(run_p)
    run_p.set_defaults(fn=_cmd_run)

    pred_p = sub.add_parser("predict", help="analytic runtime totals")
    pred_p.add_argument("--params", required=True, help="calibration/params file")
    pred_p.add_argument("--iters", default=1000)
    pred_p.add_argument("--k", default=2)
    pred_p.add_argument("--csv", help="also write totals as CSV")
    pred_p.set_defaults(fn=_cmd_predict)

    cal_p = sub.add_parser("calibrate", help="measure stage and network parameters")
    _add_run_flags(cal_p)
    cal_p.add_argument("--out-file", dest="out_file", help="write calibration here")
    cal_p.set_defaults(fn=_cmd_calibrate)

    cmp_p = sub.add_parser("compare", help="measured vs predicted iteration times")
    cmp_p.add_argument("--params", required=True, help="calibration/params file")
    cmp_p.add_argument(
        "--measured", nargs="+", required=True, help="breakdown.csv files"
    )
    cmp_p.add_argument("--threshold", default=0.25)
    cmp_p.set_defaults(fn=_cmd_compare)

    chart_p = sub.add_parser("chart", help="render SVGs from CSV outputs")
    chart_p.add_argument("--metrics", nargs="*", default=[])
    chart_p.add_argument("--breakdown", nargs="*", default=[])
    chart_p.add_argument("--out", dest="out_dir", required=True)
    chart_p.set_defaults(fn=_cmd_chart)
    return parser


def _fail(what: str, err: BaseException, code: int) -> int:
    """Print the error, then one line per rank that failed; return code."""
    print(f"{what}: {err}", file=sys.stderr)
    for rank, each in getattr(err, "rank_errors", ()):
        print(f"  rank {rank}: {type(each).__name__}: {each}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        return _fail("config error", err, EXIT_CONFIG)
    except TransportError as err:
        return _fail("transport failure", err, EXIT_TRANSPORT)
    except GradPipeError as err:
        return _fail("error", err, EXIT_CONFIG)
    except (OSError, UnicodeDecodeError) as err:
        return _fail("config error", err, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
