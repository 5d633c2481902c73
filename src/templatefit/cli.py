"""Command line interface: single fits, toy studies, and timing benchmarks.

Exit codes: 0 on success, 1 on any input error (with a one-line
diagnostic on stderr naming the violated constraint), 2 when a fit did
not converge.  Stochastic subcommands require an explicit ``--seed``;
there is no wall-clock default, so every run is reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .histogram import model_from_dict
from .likelihood import Method
from .minimize import fit, gof
from .study import _check_bench, _check_study, bench, records_to_csv, run_study
from .study import stats_to_csv, summarize
from .toys import ToyConfig, draw, rng_stream, to_model

__all__ = ["main", "run"]


class _CliError(Exception):
    """Input error; message goes to stderr, exit code is 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means "not converged" here,
    # so route flag problems through the input-error path instead
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="templatefit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one JSON input file")
    p_fit.add_argument("--input", required=True, help="input JSON path")
    p_fit.add_argument("--method", default="approx", choices=[m.value for m in Method])
    p_fit.add_argument("--output", default=None, help="result JSON path (default: stdout)")

    p_study = sub.add_parser("toy-study", help="pull study over repeated toy fits")
    p_study.add_argument("--seed", required=True, type=int)
    p_study.add_argument("--n-toys", type=int, default=1000)
    p_study.add_argument(
        "--n-mc",
        default="50,100,200,500,1000,10000",
        help="comma list of template sample sizes",
    )
    p_study.add_argument(
        "--methods",
        default="exact,conway,approx",
        help="comma list of methods to fit",
    )
    p_study.add_argument("--output", required=True, help="records CSV path")
    p_study.add_argument("--bins", type=int, default=None, help="override bin count")
    p_study.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_study.add_argument(
        "--input", default=None, help="optional toy config JSON overriding the defaults"
    )

    p_bench = sub.add_parser("bench", help="per-method fit timing on one toy")
    p_bench.add_argument("--seed", required=True, type=int)
    p_bench.add_argument("--methods", default="exact,conway,approx")
    p_bench.add_argument("--bins", type=int, default=15)
    p_bench.add_argument("--n-mc", type=int, default=100)
    p_bench.add_argument("--repetitions", type=int, default=11)
    return parser


def _library(call, *args, **kwargs):
    """``call(*args, **kwargs)``, whose ``ValueError`` is an input error."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _parse_methods(raw: str) -> list[str]:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _parse_n_mc(raw: str) -> list:
    """The JSON numbers of a comma list, such as 50 or 50.5; the library checks their values."""
    try:
        return [json.loads(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise _CliError(f"bad --n-mc list {raw!r}: its entries must be numbers") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed JSON in {path}: {exc}") from None


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from None


def _cmd_fit(args) -> int:
    model = _library(model_from_dict, _load_json(args.input))
    # weighted input (sumw2 differs from sumw) selects the weighted cost
    result = _library(fit, model, args.method, weighted=not model.is_unweighted())
    p_value = None
    if result.ndof > 0:
        p_value = gof(result)
    payload = {
        "yields": [float(v) for v in result.yields],
        "errors": None
        if result.yield_errors is None
        else [float(v) for v in result.yield_errors],
        "covariance": None
        if result.covariance is None
        else [[float(v) for v in row] for row in result.covariance],
        "qmin": float(result.qmin),
        "ndof": int(result.ndof),
        "p_value": p_value,
        "converged": bool(result.converged),
        "status": result.status,
        "n_evaluations": int(result.n_evaluations),
        "n_iterations": int(result.n_iterations),
        "restarted": bool(result.restarted),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        _write(Path(args.output), text)
    else:
        sys.stdout.write(text)
    return 0 if result.converged else 2


def _toy_config(obj: dict, **overrides) -> ToyConfig:
    """Toy config from its JSON object form, with flag values overriding it."""
    try:
        return replace(ToyConfig.from_dict(obj), **overrides)
    except (ValueError, TypeError) as exc:
        raise _CliError(f"bad toy config: {exc}") from None


def _cmd_toy_study(args) -> int:
    grid, methods = _library(
        _check_study, _parse_n_mc(args.n_mc), args.n_toys, _parse_methods(args.methods), args.jobs
    )
    overrides = {"seed": args.seed}
    if args.bins is not None:
        overrides["nbins"] = args.bins
    config = _toy_config(_load_json(args.input) if args.input else {}, **overrides)
    out = Path(args.output)
    if not out.parent.is_dir():  # before the study, not after it
        raise _CliError(f"cannot write {out}: no directory {out.parent}")
    records = run_study(config, grid, args.n_toys, methods, jobs=args.jobs)
    stats = summarize(records)

    summary_path = out.with_name(out.stem + ".summary.csv")
    _write(out, records_to_csv(records))
    _write(summary_path, stats_to_csv(stats))
    print(f"wrote {out} and {summary_path}", file=sys.stderr)

    print(f"{'method':<8} {'n_mc':>7} {'n_conv':>7} {'mean_z':>9} {'sem':>7} {'std_z':>9} {'sem':>7}")
    for s in stats:
        print(
            f"{s.method:<8} {s.n_mc:>7d} {s.n_converged:>7d} "
            f"{s.mean_z:>9.4f} {s.sem_mean:>7.4f} {s.std_z:>9.4f} {s.sem_std:>7.4f}"
        )
    return 0


def _cmd_bench(args) -> int:
    methods = _library(_check_bench, _parse_methods(args.methods), args.repetitions)
    config = _toy_config({}, nbins=args.bins, n_mc=args.n_mc, seed=args.seed)
    toy = draw(config, rng_stream(config.seed, 0))
    try:
        model = to_model(config, toy)
    except ValueError as exc:
        raise _CliError(f"toy draw produced an unusable model: {exc}") from None
    times = bench(model, methods, repetitions=args.repetitions)
    fastest = min(times.values())
    print(f"{'method':<8} {'median_s':>12} {'ratio':>8}")
    for m in sorted(times, key=times.get):
        print(f"{m:<8} {times[m]:>12.6f} {times[m] / fastest:>8.2f}")
    return 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "toy-study":
            return _cmd_toy_study(args)
        return _cmd_bench(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script wrapper."""
    sys.exit(main())
