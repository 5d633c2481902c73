"""Benchmark of templatefit: one closed-loop run of one workload.

From the root of a checkout::

    python3 perfbench/run.py --workload ensemble-fast --seed 1 --seconds 30 --trace 0

One caller fits back to back in this process (``run_study`` with
``jobs=1``, then the same fits as direct calls), over a fixed set of
inputs made from the seed, and repeats the set until the time is up.
Durations are read on a host clock that cancels the host's changes of
speed (``measure.HostClock``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced replay
of the same fits and writes its spans under ``.perfbench/``.
Readable lines come first, each metric with its unit and sample count;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit code 0 means every check passed, 1 that a correctness or determinism
check failed (the result line still says which run it was), 2 that the
arguments were wrong or the package sources are missing (no result line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ensemble-fast", "ensemble-exact", "wide-weighted")
SETUP_REPS = 3  # set-ups per run; setup_s is the median import plus their median
IMPORT_REPS = 3  # fresh interpreters that time ``import templatefit``
# methods of the mixed workloads, reported one by one as well as pooled
SUFFIX_METHODS = ("approx", "conway")
TRACE_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package() -> bool:
    """Import templatefit from this checkout's ``src``; False if it is not there."""
    src = ROOT / "src"
    if not (src / "templatefit" / "__init__.py").is_file():
        print(f"perfbench: no templatefit sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import templatefit

    if Path(templatefit.__file__).resolve().parent != src / "templatefit":
        print(f"perfbench: templatefit imported from {templatefit.__file__}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT))
    return True


def import_seconds(clock) -> float:
    """Median time of ``import templatefit`` (NumPy included) in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import templatefit; print(time.perf_counter() - t)"
    )

    def one() -> float:
        out = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        ).stdout
        return float(out)

    times = []
    for _ in range(IMPORT_REPS):
        clock.probe()
        t0 = perf_counter()
        took = one()
        t1 = perf_counter()
        clock.probe()
        times.append(took * clock.scale(t0, t1))
    return statistics.median(times)


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(name: str, seed: int, seconds: float, trace: bool):
    """One run; returns (metrics, readable lines, problems, attempted, failed).

    ``metrics`` is a list of (name, value, unit, sample count).
    """
    from perfbench import gate, measure, workloads
    from perfbench.tracing import Tracer

    clock = measure.HostClock()
    workload = workloads.make_workload(name, seed)
    import_s = import_seconds(clock)
    setup_s = import_s + statistics.median(
        clock.timed(workload.setup)[1] for _ in range(SETUP_REPS)
    )
    inputs = [workload.tasks(b) for b in range(workload.batches)]

    log = measure.Log()
    tracer = Tracer(clock) if trace else None
    verify: list = []
    problems: list[str] = []
    first: list = []  # records of every batch in the first pass
    passes = 0
    counting = tracer.counting_warnings() if tracer is not None else contextlib.nullcontext()
    with counting:
        start = perf_counter()
        done = False
        while not done:
            for b, tasks in enumerate(inputs):
                studied = measure.study(workload, b, log, clock) if workload.has_study else None
                replayed = measure.replay(
                    workload, tasks, log, clock, count=passes == 0,
                    keep=verify if passes == 0 and b < workload.gate_batches else None,
                )
                if studied is not None and not gate.same_records(replayed, studied):
                    problems.append(f"pass {passes} batch {b}: direct-call records differ from run_study")
                if passes == 0:
                    first.append(replayed)
                elif not gate.same_records(replayed, first[b]):
                    problems.append(f"pass {passes} batch {b}: records differ from the first pass")
                if tracer is not None and not gate.same_records(tracer.replay(workload, tasks), replayed):
                    problems.append(f"pass {passes} batch {b}: traced records differ from the direct calls")
                if passes > 0 and perf_counter() - start >= seconds:
                    done = True
                    break
            passes += 1
            if perf_counter() - start >= seconds:
                done = True
        elapsed = perf_counter() - start
    clock.probe()
    if tracer is not None:
        tracer.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # batch 0 once more, after the timed loop, from freshly made inputs
    if not gate.same_records(
        measure.replay(workload, workload.tasks(0), measure.Log(), clock, count=False), first[0]
    ):
        problems.append("a second pass over freshly made batch 0 did not reproduce its records")
    reproduced = not problems

    checks = [gate.check_fit(model, m, workload.weighted, out) for model, m, out in verify]
    for c in checks:
        problems.extend(c.problems)
    excesses = [c.excess for c in checks if c.excess is not None]
    if tracer is not None and tracer.covariance_mismatches:
        problems.append(
            f"{tracer.covariance_mismatches} traced hesse calls did not reproduce the fit covariance"
        )

    kinds: Counter = Counter()
    for counts in log.failures.values():
        kinds.update(counts)
    attempted = kinds.pop("attempted")
    failed = sum(kinds.values())

    fits = log.all_fits()
    fit_s = log.seconds(clock, fits)
    wall_fit_s = [e - s for s, e in fits]
    factors = [clock.scale(s, e) for s, e in fits]
    distinct = sum(len(t) for t in inputs) * len(workload.methods)
    lines = [
        f"templatefit benchmark: workload {name}, seed {seed}, seconds {seconds:g}, trace {int(trace)}",
        f"environment: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, machine {platform.machine()}",
        f"closed loop: 1 caller, {elapsed:.1f} s, {passes} passes over {len(inputs)} batches "
        f"({distinct} distinct fits), {len(log.study)} run_study calls (jobs=1), "
        f"{log.n_fits} direct fit calls; peak RSS {peak_rss_mb:.1f} MB",
        f"host clock: {len(clock.kernel_s)} probes, "
        f"{_ratio(clock.probe_seconds(), clock.ends[-1] - clock.starts[0]):.1%} of the run; reference kernel p50 {1e3 * _median(clock.kernel_s):.3f} ms (fixed speed "
        f"{1e3 * measure.KERNEL_S:g} ms); wall fit_ms_p50 {1e3 * _median(wall_fit_s):.4g}, "
        "scale factor p10/p50/p90 " + "/".join(f"{q:.3f}" for q in np.percentile(factors, [10, 50, 90])),
        f"failures: {failed} of {attempted} distinct fits (not converged {kinds['not_converged']}, "
        f"raised {kinds['raised']}, non-finite {kinds['nonfinite']}), "
        f"fail_frac {_ratio(failed, attempted):.4g}",
        f"determinism: records digest sha256:{gate.digest([r for rs in first for r in rs])} "
        f"of the first pass; "
        f"all passes over the same inputs agree bit for bit: {reproduced}",
        f"gate: {len(excesses)} converged fits of the first {workload.gate_batches} batches "
        "checked against scipy L-BFGS-B, "
        f"worst qmin excess {max(excesses, default=float('nan')):.3g} "
        f"(tolerance {gate.QMIN_ABS_TOL:g} + {gate.QMIN_REL_TOL:g}*|q|), "
        f"yields compared on {sum(c.yields_compared for c in checks)}",
    ]

    study_s = log.seconds(clock, log.study)
    task_s = log.seconds(clock, log.task)
    if not trace:
        if workload.has_study:
            toys, toys_s = log.study_tasks, sum(study_s)
        else:
            toys, toys_s = len(task_s), sum(task_s)
        metrics = [
            ("setup_s", setup_s, "s", SETUP_REPS),
            ("toys_per_s", _ratio(toys, toys_s), "1/s", toys),
            ("fits_per_s", _ratio(len(fit_s), sum(fit_s)), "1/s", len(fit_s)),
            ("fit_ms_p50", 1e3 * _median(fit_s), "ms", len(fit_s)),
            ("fit_ms_p90", 1e3 * float(np.percentile(fit_s, 90)), "ms", len(fit_s)),
            ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ]
        return metrics, lines, problems, attempted, failed

    metrics = _layer_metrics(tracer, workload.methods)
    for m in SUFFIX_METHODS:
        metrics += [(f"{n}.{m}", v, u, k) for n, v, u, k in _layer_metrics(tracer, (m,))]
    draw_s = log.seconds(clock, log.draw)
    direct_s = sum(draw_s) + sum(log.seconds(clock, log.to_model)) + sum(fit_s)
    draws = [s.seconds for s in tracer.by_name("draw")]
    models = [s.seconds for s in tracer.by_name("to_model")]
    gofs = [s.seconds for s in tracer.by_name("gof")]
    traced_fit_s = [s.seconds for s in tracer.by_name("fit")]
    metrics += [
        ("toys.draw_us_p50", 1e6 * _median(draws), "us", len(draws)),
        ("toys.draw_share", _ratio(sum(draw_s), sum(study_s)), "fraction", log.study_tasks),
        ("histogram.to_model_us_p50", 1e6 * _median(models), "us", len(models)),
        ("special.gof_us_p50", 1e6 * _median(gofs), "us", len(gofs)),
        (
            "study.overhead_share",
            _ratio(sum(study_s) - direct_s, sum(study_s)),
            "fraction",
            len(log.study),
        ),
        ("trace.overhead_frac", 1.0 - _ratio(sum(fit_s), sum(traced_fit_s)), "fraction", len(traced_fit_s)),
        ("minimize.fail_frac", _ratio(failed, attempted), "fraction", attempted),
        ("minimize.fail_not_converged", kinds["not_converged"], "count", attempted),
        ("minimize.fail_raised", kinds["raised"], "count", attempted),
        ("minimize.fail_nonfinite", kinds["nonfinite"], "count", attempted),
    ]
    path = TRACE_DIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(path)
    lines.append(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    lines += _self_time_table(tracer)
    return metrics, lines, problems, attempted, failed


def _layer_metrics(tracer, methods) -> list:
    """Per-fit layer metrics over the fits of the given methods; 0 where there are none."""

    def spans(name):
        return [s for m in methods for s in tracer.by_name(name, m)]

    build, mins, fits, hes = spans("CostFunction"), spans("minimize"), spans("fit"), spans("hesse")
    evals = [t for m in methods for t in tracer.eval_seconds(m)]
    n_fits = sum(tracer.fits[m] for m in methods)
    return [
        ("likelihood.cost_build_us_p50", 1e6 * _median([s.seconds for s in build]), "us", len(build)),
        ("likelihood.eval_us_p50", 1e6 * _median(evals), "us", len(evals)),
        ("likelihood.evals_per_fit", _median([s.evals for s in mins]), "count", len(mins)),
        (
            "likelihood.eval_share",
            _ratio(sum(s.eval_s for s in mins), sum(s.seconds for s in fits)),
            "fraction",
            len(fits),
        ),
        ("likelihood.fp_warnings", sum(tracer.fp_warnings[m] for m in methods), "count", n_fits),
        ("minimize.self_ms_p50", 1e3 * _median([s.seconds - s.eval_s for s in mins]), "ms", len(mins)),
        (
            "minimize.converged_frac",
            _ratio(sum(tracer.converged[m] for m in methods), n_fits),
            "fraction",
            n_fits,
        ),
        ("minimize.hesse_ms_p50", 1e3 * _median([s.seconds for s in hes]), "ms", len(hes)),
        ("minimize.hesse_evals", _median([s.evals for s in hes]), "count", len(hes)),
    ]


def _self_time_table(tracer) -> list[str]:
    """Self time per span name: count, total and median."""
    by_name: dict[str, list[float]] = {}
    for s, own in zip(tracer.spans, tracer.self_seconds()):
        by_name.setdefault(s.name, []).append(own)
    lines = ["span self time:      count   total_ms     p50_us"]
    for name, own in by_name.items():
        lines.append(f"  {name:<16} {len(own):>8} {1e3 * sum(own):>10.1f} {1e6 * _median(own):>10.1f}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_package():
        return 2
    metrics, lines, problems, attempted, failed = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in lines:
        print(line)
    for n, v, u, k in metrics:
        print(f"  {n:<36} {v:>14.6g} {u:<9} n={k}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, v, u, _ in metrics},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
