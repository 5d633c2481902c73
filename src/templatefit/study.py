"""Ensemble fits over toy experiments: pull records, summary statistics, timing.

Every toy index owns one generation stream, so all requested methods fit
the identical toy and the records do not depend on the worker count or
on which other methods were requested.  Fit failures of any kind are
recorded with ``converged=False`` and never abort the ensemble; summary
statistics are computed over converged fits only, with the excluded
count reported, so unstable configurations show up instead of being
masked.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from multiprocessing import Pool

import numpy as np

from .histogram import TemplateModel
from .likelihood import Method
from .minimize import fit
from .toys import ToyConfig, draw, rng_stream, to_model

__all__ = [
    "PullRecord",
    "PullStats",
    "run_study",
    "summarize",
    "bench",
    "records_to_csv",
    "stats_to_csv",
    "RECORDS_HEADER",
    "SUMMARY_HEADER",
]

RECORDS_HEADER = "method,n_mc,toy_index,signal_estimate,signal_error,pull,qmin,converged"
SUMMARY_HEADER = "method,n_mc,n_converged,mean_z,sem_mean,std_z,sem_std"


@dataclass(frozen=True)
class PullRecord:
    """One fitted toy: signal estimate, its error, and the pull (est - truth)/error."""

    method: str
    n_mc: int
    toy_index: int
    signal_estimate: float
    signal_error: float
    pull: float
    qmin: float
    converged: bool


@dataclass(frozen=True)
class PullStats:
    """Pull mean and standard deviation of one (method, n_mc) group.

    Computed over converged fits only; ``sem_mean = std/sqrt(n)`` and
    ``sem_std = std/sqrt(2n)`` are the normal-theory standard errors.
    Groups with fewer than two converged fits carry NaN statistics.
    """

    method: str
    n_mc: int
    n_converged: int
    mean_z: float
    sem_mean: float
    std_z: float
    sem_std: float


def _normalize_methods(methods) -> tuple[str, ...]:
    if isinstance(methods, (str, Method)):
        methods = [methods]
    names = tuple(Method(m).value for m in methods)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate methods in {names}")
    if not names:
        raise ValueError("at least one method is required")
    return names


def _failed(method: str, n_mc: int, toy_index: int) -> PullRecord:
    nan = float("nan")
    return PullRecord(method, n_mc, toy_index, nan, nan, nan, nan, False)


def _fit_task(args) -> list[PullRecord]:
    config, n_mc, toy_index, methods = args
    cfg = replace(config, n_mc=n_mc)
    toy = draw(cfg, rng_stream(cfg.seed, toy_index))
    truth = toy.truth[0]
    try:
        model = to_model(cfg, toy)
    except ValueError:
        return [_failed(m, n_mc, toy_index) for m in methods]
    records = []
    for m in methods:
        try:
            result = fit(model, m)
        except (ValueError, ArithmeticError):
            # numeric failures (LinAlgError is a ValueError); anything else is a bug
            records.append(_failed(m, n_mc, toy_index))
            continue
        est = float(result.yields[0])
        if result.converged and result.yield_errors is not None:
            err = float(result.yield_errors[0])
            pull = (est - truth) / err if err > 0 else float("nan")
        else:
            err = float("nan")
            pull = float("nan")
        records.append(
            PullRecord(
                method=m,
                n_mc=n_mc,
                toy_index=toy_index,
                signal_estimate=est,
                signal_error=err,
                pull=pull,
                qmin=float(result.qmin),
                converged=bool(result.converged),
            )
        )
    return records


def run_study(
    config_base: ToyConfig,
    n_mc_grid,
    n_toys: int,
    methods=("exact", "conway", "approx"),
    *,
    jobs: int = 1,
) -> list[PullRecord]:
    """Fit every method to the same toys for each template size in the grid.

    Returns ``len(methods) * len(n_mc_grid) * n_toys`` records sorted by
    (method, n_mc, toy_index); the ordering and the values are
    independent of ``jobs``.
    """
    if n_toys < 1:
        raise ValueError(f"n_toys must be at least 1, got {n_toys}")
    methods = _normalize_methods(methods)
    grid = [int(v) for v in n_mc_grid]
    tasks = [
        (config_base, n_mc, idx, methods) for n_mc in grid for idx in range(n_toys)
    ]
    if jobs <= 1:
        chunks = map(_fit_task, tasks)
        records = [r for chunk in chunks for r in chunk]
    else:
        with Pool(processes=jobs) as pool:
            results = pool.imap_unordered(_fit_task, tasks, chunksize=8)
            records = [r for chunk in results for r in chunk]
    records.sort(key=lambda r: (r.method, r.n_mc, r.toy_index))
    return records


def summarize(records) -> list[PullStats]:
    """Pull statistics per (method, n_mc) group, sorted by group key."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, int], list[float]] = {}
    for r in records:
        key = (r.method, r.n_mc)
        pulls = groups.setdefault(key, [])
        if r.converged and math.isfinite(r.pull):
            pulls.append(r.pull)
    out = []
    nan = float("nan")
    for key in sorted(groups):
        z = groups[key]
        n = len(z)
        if n < 2:
            out.append(PullStats(key[0], key[1], n, nan, nan, nan, nan))
            continue
        arr = np.asarray(z)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1))
        out.append(
            PullStats(
                method=key[0],
                n_mc=key[1],
                n_converged=n,
                mean_z=mean,
                sem_mean=std / math.sqrt(n),
                std_z=std,
                sem_std=std / math.sqrt(2.0 * n),
            )
        )
    return out


def bench(
    model: TemplateModel,
    methods=("exact", "conway", "approx"),
    repetitions: int = 11,
    *,
    warmup: int = 2,
) -> dict[str, float]:
    """Median wall-clock seconds of one full fit (minimize plus covariance) per method.

    All methods are timed on the identical model; warm-up fits are
    discarded before timing.
    """
    if repetitions < 3:
        raise ValueError(f"need at least 3 repetitions, got {repetitions}")
    methods = _normalize_methods(methods)
    out = {}
    for m in methods:
        for _ in range(warmup):
            fit(model, m)
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            fit(model, m)
            times.append(time.perf_counter() - t0)
        out[m] = float(np.median(times))
    return out


def _fmt(x: float) -> str:
    # 9 significant digits, "nan" for missing values
    return f"{x:.9g}"


def records_to_csv(records) -> str:
    """Records CSV (text) with the canonical header and row order preserved."""
    lines = [RECORDS_HEADER]
    for r in records:
        lines.append(
            ",".join(
                (
                    r.method,
                    str(r.n_mc),
                    str(r.toy_index),
                    _fmt(r.signal_estimate),
                    _fmt(r.signal_error),
                    _fmt(r.pull),
                    _fmt(r.qmin),
                    "true" if r.converged else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


def stats_to_csv(stats) -> str:
    """Summary CSV (text), one row per (method, n_mc) group."""
    lines = [SUMMARY_HEADER]
    for s in stats:
        lines.append(
            ",".join(
                (
                    s.method,
                    str(s.n_mc),
                    str(s.n_converged),
                    _fmt(s.mean_z),
                    _fmt(s.sem_mean),
                    _fmt(s.std_z),
                    _fmt(s.sem_std),
                )
            )
        )
    return "\n".join(lines) + "\n"
