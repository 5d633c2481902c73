"""Ensemble fits over toy experiments: pull records, summary statistics, timing.

Every toy index owns one generation stream, so all requested methods fit
the identical toy and the records do not depend on the worker count or
on which other methods were requested.  ``run_study`` draws the toys of a
chunk as one array of counts.  For ``approx`` and ``conway`` it builds one
``CostStack`` per method straight from those counts and steps the fits of
both stacks in one lockstep loop, whatever their active-bin counts
(``minimize._minimize_stacks``).  A fit that stops stays in its
stack, its outputs dropped, until at most half of the stack still runs,
and the stack is then narrowed to the running fits.  The records are
written from the results, without the per-toy models, cost functions and
per-bin diagnostics of a ``fit``.  ``exact`` fits build the
toy's model and cost function and run one by one through ``minimize``.
Every fit's result equals its single ``fit`` call bit for bit (stacked
data is padded to the widest fit and every sum over bins covers a fit's
own bins only), so the records do not depend on the chunks either.
Numeric fit failures (the ``ValueError`` or ``ArithmeticError`` of a fit)
are recorded with ``converged=False`` and never abort the ensemble;
programming errors propagate.  Summary statistics are computed over
converged fits only, with the excluded count reported, so unstable
configurations show up instead of being masked.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from multiprocessing import Pool

import numpy as np

from .histogram import TemplateModel
from .likelihood import CostFunction, CostStack, Method
from .minimize import _minimize_stacks, default_start, fit, minimize
from .toys import ToyConfig, ToyDraw, _integer, draw_counts, to_model

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

# (n_mc, toy index) pairs drawn and fitted together; bounds the memory of a chunk
_CHUNK_TASKS = 512

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
    try:
        names = tuple(Method(m).value for m in methods)
    except ValueError as exc:
        raise ValueError(f"{exc}; choose from {', '.join(m.value for m in Method)}") from None
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate methods in {names}")
    if not names:
        raise ValueError("at least one method is required")
    return names


def _check_study(n_mc_grid, n_toys, methods, jobs) -> tuple[list[int], tuple[str, ...]]:
    """The template sizes and methods of a :func:`run_study` call, checked as it says."""
    _integer("n_toys", n_toys, 1)
    _integer("jobs", jobs, 1)
    grid = [int(_integer("n_mc", n_mc, 0)) for n_mc in n_mc_grid]
    if not grid:
        raise ValueError("at least one template size is required")
    if len(set(grid)) != len(grid):
        raise ValueError(f"duplicate template sizes in {grid}")
    return grid, _normalize_methods(methods)


def _check_bench(methods, repetitions) -> tuple[str, ...]:
    """The methods of a :func:`bench` call, checked as it says."""
    _integer("repetitions", repetitions, 3)
    return _normalize_methods(methods)


def _failed(method: str, n_mc: int, toy_index: int) -> PullRecord:
    nan = float("nan")
    return PullRecord(method, n_mc, toy_index, nan, nan, nan, nan, False)


def _record(method: str, n_mc: int, toy_index: int, truth: float, result) -> PullRecord:
    """The record of a fit's ``FitResult``, or of the exception it raised."""
    if isinstance(result, Exception):
        return _failed(method, n_mc, toy_index)
    est = float(result.yields[0])
    converged = result.status == "converged"
    if converged and result.yield_errors is not None:
        err = float(result.yield_errors[0])
        pull = (est - truth) / err if err > 0 else float("nan")
    else:
        err = float("nan")
        pull = float("nan")
    return PullRecord(
        method=method,
        n_mc=n_mc,
        toy_index=toy_index,
        signal_estimate=est,
        signal_error=err,
        pull=pull,
        qmin=float(result.qmin),
        converged=converged,
    )


def _fit_exact(config: ToyConfig, counts: np.ndarray):
    """The ``exact`` fit of one toy's counts, or the numeric failure it raised."""
    cost = CostFunction(Method.EXACT, to_model(config, ToyDraw.from_counts(counts)))
    try:
        return minimize(cost)
    except (ValueError, ArithmeticError) as exc:
        return exc


def _fit_toys(args) -> list[PullRecord]:
    """Draw a chunk of toys as counts and fit them: one lockstep loop for every profiled method."""
    config, tasks, methods = args
    by_n_mc: dict[int, list[int]] = {}
    for n_mc, toy_index in tasks:
        by_n_mc.setdefault(n_mc, []).append(toy_index)
    keys = [(n_mc, i) for n_mc, indices in by_n_mc.items() for i in indices]
    counts = np.concatenate(
        [draw_counts(replace(config, n_mc=n_mc), ix) for n_mc, ix in by_n_mc.items()]
    )
    data = counts[:, 0] + counts[:, 1]
    templates = counts[:, 2:]
    # a toy with an empty template has no model: every method fails it
    empty = (np.add.reduce(templates, axis=-1) <= 0.0).any(axis=-1)
    records = [_failed(m, *keys[t]) for t in empty.nonzero()[0] for m in methods]
    toys = (~empty).nonzero()[0]
    if not len(toys):
        return records
    # ordered by active-bin count: rows of one count reduce in one run
    active = np.count_nonzero(np.add.reduce(templates, axis=-2) > 0.0, axis=-1)
    toys = toys[np.argsort(active[toys], kind="stable")]
    data, templates = data[toys], templates[toys]
    profiled = [m for m in methods if m != Method.EXACT.value]
    stacks = [CostStack.from_counts(m, data, templates) for m in profiled]
    fitted = dict(zip(profiled, _minimize_stacks(stacks, [default_start(s) for s in stacks])))
    for m in methods:
        if m in fitted:
            results = fitted[m]
        else:
            results = [_fit_exact(config, counts[t]) for t in toys]
        records += [_record(m, *keys[t], config.signal_yield, r) for t, r in zip(toys, results)]
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

    The toys are drawn and fitted in chunks of at most 512 (n_mc, toy
    index) pairs, one chunk per worker task when ``jobs > 1``.  A chunk's
    ``approx`` and ``conway`` fits each make one
    :class:`~templatefit.likelihood.CostStack`, built from the drawn
    counts, and one lockstep loop steps the rows of both; its
    ``exact`` fits run one by one through
    :func:`~templatefit.minimize.minimize`.  With
    ``jobs > 1`` the pool has at most one worker per chunk.  Returns
    ``len(methods) * len(n_mc_grid) * n_toys`` records sorted by (method,
    n_mc, toy_index); every fit's result equals its single ``fit`` call
    bit for bit, so the ordering and the values do not depend on the
    chunks or on ``jobs``.  Before it draws a toy it raises ``ValueError``
    for an empty grid, a template size that is not a nonnegative integer
    (``ToyConfig``'s rule for ``n_mc``), ``n_toys`` or ``jobs`` not an
    integer of at least 1, an unknown method, and a method or template size
    given twice: its toys would be fitted, and summarized, twice.
    """
    grid, methods = _check_study(n_mc_grid, n_toys, methods, jobs)
    tasks = [(n_mc, idx) for n_mc in grid for idx in range(n_toys)]
    size = _CHUNK_TASKS if jobs == 1 else min(_CHUNK_TASKS, -(-len(tasks) // (4 * jobs)))
    chunks = [(config_base, tasks[i : i + size], methods) for i in range(0, len(tasks), size)]
    if jobs == 1:
        records = [r for chunk in chunks for r in _fit_toys(chunk)]
    else:
        with Pool(processes=min(jobs, len(chunks))) as pool:
            records = [r for done in pool.imap_unordered(_fit_toys, chunks) for r in done]
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
    model: TemplateModel, methods=("exact", "conway", "approx"), repetitions: int = 11
) -> dict[str, float]:
    """Median wall-clock seconds of one full fit (minimize plus covariance) per method.

    All methods are timed on the identical model.  After two discarded
    warm-up rounds, each of the ``repetitions`` rounds times one fit per
    method, so a slow phase of the host hits every method alike.  Raises
    ``ValueError`` for the methods :func:`run_study` rejects and for
    ``repetitions`` not an integer of at least 3.
    """
    methods = _check_bench(methods, repetitions)
    for _ in range(2):
        for m in methods:
            fit(model, m)
    times = {m: [] for m in methods}
    for _ in range(repetitions):
        for m in methods:
            t0 = time.perf_counter()
            fit(model, m)
            times[m].append(time.perf_counter() - t0)
    return {m: float(np.median(t)) for m, t in times.items()}


def _fmt(x: float) -> str:
    # 9 significant digits, "nan" for missing values
    return f"{x:.9g}"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _csv(header: str, rows) -> str:
    """CSV text of ``rows``, one column per attribute named in ``header``."""
    names = header.split(",")
    lines = [header]
    lines += (",".join(_cell(getattr(row, name)) for name in names) for row in rows)
    return "\n".join(lines) + "\n"


def records_to_csv(records) -> str:
    """Records CSV (text) with the canonical header and row order preserved."""
    return _csv(RECORDS_HEADER, records)


def stats_to_csv(stats) -> str:
    """Summary CSV (text), one row per (method, n_mc) group."""
    return _csv(SUMMARY_HEADER, stats)
