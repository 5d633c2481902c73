"""Closed-loop measurement: one caller, fits back to back, no tracing.

For the ensembles, ``run_study(..., jobs=1)`` fits each batch first and
gives the study throughput; the direct-call replay then draws, builds and
fits the same tasks with ``fit`` and times every call.  Its records must
equal the study's bit for bit.  ``wide-weighted`` has no study and is
fitted by the replay alone.

Every duration is taken on a :class:`HostClock`, which rescales wall time
to a fixed host speed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from templatefit import fit

from .workloads import failure_kind, record, sort_records

# The reference kernel takes KERNEL_S on an uncontended core of the
# 2-vCPU Xeon virtual machine the benchmark was calibrated on, so reported
# times are close to that machine's wall times when nothing else runs.
KERNEL_S = 0.45e-3


def _kernel(small: np.ndarray, big: np.ndarray) -> float:
    """Fixed NumPy work in a Python loop on a 15-bin and a 10^4-bin array, as a fit does."""
    s = 0.0
    for i in range(40):
        x = small * (1.0 + 1e-3 * i)
        s += float(np.sum(np.where(x > 0.0, x - small * np.log(x), 0.0)))
    for i in range(4):
        x = big * (1.0 + 1e-3 * i)
        s += float(np.sum(x - big * np.log(x)))
    return s


class HostClock:
    """Wall time rescaled to a fixed host speed.

    On a shared virtual machine the host's load changes the speed of the
    same code by a factor of up to 2.5 within seconds, while the process
    stays on its core (CPU time tracks wall time).  The clock times a
    fixed reference kernel before every task and every ``run_study``
    call; a call that ran from ``start`` to ``end`` is scaled by
    ``KERNEL_S`` over the mean kernel time of the probes just before and
    just after it.  A change to the program moves its scaled times as
    it moves wall times; a change of host speed moves both the call and
    the kernel and cancels.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.uniform(0.5, 2.0, 15)
        self._big = rng.uniform(0.5, 2.0, 10_000)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self.probe()

    def probe(self) -> None:
        """Time one run of the kernel."""
        start = perf_counter()
        _kernel(self._small, self._big)
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append(end - start)

    def probe_seconds(self) -> float:
        """Wall time spent in probes so far."""
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds of a call over [start, end] to seconds at the fixed speed.

        Needs a probe that began after ``end``: probe once more before
        reading scaled times.
        """
        before = max(bisect_right(self.ends, start) - 1, 0)
        after = min(bisect_left(self.starts, end), len(self.starts) - 1)
        return 2.0 * KERNEL_S / (self.kernel_s[before] + self.kernel_s[after])

    def timed(self, fn):
        """Call ``fn`` between two probes; returns its result and its scaled seconds."""
        self.probe()
        t0 = perf_counter()
        out = fn()
        t1 = perf_counter()
        self.probe()
        return out, (t1 - t0) * self.scale(t0, t1)


@dataclass
class Log:
    """Intervals and outcomes of the untraced passes of one run.

    Intervals are raw ``perf_counter`` pairs; :meth:`seconds` rescales
    them on the run's clock once the loop has ended.
    """

    study: list[tuple[float, float, int]] = field(default_factory=list)  # start, end, tasks
    draw: list[tuple[float, float]] = field(default_factory=list)
    to_model: list[tuple[float, float]] = field(default_factory=list)
    task: list[tuple[float, float]] = field(default_factory=list)
    fit: dict[str, list[tuple[float, float]]] = field(default_factory=lambda: defaultdict(list))
    # outcomes of the first pass over the inputs, one count per distinct fit
    failures: dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))

    @property
    def n_fits(self) -> int:
        return sum(len(v) for v in self.fit.values())

    @property
    def study_tasks(self) -> int:
        return sum(n for _, _, n in self.study)

    @staticmethod
    def seconds(clock: HostClock, intervals) -> list[float]:
        return [(e - s) * clock.scale(s, e) for s, e, *_ in intervals]

    def all_fits(self) -> list[tuple[float, float]]:
        return [iv for v in self.fit.values() for iv in v]


def replay(workload, tasks: list, log: Log, clock: HostClock, count: bool, keep: list | None = None) -> list:
    """Fit every task of a batch with direct calls; returns its sorted records.

    Fits that raise are recorded as failed, as ``run_study`` records them.
    With ``count``, every fit's outcome is counted in ``log.failures``.
    With ``keep``, every (model, method, outcome) is appended to it for
    the correctness gate.
    """
    records = []
    for task in tasks:
        clock.probe()
        t0 = perf_counter()
        toy = task.draw()
        t1 = perf_counter()
        try:
            model = task.model(toy)
        except ValueError as exc:  # run_study fails every method of such a toy
            model = exc
        t2 = perf_counter()
        if workload.has_draw:
            log.draw.append((t0, t1))
        log.to_model.append((t1, t2))
        for method in workload.methods:
            if isinstance(model, Exception):
                outcome = model
            else:
                t = perf_counter()
                try:
                    outcome = fit(model, method, weighted=workload.weighted)
                except Exception as exc:  # counted, as run_study counts it, not fatal
                    outcome = exc
                log.fit[method].append((t, perf_counter()))
            if count:
                kind = failure_kind(outcome)
                log.failures[method]["attempted"] += 1
                if kind is not None:
                    log.failures[method][kind] += 1
            records.append(record(method, task, outcome))
            if keep is not None:
                keep.append((model, method, outcome))
        log.task.append((t0, perf_counter()))
    return sort_records(records)


def study(workload, batch: int, log: Log, clock: HostClock) -> list:
    """Time one ``run_study`` call over a batch; returns its records."""
    clock.probe()
    t = perf_counter()
    records = workload.study(batch)
    log.study.append((t, perf_counter(), len(records) // len(workload.methods)))
    return records
