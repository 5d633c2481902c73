"""Traced replay: spans around the public calls of every layer.

Spans are taken from the benchmark's side of each call: ``draw``,
``to_model``, ``CostFunction(...)``, ``minimize``, ``hesse`` and ``gof``.
Cost evaluations are timed by :class:`TimedCost`, a subclass handed to the
public ``minimize``; they are aggregated on the span that made them rather
than recorded one span each.  ``hesse`` is called again at each minimum to
size the covariance share of a fit.  Spans stay in memory and are written
out as JSON lines when the run ends.  Durations are rescaled on the run's
:class:`~perfbench.measure.HostClock`, which probes between tasks, so all
spans of a task share one factor.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from templatefit import CostFunction, FitResult, Method, gof, hesse, minimize

from .workloads import record, sort_records


class TimedCost(CostFunction):
    """A cost function that records the wall time of every evaluation."""

    def __init__(self, method, model, weighted: bool = False):
        super().__init__(method, model, weighted=weighted)
        self.durations: list[float] = []

    def __call__(self, params) -> float:
        t0 = perf_counter()
        value = super().__call__(params)
        self.durations.append(perf_counter() - t0)
        return value


class Span:
    """One timed call; ``evals`` and ``eval_s`` count the cost evaluations it made."""

    __slots__ = ("id", "parent", "name", "method", "start", "end", "evals", "eval_raw", "scale")

    def __init__(self, id_: int, parent: int | None, name: str, method: str | None):
        self.id = id_
        self.parent = parent
        self.name = name
        self.method = method
        self.start = perf_counter()
        self.end = self.start
        self.evals = 0
        self.eval_raw = 0.0
        self.scale = 1.0  # set from the clock when the run ends

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * self.scale

    @property
    def eval_s(self) -> float:
        return self.eval_raw * self.scale

    def attach(self, durations: list[float]) -> None:
        self.evals = len(durations)
        self.eval_raw = float(sum(durations))


def minimum_point(cost: CostFunction, result: FitResult) -> np.ndarray:
    """Full parameter vector at a fit's minimum, amplitude factors included."""
    if cost.method is not Method.EXACT:
        return result.yields
    bins, comps = cost.exact_slots()
    return np.concatenate([result.yields, result.betas.beta[bins, comps]])


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        # (minimize span, its evaluation durations) per method
        self._evals: dict[str, list[tuple[Span, list[float]]]] = defaultdict(list)
        self.fits: Counter = Counter()
        self.converged: Counter = Counter()
        self.fp_warnings: Counter = Counter()
        self.covariance_mismatches = 0
        self._method: str | None = None  # of the traced fit in progress

    @contextmanager
    def span(self, name: str, parent: Span | None = None, method: str | None = None):
        s = Span(len(self.spans), None if parent is None else parent.id, name, method)
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()

    @contextmanager
    def counting_warnings(self):
        """Count the warnings raised inside traced fits, without hiding any.

        Every warning reaches the hook; it is counted against the method of
        the traced fit in progress and shown once per location, as the
        default filter shows it.
        """
        shown = set()
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            original = warnings.showwarning

            def show(message, category, filename, lineno, file=None, line=None):
                if self._method is not None and issubclass(category, RuntimeWarning):
                    self.fp_warnings[self._method] += 1
                key = (str(message), category, filename, lineno)
                if key not in shown:
                    shown.add(key)
                    original(message, category, filename, lineno, file, line)

            warnings.showwarning = show
            yield

    def fit(self, parent: Span, method: str, model, weighted: bool):
        """``fit`` as its two public calls, each in its own span.

        Returns the fit span, the cost function and the result, or the
        exception in place of the result when the fit raised.
        """
        cost = None
        self._method = method
        try:
            with self.span("fit", parent, method) as whole:
                try:
                    with self.span("CostFunction", whole, method):
                        cost = TimedCost(method, model, weighted=weighted)
                    with self.span("minimize", whole, method) as inner:
                        outcome = minimize(cost)
                except Exception as exc:  # recorded as a raised fit, as in the replay
                    outcome = exc
        finally:
            self._method = None
        if cost is not None:
            inner.attach(cost.durations)
            self._evals[method].append((inner, cost.durations))
        self.fits[method] += 1
        if isinstance(outcome, FitResult) and outcome.converged:
            self.converged[method] += 1
        return whole, cost, outcome

    def diagnose(self, parent: Span, method: str, cost: TimedCost, result: FitResult) -> None:
        """Covariance again at the minimum, and the goodness of fit, each in a span."""
        n0 = len(cost.durations)
        with self.span("hesse", parent, method) as s:
            cov = hesse(cost, minimum_point(cost, result))
        s.attach(cost.durations[n0:])
        same = (cov is None and result.covariance is None) or (
            cov is not None
            and result.covariance is not None
            and np.array_equal(cov, result.covariance)
        )
        if not same:
            self.covariance_mismatches += 1
        with self.span("gof", parent, method):
            gof(result)

    def replay(self, workload, tasks: list) -> list:
        """Traced replay of one batch; returns its sorted records."""
        records = []
        for task in tasks:
            self.clock.probe()
            fitted = []
            with self.span("task") as top:
                toy = None
                if workload.has_draw:
                    with self.span("draw", top):
                        toy = task.draw()
                try:
                    with self.span("to_model", top):
                        model = task.model(toy)
                except ValueError as exc:
                    model = exc
                for method in workload.methods:
                    if isinstance(model, Exception):
                        outcome = model
                    else:
                        whole, cost, outcome = self.fit(top, method, model, workload.weighted)
                        fitted.append((method, whole, cost, outcome))
                    records.append(record(method, task, outcome))
            for method, whole, cost, outcome in fitted:
                if isinstance(outcome, FitResult):
                    self.diagnose(whole, method, cost, outcome)
        return sort_records(records)

    # --- summaries ------------------------------------------------------------

    def finish(self) -> None:
        """Rescale every span on the clock; call once, after the last probe."""
        for s in self.spans:
            s.scale = self.clock.scale(s.start, s.end)

    def eval_seconds(self, method: str) -> list[float]:
        """Duration of every cost evaluation of one method's traced fits."""
        return [t * span.scale for span, durations in self._evals[method] for t in durations]

    def self_seconds(self) -> list[float]:
        """Self time of every span: its duration minus nested children and evaluations."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start >= p.start and s.end <= p.end:
                    child_s[p.id] += s.seconds
        return [s.seconds - child_s[s.id] - s.eval_s for s in self.spans]

    def by_name(self, name: str, method: str | None = None) -> list[Span]:
        return [
            s for s in self.spans if s.name == name and (method is None or s.method == method)
        ]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        self_s = self.self_seconds()
        with path.open("w") as out:
            for s, own in zip(self.spans, self_s):
                out.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "method": s.method,
                            "start_us": round((s.start - origin) * 1e6, 3),
                            "dur_us": round(s.seconds * 1e6, 3),
                            "self_us": round(own * 1e6, 3),
                            "evals": s.evals,
                        }
                    )
                    + "\n"
                )
