"""Seeded inputs of the benchmark workloads.

A workload is a fixed number of batches; a batch is a list of tasks, and
a task is one model that every method of the workload fits.  Batch ``b``
holds the same tasks for a given seed, so every run of a seed fits the
same inputs in the same order, and a run repeats them until its time is
up.

``ensemble-fast`` and ``ensemble-exact`` fit the package's own toys at
both ends of the paper's template-size grid; their reference records come
from ``run_study``.  ``wide-weighted`` fits models the benchmark builds
itself, with no ``toys`` and no ``study``: 10^4 bins on average, four
components, per-event weights and sparsely filled tail bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from templatefit import (
    BinnedSample,
    FitResult,
    PullRecord,
    TemplateModel,
    ToyConfig,
    draw,
    fit,
    rng_stream,
    run_study,
    to_model,
)

GRID = (50, 10_000)  # both ends of the paper's template-size grid

# bin counts of a batch's models are stratified over this range, so every
# batch spans the same sizes and the pooled fit times of approx and conway
# overlap instead of forming two clusters
WIDE_BINS = (4_000, 16_000)
WIDE_MODELS = 8  # per batch
WIDE_BATCHES = 7  # 112 fits
# per component: template events and the expected data yield; the truth of
# the pull records is the first yield (weights have mean one)
WIDE_TEMPLATE_EVENTS = (60_000, 120_000, 200_000, 80_000)
WIDE_YIELDS = (4_000.0, 20_000.0, 40_000.0, 8_000.0)


def seed_of_batch(seed: int, batch: int) -> int:
    """Toy seed of one ensemble batch; distinct for every (seed, batch) pair."""
    return seed * 1_000_000 + batch


class EnsembleTask:
    """One (n_mc, toy index) task of ``run_study``."""

    def __init__(self, config: ToyConfig, index: int):
        self.config = config
        self.index = index
        self.n_mc = config.n_mc
        self.truth = float(config.signal_yield)

    def draw(self):
        return draw(self.config, rng_stream(self.config.seed, self.index))

    def model(self, toy) -> TemplateModel:
        return to_model(self.config, toy)


@dataclass(frozen=True)
class Ensemble:
    """A ``run_study`` pull study over the grid, in batches of toys."""

    name: str
    methods: tuple[str, ...]
    toys_per_batch: int
    batches: int
    seed: int
    gate_batches: int = 1  # the first batches, whose fits the correctness gate checks
    weighted = False
    has_draw = True
    has_study = True

    def config(self, batch: int) -> ToyConfig:
        return ToyConfig(seed=seed_of_batch(self.seed, batch))

    def tasks(self, batch: int) -> list[EnsembleTask]:
        # the order of run_study's task list
        base = self.config(batch)
        return [
            EnsembleTask(replace(base, n_mc=n_mc), idx)
            for n_mc in GRID
            for idx in range(self.toys_per_batch)
        ]

    def study(self, batch: int) -> list[PullRecord]:
        return run_study(self.config(batch), GRID, self.toys_per_batch, self.methods, jobs=1)

    def setup(self) -> None:
        """Warm-up: one fit per method and template size on the first toy."""
        for task in self.tasks(0)[:: self.toys_per_batch]:
            model = task.model(task.draw())
            for method in self.methods:
                fit(model, method)


@dataclass(frozen=True)
class WideInputs:
    """Per-bin sums of one generated model: data first, then the components."""

    nbins: int
    sumw: tuple[np.ndarray, ...]
    sumw2: tuple[np.ndarray, ...]


def _histogram(x: np.ndarray, w: np.ndarray, nbins: int) -> tuple[np.ndarray, np.ndarray]:
    inside = (x >= 0.0) & (x < 1.0)
    idx = (x[inside] * nbins).astype(np.int64)
    w = w[inside]
    return np.bincount(idx, w, nbins), np.bincount(idx, w * w, nbins)


def generate_wide(rng: np.random.Generator, nbins: int) -> WideInputs:
    """One weighted spectrum of ``nbins`` bins with four components on [0, 1).

    A narrow and a broad peak, a falling exponential whose tail leaves most
    bins above 0.8 with at most a few entries or none, and a flat component
    that ends at 0.8.  Template events carry gamma weights of mean 1 and
    relative spread 0.5, data events of mean 1 and spread 0.2, so sumw2
    differs from sumw in every filled bin.
    """
    samplers = (
        lambda n: rng.normal(0.30, 0.01, n),
        lambda n: rng.normal(0.55, 0.12, n),
        lambda n: rng.exponential(0.10, n),
        lambda n: rng.uniform(0.0, 0.8, n),
    )
    sumw = []
    sumw2 = []
    data_x = []
    for sample, n_events, yield_ in zip(samplers, WIDE_TEMPLATE_EVENTS, WIDE_YIELDS):
        w, w2 = _histogram(sample(n_events), rng.gamma(4.0, 0.25, n_events), nbins)
        sumw.append(w)
        sumw2.append(w2)
        data_x.append(sample(rng.poisson(yield_)))
    x = np.concatenate(data_x)
    w, w2 = _histogram(x, rng.gamma(25.0, 0.04, x.size), nbins)
    return WideInputs(nbins=nbins, sumw=(w, *sumw), sumw2=(w2, *sumw2))


def build_wide_model(inputs: WideInputs) -> TemplateModel:
    samples = [BinnedSample(w, w2) for w, w2 in zip(inputs.sumw, inputs.sumw2)]
    return TemplateModel(
        edges=np.linspace(0.0, 1.0, inputs.nbins + 1),
        data=samples[0],
        components=tuple(samples[1:]),
        names=("narrow", "broad", "falling", "flat"),
    )


class WideTask:
    """One generated model; ``n_mc`` is 0 in its records."""

    n_mc = 0
    truth = WIDE_YIELDS[0]

    def __init__(self, inputs: WideInputs, index: int):
        self.inputs = inputs
        self.index = index

    def draw(self):
        return None

    def model(self, toy) -> TemplateModel:
        return build_wide_model(self.inputs)


class Wide:
    """Single weighted fits of generated wide models, a new set in every batch."""

    name = "wide-weighted"
    methods = ("approx", "conway")
    batches = WIDE_BATCHES
    gate_batches = 1
    weighted = True
    has_draw = False
    has_study = False

    def __init__(self, seed: int):
        self.seed = seed

    def tasks(self, batch: int) -> list[WideTask]:
        rng = np.random.Generator(np.random.Philox(key=seed_of_batch(self.seed, batch)))
        lo, hi = WIDE_BINS
        step = (hi - lo) / WIDE_MODELS
        return [
            WideTask(generate_wide(rng, int(lo + (j + rng.random()) * step)), j)
            for j in range(WIDE_MODELS)
        ]

    def setup(self) -> None:
        """Generate and build the first batch, then one warm-up fit per method."""
        models = [task.model(None) for task in self.tasks(0)]
        for method in self.methods:
            fit(models[0], method, weighted=True)


def make_workload(name: str, seed: int):
    if name == "ensemble-fast":
        # 2,400 fits of about 4 ms, 40 per run_study call; the gate checks 80
        return Ensemble(name, ("approx", "conway"), 10, 60, seed, gate_batches=2)
    if name == "ensemble-exact":
        # 104 fits of about 100 ms, 2 per run_study call; the gate checks 8
        return Ensemble(name, ("exact",), 1, 52, seed, gate_batches=4)
    if name == "wide-weighted":
        return Wide(seed)
    raise ValueError(f"unknown workload {name!r}")


def record(method: str, task, outcome) -> PullRecord:
    """Pull record of one fit outcome, built as ``run_study`` builds it."""
    nan = math.nan
    if not isinstance(outcome, FitResult):
        return PullRecord(method, task.n_mc, task.index, nan, nan, nan, nan, False)
    est = float(outcome.yields[0])
    if outcome.converged and outcome.yield_errors is not None:
        err = float(outcome.yield_errors[0])
        pull = (est - task.truth) / err if err > 0 else nan
    else:
        err = nan
        pull = nan
    return PullRecord(
        method, task.n_mc, task.index, est, err, pull, float(outcome.qmin), bool(outcome.converged)
    )


def sort_records(records: list[PullRecord]) -> list[PullRecord]:
    return sorted(records, key=lambda r: (r.method, r.n_mc, r.toy_index))


def failure_kind(outcome) -> str | None:
    """Why a fit failed: ``raised``, ``nonfinite`` or ``not_converged``; None if it did not."""
    if not isinstance(outcome, FitResult):
        return "raised"
    if not math.isfinite(outcome.qmin):
        return "nonfinite"
    if not outcome.converged:
        return "not_converged"
    return None
