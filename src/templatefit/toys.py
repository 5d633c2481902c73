"""Seedable toy experiments: Poisson-fluctuated data and templates from analytic shapes.

The toy model has two components, a normal signal peak and a falling
exponential background, both truncated to the histogram range.  Bin
expectations are computed analytically and every bin of every component
is drawn from a Poisson distribution; no event-level sampling or
histogramming takes place, so the expectations are exact by construction.

The background density is taken as ``exp(-slope * x)`` on the range, a
decay constant equal to the configured slope.

Streams are counter-based (Philox keyed by seed and toy index), and the
Poisson samplers (``_poisson_block``, which draws every toy) consume only
raw uniforms from the stream, so draws are reproducible for a given
(seed, toy_index) pair independent of the backing library's own
distribution samplers.  :class:`ToyConfig` rejects non-finite fields and
shapes without finite bin probabilities on the range, so every Poisson
mean is finite and nonnegative.
"""

from __future__ import annotations

import functools
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .histogram import BinnedSample, TemplateModel
from .special import normal_cdf

__all__ = [
    "ToyConfig",
    "ToyDraw",
    "rng_stream",
    "draw",
    "draw_counts",
    "to_model",
]


def _integer(name: str, value, least: int | None = None):
    """``value``; raises ``ValueError`` unless it is an integer (no bool) of at least ``least``."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or least is not None and value < least:
        bound = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class ToyConfig:
    """Configuration of the two-component toy experiment.

    Defaults: a normal signal (mean 1, width 0.1, yield 250) over a unit
    falling exponential background (yield 750), histogrammed in 15 equal
    bins over [0, 2], with ``n_mc`` simulated entries per template.
    """

    signal_yield: float = 250.0
    background_yield: float = 750.0
    signal_mean: float = 1.0
    signal_sigma: float = 0.1
    background_slope: float = 1.0
    range: tuple[float, float] = (0.0, 2.0)
    nbins: int = 15
    n_mc: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"range must be a finite interval, got {self.range}")
        _integer("nbins", self.nbins, 1)
        _integer("n_mc", self.n_mc, 0)
        _integer("seed", self.seed)
        for name in ("signal_yield", "background_yield", "signal_mean", "signal_sigma",
                     "background_slope"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.signal_sigma <= 0:
            raise ValueError(f"signal_sigma must be positive, got {self.signal_sigma}")
        if self.signal_yield < 0 or self.background_yield < 0:
            raise ValueError("yields must be nonnegative")
        if not all(np.isfinite(p).all() for p in self._shapes()):
            raise ValueError(f"the shapes have no finite bin probabilities on {self.range}")

    def _shapes(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only per-bin probabilities of the signal and background shapes."""
        return _shape_probabilities(
            self.range, self.nbins, self.signal_mean, self.signal_sigma, self.background_slope
        )

    @classmethod
    def from_dict(cls, obj: dict) -> "ToyConfig":
        """Build from the JSON object form; unknown keys are rejected."""
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown toy config fields: {sorted(extra)}")
        kwargs = dict(obj)
        if "range" in kwargs:
            kwargs["range"] = tuple(kwargs["range"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ToyDraw:
    """One toy experiment: the data and the two templates, signal first.

    The generating yields are the config's ``signal_yield`` and
    ``background_yield``.
    """

    data: BinnedSample
    templates: tuple[BinnedSample, BinnedSample]

    @classmethod
    def from_counts(cls, counts) -> "ToyDraw":
        """The toy of one ``(4, nbins)`` block of :func:`draw_counts`."""
        return cls(
            data=BinnedSample.from_counts(counts[0] + counts[1]),
            templates=(BinnedSample.from_counts(counts[2]), BinnedSample.from_counts(counts[3])),
        )


@functools.lru_cache(maxsize=64)
def _shape_probabilities(range_, nbins, mean, sigma, slope) -> tuple[np.ndarray, np.ndarray]:
    # cached per shape: every toy of a study draws from the same probabilities
    # a shape out of reach of the range gives NaN here, which ToyConfig rejects
    lo, hi = range_
    edges = np.linspace(lo, hi, nbins + 1)
    z = (edges - mean) / sigma
    cdf = np.array([normal_cdf(v) for v in z])
    with np.errstate(all="ignore"):
        signal = np.diff(cdf) / (cdf[-1] - cdf[0])
        if slope == 0.0:
            background = np.diff(edges) / (hi - lo)
        else:
            expo = np.exp(-slope * edges)
            background = -np.diff(expo) / (expo[0] - expo[-1])
    signal.flags.writeable = False
    background.flags.writeable = False
    return signal, background


def rng_stream(seed: int, toy_index: int) -> np.random.Generator:
    """Independent reproducible stream for one toy.

    Counter-based: the 128-bit Philox key packs the seed into the low
    word and the toy index into the high word, so equal pairs replay the
    identical stream and distinct indexes are statistically independent.
    """
    lo, hi = _key(seed, toy_index)
    return np.random.Generator(np.random.Philox(key=lo | hi << 64))


def _key(seed: int, toy_index: int) -> tuple[int, int]:
    """The low and high 64-bit words of the Philox key of one toy's stream."""
    if not 0 <= toy_index < 2**64:
        raise ValueError(f"toy_index must be nonnegative and below 2^64, got {toy_index}")
    return int(seed) & 0xFFFFFFFFFFFFFFFF, int(toy_index)


_PTRS_SWITCH = 30.0
_SPARE = 32  # uniforms a block draw takes beyond one attempt per mean, for rejections
_INVERSION_CAP = 1100  # the sequential search's cap


@functools.lru_cache(maxsize=1024)
def _inversion_table(mu: float) -> tuple[float, ...]:
    """The running sums of the Poisson probabilities at ``mu`` that sequential-search
    inversion compares its uniform with, for ``0 < mu < 30``.

    Entry ``k`` is the sum over counts ``0..k``, formed with the search's
    float operations in its order, so the draw of uniform ``u`` is the
    first ``k`` with ``u <= table[k]``: ``bisect_left(table, u)``.  The
    table ends where the sum reaches 1.0, above every uniform, or where
    past the mode it stops changing: every later term is smaller still, so
    the sum keeps its value up to the cap.  A uniform above the last entry
    then runs the search to the cap, as it does in a table that ends there.
    """
    p = math.exp(-mu)
    acc = p
    table = [acc]
    k = 0
    while acc < 1.0 and k < _INVERSION_CAP:
        k += 1
        p *= mu / k
        if k > mu and acc + p == acc:
            break
        acc += p
        table.append(acc)
    return tuple(table)


class _Ptrs(NamedTuple):
    """The constants of Hoermann's transformed rejection with squeeze at one mean."""

    mu: float
    a: float
    b: float
    inv_alpha: float
    v_r: float


def _ptrs_constants(mu: float) -> _Ptrs:
    # valid for mu >= 10
    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    return _Ptrs(mu, a, b, 1.1239 + 1.1328 / (b - 3.4), 0.9277 - 3.6224 / (b - 2.0))


def _ptrs_attempt(constants: _Ptrs, u: float, v: float) -> int | None:
    """The count of one rejection attempt with uniforms ``u`` and ``v``, or ``None``."""
    mu, a, b, inv_alpha, v_r = constants
    u -= 0.5
    us = 0.5 - abs(u)
    k = math.floor((2.0 * a / us + b) * u + mu + 0.43)
    if us >= 0.07 and v <= v_r:
        return k
    if k < 0 or (us < 0.013 and v > us):
        return None
    if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
        k * math.log(mu) - mu - math.lgamma(k + 1.0)
    ):
        return k
    return None


@functools.lru_cache(maxsize=64)
def _plan(means: tuple[float, ...]) -> tuple[tuple, int]:
    """Per mean how it is drawn: ``None`` for a mean of 0, its inversion table
    (:func:`_inversion_table`, a plain tuple) below 30 and its :class:`_Ptrs`
    constants above; and the number of uniforms taken by one attempt per mean.
    Cached, as every toy of a config shares its means."""
    steps = tuple(
        None if mu == 0.0 else _inversion_table(mu) if mu < _PTRS_SWITCH else _ptrs_constants(mu)
        for mu in means
    )
    first = sum(1 if type(step) is tuple else 2 for step in steps if step is not None)
    return steps, first


def _poisson_block(rng: np.random.Generator, plan: tuple) -> list[int]:
    """Poisson draws for the means of ``plan``, in order, from uniforms taken in one block.

    Sequential-search inversion below mean 30 takes one uniform per draw,
    transformed rejection with squeeze above takes two per attempt.  Both
    are exact samplers; using them instead of the generator's own keeps
    draws stable across library versions.  Each draw reads the uniforms
    that one such sampler call per mean would read, in the same order; the
    block runs past the last uniform used, so a stream serves one block.
    The means are finite and nonnegative, as :func:`_means` gives them;
    ``plan`` is ``_plan(means)``.
    """
    steps, first = plan
    u = rng.random(first + _SPARE).tolist()
    i = 0  # the next uniform
    counts = []
    for step in steps:
        if step is None:
            counts.append(0)
            continue
        if type(step) is tuple:  # an inversion table, not _Ptrs
            if i == len(u):  # rejections used up the spare uniforms
                u += rng.random(_SPARE).tolist()
            k = bisect_left(step, u[i])
            counts.append(k if k < len(step) else _INVERSION_CAP)
            i += 1
            continue
        while True:
            while i + 2 > len(u):
                u += rng.random(_SPARE).tolist()
            k = _ptrs_attempt(step, u[i], u[i + 1])
            i += 2
            if k is not None:
                break
        counts.append(k)
    return counts


def _means(config: ToyConfig) -> tuple[float, ...]:
    """Poisson means of a toy's bins in draw order: data signal, data background,
    signal template, background template."""
    p_sig, p_bkg = config._shapes()
    means = np.concatenate(
        [
            config.signal_yield * p_sig,
            config.background_yield * p_bkg,
            config.n_mc * p_sig,
            config.n_mc * p_bkg,
        ]
    )
    return tuple(means.tolist())


def draw(config: ToyConfig, rng: np.random.Generator) -> ToyDraw:
    """One toy experiment from the given stream.

    The draws read the stream in a fixed order: data signal bins, data
    background bins, signal template bins, background template bins.  The
    two data components are drawn separately and summed.  The uniforms are
    taken in one block that may run past the last one used, so a stream
    serves one draw.  :func:`draw_counts` gives the same counts for many
    toys as one array, without the containers.
    """
    counts = np.array(_poisson_block(rng, _plan(_means(config))), dtype=np.float64)
    return ToyDraw.from_counts(counts.reshape(4, config.nbins))


def draw_counts(config: ToyConfig, toy_indices) -> np.ndarray:
    """Raw counts of the toys at ``toy_indices``, each from ``rng_stream(config.seed, index)``.

    Returns a ``(toys, 4, nbins)`` array whose rows are, per toy, the data
    signal, data background, signal template and background template
    counts: the draws of :func:`draw`, in its order, so
    ``ToyDraw.from_counts(counts[t])`` equals the ``draw`` of toy
    ``t`` bit for bit.
    """
    plan = _plan(_means(config))
    # one generator reset to each toy's fresh stream: constructing a Philox
    # draws operating-system entropy before its key replaces it
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    fresh = bits.state  # counter 0 and an empty buffer; only the key changes
    counts = []
    for i in toy_indices:
        fresh["state"]["key"] = np.array(_key(config.seed, i), dtype=np.uint64)
        bits.state = fresh
        counts.append(_poisson_block(rng, plan))
    return np.array(counts, dtype=np.float64).reshape(len(counts), 4, config.nbins)


def to_model(config: ToyConfig, toy: ToyDraw) -> TemplateModel:
    """Histogram model of one toy draw, signal component first."""
    lo, hi = config.range
    return TemplateModel(
        edges=np.linspace(lo, hi, config.nbins + 1),
        data=toy.data,
        components=toy.templates,
        names=("signal", "background"),
    )
