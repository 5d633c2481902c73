"""Binned containers for data and Monte-Carlo templates.

A :class:`BinnedSample` stores the per-bin sum of weights and sum of
squared weights; for an unweighted sample both arrays equal the raw
counts.  A :class:`TemplateModel` bundles the observed data with K
template components and their normalizations.  All containers validate at
construction and are immutable afterwards, so they can be shared freely
across concurrent workers.

The weighted cost functions (:mod:`templatefit.likelihood`) reduce each
bin to the equivalent unweighted count ``(sum w)^2 / sum w^2`` and the
scale factor ``sum w / sum w^2``; an empty bin maps to ``(0, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinnedSample",
    "TemplateModel",
    "model_from_dict",
]


def _as_frozen_1d(values, name: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64)
    except TypeError:
        raise ValueError(f"{name} must be an array of numbers") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValueError(f"{name} must contain only finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BinnedSample:
    """Per-bin sum of weights and sum of squared weights.

    Parameters
    ----------
    sumw : array_like
        Sum of weights per bin.  Length is the number of bins, at least 1.
    sumw2 : array_like
        Sum of squared weights per bin, same length as ``sumw``.

    Bins must be nonnegative and a bin with zero sum of weights must also
    have zero sum of squared weights.
    """

    sumw: np.ndarray
    sumw2: np.ndarray

    def __post_init__(self) -> None:
        sumw = _as_frozen_1d(self.sumw, "sumw")
        sumw2 = _as_frozen_1d(self.sumw2, "sumw2")
        if sumw.size == 0:
            raise ValueError("a sample needs at least one bin")
        if sumw.shape != sumw2.shape:
            raise ValueError(
                f"sumw has {sumw.size} bins but sumw2 has {sumw2.size}"
            )
        if np.count_nonzero(sumw < 0) or np.count_nonzero(sumw2 < 0):
            raise ValueError("bin contents must be nonnegative")
        if np.count_nonzero((sumw == 0) != (sumw2 == 0)):
            # no real weight vector has one of the two sums zero without the other
            raise ValueError(
                "a bin's sum of weights and sum of squared weights must vanish together"
            )
        object.__setattr__(self, "sumw", sumw)
        object.__setattr__(self, "sumw2", sumw2)

    @classmethod
    def from_counts(cls, counts) -> "BinnedSample":
        """Build an unweighted sample from raw counts (every entry has weight one)."""
        return cls(counts, counts)

    @property
    def nbins(self) -> int:
        return self.sumw.size

    @property
    def total(self) -> float:
        """Sum of weights over all bins."""
        return float(self.sumw.sum())

    def is_unweighted(self) -> bool:
        """True when sumw2 equals sumw in every bin (unit weights)."""
        return bool(np.array_equal(self.sumw, self.sumw2))


@dataclass(frozen=True)
class TemplateModel:
    """Histogram model: observed data plus K template components.

    Parameters
    ----------
    edges : array_like
        Bin edges, strictly increasing, length nbins + 1.  Kept for I/O
        and toy generation only; the cost functions never use edge values.
    data : BinnedSample
        The observed sample.
    components : sequence of BinnedSample
        The K template components, one histogram each, same binning as
        the data.  Every component must have a positive total.
    names : sequence of str, optional
        Component labels; defaults to ``template_0`` ... ``template_{K-1}``.

    The per-component totals (the normalizations converting yields into
    bin expectations) are computed at construction and stored in ``norms``.
    """

    edges: np.ndarray
    data: BinnedSample
    components: tuple[BinnedSample, ...]
    names: tuple[str, ...] = ()
    norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        edges = _as_frozen_1d(self.edges, "edges")
        if edges.size != self.data.nbins + 1:
            raise ValueError(
                f"expected {self.data.nbins + 1} bin edges, got {edges.size}"
            )
        if np.count_nonzero(np.diff(edges) > 0) < edges.size - 1:
            raise ValueError("bin edges must be strictly increasing")
        components = tuple(self.components)
        if not components:
            raise ValueError("at least one template component is required")
        names = tuple(self.names) if self.names else tuple(
            f"template_{k}" for k in range(len(components))
        )
        if len(names) != len(components):
            raise ValueError(
                f"{len(components)} components but {len(names)} names"
            )
        for name, comp in zip(names, components):
            if comp.nbins != self.data.nbins:
                raise ValueError(
                    f"component {name!r} has {comp.nbins} bins, data has {self.data.nbins}"
                )
        norms = np.array([comp.total for comp in components])
        if np.count_nonzero(norms <= 0):
            bad = names[int(np.argmin(norms))]
            raise ValueError(f"template {bad!r} is empty; every component needs entries")
        norms.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "norms", norms)

    @property
    def nbins(self) -> int:
        return self.data.nbins

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    def component_sumw(self) -> np.ndarray:
        """Stacked (K, nbins) matrix of the per-component sums of weights."""
        return np.array([comp.sumw for comp in self.components])

    def component_sumw2(self) -> np.ndarray:
        """Stacked (K, nbins) matrix of the per-component sums of squared weights."""
        return np.array([comp.sumw2 for comp in self.components])

    def is_unweighted(self) -> bool:
        """True when the data and every component carry unit weights."""
        return self.data.is_unweighted() and all(
            comp.is_unweighted() for comp in self.components
        )


def _sample_from_dict(obj: dict, what: str) -> BinnedSample:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    if "sumw" not in obj:
        raise ValueError(f"{what} is missing the 'sumw' array")
    sumw = obj["sumw"]
    sumw2 = obj.get("sumw2", None)
    if sumw2 is None:
        return BinnedSample.from_counts(sumw)
    return BinnedSample(sumw, sumw2)


def model_from_dict(obj: dict) -> TemplateModel:
    """Build a :class:`TemplateModel` from its JSON object form.

    Expected layout::

        {
          "bin_edges": [e0, e1, ..., eN],
          "data": {"sumw": [...], "sumw2": [...]},
          "templates": [{"name": "...", "sumw": [...], "sumw2": [...]}, ...]
        }

    ``sumw2`` is optional everywhere and defaults to ``sumw`` (unit
    weights).
    """
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    for key in ("bin_edges", "data", "templates"):
        if key not in obj:
            raise ValueError(f"input is missing the {key!r} field")
    data = _sample_from_dict(obj["data"], "data")
    templates = obj["templates"]
    if not isinstance(templates, list) or not templates:
        raise ValueError("'templates' must be a nonempty array")
    components = []
    names = []
    for i, t in enumerate(templates):
        components.append(_sample_from_dict(t, f"template {i}"))
        names.append(str(t.get("name", f"template_{i}")))
    return TemplateModel(
        edges=obj["bin_edges"],
        data=data,
        components=tuple(components),
        names=tuple(names),
    )
