"""Binned maximum-likelihood template fits with finite-simulation uncertainty.

Fits the yields of a composite model built from Monte-Carlo template
histograms to binned data.  Three cost functions are available: the
exact Barlow-Beeston likelihood with one amplitude parameter per bin and
component, Conway's approximation with a Gaussian-constrained per-bin
factor, and a symmetric approximation that treats data and simulation
both as Poisson distributed and profiles its per-bin factor in closed
form.  Weighted data and weighted templates are supported for the two
approximations through effective counts.

The package also ships toy-experiment generation, an ensemble study
harness with pull statistics and timing, and a command line interface
(``templatefit fit | toy-study | bench``).
"""

from .histogram import (
    BinnedSample,
    TemplateModel,
    model_from_dict,
)
from .likelihood import (
    BetaDiagnostics,
    CostFunction,
    CostStack,
    Method,
)
from .minimize import (
    FitResult,
    default_start,
    fit,
    gof,
    hesse,
    minimize,
)
from .special import chi2_sf, normal_cdf
from .study import PullRecord, PullStats, bench, run_study, summarize
from .toys import (
    ToyConfig,
    ToyDraw,
    draw,
    draw_counts,
    rng_stream,
    to_model,
)

__version__ = "0.1.0"

__all__ = [
    "BinnedSample",
    "TemplateModel",
    "model_from_dict",
    "BetaDiagnostics",
    "CostFunction",
    "CostStack",
    "Method",
    "FitResult",
    "default_start",
    "fit",
    "gof",
    "hesse",
    "minimize",
    "chi2_sf",
    "normal_cdf",
    "PullRecord",
    "PullStats",
    "bench",
    "run_study",
    "summarize",
    "ToyConfig",
    "ToyDraw",
    "draw",
    "draw_counts",
    "rng_stream",
    "to_model",
    "__version__",
]
