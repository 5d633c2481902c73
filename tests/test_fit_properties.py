"""Property tests: ``fit`` on small random models never raises and reports a documented status,
and ``approx`` ends no higher than scipy's L-BFGS-B.

Models of 1-8 bins and 1-3 components with integer counts, every template
with entries, fitted by all three methods.  RuntimeWarnings are errors in
this suite, so a floating-point warning inside a fit fails it too.

The comparison with L-BFGS-B covers ``approx`` alone: ``conway`` can
still stall next to a bound, and the finite-difference gradient of
``exact`` stalls at large counts, so either can end above the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from templatefit import BinnedSample, CostFunction, TemplateModel, default_start, fit

STATUSES = {"converged", "on_bound", "hessian_not_pd", "stalled", "budget"}


@st.composite
def models(draw, most: int = 300) -> TemplateModel:
    nbins = draw(st.integers(1, 8))
    K = draw(st.integers(1, 3))
    counts = st.lists(st.integers(0, most), min_size=nbins, max_size=nbins)
    components = []
    for _ in range(K):
        template = draw(counts)
        template[draw(st.integers(0, nbins - 1))] += 1  # every template has entries
        components.append(BinnedSample.from_counts(template))
    return TemplateModel(
        edges=np.arange(nbins + 1.0),
        data=BinnedSample.from_counts(draw(counts)),
        components=tuple(components),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(models())
def test_fit_ends_in_a_documented_status(model):
    for method in ("approx", "conway", "exact"):
        result = fit(model, method)
        assert result.status in STATUSES, method
        assert result.converged == (result.status == "converged")
        if result.converged:
            assert np.isfinite(result.yield_errors).all(), method
            assert np.isfinite(result.covariance).all(), method
        elif result.status in ("on_bound", "hessian_not_pd"):
            assert result.yield_errors is None and result.covariance is None, method


def scipy_minimum(cost: CostFunction) -> float:
    """L-BFGS-B's minimum from the default start, on parameters scaled to order one."""
    x0 = default_start(cost)
    scale = np.maximum(1.0, np.abs(x0))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        ref = scipy_minimize(
            lambda u: cost(u * scale),
            x0 / scale,
            method="L-BFGS-B",
            bounds=[(lo / s, None) for lo, s in zip(cost.lower_bounds, scale)],
            options=dict(ftol=1e-15, gtol=1e-10, maxiter=20_000, maxfun=500_000),
        )
    return float(ref.fun)


@pytest.mark.parametrize("most", [5, 300, 20_000])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_approx_ends_at_or_below_scipy(most, data):
    # large counts with nearly collinear templates once let approx stop at its start
    model = data.draw(models(most))
    q = fit(model, "approx").qmin
    ref = scipy_minimum(CostFunction("approx", model))
    assert q <= ref + 1e-5 + 1e-9 * abs(ref)
