"""Property test: ``fit`` on small random models never raises and reports a documented status.

Models of 1-8 bins and 1-3 components with integer counts, every template
with entries, fitted by all three methods.  RuntimeWarnings are errors in
this suite, so a floating-point warning inside a fit fails it too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from templatefit import BinnedSample, TemplateModel, fit

STATUSES = {"converged", "on_bound", "hessian_not_pd", "stalled", "budget"}


@st.composite
def models(draw) -> TemplateModel:
    nbins = draw(st.integers(1, 8))
    K = draw(st.integers(1, 3))
    counts = st.lists(st.integers(0, 300), min_size=nbins, max_size=nbins)
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
