"""Closed-form derivatives of the costs against finite differences.

``central_difference`` is the oracle: a five-point central difference,
accurate to O(h^4), applied to the cost for the gradient and to the
closed-form gradient for the Hessian of the profiled costs, whose value and
gradient come from the one-row ``CostStack`` of the cost's arrays that
their fits run.  The models
cover one to four components, weighted input, Conway factors held at zero
(bins without data whose variance term exceeds one) and dead Conway bins.
The exact Hessian, over yields and amplitude factors, is checked against
the oracle applied twice to cost values alone.
"""

import math
import warnings

import numpy as np
import pytest

from templatefit import BinnedSample, CostFunction, TemplateModel


def central_difference(f, x, rel_step=1e-3):
    """Derivative of ``f`` along each coordinate of ``x``, one row per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    rows = []
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        fm2, fm1 = np.asarray(f(x - 2 * e)), np.asarray(f(x - e))
        fp1, fp2 = np.asarray(f(x + e)), np.asarray(f(x + 2 * e))
        rows.append((fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h))
    return np.array(rows)


def _model(rng, K, nbins, weighted):
    comps = [rng.poisson(rng.uniform(0.5, 20.0), nbins).astype(float) for _ in range(K)]
    for c in comps:
        c[rng.integers(nbins)] += 1.0
    data = rng.poisson(rng.uniform(1.0, 50.0), nbins).astype(float)
    if weighted:
        dw = data * rng.uniform(0.5, 1.5, nbins)
        d = BinnedSample(dw, dw * rng.uniform(0.8, 2.0, nbins))
        cs = tuple(BinnedSample(1.1 * c, c * rng.uniform(1.0, 2.0, nbins)) for c in comps)
    else:
        d = BinnedSample.from_counts(data)
        cs = tuple(BinnedSample.from_counts(c) for c in comps)
    return TemplateModel(edges=np.arange(nbins + 1.0), data=d, components=cs), data.sum()


def _value_and_gradient(cost, y):
    """Value and gradient of a profiled cost at ``y``, from the one-row stack its fit runs."""
    value, gradient = cost._stack.value_and_gradient(np.asarray(y, dtype=np.float64)[None])
    return float(value[0]), gradient[0]


def _check(cost, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, g = _value_and_gradient(cost, y)
        H = cost.hessian(y)
        g_fd = central_difference(cost, y)
        H_fd = central_difference(lambda z: _value_and_gradient(cost, z)[1], y)
    assert float.hex(value) == float.hex(cost(y))
    assert np.max(np.abs(g - g_fd)) <= 1e-9 * max(1.0, np.max(np.abs(g)))
    assert np.max(np.abs(H - H_fd)) <= 1e-6 * np.max(np.abs(H))
    return H


@pytest.mark.parametrize("method", ["approx", "conway"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_derivatives_match_finite_differences(method, weighted, K):
    rng = np.random.default_rng(100 * K + 10 * weighted + (method == "conway"))
    for _ in range(8):
        model, total = _model(rng, K, int(rng.integers(3, 40)), weighted)
        cost = CostFunction(method, model, weighted=weighted)
        y = rng.uniform(0.2, 2.0, K) * total / K
        if math.isfinite(cost(y)):
            _check(cost, y)


# component 0 fills bins 0-9, component 1 bins 2-11; bins without data and
# small templates hold Conway's factor at zero
DATA = [0, 0, 5, 9, 0, 3, 0, 0, 12, 4, 0, 0]
C0 = [1, 2, 3, 4, 0, 1, 1, 0, 2, 2, 0, 0]
C1 = [0, 0, 1, 3, 2, 2, 1, 1, 5, 1, 1, 1]
SPARSE = TemplateModel(
    edges=np.arange(13.0),
    data=BinnedSample.from_counts(DATA),
    components=(BinnedSample.from_counts(C0), BinnedSample.from_counts(C1)),
)


def test_conway_factor_held_at_zero_is_not_profiled():
    cost = CostFunction("conway", SPARSE)
    y = np.array([20.0, 30.0])
    assert np.count_nonzero(cost.diagnostics(y).beta == 0.0) >= 4
    _check(cost, y)


def test_dead_conway_bins_contribute_nothing():
    # a zero second yield leaves bins 4, 7, 10 and 11 without expectation;
    # the derivatives in the first yield are those along the face y1 = 0
    cost = CostFunction("conway", SPARSE)
    y = np.array([25.0, 0.0])
    beta = cost.diagnostics(y).beta
    assert np.isnan(beta[[4, 7, 10, 11]]).all() and math.isfinite(cost(y))
    value, g = _value_and_gradient(cost, y)
    H = cost.hessian(y)
    on_face = lambda z: cost(np.array([z[0], 0.0]))  # noqa: E731
    g_fd = central_difference(on_face, y[:1])
    H_fd = central_difference(lambda z: _value_and_gradient(cost, [z[0], 0.0])[1][:1], y[:1])
    assert float.hex(value) == float.hex(cost(y))
    assert abs(g[0] - g_fd[0]) <= 1e-9 * max(1.0, abs(g[0]))
    assert abs(H[0, 0] - H_fd[0, 0]) <= 1e-6 * abs(H[0, 0])


@pytest.mark.parametrize("method", ["approx", "conway"])
def test_infinite_cost_gives_nan_derivatives_without_warnings(method):
    # data in bin 0, whose only template belongs to the zero first yield
    model = TemplateModel(
        edges=np.arange(3.0),
        data=BinnedSample.from_counts([5, 7]),
        components=(BinnedSample.from_counts([3, 0]), BinnedSample.from_counts([0, 4])),
    )
    cost = CostFunction(method, model)
    y = np.array([0.0, 10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, g = _value_and_gradient(cost, y)
        H = cost.hessian(y)
    assert value == math.inf == cost(y)
    assert np.isnan(g).all() and np.isnan(H).all()


@pytest.mark.parametrize("method", ["approx", "conway"])
@pytest.mark.parametrize("bad", [[-1.0, 5.0], [math.nan, 5.0], [math.inf, 5.0]])
def test_outside_the_domain_raises(method, bad):
    cost = CostFunction(method, SPARSE)
    with pytest.raises(ValueError, match="domain"):
        cost.hessian(bad)


def _check_exact(cost, x, at=lambda z: z):
    """Exact Hessian at ``at(x)``, against nested differences in ``x``."""
    f = lambda z: cost(at(z))  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = cost.hessian(at(x))
        H_fd = central_difference(lambda z: central_difference(f, z), x)
    return H, H_fd


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_exact_hessian_matches_nested_differences(K):
    rng = np.random.default_rng(500 + K)
    for _ in range(5):
        model, total = _model(rng, K, int(rng.integers(2, 6)), False)
        cost = CostFunction("exact", model)
        y = rng.uniform(0.2, 2.0, K) * total / K
        x = np.concatenate([y, rng.uniform(0.5, 1.5, cost.nparams - K)])
        if math.isfinite(cost(x)):
            H, H_fd = _check_exact(cost, x)
            assert H.shape == (cost.nparams, cost.nparams)
            assert np.max(np.abs(H - H_fd)) <= 1e-8 * np.max(np.abs(H))


def test_exact_hessian_where_bins_lose_their_expectation():
    # a zero second yield leaves bins 4, 7, 10 and 11 without expectation
    # (and without data); the Hessian over the other parameters is that
    # along the face y1 = 0
    cost = CostFunction("exact", SPARSE)
    x = np.concatenate([[25.0, 0.0], np.linspace(0.7, 1.3, cost.nparams - 2)])
    assert math.isfinite(cost(x))
    rest = np.delete(np.arange(cost.nparams), 1)
    H, H_fd = _check_exact(cost, x[rest], lambda z: np.insert(z, 1, 0.0))
    assert np.isfinite(H).all()
    H = H[np.ix_(rest, rest)]
    assert np.max(np.abs(H - H_fd)) <= 1e-8 * np.max(np.abs(H))


def test_exact_hessian_is_nan_where_the_cost_is_infinite():
    # data in bin 0, whose only template belongs to the zero first yield
    model = TemplateModel(
        edges=np.arange(3.0),
        data=BinnedSample.from_counts([5, 7]),
        components=(BinnedSample.from_counts([3, 0]), BinnedSample.from_counts([0, 4])),
    )
    cost = CostFunction("exact", model)
    x = np.array([0.0, 10.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = cost.hessian(x)
    assert cost(x) == math.inf
    assert H.shape == (4, 4) and np.isnan(H).all()


@pytest.mark.parametrize("index, bad", [(0, -1.0), (0, math.nan), (1, math.inf), (2, 0.0), (3, -0.5)])
def test_exact_hessian_outside_the_domain_raises(index, bad):
    cost = CostFunction("exact", SPARSE)
    x = np.ones(cost.nparams)
    x[index] = bad
    with pytest.raises(ValueError, match="domain"):
        cost.hessian(x)
