"""Stacked cost evaluation: many parameter vectors of one fit in one call on its stack.

A cost function's one-row stack evaluates an ``(m, nparams)`` array of
parameter vectors at once.  Every value must equal, bit for bit, the cost
function's call on that vector alone, whatever the other rows hold:
out-of-domain rows, dead Conway bins or more rows than one stencil chunk.
The finite-difference gradient stencils of exact fits rely on this to
keep every fit bit-identical, so fits keep their frozen evaluation counts
and stacked calls stay under the element cap that bounds their
temporaries.  The cost function itself takes one vector only.
"""

import math
import warnings

import numpy as np
import pytest

import templatefit as tf
from templatefit import BinnedSample, CostFunction, CostStack, TemplateModel, fit
from templatefit.minimize import _GRAD_STEP, _STACK_ELEMENTS, _rows_per_call, _Stacked


def _model(data, comps, data_w2=None, comp_w2=None):
    d = BinnedSample.from_counts(data) if data_w2 is None else BinnedSample(data, data_w2)
    cs = tuple(
        BinnedSample.from_counts(c) if comp_w2 is None else BinnedSample(c, comp_w2[i])
        for i, c in enumerate(comps)
    )
    return TemplateModel(edges=np.arange(d.nbins + 1.0), data=d, components=cs)


# component 0 fills bins 0-2, component 1 bins 2-6; bin 7 has no template
# content.  A zero second yield leaves bins 3-6 dead for Conway's factor,
# and bin 3 holds data there.
PLAIN = _model(
    [8, 15, 6, 2, 0, 4, 11, 3],
    [[5, 10, 2, 0, 0, 0, 0, 0], [0, 0, 4, 7, 3, 9, 12, 0]],
)
WEIGHTED = _model(
    [8.5, 15.0, 6.25, 2.0, 0.0, 4.5, 11.0, 3.0],
    [[5.5, 10.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 4.0, 7.5, 3.0, 9.0, 12.5, 0.0]],
    data_w2=[10.25, 16.0, 8.0, 2.5, 0.0, 6.0, 13.0, 4.0],
    comp_w2=[
        [7.25, 12.5, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 5.0, 9.75, 3.0, 11.5, 15.0, 0.0],
    ],
)

COSTS = [
    ("approx", False),
    ("approx", True),
    ("conway", False),
    ("conway", True),
    ("exact", False),
]


def _cost(method, weighted):
    return CostFunction(method, WEIGHTED if weighted else PLAIN, weighted=weighted)


def _rows(cost, m, seed):
    """``m`` parameter vectors: inside the domain, dead Conway bins, and rejected rows."""
    rng = np.random.default_rng(seed)
    K = cost.model.ncomponents
    X = np.empty((m, cost.nparams))
    X[:, :K] = rng.uniform(5.0, 60.0, (m, K))
    X[:, K:] = rng.uniform(0.4, 1.8, (m, cost.nparams - K))
    kind = np.arange(m) % 7
    X[kind == 1, 1] = 0.0  # dead Conway bins, one of them with data
    X[kind == 2, 0] = -3.0
    X[kind == 3, 1] = np.nan
    X[kind == 4, 0] = np.inf
    if cost.method is tf.Method.EXACT:
        X[kind == 5, K] = 0.0
        X[kind == 6, -1] = -0.5
    return X


def _hex(values):
    return [float.hex(float(v)) for v in values]


def _values(cost, X):
    """The values of the cost's one-row stack at the rows of ``X``."""
    return cost._stack.value_and_gradient(X)[0]


@pytest.mark.parametrize("method,weighted", COSTS)
@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_stacked_rows_match_single_calls(method, weighted, m):
    cost = _cost(method, weighted)
    X = _rows(cost, m, seed=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _values(cost, X)
        single = [cost(x) for x in X]
    assert isinstance(stacked, np.ndarray) and stacked.shape == (m,)
    assert _hex(stacked) == _hex(single)


@pytest.mark.parametrize("method,weighted", COSTS)
def test_multi_chunk_stack_matches_single_calls(method, weighted):
    cost = _cost(method, weighted)
    rows = _rows_per_call(cost.model.ncomponents * cost.nbins_active)
    X = _rows(cost, 3 * rows + 5, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = _values(cost, X)
        chunked = np.concatenate([_values(cost, X[i : i + rows]) for i in range(0, len(X), rows)])
        single = [cost(x) for x in X]
    assert _hex(chunked) == _hex(single)
    assert _hex(whole) == _hex(single)


@pytest.mark.parametrize("method,weighted", COSTS)
def test_every_row_kind_is_covered(method, weighted):
    # the rows above must hit the domain check and, for Conway, both the
    # all-live path and the dead-bin path
    cost = _cost(method, weighted)
    values = _values(cost, _rows(cost, 7, seed=3))
    assert np.isinf(values[2:5]).all()
    assert np.isfinite(values[0])
    if method == "conway":
        assert values[1] == math.inf  # dead bin 3 holds data
        alive = _rows(cost, 1, seed=3)
        assert math.isfinite(_values(cost, alive)[0])


def test_vector_gives_float_and_stack_gives_array():
    cost = _cost("approx", False)
    x = np.array([20.0, 30.0])
    assert type(cost(x)) is float
    assert type(cost(x.tolist())) is float
    out = _values(cost, x[None, :])
    assert out.shape == (1,) and float.hex(float(out[0])) == float.hex(cost(x))


def test_stack_of_wrong_width_raises():
    cost = _cost("approx", False)
    with pytest.raises(ValueError):
        cost(np.ones((3, 3)))
    with pytest.raises(ValueError):
        cost(np.ones((2, 2, 2)))


@pytest.mark.parametrize("method", ["approx", "exact"])
def test_a_stack_of_vectors_raises(method):
    # the cost function takes one parameter vector; a stack of them is its
    # stack's business
    cost = _cost(method, False)
    for m in (1, 3):
        with pytest.raises(ValueError, match="parameters"):
            cost(np.ones((m, cost.nparams)))


def _reference_gradient(cost, x, f0):
    """The stencil gradient at ``x`` from single calls, a point and a quotient at a time."""
    lower = cost.lower_bounds
    g = []
    for i in range(x.size):
        h = _GRAD_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] = x[i] + h
        h = xp[i] - x[i]
        fp = cost(xp)
        if x[i] - h >= lower[i]:
            xm = x.copy()
            xm[i] = x[i] - h
            g.append((fp - cost(xm)) / (2.0 * h))
        else:
            g.append((fp - f0) / h)
    return g


def test_exact_stencil_matches_single_calls():
    # a 100-bin stencil spans several calls; an amplitude factor on its
    # bound takes a one-sided quotient, and every point counts as one
    # evaluation
    cfg = tf.ToyConfig(seed=4, nbins=100, n_mc=100)
    cost = CostFunction("exact", tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0))))
    x = tf.default_start(cost)
    x[cost.model.ncomponents] = cost.lower_bounds[-1]
    f0 = cost(x)
    assert math.isfinite(f0)
    f = _Stacked(cost._stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = f.gradients(x[None], np.array([f0]), np.array([True]))
        expected = _reference_gradient(cost, x, f0)
    assert _hex(g[0]) == _hex(expected)
    assert f.calls == 2 * cost.nparams - 1  # one-sided in the factor on its bound
    assert f.calls > _rows_per_call(cost.model.ncomponents * cost.nbins_active)
    # no stencil where no point is taken
    assert np.isnan(f.gradients(x[None], np.array([f0]), np.array([False]))).all()


# every bin filled by both components, so a yield of 0 keeps the cost finite
OVERLAP = _model([12, 30, 7, 19], [[9, 20, 1, 4], [2, 6, 3, 11]])


@pytest.mark.parametrize("on_bound", [None, 0, 1])
def test_exact_stencil_branches(on_bound, monkeypatch):
    # a stencil that fits one call: every lower point taken, or a yield on
    # its bound of 0, whose quotient is one-sided
    cost = CostFunction("exact", OVERLAP)
    x = tf.default_start(cost)
    if on_bound is not None:
        x[on_bound] = 0.0
    f0 = cost(x)
    assert math.isfinite(f0)
    stacked = []
    evaluate = CostStack.value_and_gradient

    def counting(stack, y):
        stacked.append(len(y))
        return evaluate(stack, y)

    monkeypatch.setattr(CostStack, "value_and_gradient", counting)
    f = _Stacked(cost._stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = f.gradients(x[None], np.array([f0]), np.array([True]))
        expected = _reference_gradient(cost, x, f0)
    assert _hex(g[0]) == _hex(expected)
    assert f.calls == 2 * cost.nparams - (on_bound is not None)
    assert stacked == [f.calls]


def test_fit_evaluation_counts_frozen():
    # exact gradient stencils count one evaluation per row; approx and
    # conway count one per value-and-gradient pass; every method counts one
    # per Hessian
    cfg = tf.ToyConfig(seed=4)
    model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
    counts = {m: fit(model, m).n_evaluations for m in ("approx", "conway", "exact")}
    assert counts == {"approx": 9, "conway": 11, "exact": 1338}


def test_stacked_calls_stay_under_the_element_cap(monkeypatch):
    elements = []
    evaluate = CostStack.value_and_gradient

    def sizing(stack, y):
        elements.append(len(y) * stack.ncomponents * int(stack.nbins_active.max()))
        return evaluate(stack, y)

    monkeypatch.setattr(CostStack, "value_and_gradient", sizing)
    cfg = tf.ToyConfig(seed=4, nbins=100, n_mc=100)
    model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
    cost = CostFunction("exact", model)
    res = tf.minimize(cost)
    assert res.converged and cost.model.nbins == 100
    assert max(elements) > _STACK_ELEMENTS // 2  # a stencil fills a chunk
    assert max(elements) <= _STACK_ELEMENTS
