"""Stacked cost evaluation: one call on an ``(m, nparams)`` matrix.

Every value of a stacked call must equal, bit for bit, the call on its row
alone, whatever the other rows hold: out-of-domain rows, dead Conway bins
or more rows than one stencil chunk.  The finite-difference stencils of
the minimizer rely on this to keep every fit bit-identical, so fits keep
their frozen evaluation counts and stacked calls stay under the element
cap that bounds their temporaries.
"""

import math
import warnings

import numpy as np
import pytest

import templatefit as tf
from templatefit import BinnedSample, CostFunction, TemplateModel, fit
from templatefit.minimize import _STACK_ELEMENTS, _Counted


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


@pytest.mark.parametrize("method,weighted", COSTS)
@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_stacked_rows_match_single_calls(method, weighted, m):
    cost = _cost(method, weighted)
    X = _rows(cost, m, seed=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = cost(X)
        single = [cost(x) for x in X]
    assert isinstance(stacked, np.ndarray) and stacked.shape == (m,)
    assert _hex(stacked) == _hex(single)


@pytest.mark.parametrize("method,weighted", COSTS)
def test_multi_chunk_stack_matches_single_calls(method, weighted):
    cost = _cost(method, weighted)
    f = _Counted(cost)
    X = _rows(cost, 3 * f.rows + 5, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chunked = f.stack(X)
        whole = cost(X)
        single = [cost(x) for x in X]
    assert f.calls == len(X)
    assert _hex(chunked) == _hex(single)
    assert _hex(whole) == _hex(single)


@pytest.mark.parametrize("method,weighted", COSTS)
def test_every_row_kind_is_covered(method, weighted):
    # the rows above must hit the domain check and, for Conway, both the
    # all-live path and the dead-bin path
    cost = _cost(method, weighted)
    values = cost(_rows(cost, 7, seed=3))
    assert np.isinf(values[2:5]).all()
    assert np.isfinite(values[0])
    if method == "conway":
        assert values[1] == math.inf  # dead bin 3 holds data
        alive = _rows(cost, 1, seed=3)
        assert math.isfinite(cost(alive)[0])


def test_vector_gives_float_and_stack_gives_array():
    cost = _cost("approx", False)
    x = np.array([20.0, 30.0])
    assert type(cost(x)) is float
    assert type(cost(x.tolist())) is float
    out = cost(x[None, :])
    assert out.shape == (1,) and float.hex(float(out[0])) == float.hex(cost(x))


def test_stack_of_wrong_width_raises():
    cost = _cost("approx", False)
    with pytest.raises(ValueError):
        cost(np.ones((3, 3)))
    with pytest.raises(ValueError):
        cost(np.ones((2, 2, 2)))


def test_fit_evaluation_counts_frozen():
    # stencils count one evaluation per row; values recorded before the
    # stencils were stacked
    cfg = tf.ToyConfig(seed=4)
    model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
    counts = {m: fit(model, m).n_evaluations for m in ("approx", "conway", "exact")}
    assert counts == {"approx": 64, "conway": 127, "exact": 3780}


def test_stacked_calls_stay_under_the_element_cap():
    class _Sizes(CostFunction):
        def __init__(self, *args):
            super().__init__(*args)
            self.elements = []

        def __call__(self, params):
            p = np.asarray(params)
            if p.ndim == 2:
                self.elements.append(len(p) * self.model.ncomponents * self.nbins_active)
            return super().__call__(params)

    cfg = tf.ToyConfig(seed=4, nbins=100, n_mc=100)
    model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
    cost = _Sizes("exact", model)
    res = tf.minimize(cost)
    assert res.converged and cost.model.nbins == 100
    assert len(cost.elements) > 100
    assert max(cost.elements) <= _STACK_ELEMENTS
