"""Minimizer oracles (grid, golden section), covariance checks, goodness of fit."""

import math

import numpy as np
import pytest

import templatefit as tf
from templatefit import (
    BinnedSample,
    CostFunction,
    Method,
    TemplateModel,
    default_start,
    fit,
    gof,
    hesse,
    minimize,
)


def make_model(data, comps, names=()):
    d = BinnedSample.from_counts(data)
    cs = tuple(BinnedSample.from_counts(c) for c in comps)
    return TemplateModel(
        edges=np.arange(d.nbins + 1, dtype=float), data=d, components=cs, names=names
    )


def golden_section(f, lo, hi, tol=1e-11):
    """Independent 1-d minimizer used as oracle."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestMinimize:
    def test_saturated_start_is_fixed_point(self):
        # data equals the model expectation at the default start
        m = make_model([40, 40, 20], [[40, 40, 20]])
        cost = CostFunction(Method.APPROX, m)
        res = minimize(cost)
        assert res.qmin == pytest.approx(0.0, abs=1e-12)
        assert res.yields[0] == pytest.approx(100.0, rel=1e-12)
        assert res.converged

    def test_k1_matches_golden_section(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = rng.poisson(35, 8)
            a = rng.poisson(10, 8) + 1
            m = make_model(n, [a])
            cost = CostFunction(Method.APPROX, m)
            res = minimize(cost)
            oracle = golden_section(lambda y: cost(np.array([y])), 1.0, 3.0 * n.sum())
            assert res.yields[0] == pytest.approx(oracle, rel=1e-4)

    def test_grid_oracle_two_components(self):
        # each component dominates its own bin, so the grid is informative
        rng = np.random.default_rng(11)
        for _ in range(3):
            truth = rng.uniform(150.0, 350.0, size=2)
            comps = np.array([[50.0, 2.0, 5.0], [3.0, 60.0, 9.0]])
            frac = comps / comps.sum(axis=1, keepdims=True)
            data = truth @ frac
            m = make_model(np.round(data), list(comps))
            cost = CostFunction(Method.APPROX, m)
            res = minimize(cost)
            step = 0.001 * truth
            best = (np.inf, None)
            for i in range(-40, 41):
                for j in range(-40, 41):
                    y = np.array(
                        [res.yields[0] + i * step[0], res.yields[1] + j * step[1]]
                    )
                    if np.any(y < 0):
                        continue
                    q = cost(y)
                    if q < best[0]:
                        best = (q, y)
            np.testing.assert_allclose(res.yields, best[1], atol=step.max())

    def test_toy_fit_contains_truth_at_five_sigma(self):
        cfg = tf.ToyConfig(seed=1)
        toy = tf.draw(cfg, tf.rng_stream(1, 0))
        model = tf.to_model(cfg, toy)
        res = fit(model, "approx")
        assert res.converged
        for est, err, truth in zip(res.yields, res.yield_errors, (250.0, 750.0)):
            assert abs(est - truth) < 5.0 * err

    def test_budget_exhaustion_returns_best_so_far(self):
        m = make_model([40, 10, 20], [[10, 30, 20], [5, 5, 5]])
        cost = CostFunction(Method.APPROX, m)
        res = minimize(cost, max_calls=12)
        assert not res.converged
        assert math.isfinite(res.qmin)
        assert res.n_evaluations >= 12

    def test_infinite_start_rejected(self):
        m = make_model([40, 10], [[10, 30]])
        cost = CostFunction(Method.APPROX, m)
        with pytest.raises(ValueError, match="finite"):
            minimize(cost, start=[0.0])  # data in bins with zero expectation

    def test_start_outside_bounds_rejected(self):
        m = make_model([40, 10], [[10, 30]])
        cost = CostFunction(Method.APPROX, m)
        with pytest.raises(ValueError, match="bounds"):
            minimize(cost, start=[-5.0])

    def test_component_permutation_permutes_yields(self):
        # separated shapes give an interior minimum; the swap must mirror
        # every floating-point operation, so the equality is exact
        rng = np.random.default_rng(12)
        n = rng.poisson(30, 8)
        c1 = np.concatenate([rng.poisson(9, 4) + 1, rng.poisson(1, 4)])
        c2 = np.concatenate([rng.poisson(1, 4), rng.poisson(7, 4) + 1])
        res = minimize(CostFunction(Method.APPROX, make_model(n, [c1, c2])))
        swapped = minimize(CostFunction(Method.APPROX, make_model(n, [c2, c1])))
        assert res.converged and swapped.converged
        np.testing.assert_array_equal(res.yields, swapped.yields[::-1])

    def test_exact_fit_converges_and_betas_near_one(self):
        cfg = tf.ToyConfig(seed=3, n_mc=10000)
        toy = tf.draw(cfg, tf.rng_stream(3, 0))
        model = tf.to_model(cfg, toy)
        res = fit(model, "exact")
        assert res.converged
        finite = res.betas.beta[np.isfinite(res.betas.beta)]
        assert np.all(np.abs(finite - 1.0) < 0.2)


class TestDefaultStart:
    def test_equal_split(self):
        m = make_model([400, 600], [[1, 1], [2, 2]])
        cost = CostFunction(Method.APPROX, m)
        np.testing.assert_allclose(default_start(cost), [500.0, 500.0])

    def test_k1_total(self):
        m = make_model([400, 600], [[1, 1]])
        cost = CostFunction(Method.APPROX, m)
        np.testing.assert_allclose(default_start(cost), [1000.0])

    def test_exact_appends_unit_factors(self):
        data = np.full(15, 10.0)
        comps = [np.full(15, 2.0), np.full(15, 3.0)]
        cost = CostFunction(Method.EXACT, make_model(data, comps))
        start = default_start(cost)
        assert start.shape == (32,)
        np.testing.assert_allclose(start[:2], [75.0, 75.0])
        np.testing.assert_array_equal(start[2:], np.ones(30))


class TestHesse:
    def test_quadratic_cost(self):
        class _Quad:
            nparams = 1

            class model:
                ncomponents = 1

            def __call__(self, x):
                return (x[0] - 3.0) ** 2 / 7.0

        cov = hesse(_Quad(), np.array([3.0]))
        assert cov[0, 0] == pytest.approx(7.0, rel=1e-6)

    def test_pure_poisson_single_bin_variance(self):
        # huge template removes the simulation uncertainty; var(y) ~ n
        m = make_model([100], [[10**9]])
        cost = CostFunction(Method.APPROX, m)
        cov = hesse(cost, np.array([100.0]))
        assert cov[0, 0] == pytest.approx(100.0, rel=0.01)

    def test_symmetric_output(self):
        cfg = tf.ToyConfig(seed=4)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
        cost = CostFunction(Method.APPROX, model)
        res = minimize(cost)
        np.testing.assert_array_equal(res.covariance, res.covariance.T)

    def test_fit_covariance_is_hesse_at_minimum(self):
        # the fit reuses the cost at its minimum instead of evaluating it again
        class _Recording(CostFunction):
            def __init__(self, *args):
                super().__init__(*args)
                self.points = []

            def __call__(self, params):
                # a stencil stacks its points into one call; record each row
                rows = np.atleast_2d(params)
                self.points.extend(tuple(row) for row in rows)
                return super().__call__(params)

        cfg = tf.ToyConfig(seed=4)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
        cost = _Recording(Method.APPROX, model)
        res = minimize(cost)
        assert res.n_evaluations == len(cost.points)
        assert cost.points.count(tuple(res.yields)) == 1
        cov = hesse(cost, res.yields)
        np.testing.assert_array_equal(res.covariance, cov)
        assert cov.flags.c_contiguous

    def test_not_positive_definite_returns_none(self):
        class _Saddle:
            nparams = 2

            class model:
                ncomponents = 2

            def __call__(self, x):
                return x[0] ** 2 - x[1] ** 2

        assert hesse(_Saddle(), np.zeros(2)) is None

    def test_exact_variance_close_to_approx_at_large_templates(self):
        cfg = tf.ToyConfig(seed=5, n_mc=10000)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(5, 0)))
        ra = fit(model, "approx")
        re = fit(model, "exact")
        assert ra.converged and re.converged
        assert re.covariance[0, 0] == pytest.approx(ra.covariance[0, 0], rel=0.10)

    def test_covariance_scale_extended_ml(self):
        # frozen shapes, data at expectation, large templates: the yield
        # covariance must match the analytic extended-ML covariance
        f1 = np.array([0.5, 0.3, 0.15, 0.05])
        f2 = np.array([0.1, 0.2, 0.3, 0.4])
        truth = np.array([400.0, 600.0])
        data = truth[0] * f1 + truth[1] * f2
        m = make_model(data, [f1 * 1e7, f2 * 1e7])
        res = fit(m, "approx")
        assert res.converged
        # independent arithmetic: Fisher matrix of the Poisson model
        info = np.zeros((2, 2))
        for b in range(4):
            mu = truth[0] * f1[b] + truth[1] * f2[b]
            grad = np.array([f1[b], f2[b]])
            info += np.outer(grad, grad) / mu
        analytic = np.linalg.inv(info)
        np.testing.assert_allclose(res.covariance, analytic, rtol=0.02)


class TestGof:
    def test_saturated(self):
        m = make_model([40, 40, 20], [[40, 40, 20]])
        res = minimize(CostFunction(Method.APPROX, m))
        assert gof(res) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_value(self):
        res = tf.FitResult(
            yields=np.array([1.0]),
            yield_errors=np.array([1.0]),
            covariance=np.eye(1),
            qmin=13.0,
            ndof=13,
            converged=True,
            n_evaluations=1,
            betas=tf.BetaDiagnostics(beta=np.ones(1), contributions=np.zeros(1)),
        )
        assert gof(res) == pytest.approx(0.4478116743194914, rel=1e-12)

    def test_limits(self):
        base = dict(
            yields=np.array([1.0]),
            yield_errors=np.array([1.0]),
            covariance=np.eye(1),
            converged=True,
            n_evaluations=1,
            betas=tf.BetaDiagnostics(beta=np.ones(1), contributions=np.zeros(1)),
        )
        assert gof(tf.FitResult(qmin=1e9, ndof=13, **base)) == pytest.approx(0.0, abs=1e-30)

    def test_nonpositive_ndof_raises(self):
        base = dict(
            yields=np.array([1.0]),
            yield_errors=np.array([1.0]),
            covariance=np.eye(1),
            converged=True,
            n_evaluations=1,
            betas=tf.BetaDiagnostics(beta=np.ones(1), contributions=np.zeros(1)),
        )
        with pytest.raises(ValueError, match="ndof"):
            gof(tf.FitResult(qmin=1.0, ndof=0, **base))
