"""Minimizer oracles (grid, golden section), covariance checks, goodness of fit."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import templatefit as tf
from templatefit import (
    BinnedSample,
    CostFunction,
    CostStack,
    Method,
    TemplateModel,
    default_start,
    fit,
    gof,
    hesse,
    minimize,
)
from templatefit.likelihood import _PerBin
from templatefit.minimize import _Rows as _LoopState
from templatefit.minimize import (
    _bfgs,
    _covariances,
    _descend,
    _direction,
    _directions,
    _initial_inverse_diag,
    _succeeds,
)


def make_model(data, comps, names=()):
    d = BinnedSample.from_counts(data)
    cs = tuple(BinnedSample.from_counts(c) for c in comps)
    return TemplateModel(
        edges=np.arange(d.nbins + 1, dtype=float), data=d, components=cs, names=names
    )


def _toy4():
    cfg = tf.ToyConfig(seed=4)
    return tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))


def _bits(value) -> bytes:
    a = np.asarray(value)
    return repr(a.shape).encode() + a.tobytes()


def _same_end(res, cost) -> bool:
    """The covariance and betas of a fit equal ``hesse`` and ``diagnostics`` at its end, bit for bit."""
    diag = cost.diagnostics(res.yields)
    return (_bits(res.covariance), _bits(res.betas.beta), _bits(res.betas.contributions)) == (
        _bits(hesse(cost, res.yields)), _bits(diag.beta), _bits(diag.contributions)
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

    def test_approx_takes_a_step_before_it_converges(self):
        # nearly collinear templates leave the gradient at the default start
        # below gtol; when no step yet counted as a cost decrease below 1e-6,
        # this fit ended converged after 0 iterations at qmin 559.2852
        model = make_model([15914, 14787, 6793], [[14460, 15518, 4396], [8271, 7870, 2276]])
        cost = CostFunction(Method.APPROX, model)
        res = minimize(cost)
        assert res.converged and res.n_iterations > 0
        ref = scaled_scipy_minimum(cost)
        assert res.qmin <= ref + 1e-5 + 1e-9 * abs(ref)
        assert res.qmin == pytest.approx(559.21151, abs=1e-5)

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
        assert minimize(cost).n_evaluations > 5
        res = minimize(cost, max_calls=5)
        assert not res.converged and res.status == "budget"
        assert math.isfinite(res.qmin)
        assert res.n_evaluations >= 5

    @pytest.mark.parametrize("method", ["approx", "exact"])
    def test_nonfinite_start_rejected_before_any_evaluation(self, method, monkeypatch):
        # exact evaluates through the cost's own call, approx on a one-row CostStack
        class _Counting(CostFunction):
            calls = 0

            def __call__(self, params):
                self.calls += 1
                return super().__call__(params)

        stack_calls = []
        for name in ("value_and_gradient", "hessian"):
            evaluate = getattr(CostStack, name)
            monkeypatch.setattr(
                CostStack, name, lambda st, y, f=evaluate: stack_calls.append(y) or f(st, y)
            )
        cost = _Counting(method, make_model([40, 10], [[10, 30], [5, 5]]))
        if method == "approx":  # the counters see a fit's evaluations
            minimize(cost)
            assert stack_calls and cost.calls == 0
            stack_calls.clear()
        for bad in (math.inf, math.nan):
            start = default_start(cost)
            start[0] = bad
            with pytest.raises(ValueError, match="finite"):
                minimize(cost, start=start)
        assert cost.calls == 0 and not stack_calls

    @pytest.mark.parametrize("gtol", [0.0, -1.0, math.nan])
    def test_nonpositive_gtol_rejected(self, gtol):
        cost = CostFunction(Method.APPROX, make_model([40, 10], [[10, 30]]))
        with pytest.raises(ValueError, match="gtol"):
            minimize(cost, gtol=gtol)

    @pytest.mark.parametrize("max_calls", [0, -3])
    def test_budget_below_one_rejected(self, max_calls):
        cost = CostFunction(Method.APPROX, make_model([40, 10], [[10, 30]]))
        with pytest.raises(ValueError, match="max_calls"):
            minimize(cost, max_calls=max_calls)

    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_minimum_on_a_bound_has_no_covariance(self, method):
        if method == "approx":
            # the second component is absent from the data
            model = make_model([200, 0], [[50, 0], [0, 50]])
        else:
            # a small-template toy whose Conway signal yield pins at zero
            cfg = tf.ToyConfig(seed=101_000_000, n_mc=50)
            model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(cfg.seed, 2)))
        cost = CostFunction(method, model)
        res = minimize(cost)
        assert 0.0 in res.yields
        assert res.status == "on_bound" and not res.converged
        assert res.covariance is None and res.yield_errors is None
        assert hesse(cost, res.yields) is None
        if method == "conway":
            # the Hessian there is positive definite: the bound alone voids the covariance
            assert np.all(np.linalg.eigvalsh(cost.hessian(res.yields)) > 0.0)

    @pytest.mark.parametrize("method", ["approx", "conway", "exact"])
    def test_bound_next_to_the_minimum_does_not_stall(self, method):
        # the second yield's bound is active at the minimum, and an unclipped
        # quasi-Newton step points through it; only free parameters may move
        model = make_model([200, 0], [[50, 10], [0, 50]])
        cost = CostFunction(method, model)
        res = minimize(cost)
        ref = scipy_minimize(
            cost,
            default_start(cost),
            method="L-BFGS-B",
            bounds=[(lo, None) for lo in cost.lower_bounds],
            options=dict(ftol=1e-15, gtol=1e-12, maxiter=10_000),
        )
        assert res.status == "on_bound" and res.yields[1] == 0.0
        assert res.qmin <= ref.fun + 1e-6
        assert res.yields[0] == pytest.approx(ref.x[0], rel=1e-4)

    def test_conway_plateau_without_data_reaches_the_bound(self):
        # the second bin holds no data, so once V mu0 >= 1 Conway's factor
        # sits at 0 and the cost is flat in the second yield; from the equal
        # split the fit stopped on that plateau, hessian_not_pd at (200, 100)
        # with qmin 50, while the cost at (200, 0) is 0
        res = fit(make_model([200, 0], [[50, 0], [0, 50]]), "conway")
        assert res.status == "on_bound"
        assert res.yields.tolist() == [200.0, 0.0]
        assert res.qmin < 1e-9

    def test_conway_tiny_templates_reach_the_bound_minimum(self):
        # from the equal split this fit stalled at (0, 1.930), qmin 0.0017;
        # scipy L-BFGS-B reaches (0, 2) with qmin ~ 2e-15
        res = fit(make_model([2, 0], [[4, 2], [4, 0]]), "conway")
        assert res.status == "on_bound"
        assert res.yields[0] < 1e-9
        assert res.yields[1] == pytest.approx(2.0, rel=1e-6)
        assert res.qmin < 1e-9

    def test_singular_held_block_of_the_curvature_model(self, monkeypatch):
        # BFGS roundoff zeroes the inverse curvature of the signal yield while
        # it is held on its bound (a model found by a seeded fuzz over small
        # models); the step is then zero, which resets the curvature, instead
        # of a solve with the singular block
        blocks = []

        def spying(hinv, g, held):
            blocks.append(hinv[np.ix_(held, held)])
            return _direction(hinv, g, held)

        monkeypatch.setitem(_direction.__globals__, "_direction", spying)
        model = make_model(
            [4, 2, 0, 1, 1, 5, 5, 0], [[3, 2, 3, 0, 1, 1, 4, 5], [2, 5, 1, 4, 1, 4, 1, 0]]
        )
        cost = CostFunction(Method.CONWAY, model)
        res = minimize(cost)
        assert any(not _succeeds(np.linalg.inv, b) for b in blocks)
        ref = scipy_minimize(cost, default_start(cost), method="L-BFGS-B", bounds=[(0.0, None)] * 2)
        assert res.status == "on_bound" and res.yields[0] < 1e-9
        assert res.qmin <= ref.fun + 1e-6

    def test_no_step_where_the_held_block_is_singular(self):
        # the held parameter's inverse curvature is zero: no Schur complement
        hinv = np.array([[0.0, 0.0], [0.0, 1.0]])
        p = _direction(hinv, np.array([1.0, -2.0]), np.array([True, False]))
        np.testing.assert_array_equal(p, np.zeros(2))
        np.testing.assert_array_equal(
            _direction(hinv + np.eye(2), np.array([1.0, -2.0]), np.array([True, False])),
            [0.0, 4.0],
        )

    def test_indefinite_hessian_at_the_minimum(self, monkeypatch):
        # a profiled fit takes its Hessians from a one-row CostStack
        hessian = CostStack.hessian
        monkeypatch.setattr(CostStack, "hessian", lambda stack, y: -hessian(stack, y))
        cfg = tf.ToyConfig(seed=4)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
        res = minimize(CostFunction(Method.APPROX, model))
        assert res.status == "hessian_not_pd" and not res.converged
        assert res.covariance is None and math.isfinite(res.qmin)

    @pytest.mark.parametrize(
        "data,comps",
        [
            # the Cholesky factorization passes, the inversion finds the matrix singular
            ([58, 53], [[18, 11], [22, 28], [7, 3]]),
            # both pass, and a yield variance comes out negative
            ([14, 22], [[17, 18], [17, 23], [8, 16]]),
        ],
    )
    @pytest.mark.parametrize("method", ["approx", "conway", "exact"])
    def test_hessian_singular_in_floating_point(self, data, comps, method):
        # three yields from two bins (ndof = -1): the Hessian at the minimum is singular
        model = make_model(data, comps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(model, method)
        assert res.status == "hessian_not_pd" and not res.converged
        assert res.covariance is None and res.yield_errors is None
        assert res.qmin < 1e-6

    def test_tight_tolerance_converges_wherever_the_default_does(self):
        # closed-form gradients carry no finite-difference noise floor
        cfg = tf.ToyConfig(seed=7, n_mc=50)
        loose = tight = 0
        for i in range(300):
            model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(7, i)))
            a = fit(model, "approx")
            b = fit(model, "approx", gtol=1e-8)
            assert b.converged or not a.converged, i
            loose += a.converged
            tight += b.converged
        assert loose == tight == 300

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

    def test_start_of_the_wrong_length_rejected(self):
        m = make_model([40, 10], [[10, 30], [30, 10]])
        with pytest.raises(ValueError, match="2 entries"):
            minimize(CostFunction(Method.APPROX, m), start=[20.0, 20.0, 10.0])

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


class _Rows:
    """A batch of closed-form rows for the lockstep loop, each ``x -> (value, gradient)``."""

    def __init__(self, *rows):
        self.rows, self.calls = list(rows), 0

    def start(self, x, lower):
        fx, g = self.trial(x)
        return fx, g, np.ones_like(x)

    def trial(self, x):
        self.calls += 1
        ends = [row(xi) for row, xi in zip(self.rows, x)]
        return np.array([v for v, _ in ends]), np.array([g for _, g in ends])

    def keep(self, rows):
        self.rows = [self.rows[i] for i in rows]


def _slope(x):
    # descends for ever: every trial is taken, no fit converges
    return -x.sum(), -np.ones_like(x)


def _wall(x):
    # its gradient points up the wall: every trial is rejected
    return 1e9 * np.abs(x - 1.0).sum(), -np.ones_like(x)


class TestLockstepLoop:
    def test_a_row_fails_its_line_search_while_another_searches(self):
        # the wall row rejects its 50 trials in calls 2 to 51 while the slope
        # row goes on stepping; it then restarts, and after 50 more rejected
        # trials it stalls
        ends = _descend(_Rows(_slope, _wall), np.ones((2, 2)), np.full(2, -np.inf), 1e-4, 200)
        assert [end[2:] for end in ends] == [("budget", 200, 199, False), ("stalled", 102, 0, True)]
        np.testing.assert_array_equal(ends[1][0], [1.0, 1.0])  # its best point, the start

    def test_a_row_stops_in_the_round_after_another_failed(self):
        # the slope row meets its budget at the call after which the wall row
        # failed; the wall row then takes its restart point and meets it too
        ends = _descend(_Rows(_slope, _wall), np.ones((2, 2)), np.full(2, -np.inf), 1e-4, 51)
        assert [end[2:] for end in ends] == [("budget", 51, 50, False), ("budget", 52, 0, True)]

    def test_rows_that_stop_in_one_round_end_as_each_alone(self, monkeypatch):
        # at call 52 the wall rows have taken their restart points, which are
        # worse than their starts, and the slope rows their last steps: every
        # row meets the budget in that round, the wall rows at their best point
        rows = (_slope, _wall, _wall, _slope, _wall)
        x = np.array([[1.0, 1.0], [1.5, 1.0], [1.0, 1.0], [2.0, -3.0], [3.0, 2.0]])
        lower = np.full(2, -np.inf)
        stops = []
        stop = _LoopState.stop

        def spying(self, status, calls, out):
            ends = status.nonzero()[0]
            stops.append((len(ends), int(np.count_nonzero(self.fx[ends] > self.best_f[ends]))))
            return stop(self, status, calls, out)

        monkeypatch.setattr(_LoopState, "stop", spying)
        ends = _descend(_Rows(*rows), x, lower, 1e-4, 52)
        assert stops == [(5, 3)]
        assert [end[2:4] for end in ends] == [("budget", 52)] * 5
        for row, start, end in zip(rows, x, ends):
            (alone,) = _descend(_Rows(row), start[None], lower, 1e-4, 52)
            assert end[0].tobytes() == alone[0].tobytes()
            assert float.hex(end[1]) == float.hex(alone[1]) and end[2:] == alone[2:]
            if row is _wall:  # its best point: the start
                assert end[0].tobytes() == start.tobytes() and end[1] == _wall(start)[0]


def _bfgs_reference(h, s, y):
    """The BFGS update of one row's inverse curvature, from 1-D products; ``h`` itself
    without positive curvature along the step."""
    sy = s @ y
    if not sy > 1e-10 * np.sqrt(s @ s) * np.sqrt(y @ y):
        return h
    rho = 1.0 / sy
    hy = h @ y
    ss = np.outer(s, s) * (rho * rho * (y @ hy) + rho)
    return h + ss - (np.outer(hy, s) + np.outer(s, hy)) * rho


def _curvature_rows(K, seed):
    """Six rows of inverse curvatures, steps and gradient changes; rows 1 and 4 have
    no positive curvature along their step."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, K, K))
    hinv = A @ A.mT + np.eye(K)
    s = rng.normal(size=(6, K))
    y = s + 0.3 * rng.normal(size=(6, K))
    y[1], y[4] = -s[1], -2.0 * s[4]
    return hinv, s, y


class TestStackedUpdates:
    """The loop's per-row algebra on a stack equals each row's alone, bit for bit,
    so a fit's end does not depend on the rows stepped with it."""

    @pytest.mark.parametrize("K", [2, 20])
    def test_bfgs_of_a_stack_is_each_rows_update(self, K):
        hinv, s, y = _curvature_rows(K, seed=K)
        for rows in (np.arange(6), np.array([0, 2, 3, 5])):  # with and without skipped rows
            out = _bfgs(hinv[rows], s[rows], y[rows])
            for t, row in enumerate(rows):
                alone = _bfgs(hinv[row : row + 1], s[row : row + 1], y[row : row + 1])[0]
                assert _bits(out[t]) == _bits(alone)
                assert _bits(out[t]) == _bits(_bfgs_reference(hinv[row], s[row], y[row]))
        kept = _bfgs(hinv, s, y)
        assert _bits(kept[[1, 4]]) == _bits(hinv[[1, 4]])  # no positive curvature: kept
        assert not np.array_equal(kept[0], hinv[0])

    @pytest.mark.parametrize("K", [2, 20])
    def test_directions_with_held_parameters_are_each_rows_direction(self, K):
        hinv, _, g = _curvature_rows(K, seed=K + 1)
        held = np.zeros((6, K), dtype=bool)
        held[0, 0] = True
        held[3, [0, K - 1]] = True
        p = _directions(hinv, g, held)
        for t in range(6):
            assert _bits(p[t]) == _bits(_direction(hinv[t], g[t], held[t]))
        assert p[0, 0] == 0.0 and p[3, 0] == 0.0 and p[3, -1] == 0.0
        assert _bits(_directions(hinv, g, None)) == _bits(_directions(hinv, g, np.zeros_like(held)))


def weighted_k4_model(seed: int, nbins: int) -> TemplateModel:
    """A weighted spectrum of four components on [0, 1): a narrow and a broad
    peak, a falling exponential and a flat part; events carry gamma weights."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    samplers = (
        lambda n: rng.normal(0.30, 0.01, n),
        lambda n: rng.normal(0.55, 0.12, n),
        lambda n: rng.exponential(0.10, n),
        lambda n: rng.uniform(0.0, 0.8, n),
    )

    def histogram(x, w):
        inside = (x >= 0.0) & (x < 1.0)
        idx = (x[inside] * nbins).astype(np.int64)
        w = w[inside]
        return BinnedSample(np.bincount(idx, w, nbins), np.bincount(idx, w * w, nbins))

    comps, data = [], []
    for sample, events, mean in zip(samplers, (600, 1200, 2000, 800), (40, 200, 400, 80)):
        comps.append(histogram(sample(events), rng.gamma(4.0, 0.25, events)))
        data.append(sample(rng.poisson(mean)))
    x = np.concatenate(data)
    return TemplateModel(
        edges=np.linspace(0.0, 1.0, nbins + 1),
        data=histogram(x, rng.gamma(25.0, 0.04, x.size)),
        components=tuple(comps),
    )


def scaled_scipy_minimum(cost: CostFunction) -> float:
    """L-BFGS-B's minimum from the default start, on parameters scaled to order one."""
    x0 = default_start(cost)
    scale = np.maximum(1.0, np.abs(x0))
    with np.errstate(invalid="ignore", over="ignore"):
        ref = scipy_minimize(
            lambda u: cost(u * scale),
            x0 / scale,
            method="L-BFGS-B",
            bounds=[(lo / s, None) for lo, s in zip(cost.lower_bounds, scale)],
            options=dict(ftol=1e-15, gtol=1e-10, maxiter=20_000, maxfun=500_000),
        )
    return float(ref.fun)


def _equal_split(cost) -> np.ndarray:
    """The data total split equally over the yields: the default start before its EM step."""
    return np.full(cost.nparams, cost.model.data.total / cost.nparams)


class TestStartScaling:
    """Where the start Hessian's diagonal is not positive, the first step is
    scaled by the expected curvature of the yield instead of by 1.  The EM
    step of the default start avoids such points in these fits, so they
    start from the equal split."""

    @pytest.mark.parametrize("toy", [1, 5])
    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_one_entry_templates_do_not_creep(self, method, toy):
        # scaled by 1, these fits took 28,314 and 32,181 evaluations (approx,
        # toys 1 and 5) and 95,124 and 99,456 (conway)
        cfg = tf.ToyConfig(seed=5, nbins=15, n_mc=1)
        cost = CostFunction(method, tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(5, toy))))
        start = _equal_split(cost)
        assert (np.diag(cost.hessian(start)) <= 0.0).any()
        res = minimize(cost, start)
        assert res.converged and res.n_evaluations < 1000

    def test_weighted_conway_with_negative_start_curvature(self):
        # the narrow peak's yield curves downwards at the default start;
        # scaled by 1, this fit took 31 evaluations
        cost = CostFunction("conway", weighted_k4_model(3, 200), weighted=True)
        start = _equal_split(cost)
        assert np.diag(cost.hessian(start))[0] < 0.0
        res = minimize(cost, start)
        assert res.converged and res.n_evaluations < 31
        ref = scaled_scipy_minimum(cost)
        assert res.qmin <= ref + 1e-5 + 1e-9 * abs(ref)

    def test_only_entries_that_are_not_positive_are_replaced(self):
        def never():
            raise AssertionError("expected curvature asked for a positive diagonal")

        d2 = np.array([[4.0, 0.5], [2.0, 8.0]])
        assert _initial_inverse_diag(d2, never).tolist() == [[0.25, 2.0], [0.5, 0.125]]
        d2 = np.array([[4.0, -1.0, 0.0], [np.nan, np.inf, 2.0]])
        expected = np.array([[9.0, 0.5, -3.0], [5.0, np.nan, 7.0]])
        got = _initial_inverse_diag(d2, lambda: expected)
        # where the expected curvature is not positive and finite either, 1
        assert got.tolist() == [[0.25, 2.0, 1.0], [0.2, 1.0, 0.5]]
        assert _initial_inverse_diag(d2).tolist() == [[0.25, 1.0, 1.0], [1.0, 1.0, 0.5]]


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

    def test_one_em_step_from_the_equal_split(self):
        # y_k sum_b c_kb n_b/m_b / sum_b c_kb, with c = a/M and m = c.y
        cost = CostFunction(Method.APPROX, make_model([30, 70], [[3, 1], [1, 4]]))
        c = np.array([[3, 1], [1, 4]]) / np.array([[4.0], [5.0]])
        y = np.full(2, 50.0)
        step = y * (c @ (np.array([30.0, 70.0]) / (y @ c))) / c.sum(axis=1)
        np.testing.assert_allclose(default_start(cost), step, rtol=1e-14)
        assert default_start(cost)[0] < 50.0 < default_start(cost)[1]

    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_weighted_wide_model_starts_finite_and_nonnegative(self, method):
        cost = CostFunction(method, weighted_k4_model(7, 4000), weighted=True)
        start = default_start(cost)
        assert start.shape == (4,)
        assert np.isfinite(start).all() and (start >= 0.0).all()
        assert math.isfinite(cost(start))

    @pytest.mark.parametrize("method", ["approx", "conway", "exact"])
    def test_overflowing_data_total_keeps_its_error(self, method):
        # the equal split of an overflowing total is not finite; the EM step
        # leaves it so, without an inf * 0 warning, and the fit refuses it.
        # Each bin's n ln n stays finite, so the cost function accepts the data
        with np.errstate(over="ignore"):
            cost = CostFunction(method, make_model([2e305] * 1000, [[3, 1] * 500, [1, 4] * 500]))
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(default_start(cost)[:2]).all()
            with pytest.raises(ValueError, match="start point must be finite"):
                minimize(cost)


class TestHesse:
    def test_stacked_covariances_drop_rows_without_one(self):
        good = np.diag([2.0, 4.0])
        cov = np.diag([1.0, 0.5])
        # a Hessian with a NaN entry, and one whose inverse overflows to an
        # infinite yield variance although its factorization passes
        H = np.array([good, [[np.nan, 0.0], [0.0, 1.0]], good, np.diag([1e-320, 1.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _covariances(H, 2)
        assert out[1] is None and out[3] is None
        np.testing.assert_array_equal(out[0], cov)
        np.testing.assert_array_equal(out[2], cov)

    def test_quadratic_cost(self):
        # hesse returns twice the inverse of the cost's Hessian
        class _Quad(CostFunction):
            def __call__(self, x):
                return (x[0] - 3.0) ** 2 / 7.0

            def hessian(self, x):
                return np.array([[2.0 / 7.0]])

        cov = hesse(_Quad("approx", make_model([5], [[5]])), np.array([3.0]))
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

    def test_fit_covariance_is_hesse_at_minimum(self, monkeypatch):
        self._check_covariance_is_hesse_at_minimum("approx", monkeypatch)

    def test_exact_fit_covariance_is_hesse_at_minimum(self, monkeypatch):
        self._check_covariance_is_hesse_at_minimum("exact", monkeypatch)

    @staticmethod
    def _check_covariance_is_hesse_at_minimum(method, monkeypatch):
        # the fit reuses the cost at its minimum instead of evaluating it
        # again, and counts every cost, gradient and Hessian pass
        points = []  # (kind, point) of every evaluation

        # every method on a one-row CostStack; an exact stencil stacks its
        # points into one call, whose every row is recorded
        for kind, name in (("value", "value_and_gradient"), ("hessian", "hessian")):
            def recording(stack, y, kind=kind, evaluate=getattr(CostStack, name)):
                points.extend((kind, tuple(row)) for row in y)
                return evaluate(stack, y)

            monkeypatch.setattr(CostStack, name, recording)

        cfg = tf.ToyConfig(seed=4)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(4, 0)))
        cost = CostFunction(method, model)
        res = minimize(cost)
        assert res.converged
        assert res.n_evaluations == len(points)
        at = tuple(res.yields)
        if method == "exact":  # with the amplitude factors at the minimum
            bins, comps = cost.exact_slots()
            at += tuple(res.betas.beta[bins, comps])
        assert points.count(("value", at)) == 1
        cov = hesse(cost, at)
        np.testing.assert_array_equal(res.covariance, cov)
        assert cov.flags.c_contiguous

    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_one_kernel_pass_per_evaluated_point(self, method, monkeypatch):
        # the start Hessian, the covariance and the betas read the passes of
        # value_and_gradient: a fit runs the kernel once per evaluated point
        passes, evaluated = [], []
        profile, evaluate = _PerBin._profile, CostStack.value_and_gradient
        monkeypatch.setattr(_PerBin, "_profile", lambda c, y: passes.append(y) or profile(c, y))
        monkeypatch.setattr(
            CostStack, "value_and_gradient", lambda st, y: evaluated.append(y) or evaluate(st, y)
        )
        cost = CostFunction(method, _toy4())
        res = minimize(cost)
        assert res.converged
        # every evaluation but the two Hessians is a value-and-gradient pass
        assert len(passes) == len(evaluated) == res.n_evaluations - 2
        assert _same_end(res, cost)

    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_a_fit_that_ends_off_its_last_point_evaluates_its_end(self, method, monkeypatch):
        evaluated = []
        evaluate = CostStack.value_and_gradient
        monkeypatch.setattr(
            CostStack, "value_and_gradient", lambda st, y: evaluated.append(y) or evaluate(st, y)
        )
        cost = CostFunction(method, _toy4())
        # no gradient is that small: the line search fails after the restart
        res = minimize(cost, gtol=1e-300)
        assert res.status == "stalled" and res.covariance is not None
        assert not np.array_equal(evaluated[-1][0], res.yields)  # a rejected trial
        assert _same_end(res, cost)

    def test_not_positive_definite_returns_none(self):
        # an interior saddle point, away from the bounds
        class _Saddle(CostFunction):
            def __call__(self, x):
                return (x[0] - 1.0) ** 2 - (x[1] - 1.0) ** 2

            def hessian(self, x):
                return np.diag([2.0, -2.0])

        saddle = _Saddle("approx", make_model([5, 5], [[5, 0], [0, 5]]))
        assert hesse(saddle, np.ones(2)) is None

    @pytest.mark.parametrize("method", ["approx", "conway", "exact"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_outside_the_domain_raises(self, method, bad):
        cost = CostFunction(method, make_model([40, 10, 20], [[10, 30, 20], [5, 5, 5]]))
        at = default_start(cost)
        at[0] = bad
        with pytest.raises(ValueError, match="domain"):
            hesse(cost, at)

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
            status="converged",
            n_evaluations=1,
            betas=tf.BetaDiagnostics(beta=np.ones(1), contributions=np.zeros(1)),
        )
        assert gof(res) == pytest.approx(0.4478116743194914, rel=1e-12)

    def test_limits(self):
        base = dict(
            yields=np.array([1.0]),
            yield_errors=np.array([1.0]),
            covariance=np.eye(1),
            status="converged",
            n_evaluations=1,
            betas=tf.BetaDiagnostics(beta=np.ones(1), contributions=np.zeros(1)),
        )
        assert gof(tf.FitResult(qmin=1e9, ndof=13, **base)) == pytest.approx(0.0, abs=1e-30)

    def test_nonpositive_ndof_raises(self):
        base = dict(
            yields=np.array([1.0]),
            yield_errors=np.array([1.0]),
            covariance=np.eye(1),
            status="converged",
            n_evaluations=1,
            betas=tf.BetaDiagnostics(beta=np.ones(1), contributions=np.zeros(1)),
        )
        with pytest.raises(ValueError, match="ndof"):
            gof(tf.FitResult(qmin=1.0, ndof=0, **base))


@pytest.mark.parametrize("nbins", [15, 100])
@pytest.mark.parametrize("n_mc", [50, 10_000, 10_000_000])
@pytest.mark.parametrize("method", ["approx", "conway"])
def test_unit_weights_fit_as_the_unweighted_cost(method, n_mc, nbins):
    # the effective counts of unit-weight integer input are the counts, so
    # the weighted fit is the unweighted one bit for bit: weighting can
    # follow the input alone
    for seed in (1, 2, 3):
        cfg = tf.ToyConfig(seed=seed, n_mc=n_mc, nbins=nbins)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(seed, 0)))
        assert model.is_unweighted()
        a, b = fit(model, method), fit(model, method, weighted=True)
        assert a.yields.tobytes() == b.yields.tobytes()
        assert (a.covariance is None) == (b.covariance is None)
        if a.covariance is not None:
            assert a.covariance.tobytes() == b.covariance.tobytes()
        assert float.hex(a.qmin) == float.hex(b.qmin)
        assert (a.status, a.n_evaluations) == (b.status, b.n_evaluations)
