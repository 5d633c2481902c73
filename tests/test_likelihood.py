"""Cost-function values, analytic profiling, and structural properties.

Frozen expected values were computed with independent oracles: the
Poisson pmf ratio for the single-bin statistic, one-dimensional numeric
scans/minimizations for the profiled factors, and direct evaluation of
the variance formula.  The values under test are read from
:class:`CostFunction`, its call, diagnostics and per-bin kernels: the code
that fits run.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.optimize import minimize_scalar

import templatefit as tf
from templatefit import BinnedSample, CostFunction, CostStack, Method, TemplateModel


def make_model(data, comps, data_w2=None, comp_w2=None, names=()):
    if data_w2 is None:
        d = BinnedSample.from_counts(data)
    else:
        d = BinnedSample(data, data_w2)
    cs = []
    for i, c in enumerate(comps):
        if comp_w2 is None or comp_w2[i] is None:
            cs.append(BinnedSample.from_counts(c))
        else:
            cs.append(BinnedSample(c, comp_w2[i]))
    edges = np.arange(d.nbins + 1, dtype=float)
    return TemplateModel(edges=edges, data=d, components=tuple(cs), names=names)


def qp_ref(n, mu):
    # independent scalar reference used by several oracles below
    if n == 0:
        return 2.0 * mu
    if mu == 0:
        return math.inf
    return 2.0 * (mu - n - n * math.log(mu / n))


def profiled(method, model, y, weighted=False):
    # the cost and per-bin diagnostics that a fit of ``method`` evaluates at y
    cost = CostFunction(method, model, weighted=weighted)
    return cost(y), cost.diagnostics(y)


def bin_factor(method, n, a, mu0):
    # the kernel's factor of one bin with data n, template content a and
    # expectation mu0: K = 1, so y = mu0 gives m = (mu0/a) a and V = 1/a
    return profiled(method, make_model([n], [[a]]), [mu0])[1].beta[0]


def poisson_term(n, mu):
    # the exact cost of a one-bin model at expectation mu and unit amplitude
    # factor: the Poisson data term alone
    return CostFunction(Method.EXACT, make_model([n], [[1.0]]))([mu, 1.0])


def factor_variance(model, y, weighted=False):
    # Conway's factor variance V per active bin, as the kernel forms it
    cost = CostFunction(Method.CONWAY, model, weighted=weighted)
    return cost._conway(cost.validate(y))[4]


def exact_cost(model, y, betas):
    # the exact cost at yields y and an (nbins, K) matrix of amplitude factors
    cost = CostFunction(Method.EXACT, model)
    return cost(cost.validate([*y, *np.asarray(betas)[cost.exact_slots()]]))


class TestQPoisson:
    def test_saturated(self):
        assert poisson_term(5.0, 5.0) == 0.0

    def test_zero_count_limit(self):
        assert poisson_term(0.0, 3.0) == 6.0

    def test_frozen_value_and_pmf_oracle(self):
        val = poisson_term(10.0, 9.0)
        assert val == pytest.approx(0.10721031315652585, rel=1e-13)
        oracle = -2.0 * math.log(stats.poisson.pmf(10, 9) / stats.poisson.pmf(10, 10))
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_impossible_model(self):
        assert poisson_term(3.0, 0.0) == math.inf

    @given(
        st.floats(0.0, 1e4),
        st.floats(1e-9, 1e4),
    )
    def test_nonnegative(self, n, mu):
        assert poisson_term(n, mu) >= 0.0

    @given(st.floats(1e-6, 1e4))
    def test_zero_iff_saturated(self, n):
        assert poisson_term(n, n) == 0.0
        assert poisson_term(n, n * 1.5) > 0.0
        assert poisson_term(n, n * 0.5) > 0.0


class TestBetaApprox:
    def test_no_scaling_needed(self):
        assert bin_factor(Method.APPROX, 5.0, 5.0, 5.0) == 1.0

    def test_frozen_value(self):
        assert bin_factor(Method.APPROX, 10.0, 2.0, 6.0) == 1.5

    def test_is_argmin_of_bin_objective(self):
        # 1-d scan oracle around the analytic stationary point
        n, a, mu0 = 10.0, 2.0, 6.0
        res = minimize_scalar(
            lambda b: qp_ref(n, b * mu0) + qp_ref(a, b * a),
            bounds=(0.1, 10.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert bin_factor(Method.APPROX, n, a, mu0) == pytest.approx(res.x, abs=1e-9)

    def test_large_template_limit(self):
        assert bin_factor(Method.APPROX, 7.0, 1e12, 3.0) == pytest.approx(1.0, abs=1e-10)


class TestBetaConway:
    def test_saturated_bin(self):
        for v in (0.01, 0.5, 10.0):
            assert bin_factor(Method.CONWAY, 6.0, 1.0 / v, 6.0) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_value(self):
        val = bin_factor(Method.CONWAY, 10.0, 2.0, 6.0)
        assert val == pytest.approx((-2.0 + math.sqrt(24.0)) / 2.0, rel=1e-14)
        assert val == pytest.approx(1.4494897427831779, rel=1e-13)
        # satisfies the quadratic
        resid = val * val + (0.5 * 6.0 - 1.0) * val - 0.5 * 10.0
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_conway_objective_argmin_oracle(self):
        # the scalar minimizer locates the argmin to ~1e-8 at best
        n, mu0, v = 10.0, 6.0, 0.5
        res = minimize_scalar(
            lambda b: qp_ref(n, b * mu0) + (b - 1.0) ** 2 / v,
            bounds=(0.1, 10.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert bin_factor(Method.CONWAY, n, 1.0 / v, mu0) == pytest.approx(res.x, abs=1e-7)

    def test_empty_count_root(self):
        # V*mu0 = 1 collapses the quadratic to beta^2 = 0
        assert bin_factor(Method.CONWAY, 0.0, 4.0, 4.0) == 0.0
        # below that the root is 1 - V*mu0
        assert bin_factor(Method.CONWAY, 0.0, 10.0, 4.0) == pytest.approx(0.6, rel=1e-14)


class TestVarBeta:
    def test_single_component_is_one_over_a(self):
        m = make_model([5, 5], [[10, 90]])
        assert factor_variance(m, [123.0])[0] == pytest.approx(0.1, rel=1e-14)

    def test_two_component_frozen(self):
        # y=(250,750), M=(100,1000), a=(4,30)
        m = make_model([5, 5], [[4, 96], [30, 970]])
        assert factor_variance(m, [250.0, 750.0])[0] == pytest.approx(
            0.03964497041420118, rel=1e-13
        )

    def test_dominant_component_gives_one_over_a(self):
        # with equal bin contents and one dominant component the variance
        # collapses to 1/a; exact when the other yield vanishes
        m = make_model([5, 5], [[6, 94], [6, 194]])
        assert factor_variance(m, [77.0, 0.0])[0] == pytest.approx(1.0 / 6.0, rel=1e-13)
        almost = factor_variance(m, [77.0, 1e-6])[0]
        assert almost == pytest.approx(1.0 / 6.0, rel=1e-6)

    def test_zero_expectation_signals_skip(self):
        # a bin without template content is not active; one whose content
        # sits in a component of zero yield is dead and has no factor
        m = make_model([5, 5], [[0, 100], [0, 200]])
        assert CostFunction(Method.CONWAY, m).nbins_active == 1
        m = make_model([0, 5], [[0, 100], [4, 200]])
        cost = CostFunction(Method.CONWAY, m)
        live = cost._conway(np.array([10.0, 0.0]))[0]
        np.testing.assert_array_equal(live, [False, True])
        assert math.isnan(cost.diagnostics([10.0, 0.0]).beta[0])

    def test_scale_invariant_where_the_expectation_squared_underflows(self):
        # m^2 is below the smallest normal float at these yields; V is taken
        # at the yields scaled to a largest entry of 1, dead bins kept at 1
        m = make_model([5, 7, 0], [[4, 96, 0], [30, 970, 8]])
        y = np.array([250.0, 750.0])
        for factor in (1e-160, 1e-300):
            np.testing.assert_allclose(factor_variance(m, factor * y), factor_variance(m, y))
        dead = factor_variance(m, [1e-300, 0.0])
        assert dead[2] == 1.0 and dead[0] == pytest.approx(1.0 / 4.0)

    def test_weighted_uses_sumw2(self):
        # template weights {2,2}: sumw=4, sumw2=8 -> V = 8/16 = 0.5
        m = make_model(
            [5, 5],
            [[4, 96]],
            comp_w2=[[8, 96]],
        )
        assert factor_variance(m, [200.0], weighted=True)[0] == pytest.approx(0.5, rel=1e-14)
        assert factor_variance(m, [200.0], weighted=False)[0] == pytest.approx(0.25, rel=1e-14)


class TestQApprox:
    def test_saturated_model(self):
        # data equals expectation in every bin at these yields
        m = make_model([10, 90], [[10, 90]])
        q, diag = profiled(Method.APPROX, m, [100.0])
        assert q == 0.0
        np.testing.assert_allclose(diag.beta, [1.0, 1.0])

    def test_single_bin_frozen(self):
        # bin 0: n=10, a=2, mu0=6 at y=300, M=100; bin 1 saturates exactly
        m = make_model([10, 294], [[2, 98]])
        q, diag = profiled(Method.APPROX, m, [300.0])
        assert diag.beta[0] == pytest.approx(1.5, rel=1e-14)
        assert diag.contributions[1] == 0.0
        assert q == pytest.approx(0.4853498807238683, rel=1e-12)
        assert q == pytest.approx(qp_ref(10, 9) + qp_ref(2, 3), rel=1e-13)

    def test_contributions_sum_to_q(self):
        rng = np.random.default_rng(1)
        m = make_model(rng.poisson(20, 9), [rng.poisson(5, 9) + 1, rng.poisson(3, 9)])
        y = [55.0, 23.0]
        q, diag = profiled(Method.APPROX, m, y)
        assert q == pytest.approx(diag.contributions.sum(), rel=1e-13)

    def test_infinite_template_limit(self):
        # with templates scaled by 1e6 the residual is sum (n - mu0)^2 / a per
        # bin, so the yields must stay near the data for the bound to read
        rng = np.random.default_rng(2)
        a1 = (rng.poisson(8, 10) + 1).astype(float)
        a2 = (rng.poisson(4, 10) + 1).astype(float)
        truth = np.array([120.0, 260.0])
        n = truth[0] * a1 / a1.sum() + truth[1] * a2 / a2.sum()
        m = make_model(n, [a1 * 1e6, a2 * 1e6])
        for _ in range(5):
            y = truth * rng.uniform(0.9, 1.1, size=2)
            q, _ = profiled(Method.APPROX, m, y)
            mu0 = (y / m.norms) @ m.component_sumw()
            plain = sum(qp_ref(n[b], mu0[b]) for b in range(m.nbins))
            assert q == pytest.approx(plain, abs=1e-3)

    def test_zero_template_bins_skipped(self):
        m = make_model([7, 10, 3], [[0, 5, 5], [0, 2, 8]])
        q, diag = profiled(Method.APPROX, m, [10.0, 10.0])
        assert math.isnan(diag.beta[0])
        assert diag.contributions[0] == 0.0
        assert math.isfinite(q)
        cost = CostFunction(Method.APPROX, m)
        assert cost.ndof == 0  # 2 active bins - 2 yields

    def test_impossible_model_is_infinite(self):
        # active bin with data but zero expectation at these yields
        m = make_model([7, 10], [[0, 5], [4, 2]])
        q, _ = profiled(Method.APPROX, m, [10.0, 0.0])
        assert q == math.inf

    def test_validation(self):
        m = make_model([7, 10], [[1, 5]])
        with pytest.raises(ValueError):
            profiled(Method.APPROX, m, [-1.0])
        with pytest.raises(ValueError):
            profiled(Method.APPROX, m, [float("nan")])
        with pytest.raises(ValueError):
            profiled(Method.APPROX, m, [1.0, 2.0])


class TestQConway:
    def test_saturated_model(self):
        m = make_model([10, 90], [[10, 90]])
        q, diag = profiled(Method.CONWAY, m, [100.0])
        assert q == 0.0
        np.testing.assert_allclose(diag.beta, [1.0, 1.0])

    def test_single_bin_frozen(self):
        # bin 0: n=10, mu0=6, a=2 -> V=1/2, beta=1.44949; bin 1 saturates
        m = make_model([10, 294], [[2, 98]])
        q, diag = profiled(Method.CONWAY, m, [300.0])
        assert diag.beta[0] == pytest.approx(1.4494897427831779, rel=1e-12)
        assert q == pytest.approx(0.5902395870171736, rel=1e-12)
        beta = diag.beta[0]
        assert q == pytest.approx(qp_ref(10, beta * 6) + (beta - 1) ** 2 / 0.5, rel=1e-12)

    def test_small_variance_limit(self):
        m = make_model([10, 294], [[2 * 10**6, 98 * 10**6]])
        q, diag = profiled(Method.CONWAY, m, [300.0])
        assert diag.beta[0] == pytest.approx(1.0, abs=1e-5)
        assert q == pytest.approx(qp_ref(10, 6) + qp_ref(294, 294), abs=1e-3)

    def test_contributions_sum_to_q(self):
        rng = np.random.default_rng(3)
        m = make_model(rng.poisson(20, 7), [rng.poisson(5, 7) + 1, rng.poisson(3, 7)])
        q, diag = profiled(Method.CONWAY, m, [50.0, 20.0])
        assert q == pytest.approx(diag.contributions.sum(), rel=1e-13)

    @pytest.mark.parametrize("factor", [1e-200, 1e-300])
    def test_tiny_yields_keep_a_finite_cost(self, factor):
        # V once read vnum/m^2 = 0/0 here, and the cost 0.0; as the yields
        # shrink towards 0 the cost grows, in a cost function and a stack row
        cfg = tf.ToyConfig(seed=3, n_mc=200)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(3, 0)))
        cost = CostFunction(Method.CONWAY, model)
        stack = CostStack.from_counts(
            Method.CONWAY, model.data.sumw[None], model.component_sumw()[None]
        )
        x = tf.default_start(cost)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            above = cost(1e-160 * x)
            q = cost(factor * x)
            row = stack._profile(factor * x[None])[0][0]
        assert math.isfinite(q) and q > above
        assert float.hex(float(row)) == float.hex(q)

    def test_empty_bin_root_without_fp_warning(self):
        # bin 0 has no data and V*mu0 < 1: the root branch that is not
        # selected there would divide 0/0
        m = make_model([0, 5, 9], [[40, 2, 3]])
        cost = CostFunction(Method.CONWAY, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = cost([20.0])
            diag = cost.diagnostics([20.0])
        assert math.isfinite(q)
        # with n = 0 the root is 1 - V*mu0, here V = 1/40 and mu0 = 20 * 40/45
        assert diag.beta[0] == pytest.approx(1.0 - (20.0 * 40 / 45) / 40, rel=1e-12)
        assert q == pytest.approx(diag.contributions.sum(), rel=1e-13)


class TestQExact:
    def test_saturated_at_unit_betas(self):
        m = make_model([10, 90], [[5, 45], [5, 45]])
        # mu(bin) = y1*a1/M1 + y2*a2/M2 = 10, 90 at y=(50, 50)
        q = exact_cost(m, [50.0, 50.0], np.ones((2, 2)))
        assert q == 0.0

    def test_two_component_bin_contribution(self):
        # bin 0: n=10, a=(3,4), y=(250,750), M=(100,1000) at unit betas
        m = make_model([10, 1000], [[3, 97], [4, 996]])
        cost = CostFunction(Method.EXACT, m)
        params = np.concatenate([[250.0, 750.0], np.ones(4)])
        diag = cost.diagnostics(params)
        assert diag.contributions[0] == pytest.approx(qp_ref(10, 10.5), rel=1e-12)
        assert diag.contributions[0] == pytest.approx(0.024196716611359026, rel=1e-12)

    def test_component_terms_vanish_at_unit_betas(self):
        m = make_model([10, 1000], [[3, 97], [4, 996]])
        q = exact_cost(m, [250.0, 750.0], np.ones((2, 2)))
        # only the data terms remain
        expected = qp_ref(10, 10.5) + qp_ref(1000, 250 * 0.97 + 750 * 0.996)
        assert q == pytest.approx(expected, rel=1e-12)

    def test_k1_profiled_equals_approx(self):
        # with one component the shared-factor step is exact: plugging the
        # analytic factor into the exact cost reproduces the approx cost
        rng = np.random.default_rng(4)
        n = rng.poisson(25, 12).astype(float)
        a = (rng.poisson(6, 12)).astype(float)
        a[0] = 0.0  # include a skipped bin
        if a[1:].sum() == 0:
            a[1] = 3.0
        m = make_model(n, [a])
        for y in (100.0, 250.0, 317.5):
            qa, diag = profiled(Method.APPROX, m, [y])
            betas = np.where(np.isnan(diag.beta), 1.0, diag.beta)[:, None]
            qe = exact_cost(m, [y], betas)
            assert qe == pytest.approx(qa, rel=1e-13, abs=1e-13)

    def test_beta_matrix_validation(self):
        m = make_model([10, 20], [[3, 7]])
        with pytest.raises(ValueError):
            exact_cost(m, [10.0], np.zeros((2, 1)))

    def test_nan_on_empty_slots_allowed(self):
        m = make_model([10, 20], [[0, 7], [2, 5]])
        betas = np.ones((2, 2))
        betas[0, 0] = np.nan  # slot without content; must be ignored
        q = exact_cost(m, [10.0, 10.0], betas)
        assert math.isfinite(q)


class TestCostFunctionStructure:
    def test_nparams(self):
        m = make_model([1, 2, 3], [[1, 0, 2], [1, 1, 1]])
        assert CostFunction(Method.APPROX, m).nparams == 2
        assert CostFunction(Method.CONWAY, m).nparams == 2
        # slots with content: (0,0),(0,1),(1,1),(2,0),(2,1) -> 5
        assert CostFunction(Method.EXACT, m).nparams == 2 + 5

    def test_ndof_counts_active_bins(self):
        m = make_model([1, 2, 3, 4], [[1, 0, 2, 0], [1, 0, 1, 0]])
        cost = CostFunction(Method.APPROX, m)
        assert cost.nbins_active == 2
        assert cost.ndof == 0

    def test_exact_slot_layout_bin_major(self):
        m = make_model([1, 2, 3], [[1, 0, 2], [1, 1, 1]])
        bins, comps = CostFunction(Method.EXACT, m).exact_slots()
        np.testing.assert_array_equal(bins, [0, 0, 1, 2, 2])
        np.testing.assert_array_equal(comps, [0, 1, 1, 0, 1])

    @pytest.mark.parametrize("method", ["approx", "conway", "exact"])
    def test_data_whose_terms_overflow_are_rejected(self, method):
        # n ln n of 1e308 overflows: the data terms would be inf - inf, which
        # the cost used to clip to 0.0 at every point
        comps = [[3, 1], [1, 4]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                CostFunction(method, make_model([1e308, 1e308], comps))
            with pytest.raises(ValueError, match="overflows"):
                CostFunction(method, make_model([1e306, 5.0], comps))  # 4n is finite
            # counts this large are checked, and accepted where nothing overflows
            cost = CostFunction(method, make_model([1e301, 5.0], comps))
            if method != "exact":  # an effective count sumw^2/sumw2 of 1e400
                weighted = make_model([1e200, 5.0], comps, data_w2=[1e-20, 5.0], comp_w2=comps)
                with pytest.raises(ValueError, match="overflows"):
                    CostFunction(method, weighted, weighted=True)
        assert cost.nbins_active == 2
        assert cost.nbins_active == 2

    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_weighted_templates_whose_effective_count_overflows_are_rejected(self, method):
        # (sum w)^2 / sum w^2 of 1e400: approx read 0.0 at every point
        huge = make_model([40, 5], [[1e200, 1], [1, 4]], comp_w2=[[1e-20, 1], None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="effective count .* overflows"):
                CostFunction(method, huge, weighted=True)
            # (sum w)^2 of 1e300 is checked, and accepted
            large = make_model([40, 5], [[1e150, 1], [1, 4]], comp_w2=[[1e150, 1], None])
            cost = CostFunction(method, large, weighted=True)
        assert cost.nbins_active == 2

    def test_weighted_exact_rejected(self):
        m = make_model([1, 2], [[1, 1]])
        with pytest.raises(ValueError, match="weighted"):
            CostFunction(Method.EXACT, m, weighted=True)

    def test_out_of_domain_params_evaluate_to_inf(self):
        m = make_model([1, 2], [[1, 1]])
        cost = CostFunction(Method.APPROX, m)
        assert cost(np.array([-1.0])) == math.inf
        assert cost(np.array([float("nan")])) == math.inf
        ce = CostFunction(Method.EXACT, m)
        bad = np.array([10.0, 1.0, 0.0])
        assert ce(bad) == math.inf

    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_diagnostics_reject_points_outside_the_domain(self, method):
        m = make_model([4, 9, 13], [[2, 8, 5], [6, 1, 9]])
        cost = CostFunction(method, m)
        for params in ([-3.0, 20.0], [np.nan, 20.0], [20.0, np.inf]):
            assert cost(np.array(params)) == math.inf
            with pytest.raises(ValueError, match="domain"):
                cost.diagnostics(params)

    def test_exact_diagnostics_reject_nonpositive_betas(self):
        m = make_model([4, 9, 13], [[2, 8, 5], [6, 1, 9]])
        cost = CostFunction(Method.EXACT, m)
        for beta in (0.0, -0.5):
            params = np.concatenate([[10.0, 20.0], np.ones(6)])
            params[4] = beta
            assert cost(params) == math.inf
            with pytest.raises(ValueError, match="domain"):
                cost.diagnostics(params)

    def test_shape_mismatch_raises(self):
        m = make_model([1, 2], [[1, 1]])
        cost = CostFunction(Method.APPROX, m)
        with pytest.raises(ValueError):
            cost(np.array([1.0, 2.0]))

    def test_permutation_symmetry_exact_k2(self):
        rng = np.random.default_rng(5)
        n = rng.poisson(20, 6)
        c1 = rng.poisson(5, 6) + 1
        c2 = rng.poisson(2, 6) + 1
        m = make_model(n, [c1, c2])
        mp = make_model(n, [c2, c1])
        y = np.array([40.0, 70.0])
        assert profiled(Method.APPROX, m, y)[0] == profiled(Method.APPROX, mp, y[::-1])[0]
        assert profiled(Method.CONWAY, m, y)[0] == profiled(Method.CONWAY, mp, y[::-1])[0]

    def test_permutation_symmetry_k3(self):
        rng = np.random.default_rng(6)
        n = rng.poisson(20, 6)
        comps = [rng.poisson(4, 6) + 1 for _ in range(3)]
        y = np.array([40.0, 70.0, 15.0])
        perm = [2, 0, 1]
        m = make_model(n, comps)
        mp = make_model(n, [comps[i] for i in perm])
        qa = profiled(Method.APPROX, m, y)[0]
        qb = profiled(Method.APPROX, mp, y[perm])[0]
        assert qb == pytest.approx(qa, rel=1e-12)


class TestScoreEquations:
    """The analytic factors zero the per-bin score by central differences."""

    def _score(self, objective, beta):
        h = 1e-6 * max(1.0, beta)
        return (objective(beta + h) - objective(beta - h)) / (2.0 * h)

    def test_approx_score_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n, a, mu0 = rng.uniform(0.0, 100.0, size=3)
            a = max(a, 1e-3)
            beta = bin_factor(Method.APPROX, n, a, mu0)
            obj = lambda b: qp_ref(n, b * mu0) + qp_ref(a, b * a)
            qb = obj(beta)
            assert abs(self._score(obj, beta)) < 1e-8 * (1.0 + abs(qb)) * 100

    def test_conway_score_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n, a, mu0 = rng.uniform(0.0, 100.0, size=3)
            a = max(a, 1e-3)
            v = 1.0 / a
            beta = bin_factor(Method.CONWAY, n, a, mu0)
            if beta <= 1e-9:
                continue  # constrained at zero, score need not vanish
            obj = lambda b: qp_ref(n, b * mu0) + (b - 1.0) ** 2 / v
            qb = obj(beta)
            assert abs(self._score(obj, beta)) < 1e-8 * (1.0 + abs(qb)) * 100

    def test_weighted_score_by_finite_differences(self):
        # data weights {2,2}: n_eff=2, s=0.5; a_eff=4, mu0=8 -> beta=0.75
        n_eff, s, a_eff, mu0 = 2.0, 0.5, 4.0, 8.0
        beta = (n_eff + a_eff) / (s * mu0 + a_eff)
        assert beta == 0.75
        obj = lambda b: qp_ref(n_eff, b * s * mu0) + qp_ref(a_eff, b * a_eff)
        assert abs(self._score(obj, beta)) < 1e-9


class TestWeighted:
    def test_unit_weights_reduce_to_unweighted(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            nb = rng.integers(3, 12)
            n = rng.poisson(25, nb)
            c1 = rng.poisson(6, nb) + 1
            c2 = rng.poisson(3, nb)
            m = make_model(n, [c1, c2])
            y = rng.uniform(5.0, 300.0, size=2)
            qa, da = profiled(Method.APPROX, m, y)
            qaw, daw = profiled(Method.APPROX, m, y, weighted=True)
            assert qaw == pytest.approx(qa, rel=1e-12, abs=1e-12)
            qc, dc = profiled(Method.CONWAY, m, y)
            qcw, dcw = profiled(Method.CONWAY, m, y, weighted=True)
            assert qcw == pytest.approx(qc, rel=1e-12, abs=1e-12)
            # integer counts make the weighted factor formula reduce exactly
            np.testing.assert_array_equal(
                daw.beta[~np.isnan(daw.beta)], da.beta[~np.isnan(da.beta)]
            )

    def test_weighted_beta_frozen(self):
        # data weights {2,2} in bin 0 (sumw=4, sumw2=8 -> n_eff=2, s=0.5),
        # unit-weight template a_eff=4, mu0=8 at y=200, M=100
        m = make_model(
            [4, 192],
            [[4, 96]],
            data_w2=[8, 192],
        )
        q, diag = profiled(Method.APPROX, m, [200.0], weighted=True)
        assert diag.beta[0] == pytest.approx(0.75, rel=1e-14)
        assert diag.contributions[1] == pytest.approx(0.0, abs=1e-12)
        assert q == pytest.approx(qp_ref(2, 3) + qp_ref(4, 3), rel=1e-12)

    def test_weighted_empty_data_bin(self):
        m = make_model([0, 100], [[5, 95]], data_w2=[0, 100])
        q, diag = profiled(Method.APPROX, m, [80.0], weighted=True)
        mu0 = 80.0 * 5 / 100
        expected_beta = 5.0 / (mu0 + 5.0)
        assert diag.beta[0] == pytest.approx(expected_beta, rel=1e-13)
        assert diag.beta[0] < 1.0
        assert math.isfinite(q)

    def test_weighted_conway_small_variance_limit(self):
        m = make_model([10, 294], [[2 * 10**6, 98 * 10**6]])
        q, diag = profiled(Method.CONWAY, m, [300.0], weighted=True)
        assert diag.beta[0] == pytest.approx(1.0, abs=1e-5)


@settings(max_examples=50)
@given(
    st.integers(2, 8),
    st.integers(0, 2**31 - 1),
)
def test_all_costs_nonnegative(nbins, seed):
    rng = np.random.default_rng(seed)
    n = rng.poisson(15, nbins)
    c1 = rng.poisson(4, nbins)
    c2 = rng.poisson(2, nbins)
    if c1.sum() == 0:
        c1[0] = 1
    if c2.sum() == 0:
        c2[-1] = 1
    m = make_model(n, [c1, c2])
    y = rng.uniform(0.0, 200.0, size=2)
    assert profiled(Method.APPROX, m, y)[0] >= 0.0
    assert profiled(Method.CONWAY, m, y)[0] >= 0.0
    assert profiled(Method.APPROX, m, y, weighted=True)[0] >= 0.0
    cost = CostFunction(Method.EXACT, m)
    betas = rng.uniform(0.5, 2.0, size=cost.nparams - 2)
    assert cost(np.concatenate([y, betas])) >= 0.0
