"""Special-function checks against scipy and tabulated values."""

import math

import numpy as np
import pytest
from scipy import special as sps
from scipy import stats

from templatefit.special import chi2_sf, normal_cdf


def test_normal_cdf_reference_points():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    # classic z-table values
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert normal_cdf(-1.959963984540054) == pytest.approx(0.025, abs=1e-12)
    assert normal_cdf(10.0) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-15)


def test_normal_cdf_vs_scipy_grid():
    z = np.linspace(-8, 8, 1601)
    ours = np.array([normal_cdf(v) for v in z])
    np.testing.assert_allclose(ours, stats.norm.cdf(z), rtol=0, atol=1e-13)


def test_reg_gamma_vs_scipy():
    # chi2_sf(2x, 2a) is the regularized upper incomplete gamma Q(a, x)
    rng = np.random.default_rng(42)
    a = rng.uniform(0.05, 150.0, size=500)
    x = rng.uniform(0.0, 300.0, size=500)
    for ai, xi in zip(a, x):
        assert chi2_sf(2.0 * xi, 2.0 * ai) == pytest.approx(
            sps.gammaincc(ai, xi), rel=1e-11, abs=1e-13
        )


def test_reg_gamma_domain_errors():
    with pytest.raises(ValueError):
        chi2_sf(2.0, 0.0)
    with pytest.raises(ValueError):
        chi2_sf(-0.2, 2.0)


def test_chi2_sf_saturated_and_limits():
    assert chi2_sf(0.0, 13) == 1.0
    assert chi2_sf(math.inf, 13) == 0.0
    assert chi2_sf(1e6, 13) == pytest.approx(0.0, abs=1e-300)


def test_chi2_sf_frozen_value():
    # qmin = ndof = 13; reference value from the chi-square survival function
    assert chi2_sf(13.0, 13) == pytest.approx(0.4478116743194914, rel=1e-12)


def test_chi2_sf_vs_scipy_grid():
    rng = np.random.default_rng(7)
    q = rng.uniform(0.0, 120.0, size=400)
    k = rng.integers(1, 60, size=400)
    for qi, ki in zip(q, k):
        assert chi2_sf(qi, int(ki)) == pytest.approx(
            stats.chi2.sf(qi, int(ki)), rel=1e-10, abs=1e-14
        )


def test_chi2_sf_rejects_bad_ndof():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, -3)
