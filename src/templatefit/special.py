"""Self-contained special functions needed by the fit and toy machinery.

Only what the package actually uses is implemented: the standard normal
CDF (via the complementary error function) and the chi-square survival
function, the regularized upper incomplete gamma function Q(ndof/2, q/2).
Accuracy is close to double precision over the parameter ranges that occur
in binned fits (shape parameters up to a few hundred).
"""

from __future__ import annotations

import math

__all__ = ["normal_cdf", "chi2_sf"]

_SQRT2 = math.sqrt(2.0)
_EPS = 1e-15
_MAX_ITER = 600


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _prefactor(a: float, x: float) -> float:
    # x^a e^{-x} / Gamma(a), computed in log space to avoid overflow
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _lower_series(a: float, x: float) -> float:
    # power series for P(a, x); converges quickly for x < a + 1
    term = 1.0 / a
    total = term
    k = a
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * _prefactor(a, x)


def _upper_continued_fraction(a: float, x: float) -> float:
    # modified Lentz continued fraction for Q(a, x); for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * _prefactor(a, x)


def chi2_sf(q: float, ndof: float) -> float:
    """Upper-tail probability of a chi-square distribution with ``ndof`` degrees of freedom,
    the regularized upper incomplete gamma function Q(ndof/2, q/2)."""
    if ndof <= 0:
        raise ValueError(f"ndof must be positive, got {ndof}")
    if q < 0.0:
        raise ValueError(f"test statistic must be nonnegative, got {q}")
    if math.isinf(q):
        return 0.0
    a, x = 0.5 * ndof, 0.5 * q
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_continued_fraction(a, x)
