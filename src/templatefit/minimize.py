"""Bounded quasi-Newton minimization, Hessian covariance, and goodness of fit.

The minimizer is a BFGS-class method with central finite-difference
gradients, a projection onto the per-parameter lower bounds, and a single
restart from a perturbed point when the line search stalls.  All the cost
functions of this package are smooth in their parameters, so no
derivative-free fallback is needed.  The covariance is twice the inverse
of the central finite-difference Hessian at the minimum (the factor two
because the cost is minus twice a log-likelihood ratio); for the exact
method the Hessian spans yields and amplitude factors and the yield block
of the full inverse is returned, so the template uncertainty propagates
into the yield errors.

Each finite-difference stencil (gradient, initial curvature, covariance
Hessian) collects its points first and evaluates them in stacked
``cost(X)`` calls of at most 2^14 per-bin elements (rows x components x
active bins).  The Hessian, with 2n^2 points, is built one such chunk at a
time; the start value shares one stack with the first curvature and
gradient stencils.  Every stacked value equals the single-point call bit
for bit and every point counts as one evaluation, so fits, their
evaluation counts and the ``max_calls`` budget are those of one call per
point.  Callables that are not a :class:`CostFunction` (as ``hesse``
accepts) are evaluated one point at a time.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .likelihood import BetaDiagnostics, CostFunction, Method
from .special import chi2_sf

__all__ = ["FitResult", "minimize", "hesse", "default_start", "gof", "fit"]

_EPS = float(np.finfo(np.float64).eps)
_GRAD_STEP = math.sqrt(_EPS)        # central-difference gradient step scale
_HESS_STEP = _EPS ** (1.0 / 3.0)    # central-difference Hessian step scale

DEFAULT_GTOL = 1e-4
DEFAULT_FTOL = 1e-6
DEFAULT_MAX_CALLS = 100_000

# a stacked cost call holds at most this many per-bin elements (rows x
# components x active bins), which bounds the size of its temporaries
_STACK_ELEMENTS = 2**14


@dataclass(frozen=True)
class FitResult:
    """Outcome of one minimization.

    ``yield_errors`` and ``covariance`` are ``None`` when the Hessian at
    the minimum is not positive definite; such fits are reported as not
    converged.  ``ndof`` counts the bins entering the cost minus the
    number of yields.  ``betas`` holds the per-bin scale factors at the
    minimum (profiled for the approximate methods, fitted for the exact
    one).
    """

    yields: np.ndarray
    yield_errors: np.ndarray | None
    covariance: np.ndarray | None
    qmin: float
    ndof: int
    converged: bool
    n_evaluations: int
    betas: BetaDiagnostics


class _Counted:
    """Call counter around a cost function, with a budget.

    ``stack`` evaluates the rows of a stencil matrix: a
    :class:`CostFunction` in stacked calls of at most ``rows`` rows, any
    other callable one row at a time.  Each row counts as one evaluation.
    """

    def __init__(self, fn, max_calls: float = math.inf):
        self._fn = fn
        self.calls = 0
        self.max_calls = max_calls
        self.rows = 1
        if isinstance(fn, CostFunction):
            per_row = fn.model.ncomponents * fn.nbins_active
            self.rows = max(1, _STACK_ELEMENTS // max(1, per_row))

    def __call__(self, x: np.ndarray) -> float:
        self.calls += 1
        return self._fn(x)

    def stack(self, X: np.ndarray) -> np.ndarray:
        if self.rows == 1:
            return np.array([self(x) for x in X])
        self.calls += len(X)
        return np.concatenate([self._fn(X[i : i + self.rows]) for i in range(0, len(X), self.rows)])

    @property
    def exhausted(self) -> bool:
        return self.calls >= self.max_calls


def _evaluate(f: _Counted, rows: list) -> Iterator[float]:
    """Values at the stencil points ``rows``, in order."""
    return iter(f.stack(np.array(rows)).tolist())


def _gradient_rows(x: np.ndarray, lower: np.ndarray) -> tuple[list, list]:
    """Points of the gradient stencil at ``x``, and the step and kind of each quotient."""
    rows, steps = [], []
    for i in range(x.size):
        h = _GRAD_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] = x[i] + h
        h = xp[i] - x[i]  # kill representation error in the step
        rows.append(xp)
        central = x[i] - h >= lower[i]
        if central:
            xm = x.copy()
            xm[i] = x[i] - h
            rows.append(xm)
        steps.append((h, central))
    return rows, steps


def _gradient_of(values: Iterator[float], steps: list, f0: float) -> np.ndarray:
    """Central-difference gradient, one-sided where the bound is too close."""
    g = np.empty(len(steps))
    for i, (h, central) in enumerate(steps):
        fp = next(values)
        g[i] = (fp - next(values)) / (2.0 * h) if central else (fp - f0) / h
    return g


def _gradient(f: _Counted, x: np.ndarray, f0: float, lower: np.ndarray) -> np.ndarray:
    rows, steps = _gradient_rows(x, lower)
    return _gradient_of(_evaluate(f, rows), steps, f0)


def _curvature_rows(x: np.ndarray, lower: np.ndarray) -> tuple[list, list]:
    """Points of the diagonal second-derivative stencil at ``x``, and their steps."""
    rows, steps = [], []
    for i in range(x.size):
        h = _HESS_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] = x[i] + h
        h = xp[i] - x[i]
        central = x[i] - h >= lower[i]
        xo = x.copy()  # the other point: x - h, or x + 2h by the bound
        xo[i] = x[i] - h if central else x[i] + 2.0 * h
        rows += (xp, xo)
        steps.append((h, central))
    return rows, steps


def _curvature_of(values: Iterator[float], steps: list, f0: float) -> np.ndarray:
    """Diagonal second derivatives for the initial quasi-Newton scaling."""
    d = np.empty(len(steps))
    for i, (h, central) in enumerate(steps):
        fp, fo = next(values), next(values)
        if central:
            d[i] = (fp - 2.0 * f0 + fo) / (h * h)
        else:
            d[i] = (fo - 2.0 * fp + f0) / (h * h)
    return d


def _pg_norm(x: np.ndarray, g: np.ndarray, lower: np.ndarray) -> float:
    """Sup norm of the gradient with components pointing into active bounds removed."""
    at_bound = (x - lower) <= 1e-9 * np.maximum(1.0, np.abs(x))
    pg = np.where(at_bound & (g > 0.0), 0.0, g)
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def default_start(cost: CostFunction) -> np.ndarray:
    """Default start point: the observed total split equally over the yields.

    Exact-method amplitude factors start at 1, their large-template
    asymptotic value.
    """
    K = cost.model.ncomponents
    start = np.ones(cost.nparams)
    start[:K] = cost.model.data.total / K
    return start


def minimize(
    cost: CostFunction,
    start=None,
    bounds=None,
    *,
    gtol: float = DEFAULT_GTOL,
    ftol: float = DEFAULT_FTOL,
    max_calls: int = DEFAULT_MAX_CALLS,
) -> FitResult:
    """Minimize a cost function over its bounded parameter space.

    Parameters
    ----------
    cost : CostFunction
        The objective; must be finite at the start point.
    start : array_like, optional
        Start vector, defaults to :func:`default_start`.
    bounds : array_like, optional
        Per-parameter lower bounds, defaults to ``cost.lower_bounds``.
    gtol : float
        Convergence threshold on the projected-gradient sup norm.
    ftol : float
        Convergence threshold on the cost decrease between iterations;
        both thresholds must hold simultaneously.
    max_calls : int
        Evaluation budget; when exhausted the best point seen so far is
        returned with ``converged=False``.
    """
    x = np.array(default_start(cost) if start is None else start, dtype=np.float64)
    lower = np.array(cost.lower_bounds if bounds is None else bounds, dtype=np.float64)
    if x.shape != (cost.nparams,) or lower.shape != (cost.nparams,):
        raise ValueError(f"start and bounds must have {cost.nparams} entries")
    if np.any(x < lower):
        raise ValueError("start point must lie within the bounds")

    f = _Counted(cost, max_calls)
    # the start value and the curvature and gradient stencils, in one stack
    curvature_rows, curvature_steps = _curvature_rows(x, lower)
    gradient_rows, gradient_steps = _gradient_rows(x, lower)
    values = _evaluate(f, [x, *curvature_rows, *gradient_rows])
    fx = next(values)
    if not math.isfinite(fx):
        raise ValueError("cost is not finite at the start point")

    hinv0 = _initial_inverse_diag(_curvature_of(values, curvature_steps, fx))
    hinv = np.diag(hinv0)
    g = _gradient_of(values, gradient_steps, fx)
    best_x, best_f = x.copy(), fx
    df = None
    restarted = False
    converged = False

    while not f.exhausted:
        pg = _pg_norm(x, g, lower)
        if pg < gtol and (df is None or df < ftol):
            converged = True
            break

        p = -(hinv @ g)
        if float(p @ g) >= 0.0:
            hinv = np.diag(hinv0)  # curvature estimate went bad; reset
            p = -(hinv @ g)

        accepted = False
        alpha = 1.0
        xt = x
        ft = fx
        for _ in range(50):
            xt = np.maximum(x + alpha * p, lower)
            dx = xt - x
            if not np.any(dx):
                break
            gdx = float(g @ dx)
            ft = f(xt)
            if gdx < 0.0 and ft <= fx + 1e-4 * gdx:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if pg < gtol:
                converged = True
                break
            if not restarted:
                # one restart from a deterministic nearby point
                restarted = True
                x = np.maximum(x + 1e-3 * np.maximum(1.0, np.abs(x)), lower)
                fx = f(x)
                g = _gradient(f, x, fx, lower)
                hinv = np.diag(hinv0)
                df = None
                if fx < best_f:
                    best_x, best_f = x.copy(), fx
                continue
            break

        gt = _gradient(f, xt, ft, lower)
        s = xt - x
        yv = gt - g
        sy = float(s @ yv)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            rho = 1.0 / sy
            hy = hinv @ yv
            hinv = (
                hinv
                + np.outer(s, s) * (rho * rho * float(yv @ hy) + rho)
                - (np.outer(hy, s) + np.outer(s, hy)) * rho
            )
        df = fx - ft
        x, fx, g = xt, ft, gt
        if fx < best_f:
            best_x, best_f = x.copy(), fx

    if fx > best_f:
        x, fx = best_x, best_f

    K = cost.model.ncomponents
    covariance = _covariance(f, x, fx, K)
    if covariance is None:
        errors = None
        converged = False
    else:
        errors = np.sqrt(np.diag(covariance))
    return FitResult(
        yields=x[:K].copy(),
        yield_errors=errors,
        covariance=covariance,
        qmin=fx,
        ndof=cost.ndof,
        converged=converged,
        n_evaluations=f.calls,
        betas=cost.diagnostics(x),
    )


def _initial_inverse_diag(d2: np.ndarray) -> np.ndarray:
    # diagonal inverse-curvature scaling; yields and amplitude factors live
    # on very different scales, so a unit matrix would stall the first steps
    good = np.isfinite(d2) & (d2 > 0.0)
    return np.where(good, 1.0 / np.where(good, d2, 1.0), 1.0)


def _hessian(f: _Counted, x: np.ndarray, f0: float) -> np.ndarray:
    n = x.size
    h = np.empty(n)
    for i in range(n):
        h[i] = _HESS_STEP * max(1.0, abs(x[i]))
    H = np.empty((n, n))
    # two points per diagonal entry, four corners per pair i < j; the rows
    # are built one chunk of entries at a time
    entries = itertools.chain(((i, i) for i in range(n)), itertools.combinations(range(n), 2))
    while chunk := list(itertools.islice(entries, max(1, f.rows // 4))):
        rows = []
        for i, j in chunk:
            if i == j:
                xp = x.copy()
                xp[i] += h[i]
                xm = x.copy()
                xm[i] -= h[i]
                rows += (xp, xm)
                continue
            xpp = x.copy()
            xpp[i] += h[i]
            xpp[j] += h[j]
            xpm = x.copy()
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp = x.copy()
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm = x.copy()
            xmm[i] -= h[i]
            xmm[j] -= h[j]
            rows += (xpp, xpm, xmp, xmm)
        values = _evaluate(f, rows)
        for i, j in chunk:
            if i == j:
                H[i, i] = (next(values) - 2.0 * f0 + next(values)) / (h[i] * h[i])
                continue
            fpp, fpm, fmp, fmm = next(values), next(values), next(values), next(values)
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return H


def _covariance(f: _Counted, x: np.ndarray, f0: float, K: int) -> np.ndarray | None:
    """Yield block of twice the inverse Hessian at ``x``, where ``f(x) == f0``.

    ``None`` when the Hessian is not positive definite.
    """
    H = _hessian(f, x, f0)
    if not np.all(np.isfinite(H)):
        return None
    H = 0.5 * (H + H.T)  # symmetric by construction up to roundoff
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    cov = 2.0 * np.linalg.inv(H)
    return np.ascontiguousarray((0.5 * (cov + cov.T))[:K, :K])


def hesse(cost: CostFunction, at) -> np.ndarray | None:
    """Yield covariance from the central finite-difference Hessian at ``at``.

    Returns twice the inverse Hessian; for the exact method the full
    parameter Hessian is inverted and the yield block returned, which
    profiles the amplitude-factor uncertainty into the yield covariance.
    Returns ``None`` when the Hessian is not positive definite.
    """
    x = np.asarray(at, dtype=np.float64)
    if x.shape != (cost.nparams,):
        raise ValueError(f"expected {cost.nparams} parameters, got shape {x.shape}")
    f = _Counted(cost)
    return _covariance(f, x, f(x), cost.model.ncomponents)


def gof(result: FitResult) -> float:
    """Goodness-of-fit p-value: the upper-tail chi-square probability of ``qmin``.

    Only meaningful for converged fits.  Raises for ``ndof <= 0``, where
    the statistic carries no degrees of freedom.
    """
    if result.ndof <= 0:
        raise ValueError(f"goodness of fit undefined for ndof={result.ndof}")
    return chi2_sf(result.qmin, result.ndof)


def fit(
    model,
    method: Method | str = Method.APPROX,
    *,
    weighted: bool = False,
    start=None,
    gtol: float = DEFAULT_GTOL,
    ftol: float = DEFAULT_FTOL,
    max_calls: int = DEFAULT_MAX_CALLS,
) -> FitResult:
    """One-call template fit: build the cost function and minimize it."""
    cost = CostFunction(method, model, weighted=weighted)
    return minimize(cost, start=start, gtol=gtol, ftol=ftol, max_calls=max_calls)
