"""Bounded quasi-Newton minimization, Hessian covariance, and goodness of fit.

The minimizer is a BFGS-class method with a projection onto the
per-parameter lower bounds and a single restart from a perturbed point
when the line search stalls.  All the cost functions of this package are
smooth in their parameters, so no derivative-free fallback is needed.
The covariance is twice the inverse of the Hessian at the minimum (the
factor two because the cost is minus twice a log-likelihood ratio).  A
minimum with a parameter on its lower bound has no covariance.

Every method's Hessian is closed form, ``CostFunction.hessian``: the
initial inverse-curvature scaling is the inverse diagonal of the Hessian
at the start, and the covariance comes from the Hessian at the minimum.
For ``exact`` it spans yields and amplitude factors and the yield block of
its full inverse is returned, so the template uncertainty propagates into
the yield errors.  Each Hessian counts as one evaluation.

``approx`` and ``conway`` profile their per-bin factors analytically, so
``CostFunction.value_and_gradient`` gives the value and the exact gradient
in one kernel pass, which counts as one evaluation: every line-search
trial is one such pass, whose gradient is kept when the trial is accepted.

``exact`` fits its amplitude factors numerically and takes its gradient by
central finite differences.  Each stencil is evaluated through one lazy
evaluator that pulls its points in stacked ``cost(X)`` calls of at most
2^14 per-bin elements (rows x components x active bins); the start value
shares one stack with the first gradient stencil.  Every stacked value
equals the single-point call bit for bit and every point counts as one
evaluation.

A quasi-Newton step moves only the free parameters: one on its lower
bound whose gradient points out of the domain is held there.

Every fit reports why it stopped in ``FitResult.status``.
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
_GRAD_STEP = math.sqrt(_EPS)  # central-difference gradient step scale

DEFAULT_GTOL = 1e-4
DEFAULT_MAX_CALLS = 100_000
_FTOL = 1e-6  # convergence threshold on the cost decrease between iterations

# a stacked cost call holds at most this many per-bin elements (rows x
# components x active bins), which bounds the size of its temporaries
_STACK_ELEMENTS = 2**14


@dataclass(frozen=True)
class FitResult:
    """Outcome of one minimization.

    ``status`` says why the fit stopped: ``converged``; ``on_bound`` when
    the minimizer converged with a parameter on its lower bound;
    ``hessian_not_pd`` when it converged but the Hessian there is not
    positive definite; ``stalled`` when the line search failed after the
    restart; ``budget`` when the evaluation budget ran out.  ``converged``
    is true for status ``converged`` only.  ``yield_errors`` and
    ``covariance`` are ``None`` on a bound and where the Hessian is not
    positive definite.  ``ndof`` counts the bins entering the cost minus
    the number of yields.  ``betas`` holds the per-bin scale factors at
    the minimum (profiled for the approximate methods, fitted for the
    exact one).
    """

    yields: np.ndarray
    yield_errors: np.ndarray | None
    covariance: np.ndarray | None
    qmin: float
    ndof: int
    status: str
    n_evaluations: int
    betas: BetaDiagnostics

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Counted:
    """Evaluation counter around a cost function, with a budget.

    Costs with closed-form gradients (``approx``, ``conway``) give the
    value and gradient in one pass, counting as one evaluation.  ``exact``
    uses finite-difference gradient stencils: ``values`` evaluates a stream
    of stencil points in stacked calls of at most ``rows`` points, and each
    point counts as one evaluation.  Every method's Hessian is closed form
    and counts as one evaluation.
    """

    def __init__(self, cost: CostFunction, max_calls: float = math.inf):
        self._cost = cost
        self.calls = 0
        self.max_calls = max_calls
        self.closed_form = cost.method is not Method.EXACT
        self.rows = max(1, _STACK_ELEMENTS // max(1, cost.model.ncomponents * cost.nbins_active))

    def __call__(self, x: np.ndarray) -> float:
        self.calls += 1
        return self._cost(x)

    def values(self, points) -> Iterator[float]:
        """Values at ``points``, in order, drawing at most ``rows`` points per call."""
        points = iter(points)
        while chunk := list(itertools.islice(points, self.rows)):
            if len(chunk) == 1:  # the vector call is cheaper than a one-row stack
                yield self(chunk[0])
                continue
            self.calls += len(chunk)
            yield from self._cost(np.array(chunk)).tolist()

    def start(self, x: np.ndarray, lower: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, gradient and diagonal second derivatives at the start point."""
        if self.closed_form:
            fx, g = self.trial(x)
        else:  # the start value and the gradient stencil, in one stack
            rows, steps = _gradient_rows(x, lower)
            values = self.values([x, *rows])
            fx = next(values)
            g = _gradient_of(values, steps, fx)
        return fx, g, np.diag(self.hessian(x))

    def trial(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Value at ``x`` and, for a closed-form cost, its gradient from the same pass.

        The gradient is ``None`` for ``exact``: callers take the stencil
        gradient once they accept the point.
        """
        if not self.closed_form:
            return self(x), None
        self.calls += 1
        if not np.isfinite(x).all():  # a diverged step, outside the domain
            return math.inf, np.full(x.size, math.nan)
        return self._cost.value_and_gradient(x)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self._cost.hessian(x)

    @property
    def exhausted(self) -> bool:
        return self.calls >= self.max_calls


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
    return _gradient_of(f.values(rows), steps, f0)


def _at_bound(x: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Which parameters sit on their lower bound."""
    return (x - lower) <= 1e-9 * np.maximum(1.0, np.abs(x))


def _direction(hinv: np.ndarray, g: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Quasi-Newton step over the free parameters; ``held`` ones stay put."""
    if not held.any():
        return -(hinv @ g)
    free = ~held
    # inverse of the free block of the curvature model: the Schur complement
    # of the held block in its inverse
    hff = hinv[np.ix_(free, free)]
    hfh = hinv[np.ix_(free, held)]
    hff = hff - hfh @ np.linalg.solve(hinv[np.ix_(held, held)], hfh.T)
    p = np.zeros_like(g)
    p[free] = -(hff @ g[free])
    return p


def _pg_norm(g: np.ndarray, held: np.ndarray) -> float:
    """Sup norm of the gradient with the components of ``held`` parameters removed."""
    pg = np.where(held, 0.0, g)
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
    *,
    gtol: float = DEFAULT_GTOL,
    max_calls: int = DEFAULT_MAX_CALLS,
) -> FitResult:
    """Minimize a cost function over its parameter space, bounded below by its ``lower_bounds``.

    Parameters
    ----------
    cost : CostFunction
        The objective; must be finite at the start point.
    start : array_like, optional
        Start vector, defaults to :func:`default_start`.
    gtol : float
        Convergence threshold on the projected-gradient sup norm, positive;
        the cost decrease between iterations must also fall below 1e-6.
    max_calls : int
        Evaluation budget, at least 1; when exhausted the best point seen
        so far is returned with status ``budget``.
    """
    x = np.array(default_start(cost) if start is None else start, dtype=np.float64)
    lower = cost.lower_bounds
    if x.shape != (cost.nparams,):
        raise ValueError(f"start must have {cost.nparams} entries")
    if not np.isfinite(x).all():
        raise ValueError("start point must be finite")
    if np.any(x < lower):
        raise ValueError("start point must lie within the bounds")
    if not gtol > 0.0:
        raise ValueError(f"gtol must be positive, got {gtol}")
    if not max_calls >= 1:
        raise ValueError(f"max_calls must be at least 1, got {max_calls}")

    f = _Counted(cost, max_calls)
    fx, g, d2 = f.start(x, lower)
    if not math.isfinite(fx):
        raise ValueError("cost is not finite at the start point")
    hinv0 = _initial_inverse_diag(d2)
    hinv = np.diag(hinv0)
    best_x, best_f = x.copy(), fx
    df = None
    restarted = False
    status = "budget"

    while not f.exhausted:
        # on its bound with the gradient pointing out of the domain
        held = _at_bound(x, lower) & (g > 0.0)
        pg = _pg_norm(g, held)
        if pg < gtol and (df is None or df < _FTOL):
            status = "converged"
            break

        p = _direction(hinv, g, held)
        if float(p @ g) >= 0.0:
            hinv = np.diag(hinv0)  # curvature estimate went bad; reset
            p = _direction(hinv, g, held)

        accepted = False
        alpha = 1.0
        xt = x
        ft, gt = fx, None
        for _ in range(50):
            xt = np.maximum(x + alpha * p, lower)
            dx = xt - x
            if not np.any(dx):
                break
            gdx = float(g @ dx)
            ft, gt = f.trial(xt)
            if gdx < 0.0 and ft <= fx + 1e-4 * gdx:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if pg < gtol:
                status = "converged"
                break
            if not restarted:
                # one restart from a deterministic nearby point
                restarted = True
                x = np.maximum(x + 1e-3 * np.maximum(1.0, np.abs(x)), lower)
                fx, g = f.trial(x)
                if g is None:
                    g = _gradient(f, x, fx, lower)
                hinv = np.diag(hinv0)
                df = None
                if fx < best_f:
                    best_x, best_f = x.copy(), fx
                continue
            status = "stalled"
            break

        if gt is None:
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
    on_bound = bool(_at_bound(x, lower).any())
    covariance = None if on_bound else _covariance(f.hessian(x), K)
    if status == "converged" and on_bound:
        status = "on_bound"
    elif status == "converged" and covariance is None:
        status = "hessian_not_pd"
    return FitResult(
        yields=x[:K].copy(),
        yield_errors=None if covariance is None else np.sqrt(np.diag(covariance)),
        covariance=covariance,
        qmin=fx,
        ndof=cost.ndof,
        status=status,
        n_evaluations=f.calls,
        betas=cost.diagnostics(x),
    )


def _initial_inverse_diag(d2: np.ndarray) -> np.ndarray:
    # diagonal inverse-curvature scaling; yields and amplitude factors live
    # on very different scales, so a unit matrix would stall the first steps
    good = np.isfinite(d2) & (d2 > 0.0)
    return np.where(good, 1.0 / np.where(good, d2, 1.0), 1.0)


def _covariance(H: np.ndarray, K: int) -> np.ndarray | None:
    """Yield block of twice the inverse of the Hessian ``H``.

    ``None`` when ``H`` is not positive definite.
    """
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
    """Yield covariance from the Hessian at ``at``: twice its inverse.

    The Hessian is the closed-form ``cost.hessian(at)``.  For ``exact`` the
    full Hessian over yields and amplitude factors is inverted and the
    yield block returned, which profiles the amplitude-factor uncertainty
    into the yield covariance.  Returns ``None`` when a parameter sits on
    its lower bound or the Hessian is not positive definite; raises
    ``ValueError`` outside the domain.
    """
    x = cost.validate(at)
    if _at_bound(x, cost.lower_bounds).any():
        return None
    return _covariance(cost.hessian(x), cost.model.ncomponents)


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
    gtol: float = DEFAULT_GTOL,
) -> FitResult:
    """One-call template fit: build the cost function and minimize it from the default start."""
    return minimize(CostFunction(method, model, weighted=weighted), gtol=gtol)
