"""Correctness gate and determinism digest, both outside the timed region.

Every fit of the verification pass is checked against an independent
minimum of the same public ``CostFunction``, found by scipy's L-BFGS-B on
parameters scaled to order one.  The check is one-sided: templatefit's
``qmin`` may not exceed the reference by more than the tolerance, but the
reference may stop higher (it does on some ``conway`` fits at n_mc=50).
Yields are compared only where both minima agree within the tolerance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from templatefit import CostFunction, FitResult, default_start, gof
from templatefit.study import records_to_csv

# qmin may exceed the reference minimum by at most
# QMIN_ABS_TOL + QMIN_REL_TOL * |reference|.  The minimizer stops at a
# projected gradient below gtol = 1e-4, which on yields with errors near 50
# leaves qmin up to gtol^2 * sigma^2 / 4 ~ 6e-6 above the minimum.
QMIN_ABS_TOL = 1e-5
QMIN_REL_TOL = 1e-9
# where both minima agree, yields may differ by at most this many yield errors
YIELD_TOL_SIGMA = 0.02


@dataclass(frozen=True)
class Check:
    """Outcome of the gate on one fit; ``excess`` is qmin minus the reference."""

    problems: tuple[str, ...]
    excess: float | None = None
    yields_compared: bool = False


def reference_minimum(cost: CostFunction) -> tuple[float, np.ndarray]:
    """Minimum of ``cost`` by scipy's L-BFGS-B from the package's default start."""
    from scipy.optimize import minimize as sp_minimize

    x0 = default_start(cost)
    scale = np.maximum(1.0, np.abs(x0))
    # finite differences that step onto an infinite cost are the reference's
    # own business, not a warning raised inside a templatefit fit
    with np.errstate(invalid="ignore", over="ignore"):
        res = sp_minimize(
            lambda u: cost(u * scale),
            x0 / scale,
            method="L-BFGS-B",
            bounds=[(lb / s, None) for lb, s in zip(cost.lower_bounds, scale)],
            options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 20_000, "maxfun": 500_000},
        )
    return float(res.fun), res.x * scale


def check_fit(model, method: str, weighted: bool, outcome) -> Check:
    """Gate one fit outcome; a fit that raised is a failure, not a gate problem."""
    if not isinstance(outcome, FitResult):
        return Check(())
    problems = []
    K = model.ncomponents
    active = int(np.count_nonzero(model.component_sumw().sum(axis=0) > 0.0))
    if outcome.ndof != active - K:
        problems.append(f"ndof {outcome.ndof} != {active} active bins - {K}")
    if not outcome.converged:
        return Check(tuple(problems))
    errors = outcome.yield_errors
    if errors is None or not np.all(np.isfinite(errors)):
        problems.append(f"converged fit has non-finite yield errors {errors}")
        errors = None
    p_value = gof(outcome)
    if not 0.0 <= p_value <= 1.0:
        problems.append(f"gof {p_value} outside [0, 1]")
    q_ref, x_ref = reference_minimum(CostFunction(method, model, weighted=weighted))
    tol = QMIN_ABS_TOL + QMIN_REL_TOL * abs(q_ref)
    excess = float(outcome.qmin) - q_ref
    if excess > tol:
        problems.append(f"qmin {outcome.qmin!r} exceeds the reference {q_ref!r} by {excess:.3g}")
    compared = abs(excess) <= tol and errors is not None
    if compared:
        shift = np.abs(outcome.yields - x_ref[:K]) / errors
        if np.max(shift) > YIELD_TOL_SIGMA:
            problems.append(
                f"yields {outcome.yields} differ from the reference {x_ref[:K]} "
                f"by {np.max(shift):.3g} yield errors"
            )
    return Check(tuple(problems), excess, compared)


def digest(records) -> str:
    """SHA-256 of the records CSV."""
    return hashlib.sha256(records_to_csv(records).encode()).hexdigest()


def same_records(a, b) -> bool:
    """Bit-for-bit equality of two record lists (NaN fields compare by repr)."""
    return [repr(r) for r in a] == [repr(r) for r in b]
