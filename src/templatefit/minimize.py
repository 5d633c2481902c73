"""Bounded quasi-Newton minimization, Hessian covariance, and goodness of fit.

The minimizer is a BFGS-class method with a projection onto the
per-parameter lower bounds and a single restart from a perturbed point
when the line search stalls.  All the cost functions of this package are
smooth in their parameters, so no derivative-free fallback is needed.
The covariance is twice the inverse of the Hessian at the minimum (the
factor two because the cost is minus twice a log-likelihood ratio).  A
minimum with a parameter on its lower bound has no covariance, nor has
one whose Hessian is not positive definite in floating point: its
Cholesky factorization or its inversion fails, or a yield variance comes
out not positive.

One loop runs every fit, on a batch of fits in lockstep: its state holds
one row per fit, and every round evaluates each row's next point (a
line-search trial or the restart point) in one call.  A row leaves the
batch when its fit stops.  Every fit of every method runs on stacked
rows, :func:`minimize`'s on the one-row stack its cost keeps.
``_minimize_stacks`` fits the rows of
:class:`~templatefit.likelihood.CostStack` objects (``run_study`` builds
them from count arrays, with no cost functions) in stacks of at most 2^14
per-bin elements (rows x components x the most active bins), so a round
costs one NumPy dispatch per elementwise operation for the whole stack.
Every operation on the loop's state is elementwise, a reduction
along the last axis or one BLAS product per row, and stacked rows equal
single calls bit for bit (see ``CostStack``), so a fit's result does not
depend on the batch it ran in.
That is also why one loop can step the rows of several stacks with one
parameter count (``run_study``'s approx and conway stacks of a chunk),
each stack a segment evaluated by its own kernels: the loop's own
bookkeeping is then paid once per round for all of them.  A row that
stops stays in its stack at its last point, its outputs dropped, until at
most half of the stack's rows still run; ``CostStack.take`` then narrows
the stack to those, so a round does at most twice the kernel work it
needs, and a stack is copied at most once per halving of its rows.
One function, ``_fit_rows``, turns the end of every fit into its
:class:`FitResult`, with its status and covariance.

Every fit starts, unless told otherwise, from :func:`default_start`: the
data total split equally over the yields and taken one EM step of the
plain Poisson template fit on, which costs no evaluation and brings the
yields near the minimum; ``run_study``'s stacks start from ``default_start(stack)``.

Every method's Hessian is closed form, a stack's or a cost's ``hessian``: the
initial inverse-curvature scaling is the inverse diagonal of the Hessian
at the start, and the covariance comes from the Hessian at the minimum.
Where a diagonal entry is not positive (Conway's profiled Hessian in some
yields at the equal split, approx's at templates of a few entries; rarely
after the EM step), ``approx`` and ``conway`` take the yield's expected
curvature, ``sum 2 s c_k^2 / m`` over bins, in its place; scaled by 1
instead, the line search crept in that yield, and BFGS, which skips
updates without positive curvature along the step, never learned its
scale.  It is formed only where some entry is bad, counts as no
evaluation, and the curvature reset and the restart return to this
scaling.
``exact`` keeps 1 there.  For ``exact`` the Hessian spans yields and
amplitude factors and the yield block of its full inverse is returned, so
the template uncertainty propagates into the yield errors.  Each Hessian
counts as one evaluation, also where it
reads a kernel pass already made: a stack keeps the pass of its last
evaluation, so the start Hessian comes from the start's pass, and a fit
that ends at the point it evaluated last takes the Hessian of its
covariance, and :func:`minimize` its ``betas``, from that pass.  A cost
function's row keeps its pass from fit to fit: a pass is a function of
the stack and of the bytes of the yields, so whichever fit or call made
it, it gives the bits of a new one.

``approx`` and ``conway`` profile their per-bin factors analytically, so
``CostStack.value_and_gradient`` gives the value and the closed-form
gradient in one kernel pass, which counts as one evaluation: every
line-search trial is one such pass, whose gradient is kept when the trial
is accepted.

``exact`` fits its amplitude factors numerically and takes its gradient by
central finite differences: its stack gives values without gradients.
Its parameter count varies from fit to fit, so an exact stack holds one
fit and runs as a batch of one.  The loop takes the stencil gradient of
each point it takes, the start's too, as one array of points evaluated on
the stack in calls of at most 2^14 per-bin elements.  Every value equals
the cost function's call at that point bit for bit, and every point counts
as one evaluation.

A quasi-Newton step moves only the free parameters: one on its lower
bound whose gradient points out of the domain is held there.

At a new point a fit converges once the projected gradient is below
``gtol`` and both the last step's cost decrease and the decrease the
curvature model still expects, ``-g.p/2`` for the quasi-Newton step ``p``
(MINUIT's estimated distance to the minimum), are below 1e-6; the start
and the restart point have no last step, so a fit takes one from there
first.  Along nearly collinear templates the gradient is tiny far from
the minimum, and only the last test sees it.  A line search that fails
ends the fit as converged where the projected gradient is below ``gtol``.

Every fit reports why it stopped in ``FitResult.status``, with its
evaluation, iteration and restart counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihood import BetaDiagnostics, CostFunction, CostStack, Method, _diag, _dot, _matvec
from .special import chi2_sf

__all__ = [
    "FitResult",
    "minimize",
    "hesse",
    "default_start",
    "gof",
    "fit",
]

_EPS = float(np.finfo(np.float64).eps)
_GRAD_STEP = math.sqrt(_EPS)  # central-difference gradient step scale

DEFAULT_GTOL = 1e-4
DEFAULT_MAX_CALLS = 100_000
_FTOL = 1e-6  # convergence threshold on the last and the expected cost decrease
_TRIALS = 50  # line-search trials per iteration

# a stacked cost call holds at most this many per-bin elements (rows x
# components x active bins), which bounds the size of its temporaries
_STACK_ELEMENTS = 2**14


def _rows_per_call(elements: int) -> int:
    """How many rows of ``elements`` per-bin elements each one stacked call holds, at least 1."""
    return max(1, _STACK_ELEMENTS // max(1, elements))


# why a row left the loop; 0 while it runs
_STATUSES = ("", "converged", "stalled", "budget")
_CONVERGED, _STALLED, _BUDGET = 1, 2, 3


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
    exact one, ``None`` on a row of a ``run_study`` stack).
    ``n_iterations`` counts the accepted quasi-Newton steps and
    ``restarted`` says whether the one restart was taken.
    """

    yields: np.ndarray
    yield_errors: np.ndarray | None
    covariance: np.ndarray | None
    qmin: float
    ndof: int
    status: str
    n_evaluations: int
    betas: BetaDiagnostics | None
    n_iterations: int = 0
    restarted: bool = False

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Segment:
    """One stack's rows in a :class:`_Stacked` batch.

    ``stack`` holds the rows not yet narrowed away, ``run`` the positions in
    it of the running ones (``None`` while all of them run) and ``y`` the
    point each of its rows was last evaluated at.
    """

    __slots__ = ("stack", "run", "y")

    def __init__(self, stack: CostStack):
        self.stack, self.run, self.y = stack, None, None

    def __len__(self) -> int:
        return len(self.stack) if self.run is None else len(self.run)

    def keep(self, mine: np.ndarray) -> bool:
        """Keep the running rows ``mine``, positions among the running ones; False for none."""
        if not len(mine):
            return False
        if len(mine) < len(self):
            run = mine if self.run is None else self.run[mine]
            if 2 * len(run) <= len(self.stack):
                self.stack, self.y, run = self.stack.take(run), self.y[run], None
            self.run = run
        return True


def _joined(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Stacked:
    """The rows of one or more cost stacks of one parameter count as one batch.

    The batch holds each stack's rows in turn, a segment per stack; stopped
    rows stay in their segment until half of it has stopped, as the module
    docstring says.  Every round evaluates each running row once, so all running rows have
    made the same number of evaluations, ``calls``.  A row's ``ndof`` is its
    active-bin count minus the yields; it has no ``betas``.  An exact stack,
    which holds one fit, runs alone.
    """

    # the numeric failures of a stack; a plain ValueError there is a bug
    numeric = (np.linalg.LinAlgError, ArithmeticError)

    def __init__(self, *stacks: CostStack):
        self._all = stacks
        self._segments = [_Segment(stack) for stack in stacks]
        self.calls = 0
        self.ncomponents = K = stacks[0].ncomponents
        self.lower = stacks[0].lower_bounds
        self.ndof = [d for stack in stacks for d in (stack.nbins_active - K).tolist()]

    betas = staticmethod(lambda point: None)

    def keep(self, rows: np.ndarray) -> None:
        """Drop every running row but ``rows``, positions among the running ones."""
        if len(self._segments) == 1:  # nothing to split
            self._segments = [seg for seg in self._segments if seg.keep(rows)]
            return
        segments, lo = [], 0
        for seg in self._segments:
            a, b = np.searchsorted(rows, [lo, lo + len(seg)]).tolist()
            mine = rows[a:b] - lo
            lo += len(seg)
            if seg.keep(mine):
                segments.append(seg)
        self._segments = segments

    def start(self, x: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        fx, g = self.trial(x)
        self.calls += 1
        segments = self._segments
        # each stack's Hessians at the points it just evaluated read that pass
        d2 = _joined(
            [np.diagonal(seg.stack.hessian(seg.y), axis1=-2, axis2=-1) for seg in segments]
        )
        if g is None:  # exact's stencil, where the start is finite
            g = self.gradients(x, fx, np.isfinite(fx))
        return fx, g, _initial_inverse_diag(
            d2,
            lambda: _joined(
                [seg.stack._expected_curvature(seg.stack._inside(seg.y)[0]) for seg in segments]
            ),
        )

    def trial(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.calls += 1
        if len(self._segments) == 1 and self._segments[0].run is None:  # every row of one stack
            seg = self._segments[0]
            seg.y = x
            return seg.stack.value_and_gradient(x)
        values, gradients, lo = [], [], 0
        for seg in self._segments:
            xs = x[lo : lo + len(seg)]
            lo += len(seg)
            if seg.run is None:
                seg.y = xs
                v, g = seg.stack.value_and_gradient(xs)
            else:
                seg.y = _put(seg.y, seg.run, xs)
                v, g = seg.stack.value_and_gradient(seg.y)
                v, g = v[seg.run], g[seg.run]
            values.append(v)
            gradients.append(g)
        return _joined(values), _joined(gradients)

    def gradients(self, x: np.ndarray, fx: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Central-difference gradients of an exact stack's one fit at ``x[rows]``, NaN elsewhere.

        ``fx`` holds the values at ``x``; a quotient is one-sided where the
        lower bound is too close.  Each stencil (:func:`_stencil`) is evaluated
        on the stack in calls of at most 2^14 per-bin elements (points x
        components x active bins), every point one evaluation.
        """
        stack = self._all[0]
        size = _rows_per_call(stack.ncomponents * stack._width)
        g = np.full_like(x, np.nan)
        for j in rows.nonzero()[0]:
            points, h, taken = _stencil(x[j], self.lower)
            self.calls += len(points)
            chunks = range(0, len(points), size)
            f = _joined([stack.value_and_gradient(points[i : i + size])[0] for i in chunks])
            if taken is None:  # every lower point taken: the values pair up
                f = f.reshape(-1, 2)
                g[j] = (f[:, 0] - f[:, 1]) / (2.0 * h)
            else:
                pairs = np.full(taken.shape, fx[j])
                pairs[taken] = f
                g[j] = (pairs[:, 0] - pairs[:, 1]) / np.where(taken[:, 1], 2.0 * h, h)
        return g

    def hessian(self, x: np.ndarray, rows) -> np.ndarray:
        """Hessians at ``x`` of the costs at ``rows``, ascending positions in the whole batch.

        A stack that was never narrowed holds the pass of its last evaluation,
        which its Hessians at the same points read.
        """
        if len(self._all) == 1 and len(rows) == len(self.ndof):  # every row of one stack
            return self._all[0].hessian(x)
        rows = np.asarray(rows)
        out, lo = [], 0
        for stack in self._all:
            a, b = np.searchsorted(rows, [lo, lo + len(stack)]).tolist()
            if b > a:
                mine = stack if b - a == len(stack) else stack.take(rows[a:b] - lo)
                out.append(mine.hessian(x[a:b]))
            lo += len(stack)
        return _joined(out)


def _stencil(x: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The points of the gradient stencil at ``x``, the step of each parameter, and which
    points are taken: ``(nparams, 2)``, the lower one only where it keeps its bound, or
    ``None`` where every point is.

    Parameter ``i`` steps to ``x_i + h``, then to ``x_i - h``; the taken
    points come as one array, in that order.
    """
    n = x.size
    xp = x + _GRAD_STEP * np.maximum(1.0, np.abs(x))
    h = xp - x  # kill representation error in the step
    xm = x - h
    points = np.empty((2 * n, n))
    points[...] = x
    # point 2i moves parameter i up and point 2i + 1 moves it down: flat
    # positions i (2n + 1) and i (2n + 1) + n
    flat = points.reshape(-1)
    flat[:: 2 * n + 1] = xp
    flat[n :: 2 * n + 1] = xm
    low = xm >= lower
    if np.count_nonzero(low) == n:
        return points, h, None
    taken = np.ones((n, 2), dtype=bool)
    taken[:, 1] = low
    return points[taken.reshape(-1)], h, taken


def _at_bound(x: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Which parameters sit on their lower bound."""
    return (x - lower) <= 1e-9 * np.maximum(1.0, np.abs(x))


def _direction(hinv: np.ndarray, g: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Quasi-Newton step over the free parameters of one row; ``held`` ones stay put.

    No step where the held block of ``hinv`` is singular (BFGS roundoff can
    zero its diagonal): a step that does not descend resets the curvature.
    """
    free = ~held
    p = np.zeros_like(g)
    # inverse of the free block of the curvature model: the Schur complement
    # of the held block in its inverse
    hff = hinv[np.ix_(free, free)]
    hfh = hinv[np.ix_(free, held)]
    try:
        hff = hff - hfh @ np.linalg.solve(hinv[np.ix_(held, held)], hfh.T)
    except np.linalg.LinAlgError:
        return p
    p[free] = -(hff @ g[free])
    return p


def _directions(hinv: np.ndarray, g: np.ndarray, held: np.ndarray | None) -> np.ndarray:
    """Quasi-Newton steps of stacked rows; rows with held parameters one by one.

    ``held`` is ``None`` where no parameter is held.
    """
    p = -_matvec(hinv, g)
    if held is not None:
        for i in np.logical_or.reduce(held, axis=-1).nonzero()[0]:
            p[i] = _direction(hinv[i], g[i], held[i])
    return p


def default_start(cost: CostFunction | CostStack) -> np.ndarray:
    """Default start point: one EM step from the observed total split equally over the yields.

    The step (``_PerBin._em_step``) moves the yields towards the plain
    Poisson fit at the cost of two products over bins, and counts as no
    evaluation; a split that is not finite stays as it is.  Exact-method
    amplitude factors start at 1, their large-template asymptotic value.
    The step runs on a cost function's one-row stack, for every method; a
    :class:`~templatefit.likelihood.CostStack` gets the ``(T, K)`` starts
    of its rows, each its row's cost function's start bit for bit.
    """
    stack = cost._stack if isinstance(cost, CostFunction) else cost
    K, totals = stack.ncomponents, stack._data_totals
    start = np.ones(totals.shape + (stack.nparams,))
    start[..., :K] = stack._em_step(np.repeat(totals[..., None] / K, K, axis=-1))
    return start if stack is cost else start[0]


def _check_options(gtol: float, max_calls: int) -> None:
    if not gtol > 0.0:
        raise ValueError(f"gtol must be positive, got {gtol}")
    if not max_calls >= 1:
        raise ValueError(f"max_calls must be at least 1, got {max_calls}")


def minimize(
    cost: CostFunction,
    start=None,
    *,
    gtol: float = DEFAULT_GTOL,
    max_calls: int = DEFAULT_MAX_CALLS,
) -> FitResult:
    """Minimize a cost function over its parameter space, bounded below by its ``lower_bounds``.

    A batch of one through the lockstep loop that ``run_study``'s stacks
    run, with the cost's ``ndof`` and its ``diagnostics`` at the minimum as
    ``betas``.  The fit runs on the one-row stack the cost keeps, so a
    subclass's ``__call__`` and ``hessian`` are not called.

    Parameters
    ----------
    cost : CostFunction
        The objective; must be finite at the start point.
    start : array_like, optional
        Start vector, defaults to :func:`default_start`.
    gtol : float
        Convergence threshold on the projected-gradient sup norm, positive;
        the cost decrease of the last step and the decrease the curvature
        model still expects must also fall below 1e-6.
    max_calls : int
        Evaluation budget, at least 1; when exhausted the best point seen
        so far is returned with status ``budget``.
    """
    x = np.array(default_start(cost) if start is None else start, dtype=np.float64)
    if x.shape != (cost.nparams,):
        raise ValueError(f"start must have {cost.nparams} entries")
    if np.count_nonzero(np.isfinite(x)) < x.size:
        raise ValueError("start point must be finite")
    if np.count_nonzero(x < cost.lower_bounds):
        raise ValueError("start point must lie within the bounds")
    _check_options(gtol, max_calls)
    f = _Stacked(cost._stack)
    # a fit that ended at its last point reads the betas from that pass
    f.betas = cost.diagnostics
    (result,) = _fit_rows(f, x[None], gtol, max_calls)
    if isinstance(result, Exception):
        raise result
    return result


def _minimize_stacks(
    stacks: list[CostStack],
    starts: list[np.ndarray],
    gtol: float = DEFAULT_GTOL,
    max_calls: int = DEFAULT_MAX_CALLS,
) -> list[list[FitResult | Exception]]:
    """Minimize every row of each of ``stacks``, all of one parameter count, in lockstep.

    Row ``t`` of a stack starts from row ``t`` of its ``(T, K)`` start array,
    ``default_start(stack)``; neither the starts nor the options are checked.
    Returns per stack one entry per row, in order: its :class:`FitResult`,
    equal field for field and bit for bit to the :func:`minimize` of the
    row's cost function from that start but with ``betas`` ``None``, or the
    ``ValueError`` or ``ArithmeticError`` that call would raise; the other
    rows still fit.  Each stack's rows are cut, in order, into chunks of at
    most 2^14 per-bin elements; the ``i``-th chunks of all stacks run in
    one loop (:func:`_fit_segments`), a segment each.  Rows ordered by
    active-bin count, as ``run_study`` builds them, reduce in the fewest
    runs; rows in any order fit to the same bits.
    """
    outs, chunks = [[] for _ in stacks], []
    for out, stack, x in zip(outs, stacks, starts):
        size = _rows_per_call(stack.ncomponents * stack._width)
        for n, lo in enumerate(range(0, len(x), size)):
            hi = min(lo + size, len(x))
            chunk = stack if hi - lo == len(stack) else stack.take(np.arange(lo, hi))
            if n == len(chunks):
                chunks.append([])
            chunks[n].append((out, chunk, x[lo:hi]))
    # the n-th chunks of all stacks fit together, so each stack's ends come in order
    for group in chunks:
        ends = iter(_fit_segments([g[1] for g in group], [g[2] for g in group], gtol, max_calls))
        for out, chunk, _ in group:
            out.extend(next(ends) for _ in range(len(chunk)))
    return outs


def _fit_segments(stacks: list[CostStack], xs: list, gtol: float, max_calls: int) -> list:
    """The ends of the rows of ``stacks`` from ``xs``, fitted in one loop, in order.

    A ``LinAlgError`` or ``ArithmeticError`` fits every row again alone, so
    the error fails only the fit that caused it.
    """
    try:
        return _fit_rows(_Stacked(*stacks), _joined(xs), gtol, max_calls)
    except _Stacked.numeric as exc:
        if sum(map(len, stacks)) == 1:
            return [exc]
        return [
            end
            for stack, x in zip(stacks, xs)
            for j in range(len(stack))
            for end in _fit_segments([stack.take([j])], [x[j : j + 1]], gtol, max_calls)
        ]


def _fit_rows(f, x: np.ndarray, gtol: float, max_calls: int) -> list:
    """Minimize every row of the batch ``f`` from ``x``; results (or exceptions) in row order.

    The one place that builds a :class:`FitResult`, with its final status
    and covariance; ``f`` supplies each row's ``ndof`` and ``betas``.
    """
    lower, K = f.lower, f.ncomponents
    ends = _descend(f, x, lower, gtol, max_calls)
    done = [i for i, end in enumerate(ends) if not isinstance(end, Exception)]
    if not done:
        return ends
    X = np.array([ends[i][0] for i in done])
    interior = ~np.logical_or.reduce(_at_bound(X, lower), axis=-1)
    rows = [done[j] for j in interior.nonzero()[0]]
    covariances = {}
    if rows:  # minima on a bound have no covariance
        H = f.hessian(X if len(rows) == len(done) else X[interior], rows)
        covariances = dict(zip(rows, _covariances(H, K)))
    errors = {}
    have = [i for i in rows if covariances[i] is not None]
    if have:  # every row's yield errors from one square root
        d = np.diagonal(np.array([covariances[i] for i in have]), axis1=-2, axis2=-1)
        errors = dict(zip(have, np.sqrt(d)))
    results = list(ends)
    for i in done:
        point, qmin, status, calls, iterations, restarted = ends[i]
        covariance = covariances.get(i)
        if status == "converged" and i not in covariances:
            status = "on_bound"
        elif status == "converged" and covariance is None:
            status = "hessian_not_pd"
        results[i] = FitResult(
            yields=point[:K].copy(),
            yield_errors=errors.get(i),
            covariance=covariance,
            qmin=qmin,
            ndof=f.ndof[i],
            status=status,
            n_evaluations=calls + (i in covariances),
            betas=f.betas(point),
            n_iterations=iterations,
            restarted=restarted,
        )
    return results


_ALL = slice(None)


def _which(mask: np.ndarray):
    """The rows of ``mask``: ``None`` for none, ``_ALL`` for all, else their positions."""
    rows = mask.nonzero()[0]
    return None if not len(rows) else _ALL if len(rows) == len(mask) else rows


def _put(arr: np.ndarray, rows, values) -> np.ndarray:
    """A copy of ``arr`` with ``rows`` set to ``values``; ``values`` itself for all rows.

    The loop never writes its state in place, so arrays may be shared.
    """
    if rows is _ALL:
        return values
    out = arr.copy()
    out[rows] = values
    return out


class _Rows:
    """State of the lockstep loop, one row per running fit.

    ``begin`` selects the rows at a new point, which start an iteration, and
    ``failed`` masks the rows whose line search failed (``None`` for none);
    the other rows continue their line search.  The state is never written
    in place, so rows of one array may be shared by another.
    """

    _ARRAYS = (
        "rows", "x", "fx", "g", "hinv", "hinv0", "best_x", "best_f", "fprev", "pg", "p",
        "trials", "iterations", "restarted", "xt", "lim",
    )
    __slots__ = _ARRAYS + ("steps", "begin", "failed", "restart")

    def __init__(self, x: np.ndarray, fx: np.ndarray, g: np.ndarray, hinv0: np.ndarray):
        n = len(x)
        self.rows = np.arange(n)  # batch position of each running row
        self.x, self.fx, self.g = x, fx, g
        self.hinv0 = hinv0
        self.hinv = _diag(self.hinv0)
        self.best_x, self.best_f = x, fx
        # value before the last step, +inf before the first step and after the
        # restart; fprev - fx is the decrease the convergence test reads, so
        # a fit converges only after an accepted step
        self.fprev = np.full(n, np.inf)
        # accepted steps: per row in rounds where some row rejects its trial,
        # and ``steps`` for the rounds where every row accepts
        self.iterations = np.zeros(n, dtype=np.int64)
        self.steps = 0
        self.restarted = np.zeros(n, dtype=bool)
        # set where an iteration begins, so first in the first round: the
        # projected-gradient norm, the direction and the rejected trials of
        # the line search (the step length is 2^-trials)
        self.pg = self.p = self.trials = None
        # the point each row evaluates next, and the largest value that
        # accepts it as a line-search trial
        self.xt = self.lim = None
        self.begin = _ALL
        self.failed: np.ndarray | None = None
        self.restart: np.ndarray | None = None  # rows evaluating their restart point

    def __len__(self) -> int:
        return len(self.rows)

    def stop(self, status: np.ndarray, calls: int, out: list) -> np.ndarray:
        """End the rows with a nonzero ``status``; returns the positions of the others.

        A row ends at its best point where its last point is worse.  Each
        array the ends read becomes a list once, so the rows read Python
        scalars, not NumPy ones; an index per array would cost more than it
        saves at the few rows that end together in most rounds.
        """
        fx, best_f, rows = self.fx.tolist(), self.best_f.tolist(), self.rows.tolist()
        codes, iterations = status.tolist(), self.iterations.tolist()
        restarted = self.restarted.tolist()
        for j in status.nonzero()[0].tolist():
            at_best = fx[j] > best_f[j]
            out[rows[j]] = (
                (self.best_x if at_best else self.x)[j].copy(),
                best_f[j] if at_best else fx[j],
                _STATUSES[codes[j]],
                calls,
                iterations[j] + self.steps,
                restarted[j],
            )
        keep = (status == 0).nonzero()[0]
        self.rows = self.rows[keep]
        if not len(keep):
            return keep
        for name in self._ARRAYS[1:]:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])
        if self.begin is not _ALL and self.begin is not None:
            self.begin = _which(np.isin(keep, self.begin))
        if self.failed is not None:
            self.failed = self.failed[keep]
        if self.restart is not None:
            self.restart = self.restart[keep]
        return keep


def _descend(f, x: np.ndarray, lower: np.ndarray, gtol: float, max_calls: int) -> list:
    """The bounded quasi-Newton iteration of every row of ``x``, in lockstep.

    Every round evaluates each running row once, at its next line-search
    trial or at its restart point.  Returns per row the end point, its
    value, the status, the evaluation and iteration counts and whether it
    restarted; or a ``ValueError`` when the cost is not finite at the start.
    Selections of all rows (``_ALL``) skip the indexing.
    """
    out: list = [None] * len(x)
    s = _Rows(x, *f.start(x, lower))
    finite = np.isfinite(s.fx)
    if np.count_nonzero(finite) < len(s):
        # any nonzero status ends a row; the error then replaces its entry
        f.keep(s.stop(np.where(finite, 0, _STALLED), f.calls, out))
        for i in (~finite).nonzero()[0]:
            out[i] = ValueError("cost is not finite at the start point")

    while len(s):
        # --- rows at a new point begin an iteration ---
        b = s.begin
        if b is not None:
            xb, gb = (s.x, s.g) if b is _ALL else (s.x[b], s.g[b])
            # on its bound with the gradient pointing out of the domain
            held = _at_bound(xb, lower) & (gb > 0.0)
            any_held = np.count_nonzero(held)
            pg = np.maximum.reduce(np.abs(np.where(held, 0.0, gb) if any_held else gb), axis=-1)
            p = _directions(s.hinv if b is _ALL else s.hinv[b], gb, held if any_held else None)
            pgd = _dot(p, gb)
            converged = None
            if np.fmin.reduce(pg) < gtol:
                # -pgd/2 is the decrease the curvature model still expects
                converged = (pg < gtol) & (s.fprev[b] - s.fx[b] < _FTOL) & (pgd > -2.0 * _FTOL)
            if f.calls >= max_calls or converged is not None and np.count_nonzero(converged):
                status = np.zeros(len(s), dtype=np.int8)
                status[b] = _BUDGET if f.calls >= max_calls else np.where(converged, _CONVERGED, 0)
                f.keep(s.stop(status, f.calls, out))
                continue  # begin again with the rows that go on
            if np.fmax.reduce(pgd) >= 0.0:  # curvature estimate went bad; reset
                reset = pgd >= 0.0
                r = np.arange(len(s))[b][reset]
                s.hinv = _put(s.hinv, r, _diag(s.hinv0[r]))
                p[reset] = _directions(s.hinv[r], s.g[r], held[reset] if any_held else None)
            s.pg = _put(s.pg, b, pg)
            s.p = _put(s.p, b, p)
            s.trials = _put(s.trials, b, np.zeros(len(p), dtype=np.int64))

        # --- the next trial point of every row that searches ---
        q = _ALL if s.failed is None else _which(~s.failed)
        if q is not None:
            if q is _ALL:
                xq, gq, fq = s.x, s.g, s.fx
            else:
                xq, gq, fq = s.x[q], s.g[q], s.fx[q]
            # the step length halves with every rejected trial; it is 1 where
            # every row begins an iteration
            step = s.p if b is _ALL else np.ldexp(1.0, -s.trials[q])[:, None] * s.p[q]
            xn = np.maximum(xq + step, lower)
            dx = xn - xq
            gdx = _dot(gq, dx)
            lim = fq + 1e-4 * gdx  # Armijo condition
            s.xt = _put(s.xt, q, xn)
            # every row moves where every row descends
            if not np.maximum.reduce(gdx) < 0.0:
                # a step that does not descend takes no value, one that does
                # not move fails
                lim = np.where(gdx < 0.0, lim, -np.inf)
                moved = dx.any(axis=-1)
                if np.count_nonzero(moved) < len(moved):
                    failed = np.zeros(len(s), dtype=bool) if s.failed is None else s.failed
                    s.failed = _put(failed, q, ~moved)
            s.lim = _put(s.lim, q, lim)

        # --- failed line searches converge, stall after the restart, or restart ---
        if s.failed is not None:
            status = np.where(s.pg < gtol, _CONVERGED, np.where(s.restarted, _STALLED, 0))
            status = np.where(s.failed, status, 0)
            restart = s.failed & (status == 0)
            s.failed = None
            if np.count_nonzero(restart):  # one restart from a deterministic nearby point
                xr = s.x[restart]
                xr = np.maximum(xr + 1e-3 * np.maximum(1.0, np.abs(xr)), lower)
                s.xt = _put(s.xt, restart, xr)
                s.restarted = s.restarted | restart
                s.restart = restart
            if np.count_nonzero(status):
                s.begin = None
                f.keep(s.stop(status, f.calls, out))
                if not len(s):
                    break

        ft, gt = f.trial(s.xt)
        accepted = ft <= s.lim
        take = accepted
        if s.restart is not None:
            accepted = accepted & ~s.restart
            take = accepted | s.restart
        if gt is None:  # exact: the stencil gradient where a point is taken
            gt = f.gradients(s.xt, ft, take)
        a = _which(accepted)
        if a is _ALL:
            s.hinv = _bfgs(s.hinv, s.xt - s.x, gt - s.g)
        elif a is not None:
            s.hinv = _put(s.hinv, a, _bfgs(s.hinv[a], s.xt[a] - s.x[a], gt[a] - s.g[a]))
        if s.restart is not None:
            s.hinv = _put(s.hinv, s.restart, _diag(s.hinv0[s.restart]))
        t = a if take is accepted else _which(take)
        if t is _ALL and a is _ALL:
            s.fprev = s.fx
            s.steps += 1
        elif t is not None:
            s.fprev = np.where(accepted, s.fx, s.fprev)
            s.iterations = s.iterations + accepted
        if s.restart is not None:
            s.fprev = np.where(s.restart, np.inf, s.fprev)
            s.restart = None
        if t is _ALL:
            s.x, s.fx, s.g = s.xt, ft, gt
        else:
            if t is not None:
                s.x = np.where(take[:, None], s.xt, s.x)
                s.fx = np.where(take, ft, s.fx)
                s.g = np.where(take[:, None], gt, s.g)
            s.trials = s.trials + ~take
            failed = ~take & (s.trials >= _TRIALS)
            s.failed = failed if np.count_nonzero(failed) else None
        better = _which(s.fx < s.best_f)  # rows not taken have fx >= best_f
        if better is _ALL:
            s.best_x, s.best_f = s.x, s.fx
        elif better is not None:
            s.best_x = _put(s.best_x, better, s.x[better])
            s.best_f = _put(s.best_f, better, s.fx[better])
        s.begin = t
    return out


def _bfgs(hinv: np.ndarray, s: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """BFGS update of stacked inverse-curvature models.

    Rows without positive curvature along the step keep theirs.
    """
    sy = _dot(s, yv)
    ok = sy > 1e-10 * np.sqrt(_dot(s, s)) * np.sqrt(_dot(yv, yv))
    if np.count_nonzero(ok) < len(ok):
        hinv = hinv.copy()
        hinv[ok] = _bfgs(hinv[ok], s[ok], yv[ok])
        return hinv
    rho = 1.0 / sy
    hy = _matvec(hinv, yv)
    # hinv + s s^T (rho^2 y.hy + rho) - (hy s^T + s hy^T) rho, as np.outer
    # products; s hy^T is the transpose of hy s^T, element for element
    sr = s[:, None, :]
    coef = rho * rho * _dot(yv, hy) + rho
    hs = hy[:, :, None] * sr
    return hinv + s[:, :, None] * sr * coef[:, None, None] - (hs + hs.mT) * rho[:, None, None]


def _initial_inverse_diag(d2: np.ndarray, expected=None) -> np.ndarray:
    """Diagonal inverse-curvature scaling from the start Hessian's diagonal ``d2``.

    Yields and amplitude factors live on very different scales, so a unit
    matrix would stall the first steps.  Where an entry of ``d2`` is not
    positive and finite, ``expected()``, the expected curvature of the
    profiled costs, stands in (called only then), and 1 where that is not
    positive and finite either.
    """
    good = np.isfinite(d2) & (d2 > 0.0)
    if expected is not None and np.count_nonzero(good) < good.size:
        d2 = np.where(good, d2, expected())
        good = np.isfinite(d2) & (d2 > 0.0)
    return 1.0 / np.where(good, d2, 1.0)


def _covariances(H: np.ndarray, K: int) -> list[np.ndarray | None]:
    """Yield block of twice the inverse of each stacked Hessian ``H``.

    ``None`` where a Hessian is not positive definite.
    """
    out: list = [None] * len(H)
    rows = range(len(H))
    if np.count_nonzero(np.isfinite(H)) < H.size:
        rows = np.isfinite(H).reshape(len(H), -1).all(axis=-1).nonzero()[0]
        H = H[rows]
    if not len(rows):
        return out
    H = 0.5 * (H + H.mT)  # symmetric by construction up to roundoff
    # inv can fail after the factorization passed, on a Hessian singular in floats
    for op in (np.linalg.cholesky, np.linalg.inv):
        try:
            done = op(H)
        except np.linalg.LinAlgError:  # find which
            ok = np.array([_succeeds(op, h) for h in H])
            rows, H = np.asarray(rows)[ok], H[ok]
            if not len(rows):
                return out
            done = op(H)
    cov = 2.0 * done
    cov = 0.5 * (cov + cov.mT)
    # yield variances that are not positive and finite come from a Hessian
    # that is not positive definite in floating point
    d = np.diagonal(cov, axis1=-2, axis2=-1)[:, :K]
    good = (d > 0.0) & (d < math.inf)
    if np.count_nonzero(good) < good.size:
        good = good.all(axis=-1)
        rows, cov = np.asarray(rows)[good], cov[good]
    for i, c in zip(rows, cov):
        out[i] = np.ascontiguousarray(c[:K, :K])
    return out


def _succeeds(op, H: np.ndarray) -> bool:
    try:
        op(H)
    except np.linalg.LinAlgError:
        return False
    return True


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
    if np.count_nonzero(_at_bound(x, cost.lower_bounds)):
        return None
    return _covariances(cost.hessian(x)[None], cost.model.ncomponents)[0]


def gof(result: FitResult) -> float:
    """Goodness-of-fit p-value: the upper-tail chi-square probability of ``qmin``.

    Only meaningful for converged fits.  Raises for ``ndof <= 0``, where
    the statistic carries no degrees of freedom.
    """
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
