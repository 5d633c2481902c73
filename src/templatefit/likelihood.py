"""Transformed Poisson likelihoods for template fits with finite-simulation uncertainty.

Three cost functions are provided.  All are transformed against the
saturated model, so the value at the minimum is asymptotically
chi-square distributed and doubles as a goodness-of-fit statistic:

``exact``
    The full Barlow-Beeston likelihood.  Every (bin, component) slot with
    template content carries one multiplicative amplitude parameter,
    fitted numerically together with the yields.

``conway``
    Conway's simplification: a single multiplicative factor per bin,
    constrained by a Gaussian penalty weighted by the propagated factor
    variance.  The factor is profiled analytically from a quadratic
    score equation.

``approx``
    A symmetric simplification that keeps Poisson statistics for both
    data and simulation.  The per-bin factor has the closed form
    ``(n + a) / (mu0 + a)``, where ``a`` is the pooled template content,
    and is profiled analytically.  As the templates grow, the factor
    tends to 1 and the cost reduces to the plain Poisson fit.

``approx`` and ``conway`` come in weighted variants that substitute
Bohm-Zech effective counts for the raw counts.  The weighted ``conway``
factor variance uses the per-bin sum of squared template weights, which
reduces to the template count for unit weights; this is the natural
construction but not the only conceivable one.  A weighted variant of
``exact`` is not defined and is rejected.

Bins whose pooled template content is zero carry no information about
the yields; they are skipped entirely and excluded from the degrees of
freedom.

:class:`CostFunction` evaluates one fit's cost, :class:`CostStack` the
profiled costs of many fits at once; one builder forms the per-bin fields
of both, and a cost function keeps the one-row stack it builds, on which
``approx`` and ``conway`` evaluate and fit.  One per-bin kernel per
method computes the factors and cost terms for the value, the per-bin
:meth:`CostFunction.diagnostics` and the closed-form derivatives, with
one expression for the bin expectation and one path for weighted and
unweighted costs: the effective-count scale ``s`` is 1 for unweighted
costs and pad bins, and scaling by 1 is exact, so the kernels skip it
where every scale is 1.  Each kernel pass forms each per-bin quantity
once, and a per-bin choice between two formulas forms both only where
the bins take both.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .histogram import TemplateModel

__all__ = [
    "Method",
    "BetaDiagnostics",
    "CostFunction",
    "CostStack",
]

# lower bound used by the optimizer for the exact-method amplitude factors;
# keeps log(xi) finite while allowing effectively-zero amplitudes
BETA_FLOOR = 1e-10

_FLOAT_MAX = float(np.finfo(np.float64).max)
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float
# counts up to this keep n ln n (< 7e302) and 4 n far from overflow
_SAFE_COUNT = 1e300
# the largest template total whose square is finite
_MAX_NORM = math.sqrt(_FLOAT_MAX)


class Method(enum.Enum):
    """Cost function variants selectable by name."""

    EXACT = "exact"
    CONWAY = "conway"
    APPROX = "approx"


@dataclass(frozen=True)
class BetaDiagnostics:
    """Per-bin scale factors and cost contributions at one parameter point.

    ``beta`` has one entry per bin for the approximate methods; for the
    exact method it is a (nbins, K) matrix of the per-slot amplitude
    factors.  Entries of skipped bins, and of slots without template
    content, are NaN.  ``contributions`` has one entry per bin (zero for
    skipped bins) and sums to the total cost.
    """

    beta: np.ndarray
    contributions: np.ndarray


class _Pass(NamedTuple):
    """One kernel pass of a profiled cost, at one yield vector or along leading axes.

    ``value`` is the cost, ``live`` Conway's live-bin mask (``None`` when
    every bin is live, and for approx), ``beta`` the profiled factor, ``m``
    the expectation before the scale ``s`` (1 where it vanishes), ``var``
    Conway's factor variance, ``tt`` Conway's ``(beta - 1)^2``, ``terms``
    the data (and penalty) terms and ``slot`` approx's
    ``beta - 1 - ln beta``, per bin; ``var`` and ``tt`` are ``None`` for
    approx and ``slot`` for Conway.  The value, the gradient, the Hessian
    and the diagnostics all read one pass, which nothing writes.
    """

    value: np.ndarray
    live: np.ndarray | None
    beta: np.ndarray
    m: np.ndarray
    var: np.ndarray | None
    tt: np.ndarray | None
    terms: np.ndarray
    slot: np.ndarray | None


def _qp_terms(n: np.ndarray, pos: np.ndarray, mu: np.ndarray, nlogn: np.ndarray) -> np.ndarray:
    # vector of 2*(mu - n - n ln mu + n ln n), pos = n > 0; entries with
    # n == 0 give 2*mu (n ln 1 = 0), entries with mu == 0 and n > 0 give +inf
    if (
        np.minimum.reduce(mu, axis=None, initial=math.inf) > 0.0
        and np.maximum.reduce(mu, axis=None, initial=0.0) < math.inf
    ):
        # every ln mu is finite, so n = 0 gives t = +-0, and mu - 0 - (+-0)
        # is mu, as with n ln 1: no bin needs the substitution
        t = n * np.log(mu)
    else:
        safe = np.where(pos, mu, 1.0)
        if np.fmin.reduce(safe, axis=None, initial=math.inf) > 0.0:
            t = n * np.log(safe)
        else:
            with np.errstate(divide="ignore"):
                t = n * np.log(safe)
    return np.maximum(0.0, 2.0 * (mu - n - t + nlogn))


# a . b along the last axis and A @ v per stacked row: one BLAS dot or gemv
# each, the calls of the unstacked ``a @ b`` and ``A @ v``, so every row
# keeps its bits (a stacked (m, S) @ (S,) product differs in the last bits)
_dot = np.vecdot
_matvec = np.matvec


def _sum(x: np.ndarray, out=None) -> np.ndarray:
    return np.add.reduce(x, -1, out=out)


def _gram(L: np.ndarray, R: np.ndarray, out=None) -> np.ndarray:
    # L @ R^T per stacked row: one BLAS gemm each
    return np.matmul(L, R.mT, out=out)


def _nonneg(q):
    # max(0.0, q) per entry: NaN and -0.0 give +0.0 (np.fmax alone may keep -0.0)
    return np.fmax(q, 0.0) + 0.0


def _diag(d: np.ndarray) -> np.ndarray:
    # np.diag per stacked vector: zeros off the diagonal
    K = d.shape[-1]
    out = np.zeros(d.shape[:-1] + (K * K,))
    out[..., :: K + 1] = d
    return out.reshape(d.shape + (K,))


class _PerBin:
    """The per-bin kernels of the profiled costs and their closed-form derivatives.

    The data arrays (``CostStack._BIN_FIELDS``) hold the active bins of a
    stack of costs, one row each (:class:`CostStack`, whose ``_bin_*``
    methods reduce over the bins of each row); ``exact`` reads row 0 of
    its cost function's one-row stack.  Yields carry the parameters along
    their last axis and broadcast against the data over the leading axes,
    so one code serves a single vector, a stack of parameter rows and a
    stack of costs.  Every operation is elementwise, a reduction over the
    components, or a reduction or BLAS product over the bins of one row,
    so each row's bits do not depend on the rows stacked with it.
    """

    def _set_fields(self, norms, n, a, v, s, a_eff) -> None:
        """Set the data arrays of the kernels from the active bins' contents.

        ``norms`` holds the component totals, ``n``, ``s`` and ``a_eff`` one
        entry per bin and ``a`` and ``v`` one per (component, bin), after the
        leading axes of a stack.  Every derived field is formed here alone,
        elementwise, so a stack's rows equal its costs' bit for bit.  Data
        whose terms, and template totals whose squares, overflow a float are
        rejected before any floating-point warning.
        """
        self._norms = norms
        self._n, self._a, self._v, self._s, self._a_eff = n, a, v, s, a_eff
        # whether every scale is 1, as in unweighted costs and stacks: 1 x == x,
        # so the kernels skip their products with s and keep every bit
        self._unit_s = np.count_nonzero(s != 1.0) == 0
        self._npos = n > 0.0
        logn = np.log(np.where(self._npos, n, 1.0))
        if np.fmax.reduce(n, axis=None, initial=0.0) > _SAFE_COUNT:
            with np.errstate(over="ignore"):
                finite = np.isfinite(n * logn).all() and np.isfinite(4.0 * n).all()
            if not finite:
                # the data terms would be inf - inf, which the cost clips to 0
                raise ValueError("data counts so large that n ln n or 4n overflows a float")
        self._nlogn = n * logn  # 0 ln 1 = 0 where n = 0
        self._2n = 2.0 * n
        self._4n = 4.0 * n
        self._na = n + a_eff
        if np.fmax.reduce(norms, axis=None, initial=0.0) > _MAX_NORM:
            # d would lose the template variance to 0
            raise ValueError("template totals so large that their square overflows a float")
        # dm/dy_k per bin, and d(sum_k v_k (y_k/M_k)^2)/dy_k / (2 y_k)
        self._c = a / norms[..., None]
        self._d = v / (norms * norms)[..., None]

    def _in_domain(self, p: np.ndarray) -> np.ndarray:
        """Which entries of ``p`` lie inside the domain; NaN fails both comparisons."""
        return (p >= self._domain_lo) & (p <= _FLOAT_MAX)

    def _outside(self, p: np.ndarray) -> np.ndarray:
        """Which parameter vectors along the last axis lie outside the domain."""
        return ~self._in_domain(p).all(axis=-1)

    def _inside(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``p`` with a stand-in row inside the domain for each row outside, and where those were."""
        inside = self._in_domain(p)
        if np.count_nonzero(inside) == p.size:
            return p, None
        bad = ~inside.all(axis=-1)
        # the stand-in rows keep the kernels from raising floating-point
        # warnings on behalf of the rejected ones
        return np.where(bad[..., None], 1.0, p), bad

    def _approx_total(self, terms: np.ndarray, slot: np.ndarray):
        return self._bin_sum(terms) + 2.0 * self._bin_dot(slot, self._a_eff)

    def _conway_total(self, live: np.ndarray | None, terms: np.ndarray):
        if live is None:
            return self._bin_sum(terms)
        q = self._bin_sum(np.where(live, terms, 0.0))
        # dead bins carry no factor; with observed content the model is impossible
        return np.where((~live & self._npos).any(axis=-1), math.inf, q)

    # --- per-bin kernels, one per method --------------------------------------
    # each returns the per-bin factors and cost terms over the active bins,
    # for one parameter vector or, along leading axes, for a stack of them;
    # __call__, diagnostics and the derivatives differ only in how they
    # reduce them.
    # Component sums use multiply + reduce instead of a BLAS matvec: IEEE
    # addition is commutative, so relabeling components permutes operands
    # without changing any bit of the result (exact for two components)

    def _scaled(self, x):
        """``s x`` per bin; ``x`` itself where every scale is 1."""
        return x if self._unit_s else self._s * x

    def _expectation(self, y: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        """``m = sum_k y_k a_k / M_k`` per bin: the expectation before the effective-count
        scale ``s``, so ``mu0 = s m``; ``a`` defaults to the template contents."""
        a = self._a if a is None else a
        return np.add.reduce((y / self._norms)[..., :, None] * a, axis=-2)

    def _moments(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``m`` from :meth:`_expectation` and Conway's ``sum_k v_k (y_k/M_k)^2`` per bin."""
        scale = y / self._norms
        return self._expectation(y), np.add.reduce((scale * scale)[..., :, None] * self._v, axis=-2)

    def _approx(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Factor ``(n + a)/(mu0 + a)``, data terms, ``beta - 1 - ln beta`` and ``m`` per bin,
        ``m`` from :meth:`_expectation`."""
        m = self._expectation(y)
        mu0 = self._scaled(m)
        a = self._a_eff
        beta = self._na / (mu0 + a)
        terms = _qp_terms(self._n, self._npos, beta * mu0, self._nlogn)
        return beta, terms, beta - 1.0 - np.log(beta), m

    def _conway(
        self, y: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Live-bin mask (``None`` when all bins are live), factor, data + penalty terms,
        ``m`` as in :meth:`_approx`, the factor variance ``V`` and ``(beta - 1)^2`` per bin.

        Dead bins, without expectation, get variance 1 so their entries stay
        finite; callers mask them out.
        """
        mu0_raw, vnum = self._moments(y)
        sq = mu0_raw * mu0_raw
        if np.minimum.reduce(sq, axis=None, initial=math.inf) >= _TINY:
            live = None
            var = vnum / sq
        else:
            live = mu0_raw > 0.0
            low = live & (sq < _TINY)
            if np.count_nonzero(low):
                # m^2 underflows at tiny yields; V does not change when all
                # yields scale alike, so take it there at a largest yield of 1
                top = np.fmax.reduce(y, axis=-1, keepdims=True)
                m1, vnum1 = self._moments(y / np.where(top > 0.0, top, 1.0))
                sq, vnum = np.where(low, m1 * m1, sq), np.where(low, vnum1, vnum)
            var = np.where(live, vnum / np.where(live, sq, 1.0), 1.0)
            if np.count_nonzero(live) == live.size:
                live = None
        mu0 = self._scaled(mu0_raw)
        b = var * mu0 - 1.0
        # (4 V) n and V (4 n) round alike: scaling by a power of two is exact
        disc = np.sqrt(b * b + var * self._4n)
        # the root without cancellation: V 2n/(b + disc) where b > 0, else
        # (disc - b)/2; only a mixed mask forms both, and there the guarded
        # denominator keeps the discarded branch away from 0/0
        pos = b > 0.0
        npos = np.count_nonzero(pos)
        if npos == pos.size:
            beta = var * self._2n / (b + disc)
        elif npos == 0:
            beta = 0.5 * (disc - b)
        else:
            beta = np.where(pos, var * self._2n / np.where(pos, b + disc, 1.0), 0.5 * (disc - b))
        t = beta - 1.0
        tt = t * t
        terms = _qp_terms(self._n, self._npos, beta * mu0, self._nlogn) + tt / var
        return live, beta, terms, mu0_raw, var, tt

    # --- closed-form derivatives of the profiled costs -------------------------
    # Per bin, the cost L(y, beta) is minimal in the profiled beta, so the
    # gradient is dL/dy at fixed beta (envelope theorem) and the profiled
    # Hessian is L_yy - L_yb L_yb^T / L_bb.  With c_k = a_k/M_k, m = c.y and
    # mu0 = s m, both methods share the data part dL/dm = 2 beta s - 2 n/m.
    # Conway's penalty is (beta - 1)^2 P with P = 1/V = m^2/w and
    # w = sum_k d_k y_k^2, d_k = v_k/M_k^2.

    def _profile(self, y: np.ndarray) -> _Pass:
        """The kernel pass at ``y``; every yield vector must lie inside the domain.

        ``m`` is 1 where it vanishes: a finite value has ``n = 0`` there, so
        ``n/m`` reads 0 and the bin is either dead (Conway, masked by the
        caller) or has the smooth limit ``beta = 1`` (approx).
        """
        if self.method is Method.CONWAY:
            live, beta, terms, m, var, tt = self._conway(y)
            q = self._conway_total(live, terms)
            slot = None
        else:
            beta, terms, slot, m = self._approx(y)
            live = var = tt = None
            q = self._approx_total(terms, slot)
        # NaN fails the test and takes the masked form, as it fails m > 0
        if not np.minimum.reduce(m, axis=None, initial=math.inf) > 0.0:
            m = np.where(m > 0.0, m, 1.0)
        return _Pass(_nonneg(q), live, beta, m, var, tt, terms, slot)

    def _bins(self, rec: _Pass) -> tuple[np.ndarray, np.ndarray]:
        """Per-bin factors and cost contributions of a pass, which sum to its value.

        Conway's dead bins get a NaN factor and contribute ``+inf`` where they
        hold data, 0 where not.
        """
        if self.method is Method.CONWAY:
            beta, terms = rec.beta, rec.terms
            if rec.live is not None:
                terms = np.where(rec.live, terms, np.where(self._npos, np.inf, 0.0))
                beta = np.where(rec.live, beta, np.nan)
            return beta, terms
        return rec.beta, rec.terms + np.maximum(0.0, 2.0 * self._a_eff * rec.slot)

    def _expected_curvature(self, y: np.ndarray) -> np.ndarray:
        """Expected (Fisher) second derivative of the cost in each yield, ``sum 2 s c_k^2 / m``.

        The curvature of the Poisson data term where the data equal their
        expectation ``mu0 = s m``; unlike the profiled Hessian's diagonal it
        is positive wherever the expectation is.  Every yield vector must
        lie inside the domain; ``m`` is 1 where it vanishes, as in
        :meth:`_profile`.
        """
        m = self._expectation(y)
        return self._bin_matvec(self._c * self._c, self._scaled(2.0) / np.where(m > 0.0, m, 1.0))

    def _em_step(self, y: np.ndarray) -> np.ndarray:
        """One EM update of the yields of the plain Poisson template fit,
        ``y_k sum c_k n/m / sum c_k s`` over bins.

        The Richardson-Lucy / Shepp-Vardi step (IEEE TMI 1 (1982) 113),
        whose fixed point is the Barlow-Beeston fit without template
        uncertainty (CPC 77 (1993) 219); it keeps the yields nonnegative.
        ``m`` is :meth:`_expectation`'s and is 1 where it vanishes;
        yield vectors that are not finite come back unchanged.
        """
        finite = np.isfinite(y).all(axis=-1)[..., None]
        if not finite.all():
            # a stand-in of 0 keeps inf * 0 out of the step
            return np.where(finite, self._em_step(np.where(finite, y, 0.0)), y)
        m = self._expectation(y)
        ratio = self._n / np.where(m > 0.0, m, 1.0)
        return y * self._bin_matvec(self._c, ratio) / self._bin_matvec(self._c, self._s)

    def _value_and_gradient(self, y: np.ndarray, rec: _Pass) -> tuple[np.ndarray, np.ndarray]:
        """Values and gradients in the yields ``y`` from the pass there; NaN gradients where
        the value is infinite."""
        value, live, beta, m, var = rec[:5]
        dm = self._scaled(2.0 * beta) - self._2n / m
        if self.method is Method.APPROX:
            gradient = self._bin_matvec(self._c, dm)
        else:
            vm = var * m
            r = rec.tt / vm  # (beta-1)^2 P/m
            dm = dm + 2.0 * r
            dw = r / vm  # (beta-1)^2 P/w
            if live is not None:  # dead bins contribute nothing
                dm = np.where(live, dm, 0.0)
                dw = np.where(live, dw, 0.0)
            gradient = self._bin_matvec(self._c, dm) - 2.0 * y * self._bin_matvec(self._d, dw)
        infinite = value == math.inf
        if infinite.any():
            gradient[infinite] = np.nan
        return value, gradient

    def _profiled_hessian(self, y: np.ndarray, rec: _Pass) -> np.ndarray:
        """K x K Hessians in the yields ``y`` from the pass there; NaN where the value is
        infinite."""
        value, live, beta, m, var = rec[:5]
        c, s = self._c, self._s
        mm = m * m
        if self.method is Method.APPROX:
            # dbeta/dmu0 = -beta/(mu0 + a)
            if self._unit_s:
                h = self._2n / mm - 2.0 * beta / (m + self._a_eff)
            else:
                h = self._2n / mm - 2.0 * s * s * beta / (s * m + self._a_eff)
            H = self._bin_gram(c * h[..., None, :], c)
        else:
            # Conway, with iw = 1/w = P/m^2 and the gradient of w, g = 2 d y:
            # L_yy = (2n/m^2) c c^T + (beta-1)^2 grad^2 P
            # L_yb = u c + v g,  u = 2s + 4(beta-1) P/m,  v = -2(beta-1) P/w
            # L_bb = 2n/beta^2 + 2P; a factor held at 0 (n = 0) is not profiled
            t = beta - 1.0
            P = 1.0 / var
            iw = P / mm
            u = self._scaled(2.0) + 4.0 * t * P / m
            v = -2.0 * t * P * iw
            if np.minimum.reduce(beta, axis=None, initial=math.inf) > 0.0:  # every factor free
                inv_lbb = 1.0 / (self._2n / (beta * beta) + 2.0 * P)
            else:
                free = beta > 0.0
                bf = np.where(free, beta, 1.0)
                inv_lbb = np.where(free, 1.0 / (self._2n / (bf * bf) + 2.0 * P), 0.0)
            # 2 (beta-1)^2 iw and 2 (beta-1)^2 P iw, of which B and F take the
            # negatives: (-2x) y / z is -((2x) y / z) in IEEE arithmetic
            tt2 = 2.0 * rec.tt
            ttw = tt2 * iw
            ttpw = tt2 * P * iw
            A = self._2n / mm + ttw - u * u * inv_lbb
            B = -(ttw * P / m) - u * v * inv_lbb
            E = ttpw * iw - v * v * inv_lbb
            F = -ttpw
            if live is not None:  # dead bins contribute nothing
                A, B, E, F = (np.where(live, z, 0.0) for z in (A, B, E, F))
            A, B, E = A[..., None, :], B[..., None, :], E[..., None, :]
            g = 2.0 * y[..., :, None] * self._d
            H = (
                self._bin_gram(c * A + g * B, c)
                + self._bin_gram(c * B + g * E, g)
                + _diag(self._bin_matvec(self._d, F))
            )
        infinite = value == math.inf
        if infinite.any():
            H[infinite] = np.nan
        return H


class CostFunction(_PerBin):
    """Maps a parameter vector to the chi-square-like statistic Q.

    The parameters are the K yields.  For the exact method, one amplitude
    factor per (bin, component) slot with nonzero template content is
    appended, ordered bin-major; slots without template content carry no
    parameter and their amplitude is fixed to zero.

    Calling it with an ``(m, nparams)`` stack evaluates every row at once
    and returns ``m`` values, each bit-identical to the call on that row
    alone; finite-difference stencils use this to save per-call overhead.

    The cost keeps the one-row :class:`CostStack` built of its model.
    ``approx`` and ``conway``, whose per-bin factors are profiled in closed
    form, evaluate, and fit, on that row; ``exact`` runs its own kernels on
    row 0 of the same fields.

    Evaluation mutates no state, so a single instance may be called
    concurrently from several workers; a fit keeps its last kernel pass on
    the row, which reads as a new pass would (see :class:`CostStack`), so
    concurrent fits of one cost are safe too.  Out-of-domain parameter
    vectors (negative yields, nonpositive amplitude factors, non-finite
    entries) evaluate to ``+inf`` rather than raising, so numerical
    minimizers can recover mid line search.

    Parameters
    ----------
    method : Method or str
        One of ``exact``, ``conway``, ``approx``.
    model : TemplateModel
        Data and templates.
    weighted : bool
        Use the effective-count variants (``approx`` and ``conway`` only).
    """

    def __init__(self, method: Method | str, model: TemplateModel, weighted: bool = False):
        method = Method(method)
        if weighted and method is Method.EXACT:
            raise ValueError(
                "the exact likelihood has no weighted form; use 'approx' or 'conway'"
            )
        self.method = method
        self.model = model

        K = model.ncomponents
        sumw2 = (model.data.sumw2[None], model.component_sumw2()[None]) if weighted else ()
        self._stack, active = CostStack._build(
            method, model.data.sumw[None], model.component_sumw()[None], *sumw2
        )
        self._active = active[0]
        self.ndof = self.nbins_active - K

        if method is Method.EXACT:
            # its own kernels read row 0 of the stack's fields
            for name in ("_norms", "_n", "_a", "_npos", "_nlogn"):
                setattr(self, name, getattr(self._stack, name)[0])
            # bin-major slot order over (active bin, component) with content
            b_pos, k_idx = np.nonzero(self._a.T > 0.0)
            self._slot_bin = b_pos
            self._slot_comp = k_idx
            self._a_slots = self._a[k_idx, b_pos]
            self.nparams = K + self._slot_bin.size
        else:
            self.nparams = K
        # smallest value inside the domain per parameter: yields may be zero,
        # amplitude factors must be positive
        self._domain_lo = np.zeros(self.nparams)
        self._domain_lo[K:] = np.nextafter(0.0, 1.0)

    @property
    def nbins_active(self) -> int:
        """Number of bins entering the cost (pooled template content > 0)."""
        return int(self._stack._counts[0])

    @property
    def lower_bounds(self) -> np.ndarray:
        """Per-parameter lower bounds for the minimizer."""
        lb = np.zeros(self.nparams)
        if self.method is Method.EXACT:
            lb[self.model.ncomponents :] = BETA_FLOOR
        return lb

    def exact_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Global bin index and component index of each exact-method amplitude parameter."""
        if self.method is not Method.EXACT:
            raise ValueError("slot layout exists only for the exact method")
        bins = np.flatnonzero(self._active)[self._slot_bin]
        return bins, self._slot_comp.copy()

    def _checked(self, params) -> np.ndarray:
        p = np.asarray(params, dtype=np.float64)
        if p.shape != (self.nparams,):
            raise ValueError(f"expected {self.nparams} parameters, got shape {p.shape}")
        return p

    def validate(self, params) -> np.ndarray:
        """``params`` as a float vector; ``ValueError`` for another shape or outside the domain.

        The one domain check of ``diagnostics``, the derivatives and ``hesse``.
        """
        p = self._checked(params)
        if self._outside(p):
            raise ValueError(
                "parameters outside the domain: yields must be finite and nonnegative, "
                "amplitude factors finite and positive"
            )
        return p

    def __call__(self, params):
        """Cost of one parameter vector, or of every row of an ``(m, nparams)`` stack.

        A vector gives a ``float``; a stack gives ``m`` values, each equal bit
        for bit to the cost of its row alone.  Both take the one value path.
        """
        p = np.asarray(params, dtype=np.float64)
        if p.ndim == 2 and p.shape[1] == self.nparams:
            return self._stacked(p)
        return self._stacked(self._checked(p)).item()

    def _stacked(self, p: np.ndarray) -> np.ndarray:
        # parameter vectors along the last axis: one vector or a stack of them.
        # approx and conway take the value of the row's kernel pass, which
        # CostStack.value_and_gradient returns; a vector gives one value there
        p, bad = self._inside(p)
        if self.method is Method.EXACT:
            q = _nonneg(self._exact_total(*self._exact(p)[:2]))
        else:
            q = self._stack._profile(p).value
        return q if bad is None else np.where(bad, math.inf, q)

    def _exact_total(self, terms: np.ndarray, slot: np.ndarray):
        return np.add.reduce(terms, axis=-1) + 2.0 * _dot(slot, self._a_slots)

    def _exact(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Data terms and ``mu`` per active bin, ``beta - 1 - ln beta`` per amplitude
        slot, and the scaled template contents ``a B`` per (component, active bin).
        """
        K = self.model.ncomponents
        betas = p[..., K:]
        B = np.ones(p.shape[:-1] + self._a.shape)
        B[..., self._slot_comp, self._slot_bin] = betas
        aB = self._a * B
        mu = self._expectation(p[..., :K], aB)
        return _qp_terms(self._n, self._npos, mu, self._nlogn), betas - 1.0 - np.log(betas), mu, aB

    def hessian(self, params) -> np.ndarray:
        """Hessian of the cost: K x K in the yields for the profiled ``approx`` and
        ``conway``, and over the yields and amplitude factors for ``exact``.

        NaN where the cost is infinite; raises ``ValueError`` outside the domain.
        """
        if self.method is Method.EXACT:
            return self._exact_hessian(params)
        return self._stack.hessian(self.validate(params)[None])[0]

    def _exact_hessian(self, params) -> np.ndarray:
        # Per bin, mu = sum_k y_k c_k beta_k with c_k = a_k/M_k, so with J the
        # Jacobian of mu over (y, beta) the Hessian is J diag(2n/mu^2) J^T,
        # plus (2 - 2n/mu) c_k at (y_k, beta_k) and 2a/beta^2 at (beta, beta)
        # from the penalty; each bin's factors couple only to each other and
        # to the yields (Barlow & Beeston, CPC 77 (1993) 219)
        p = self.validate(params)
        terms, slot, mu, aB = self._exact(p)
        if self._exact_total(terms, slot) == math.inf:
            return np.full((p.size, p.size), np.nan)
        K = self.model.ncomponents
        k, b = self._slot_comp, self._slot_bin
        s = K + np.arange(b.size)
        c = self._a_slots / self._norms[k]
        mu = np.where(mu > 0.0, mu, 1.0)  # a finite cost has n = 0 there
        J = np.zeros((p.size, mu.size))
        J[:K] = aB / self._norms[:, None]
        J[s, b] = c * p[k]
        H = (J * (2.0 * self._n / (mu * mu))) @ J.T
        cross = (2.0 - 2.0 * self._n[b] / mu[b]) * c
        H[k, s] += cross
        H[s, k] += cross
        with np.errstate(divide="ignore"):  # factors near 0 curve without bound
            H[s, s] += 2.0 * self._a_slots / (p[K:] * p[K:])
        return H

    # --- diagnostics ----------------------------------------------------------

    def diagnostics(self, params) -> BetaDiagnostics:
        """Per-bin scale factors and cost contributions at ``params``.

        The contributions sum to ``self(params)``.  Raises ``ValueError``
        outside the domain (negative or non-finite entries, nonpositive
        amplitude factors), where the cost is ``+inf`` and no per-bin
        factor exists.
        """
        p = self.validate(params)
        nbins, K = self.model.nbins, self.model.ncomponents
        if self.method is Method.EXACT:
            terms, slot, _, _ = self._exact(p)
            np.add.at(terms, self._slot_bin, np.maximum(0.0, 2.0 * self._a_slots * slot))
            beta = np.full((nbins, K), np.nan)
            beta[self.exact_slots()] = p[K:]
        else:
            # from the pass a fit kept where it ended at ``p``, else a new one
            factors, terms = (x[0] for x in self._stack._bins(self._stack._pass(p[None])))
            beta = np.full(nbins, np.nan)
            beta[self._active] = factors
        contrib = np.zeros(nbins)
        contrib[self._active] = terms
        return BetaDiagnostics(beta=beta, contributions=contrib)


class CostStack(_PerBin):
    """The profiled costs of several fits, evaluated together.

    Built from count arrays by :meth:`from_counts`, from a model by each
    :class:`CostFunction` (a one-row stack), and narrowed by :meth:`take`.
    The rows share one method and number of components; their data arrays
    are stacked along a leading axis, each padded to the largest
    active-bin count.  Pad bins hold ``n = 0`` and unit template contents,
    scales and variances, so the elementwise kernels stay finite on them,
    and every reduction over bins runs, per run of consecutive rows with
    one active-bin count, on those rows' active bins alone.  Row ``t`` of
    a call on a ``(T, K)`` stack of yields therefore equals, bit for bit,
    the call of row ``t``'s cost function on it alone, whatever the other
    rows hold, so a minimizer can step many fits at the cost of one NumPy
    dispatch per elementwise operation; rows ordered by active-bin count
    make the fewest runs.  Rows outside the domain evaluate to ``+inf``
    with NaN derivatives.

    A stack keeps the kernel pass of its last :meth:`value_and_gradient`,
    so a Hessian at a point already evaluated reads that pass instead of
    running the kernel again, with the same bits; a fit still counts it as
    one evaluation.  A pass is a function of the stack's fields, which
    nothing writes, and of the bytes of the yields, so the kept pass is
    the one any caller at those yields would make: a cost function's row,
    shared by its fits, its ``hessian`` and its ``diagnostics``, may keep it.
    """

    # the per-bin fields of ``_set_fields``, one row per fit
    _BIN_FIELDS = (
        "_n", "_a", "_v", "_s", "_a_eff", "_nlogn", "_npos", "_2n", "_4n", "_na", "_c", "_d",
    )

    @classmethod
    def from_counts(cls, method: Method | str, data, templates) -> "CostStack":
        """The stack of the unweighted costs of many histograms given as counts.

        ``data`` is ``(T, nbins)`` and ``templates`` is ``(T, K, nbins)``;
        row ``t`` equals, bit for bit, the row of ``CostFunction(method,
        model)`` for the model of data ``data[t]`` and components
        ``templates[t]`` (unit weights), without building the models.
        Counts must be finite and nonnegative and every template needs a
        positive total, as in :class:`~templatefit.histogram.TemplateModel`.
        """
        method = Method(method)
        data = np.asarray(data, dtype=np.float64)
        templates = np.asarray(templates, dtype=np.float64)
        if method is Method.EXACT:
            raise ValueError("a cost stack needs approx or conway costs")
        if templates.ndim != 3 or templates.shape[1] < 1 or data.shape != templates.shape[::2]:
            raise ValueError(
                f"expected data (T, nbins) and templates (T, K, nbins) with K >= 1, got "
                f"{data.shape} and {templates.shape}"
            )
        for x in (data, templates):
            if np.count_nonzero(np.isfinite(x) & (x >= 0.0)) < x.size:
                raise ValueError("counts must be finite and nonnegative")
        norms = np.add.reduce(templates, axis=-1)
        if np.count_nonzero(norms > 0.0) < norms.size:
            raise ValueError("every template needs entries")
        return cls._build(method, data, templates)[0]

    @classmethod
    def _build(cls, method: Method, data, templates, data_w2=None, templates_w2=None):
        """The stack of the costs of ``(T, nbins)`` data and ``(T, K, nbins)`` templates.

        ``data_w2`` and ``templates_w2``, their sums of squared weights, make
        the weighted costs.  The one place that finds each row's active bins,
        compacts them, applies the weighted transform and (in
        :meth:`_set_fields`) rejects what overflows, on valid contents;
        returns the stack and the ``(T, nbins)`` active-bin mask.
        """
        out = object.__new__(cls)
        out.method = method
        out._domain_lo = np.zeros(templates.shape[1])
        norms = np.add.reduce(templates, axis=-1)
        pooled = np.add.reduce(templates, axis=-2)
        active = pooled > 0.0
        pad = None
        if len(active) and np.count_nonzero(active != active[0]) == 0:
            # rows that share their active bins, as a cost function's one
            # row, take them with one index: no sort, no pad, contiguous
            idx = np.flatnonzero(active[0])
            out._set_counts(np.full(len(active), idx.size))

            def take(x, fill):
                return x.take(idx, axis=-1)
        else:
            # each row's active bins, in order, then pad bins of ``fill``
            out._set_counts(np.count_nonzero(active, axis=-1))
            bins = np.argsort(~active, axis=-1, kind="stable")[:, : out._width]
            pad = np.arange(out._width) >= out._counts[:, None]

            def take(x, fill):
                if x.ndim == 3:
                    return np.where(pad[:, None], fill, np.take_along_axis(x, bins[:, None], -1))
                return np.where(pad, fill, np.take_along_axis(x, bins, -1))

        n = take(data, 0.0)
        a = take(templates, 1.0)
        a_eff = take(pooled, 1.0)
        if data_w2 is None:
            s, v = np.ones_like(n), a
        else:
            # Bohm-Zech effective counts; an empty data bin (and a pad) maps
            # to (0, 1): its sum of weights vanishes with its sum of squares
            n2 = take(data_w2, 0.0)
            empty = n2 == 0.0
            n2g = np.where(empty, 1.0, n2)
            s = np.where(empty, 1.0, n / n2g)
            v = take(templates_w2, 1.0)
            # active bins have pooled sumw > 0, hence pooled sumw2 > 0; an
            # effective data count that overflows fails in _set_fields
            with np.errstate(over="ignore"):
                n = n * n / n2g
                a_eff = a_eff**2 / np.add.reduce(v, axis=-2)
            if pad is not None:
                a_eff = np.where(pad, 1.0, a_eff)
            if np.count_nonzero(np.isfinite(a_eff)) < a_eff.size:
                # the approx factor would be inf/inf, which the cost clips to 0
                raise ValueError(
                    "template contents so large that the effective count (sum w)^2 / sum w^2 "
                    "overflows a float"
                )
        out._set_fields(norms, n, a, v, s, a_eff)
        out._data_totals = np.add.reduce(data, axis=-1)  # each row's, after the overflow check
        for name in cls._BIN_FIELDS:
            getattr(out, name).flags.writeable = False
        return out, active

    def _set_counts(self, counts: np.ndarray) -> None:
        """Record each row's active-bin count, the padded width and the runs of rows.

        ``_runs`` lists (first row, end row, active bins) per run of
        consecutive rows with one count; ``None`` when every row fills the
        width, so the reductions need no slicing.
        """
        self._counts = counts
        self._width = int(counts.max(initial=0))
        if np.count_nonzero(counts != self._width) == 0:
            self._runs = None
            return
        ends = [*(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
        self._runs = [(lo, hi, int(counts[lo])) for lo, hi in zip([0, *ends], ends)]

    def __len__(self) -> int:
        return len(self._n)

    @property
    def nparams(self) -> int:
        """Number of yields of every row."""
        return self._domain_lo.size

    @property
    def nbins_active(self) -> np.ndarray:
        """Active-bin count of every row."""
        return self._counts

    def take(self, rows) -> "CostStack":
        """The stack of the costs at ``rows``, in that order."""
        out = object.__new__(type(self))
        out.method, out._domain_lo, out._unit_s = self.method, self._domain_lo, self._unit_s
        out._norms, out._data_totals = self._norms[rows], self._data_totals[rows]
        out._set_counts(self._counts[rows])
        for name in self._BIN_FIELDS:
            setattr(out, name, getattr(self, name)[rows, ..., : out._width])
        return out

    # --- reductions over bins, per run of rows with one active-bin count -------
    # strided slices of the padded block give the bits of the compact calls

    def _per_run(self, op, shape: tuple, *args: np.ndarray) -> np.ndarray:
        out = np.empty(shape)
        for lo, hi, b in self._runs:
            op(*(x[lo:hi, ..., :b] for x in args), out=out[lo:hi])
        return out

    def _bin_sum(self, x):
        return _sum(x) if self._runs is None else self._per_run(_sum, x.shape[:-1], x)

    def _bin_dot(self, x, z):
        return _dot(x, z) if self._runs is None else self._per_run(_dot, x.shape[:-1], x, z)

    def _bin_matvec(self, A, v):
        return _matvec(A, v) if self._runs is None else self._per_run(_matvec, A.shape[:-1], A, v)

    def _bin_gram(self, L, R):
        if self._runs is None:
            return _gram(L, R)
        return self._per_run(_gram, (*L.shape[:-1], R.shape[-2]), L, R)

    # the yields, as (shape, bytes), and the pass of the last value_and_gradient
    _last: tuple | None = None

    def _pass(self, y: np.ndarray) -> _Pass:
        """The kernel pass at ``y``, inside the domain: the one the last
        :meth:`value_and_gradient` kept if it ran at these yields, byte for byte (its bits
        are those of a new pass), else a new one."""
        last = self._last
        if last is not None and last[0] == (y.shape, y.tobytes()):
            return last[1]
        return self._profile(y)

    def value_and_gradient(self, y) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(T,)`` and gradients ``(T, K)`` at a ``(T, K)`` stack of yields."""
        y, bad = self._inside(np.asarray(y, dtype=np.float64))
        rec = self._profile(y)
        # one assignment of a new tuple: a concurrent reader sees this pass or another
        self._last = ((y.shape, y.tobytes()), rec)
        value, gradient = self._value_and_gradient(y, rec)
        if bad is None:
            return value.copy(), gradient  # the pass keeps its own values
        gradient[bad] = np.nan
        return np.where(bad, math.inf, value), gradient

    def hessian(self, y) -> np.ndarray:
        """Hessians ``(T, K, K)`` at a ``(T, K)`` stack of yields.

        At the yields of the last :meth:`value_and_gradient`, byte for byte,
        they come from its kernel pass instead of a new one, with the same
        bits; a fit still counts each Hessian as one evaluation.
        """
        y, bad = self._inside(np.asarray(y, dtype=np.float64))
        H = self._profiled_hessian(y, self._pass(y))
        if bad is not None:
            H[bad] = np.nan
        return H
