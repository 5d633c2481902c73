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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .histogram import TemplateModel

__all__ = [
    "Method",
    "BetaDiagnostics",
    "CostFunction",
    "q_poisson",
    "beta_approx",
    "beta_conway",
    "var_beta",
    "q_approx",
    "q_conway",
    "q_exact",
    "q_approx_weighted",
    "q_conway_weighted",
]

# lower bound used by the optimizer for the exact-method amplitude factors;
# keeps log(xi) finite while allowing effectively-zero amplitudes
BETA_FLOOR = 1e-10

_FLOAT_MAX = float(np.finfo(np.float64).max)


class Method(enum.Enum):
    """Cost function variants selectable by name."""

    EXACT = "exact"
    CONWAY = "conway"
    APPROX = "approx"


def q_poisson(n: float, mu: float) -> float:
    """Poisson goodness-of-fit contribution ``2 (mu - n - n ln(mu/n))``.

    Zero exactly at ``mu == n`` and positive elsewhere.  ``n == 0`` gives
    ``2 mu`` (the ``n ln n`` term has limit zero) and ``mu == 0`` with
    ``n > 0`` returns ``+inf``, so impossible models surface as an
    infinite cost instead of an exception.
    """
    if not (math.isfinite(n) and math.isfinite(mu)) or n < 0 or mu < 0:
        raise ValueError(f"n and mu must be finite and nonnegative, got n={n}, mu={mu}")
    if n == 0.0:
        return 2.0 * mu
    if mu == 0.0:
        return math.inf
    return max(0.0, 2.0 * (mu - n - n * math.log(mu / n)))


def beta_approx(n: float, a: float, mu0: float) -> float:
    """Per-bin template scale factor ``(n + a) / (mu0 + a)`` of the symmetric cost.

    This is the exact stationary point of
    ``q_poisson(n, beta*mu0) + q_poisson(a, beta*a)`` in ``beta``.  For
    large ``a`` the factor tends to 1.  ``mu0 + a`` must be positive;
    bins with empty templates are skipped by the cost functions.
    """
    if n < 0 or a < 0 or mu0 < 0:
        raise ValueError("n, a and mu0 must be nonnegative")
    denom = mu0 + a
    if denom <= 0.0:
        raise ValueError("mu0 + a must be positive (skip bins with empty templates)")
    return (n + a) / denom


def beta_conway(n: float, mu0: float, var_beta: float) -> float:
    """Nonnegative root of the per-bin score equation of Conway's cost.

    Solves ``beta^2 + (V mu0 - 1) beta - V n = 0`` for the only
    nonnegative root, using the cancellation-free branch of the quadratic
    formula.  Positive for ``n > 0``.
    """
    if var_beta <= 0 or not math.isfinite(var_beta):
        raise ValueError(f"var_beta must be positive and finite, got {var_beta}")
    if n < 0 or mu0 < 0:
        raise ValueError("n and mu0 must be nonnegative")
    b = var_beta * mu0 - 1.0
    disc = math.sqrt(b * b + 4.0 * var_beta * n)
    if b > 0.0:
        return 2.0 * var_beta * n / (b + disc)
    return 0.5 * (disc - b)


def var_beta(model: TemplateModel, yields, bin: int, *, weighted: bool = False) -> float:
    """Propagated variance of the per-bin scale factor for Conway's cost.

    ``V = sum_k (y_k / M_k)^2 v_k / (sum_k (y_k / M_k) a_k)^2`` with
    ``v_k`` the template content ``a_k``, or the per-bin sum of squared
    template weights when ``weighted`` is set.  Raises when the bin
    expectation vanishes, which signals that the bin cannot constrain the
    factor and must be skipped.
    """
    y = np.asarray(yields, dtype=np.float64)
    if y.shape != (model.ncomponents,):
        raise ValueError(f"expected {model.ncomponents} yields, got shape {y.shape}")
    if not 0 <= bin < model.nbins:
        raise IndexError(f"bin {bin} out of range for {model.nbins} bins")
    num = 0.0
    den = 0.0
    for k, comp in enumerate(model.components):
        scale = y[k] / float(model.norms[k])
        a_k = float(comp.sumw[bin])
        v_k = float(comp.sumw2[bin]) if weighted else a_k
        num += scale * scale * v_k
        den += scale * a_k
    if den == 0.0:
        raise ValueError(f"bin {bin} has zero expectation and must be skipped")
    return num / (den * den)


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


def _qp_terms(n: np.ndarray, mu: np.ndarray, nlogn: np.ndarray) -> np.ndarray:
    # vector of 2*(mu - n - n ln mu + n ln n); entries with n == 0 give
    # 2*mu, entries with mu == 0 and n > 0 give +inf
    pos = n > 0.0
    with np.errstate(divide="ignore"):
        t = np.where(pos, n * np.log(np.where(pos, mu, 1.0)), 0.0)
    return np.maximum(0.0, 2.0 * (mu - n - t + nlogn))


def _dot(slot: np.ndarray, weights: np.ndarray):
    # weights . slot along the last axis; one 1xS by S product per vector
    # runs the same BLAS dot as ``weights @ slot``, a stacked (m, S) @ (S,)
    # product does not (it differs in the last bits)
    return (slot[..., None, :] @ weights)[..., 0]


class CostFunction:
    """Maps a parameter vector to the chi-square-like statistic Q.

    The parameters are the K yields.  For the exact method, one amplitude
    factor per (bin, component) slot with nonzero template content is
    appended, ordered bin-major; slots without template content carry no
    parameter and their amplitude is fixed to zero.

    Calling it with an ``(m, nparams)`` stack evaluates every row at once
    and returns ``m`` values, each bit-identical to the call on that row
    alone; finite-difference stencils use this to save per-call overhead.

    Evaluation mutates no state, so a single instance may be called
    concurrently from several workers.  Out-of-domain parameter vectors
    (negative yields, nonpositive amplitude factors, non-finite entries)
    evaluate to ``+inf`` rather than raising, so numerical minimizers can
    recover mid line search.

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
        self.weighted = bool(weighted)

        K = model.ncomponents
        A = model.component_sumw()
        W2 = model.component_sumw2()
        pooled = A.sum(axis=0)
        active = pooled > 0.0
        self._active = active
        self._nbins_active = int(np.count_nonzero(active))
        self.ndof = self._nbins_active - K

        self._norms = np.asarray(model.norms, dtype=np.float64)
        self._a = np.ascontiguousarray(A[:, active])
        self._v = np.ascontiguousarray(W2[:, active]) if weighted else self._a
        self._pooled = np.ascontiguousarray(pooled[active])

        n = model.data.sumw[active]
        if weighted:
            n2 = model.data.sumw2[active]
            empty = n2 == 0.0
            n2g = np.where(empty, 1.0, n2)
            self._s = np.where(empty, 1.0, n / n2g)
            self._n = np.where(empty, 0.0, n * n / n2g)
            # active bins have pooled sumw > 0, hence pooled sumw2 > 0
            pooled2 = W2.sum(axis=0)[active]
            self._a_eff = self._pooled**2 / pooled2
        else:
            self._s = np.ones_like(n)
            self._n = np.ascontiguousarray(n)
            self._a_eff = self._pooled
        with np.errstate(divide="ignore", invalid="ignore"):
            self._nlogn = np.where(self._n > 0, self._n * np.log(np.where(self._n > 0, self._n, 1.0)), 0.0)

        if method is Method.EXACT:
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

        for arr in (self._s, self._n, self._a_eff, self._nlogn):
            arr.flags.writeable = False

    @property
    def nbins_active(self) -> int:
        """Number of bins entering the cost (pooled template content > 0)."""
        return self._nbins_active

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

    def _outside(self, p: np.ndarray) -> np.ndarray:
        """Which parameter vectors along the last axis lie outside the domain."""
        # NaN fails both comparisons
        return ~((p >= self._domain_lo) & (p <= _FLOAT_MAX)).all(axis=-1)

    def __call__(self, params):
        """Cost of one parameter vector, or of every row of an ``(m, nparams)`` stack.

        A vector gives a ``float``; a stack gives ``m`` values, each equal bit
        for bit to the cost of its row alone.
        """
        p = np.asarray(params, dtype=np.float64)
        if p.ndim == 2 and p.shape[1] == self.nparams:
            return self._stacked(p)
        p = self._checked(p)
        if self._outside(p):
            return math.inf
        return max(0.0, float(self._total(p)))

    def _stacked(self, p: np.ndarray) -> np.ndarray:
        bad = self._outside(p)
        any_bad = bad.any()
        if any_bad:
            # a row inside the domain stands in for the rejected ones, so the
            # kernels raise no floating-point warnings on their behalf
            p = np.where(bad[:, None], 1.0, p)
        q = self._total(p)
        # max(0.0, q) per row: NaN and -0.0 give +0.0 (SIMD np.fmax keeps -0.0)
        q = np.where(q > 0.0, q, 0.0)
        if any_bad:
            q[bad] = math.inf
        return q

    def _total(self, p: np.ndarray):
        """Unclipped cost of each parameter vector along the last axis of ``p``.

        Every vector must lie inside the domain.
        """
        if self.method is Method.EXACT:
            terms, slot = self._exact(p)
            return terms.sum(axis=-1) + 2.0 * _dot(slot, self._a_slots)
        if self.method is Method.CONWAY:
            live, _, terms = self._conway(p)
            if live is None:
                return terms.sum(axis=-1)
            q = np.where(live, terms, 0.0).sum(axis=-1)
            # dead bins carry no factor; with observed content the model is impossible
            return np.where((~live & (self._n > 0.0)).any(axis=-1), math.inf, q)
        _, terms, slot = self._approx(p)
        return terms.sum(axis=-1) + 2.0 * _dot(slot, self._a_eff)

    # --- per-bin kernels, one per method --------------------------------------
    # each returns the per-bin factors and cost terms over the active bins,
    # for one parameter vector or, along leading axes, for a stack of them;
    # __call__ and diagnostics differ only in how they reduce them.
    # Component sums use multiply + reduce instead of a BLAS matvec: IEEE
    # addition is commutative, so relabeling components permutes operands
    # without changing any bit of the result (exact for two components)

    def _approx(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Factor ``(n + a)/(mu0 + a)``, data terms, and ``beta - 1 - ln beta`` per bin."""
        mu0 = ((y / self._norms)[..., :, None] * self._a).sum(axis=-2)
        if self.weighted:
            mu0 = self._s * mu0
        a = self._a_eff
        beta = (self._n + a) / (mu0 + a)
        terms = _qp_terms(self._n, beta * mu0, self._nlogn)
        return beta, terms, beta - 1.0 - np.log(beta)

    def _conway(self, y: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """Live-bin mask (``None`` when all bins are live), factor, data + penalty terms.

        Dead bins, without expectation, get variance 1 so their entries stay
        finite; callers mask them out.
        """
        scale = y / self._norms
        mu0_raw = (scale[..., :, None] * self._a).sum(axis=-2)
        vnum = ((scale * scale)[..., :, None] * self._v).sum(axis=-2)
        live = mu0_raw > 0.0
        if np.all(live):
            live = None
            var = vnum / (mu0_raw * mu0_raw)
        else:
            mu0g = np.where(live, mu0_raw, 1.0)
            var = np.where(live, vnum / (mu0g * mu0g), 1.0)
        mu0 = self._s * mu0_raw if self.weighted else mu0_raw
        b = var * mu0 - 1.0
        disc = np.sqrt(b * b + 4.0 * var * self._n)
        # the guarded denominator keeps the discarded branch away from 0/0
        pos = b > 0.0
        beta = np.where(pos, 2.0 * var * self._n / np.where(pos, b + disc, 1.0), 0.5 * (disc - b))
        terms = _qp_terms(self._n, beta * mu0, self._nlogn) + (beta - 1.0) ** 2 / var
        return live, beta, terms

    def _exact(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Data terms per active bin and ``beta - 1 - ln beta`` per amplitude slot."""
        K = self.model.ncomponents
        betas = p[..., K:]
        B = np.ones(p.shape[:-1] + self._a.shape)
        B[..., self._slot_comp, self._slot_bin] = betas
        mu = ((p[..., :K] / self._norms)[..., :, None] * (self._a * B)).sum(axis=-2)
        return _qp_terms(self._n, mu, self._nlogn), betas - 1.0 - np.log(betas)

    # --- diagnostics ----------------------------------------------------------

    def diagnostics(self, params) -> BetaDiagnostics:
        """Per-bin scale factors and cost contributions at ``params``.

        The contributions sum to ``self(params)``.  Raises ``ValueError``
        outside the domain (negative or non-finite entries, nonpositive
        amplitude factors), where the cost is ``+inf`` and no per-bin
        factor exists.
        """
        p = self._checked(params)
        if self._outside(p):
            raise ValueError(
                "parameters outside the domain: yields must be finite and nonnegative, "
                "amplitude factors finite and positive"
            )
        K = self.model.ncomponents
        nbins = self.model.nbins
        contrib = np.zeros(nbins)
        if self.method is Method.EXACT:
            terms, slot = self._exact(p)
            np.add.at(terms, self._slot_bin, np.maximum(0.0, 2.0 * self._a_slots * slot))
            contrib[self._active] = terms
            beta_full = np.full((nbins, K), np.nan)
            beta_full[self.exact_slots()] = p[K:]
            return BetaDiagnostics(beta=beta_full, contributions=contrib)

        if self.method is Method.CONWAY:
            live, beta, terms = self._conway(p)
            if live is not None:
                terms = np.where(live, terms, np.where(self._n > 0.0, np.inf, 0.0))
                beta = np.where(live, beta, np.nan)
        else:
            beta, terms, slot = self._approx(p)
            terms = terms + np.maximum(0.0, 2.0 * self._a_eff * slot)
        beta_full = np.full(nbins, np.nan)
        beta_full[self._active] = beta
        contrib[self._active] = terms
        return BetaDiagnostics(beta=beta_full, contributions=contrib)


def _validated_yields(model: TemplateModel, yields) -> np.ndarray:
    y = np.asarray(yields, dtype=np.float64)
    if y.shape != (model.ncomponents,):
        raise ValueError(f"expected {model.ncomponents} yields, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("yields must be finite")
    if np.any(y < 0):
        raise ValueError("yields must be nonnegative")
    return y


def _profiled(
    method: Method, model: TemplateModel, yields, weighted: bool = False
) -> tuple[float, BetaDiagnostics]:
    cost = CostFunction(method, model, weighted=weighted)
    y = _validated_yields(model, yields)
    return cost(y), cost.diagnostics(y)


def q_approx(model: TemplateModel, yields) -> tuple[float, BetaDiagnostics]:
    """Symmetric-approximation cost and per-bin diagnostics at the given yields."""
    return _profiled(Method.APPROX, model, yields)


def q_conway(model: TemplateModel, yields) -> tuple[float, BetaDiagnostics]:
    """Conway cost and per-bin diagnostics at the given yields."""
    return _profiled(Method.CONWAY, model, yields)


def q_approx_weighted(model: TemplateModel, yields) -> tuple[float, BetaDiagnostics]:
    """Weighted symmetric-approximation cost using effective counts."""
    return _profiled(Method.APPROX, model, yields, weighted=True)


def q_conway_weighted(model: TemplateModel, yields) -> tuple[float, BetaDiagnostics]:
    """Weighted Conway cost using effective counts and weight-based variances."""
    return _profiled(Method.CONWAY, model, yields, weighted=True)


def q_exact(model: TemplateModel, yields, betas) -> float:
    """Exact cost at the given yields and per-(bin, component) amplitude factors.

    ``betas`` is an (nbins, K) matrix; entries at slots without template
    content are ignored (their amplitude is fixed to zero), all other
    entries must be positive.
    """
    cost = CostFunction(Method.EXACT, model)
    y = _validated_yields(model, yields)
    B = np.asarray(betas, dtype=np.float64)
    if B.shape != (model.nbins, model.ncomponents):
        raise ValueError(
            f"expected betas of shape {(model.nbins, model.ncomponents)}, got {B.shape}"
        )
    bins, comps = cost.exact_slots()
    flat = B[bins, comps]
    if not np.all(np.isfinite(flat)) or np.any(flat <= 0):
        raise ValueError("betas must be positive and finite at every slot with template content")
    return cost(np.concatenate([y, flat]))
