"""q-Fourier-Bessel analysis on the grid: norms, coefficients, partial sums,
convergence diagnostics, and the coefficient-integral identity cross-check.

The expansion runs over the orthogonal system {J_nu(q j_k x; q^2)}_k with
squared norms eta_k.  Everything that touches J at grid multiples of a zero
reads that zero's column J_nu(q^(n+1) j_k; q^2), n = 0, 1, ..., computed in
one pass with the exact exponent offset eps_k (qbessel.bessel_j_column) and
memoised per (ctx, k).  The exact offset is what keeps the discrete
orthogonality residuals at the 1e-15 level instead of drowning in
cancellation noise.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .qcore import QContext, GridFunction, NonConvergentTail, q_integral, _kahan_add
from .qbessel import bessel_j, bessel_j_column, bessel_j_prime, bessel_j_qpow
from . import zeros as _zeros

# grid depth of the norm and Gram quadratures, and the shortest column kept
_JACKSON_DEPTH = 320
# columns kept: every mode of one expansion up to k = 32, at 2.5 kB each
_COLUMN_CACHE_SIZE = 32
_COLUMNS: OrderedDict[tuple[QContext, int], np.ndarray] = OrderedDict()
_COLUMNS_LOCK = threading.Lock()


@dataclass(frozen=True)
class FourierCoefficient:
    k: int
    value: float
    eta: float
    source: str  # "numeric-integral" or "closed-form"

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta is a squared norm and must be positive")


def zero_column(ctx: QContext, k: int, count: int = _JACKSON_DEPTH) -> np.ndarray:
    """J_nu(q^(n+1) j_k; q^2) for n = 0..count-1 (or further), read-only.

    Columns are memoised per (ctx, k) in a least-recently-used cache of
    _COLUMN_CACHE_SIZE entries; a request longer than the stored column
    recomputes it at the new length.
    """
    key = (ctx, k)
    with _COLUMNS_LOCK:
        col = _COLUMNS.get(key)
        if col is not None and len(col) >= count:
            _COLUMNS.move_to_end(key)
            return col
    zk = _zeros.find_zero(ctx, k)
    col = bessel_j_column(ctx, k, zk.eps_k, max(count, _JACKSON_DEPTH)).values
    with _COLUMNS_LOCK:
        _COLUMNS[key] = col
        _COLUMNS.move_to_end(key)
        while len(_COLUMNS) > _COLUMN_CACHE_SIZE:
            _COLUMNS.popitem(last=False)
    return col


def _grid_weights(q: float, count: int) -> np.ndarray:
    """q^(2n) for n = 0..count-1: node times node weight of x h(x) d_q x at
    x = q^n, the factor (1 - q) left out."""
    return np.array([q**(2 * n) for n in range(count)])


def eta_norm_integral(ctx: QContext, k: int, *, depth: int = _JACKSON_DEPTH) -> float:
    """eta_k as the q-integral of [t^(1/2) J_nu(q j_k t; q^2)]^2.

    Every term is nonnegative, so the quadrature is one vector sum; it must
    have stagnated (last term within term_tol of the largest) by depth.
    """
    jn = zero_column(ctx, k, depth)[:depth]
    terms = _grid_weights(ctx.q, depth) * jn * jn
    if not terms[-1] <= ctx.term_tol * terms.max():
        raise NonConvergentTail(f"eta integral not stagnated by depth {depth}")
    return (1.0 - ctx.q) * float(terms.sum())


def eta_closed(ctx: QContext, k: int) -> float:
    """eta_k by its closed form
    -(1-q) q^(nu-2) / (2 j_k) * J_nu(q j_k; q^2) * J_nu'(j_k; q^2); the J'(j_k)
    series cancels at large zeros, so eta_norm uses the quadrature instead."""
    zk = _zeros.find_zero(ctx, k)
    j_at_q = bessel_j_qpow(ctx, 1 - k, zk.eps_k).value
    jp = bessel_j_prime(ctx, zk.value).value
    return -(1.0 - ctx.q) * ctx.q**(ctx.nu - 2.0) / (2.0 * zk.value) * j_at_q * jp


@functools.lru_cache(maxsize=256)
def eta_norm(ctx: QContext, k: int) -> float:
    """Squared norm eta_k: eta_norm_integral, memoised per (ctx, k)."""
    return eta_norm_integral(ctx, k)


def fourier_coefficient(ctx: QContext, f: GridFunction, k: int) -> FourierCoefficient:
    """a_k(f) = (1/eta_k) * integral of t f(t) J_nu(q j_k t; q^2) d_q t.

    The quadrature is the Jackson sum over f's grid; its binary64 accuracy
    degrades for large k because the oscillating integrand cancels to a
    result far below its largest term (use the extended-precision lane for
    tight large-k work).
    """
    q = ctx.q
    tail = None
    if f.tail_exponent is not None:
        tail = f.tail_exponent + 1.0 + ctx.nu
    jn = zero_column(ctx, k, f.depth + 1).tolist()
    vals = tuple(q**n * f.values[n] * jn[n] for n in range(f.depth + 1))
    integrand = GridFunction(ctx, vals, tail_exponent=tail)
    eta = eta_norm(ctx, k)
    return FourierCoefficient(k, q_integral(integrand) / eta, eta, "numeric-integral")


def partial_sum_at_node(ctx: QContext, coeffs: list[FourierCoefficient], n: int) -> float:
    """S_K at the grid point x = q^n, all modes on the exact-exponent route."""
    total = comp = 0.0
    for c in coeffs:
        total, comp = _kahan_add(total, comp, c.value * float(zero_column(ctx, c.k, n + 1)[n]))
    return total


def partial_sum(ctx: QContext, coeffs: list[FourierCoefficient], x: float) -> float:
    """S_K(x) = sum_k a_k J_nu(q j_k x; q^2) for x in [0, 1].

    Grid points are detected and routed through partial_sum_at_node so the
    evaluation keeps its accuracy at arguments q^(n+1) j_k.
    """
    if not coeffs:
        return 0.0
    if x == 0.0:
        return 0.0 if ctx.nu > 0.0 else sum(c.value for c in coeffs)
    n_guess = round(math.log(x) / math.log(ctx.q))
    if n_guess >= 0 and abs(x - ctx.q**n_guess) <= 1e-9 * x:
        return partial_sum_at_node(ctx, coeffs, n_guess)
    total = comp = 0.0
    for c in coeffs:
        zk = _zeros.find_zero(ctx, c.k)
        total, comp = _kahan_add(total, comp,
                                 c.value * bessel_j(ctx, ctx.q * zk.value * x).value)
    return total


def _fit_log_slope(ks: list[float], logs: list[float]) -> float:
    if len(ks) < 2:
        return math.nan
    slope, _ = np.polyfit(np.asarray(ks, dtype=float), np.asarray(logs, dtype=float), 1)
    return float(slope)


def holder_order_estimate(f: GridFunction, *, n_lo: int = 2,
                          include_pre: bool = True) -> float:
    """Fitted exponent lambda of |f(q^(n-1)) - f(q^n)| ~ M q^(lambda n).

    Least squares on the log of nonzero consecutive differences over
    n in [n_lo, depth-2], plus the n = 0 difference (reaching f(q^-1))
    when pre_value is present.
    """
    q = f.ctx.q
    ns, logs = [], []
    if include_pre and f.pre_value is not None:
        d = abs(f.pre_value - f.values[0])
        if d > 0.0:
            ns.append(0.0)
            logs.append(math.log(d))
    for n in range(n_lo, f.depth - 1):
        d = abs(f.values[n - 1] - f.values[n])
        if d > 0.0 and math.isfinite(math.log(d)):
            ns.append(float(n))
            logs.append(math.log(d))
    # restrict to the range before differences hit the float floor
    if not ns:
        return math.nan
    floor = max(logs) + math.log(1e-14)
    keep = [(n, L) for n, L in zip(ns, logs) if L > floor]
    if len(keep) < 2:
        return math.nan
    slope = _fit_log_slope([n for n, _ in keep], [L for _, L in keep])
    return slope / math.log(q)


@dataclass
class ConvergenceReport:
    """Partial-sum diagnostics for one expansion target.

    sup_errors[K-1] is the sup over the probed grid of |f - S_K|; rate is
    the fitted geometric ratio of that curve; term_sup[k-1] the sup-norm of
    the k-th term with term_rate its fitted ratio; holder_order the fitted
    grid-Hoelder exponent.  hypotheses records the numeric checks behind
    the uniform-convergence guarantee; failures go to warnings, never
    exceptions, so non-uniform cases can still be explored.
    """

    partial_sum_depths: list[int]
    sup_errors: list[float]
    errors: list[list[float]]  # [K-1][n] -> |f(q^n) - S_K(q^n)|
    rate: float
    term_sup: list[float]
    term_rate: float
    holder_order: float
    hypotheses: dict[str, bool]
    warnings: list[str] = field(default_factory=list)


def convergence_report(ctx: QContext, f: GridFunction, k_max: int = 40,
                       n_grid: int = 32,
                       coeffs: list[FourierCoefficient] | None = None) -> ConvergenceReport:
    """Sup-norm convergence diagnostics of S_K toward f on {q^n : n <= n_grid}.

    coeffs overrides the numerically extracted coefficients (closed forms,
    for instance); otherwise fourier_coefficient supplies them.
    """
    n_grid = min(n_grid, f.depth)
    if coeffs is None:
        coeffs = [fourier_coefficient(ctx, f, k) for k in range(1, k_max + 1)]
    else:
        coeffs = list(coeffs[:k_max])

    target = np.array(f.values[:n_grid + 1])
    running = np.zeros(n_grid + 1)
    errors: list[list[float]] = []
    sup_errors: list[float] = []
    term_sup: list[float] = []
    for c in coeffs:
        t = c.value * zero_column(ctx, c.k, n_grid + 1)[:n_grid + 1]
        running += t
        row = np.abs(target - running)
        errors.append(row.tolist())
        sup_errors.append(float(row.max()))
        term_sup.append(float(np.abs(t).max()))

    scale0 = max(sup_errors) if sup_errors else 1.0
    pts = [(K + 1.0, math.log(s)) for K, s in enumerate(sup_errors)
           if s > 1e-14 * scale0 and s > 0.0]
    rate = math.exp(_fit_log_slope([p[0] for p in pts], [p[1] for p in pts])) if len(pts) > 2 else math.nan
    tpts = [(k + 1.0, math.log(t)) for k, t in enumerate(term_sup) if t > 0.0]
    term_rate = math.exp(_fit_log_slope([p[0] for p in tpts], [p[1] for p in tpts])) if len(tpts) > 2 else math.nan

    holder = holder_order_estimate(f)
    warnings_list: list[str] = []
    hyp = {
        "holder_order_gt_1": bool(holder > 1.0),
        "nu_positive": ctx.nu > 0.0,
        "limit_finite": f.limit_value is not None and math.isfinite(f.limit_value),
        "weighted_l2_finite": _weighted_l2_finite(f),
    }
    if not hyp["holder_order_gt_1"]:
        warnings_list.append(
            f"fitted grid-Hoelder order {holder:.3g} is not > 1; uniform "
            "convergence is not guaranteed (pointwise still holds on the grid)")
    if not hyp["nu_positive"]:
        warnings_list.append("nu <= 0 is outside the uniform-convergence regime")
    if not hyp["limit_finite"]:
        warnings_list.append("f(0+) missing or infinite")
    if not hyp["weighted_l2_finite"]:
        warnings_list.append("sum of (f(q^n)/q^n)^2 has not stagnated: "
                             "t^(-3/2) f may fall outside L^2_q")

    return ConvergenceReport(
        partial_sum_depths=list(range(1, len(coeffs) + 1)),
        sup_errors=sup_errors,
        errors=errors,
        rate=rate,
        term_sup=term_sup,
        term_rate=term_rate,
        holder_order=holder,
        hypotheses=hyp,
        warnings=warnings_list,
    )


def _weighted_l2_finite(f: GridFunction) -> bool:
    """Partial-sum stagnation check of sum_n (f(q^n)/q^n)^2."""
    q = f.ctx.q
    total = 0.0
    last = 0.0
    for n in range(f.depth + 1):
        t = (f.values[n] / q**n)**2
        total += t
        last = t
    return total == 0.0 or last <= 1e-6 * total


def weighted_norm_sq(ctx: QContext, f: GridFunction) -> float:
    """Squared norm of t^(1/2) f, the member of L^2_q the expansion works on."""
    q = ctx.q
    vals = tuple(q**n * f.values[n] ** 2 for n in range(f.depth + 1))
    tail = 2.0 * f.tail_exponent + 1.0 if f.tail_exponent is not None else None
    return q_integral(GridFunction(ctx, vals, tail_exponent=tail))


def parseval_defect(ctx: QContext, f: GridFunction, k_max: int) -> float:
    """| ||t^(1/2) f||^2 - sum_(k<=K) a_k^2 eta_k | for the numeric coefficients.

    The system {J_nu(q j_k x; q^2)} is orthogonal against the weight x d_q x,
    so completeness balances the coefficients against the weighted norm.
    Modes whose contribution has fallen to the float floor are skipped (the
    mode energies decay super-geometrically, so the truncated tail is exact
    at double precision).
    """
    total = weighted_norm_sq(ctx, f)
    acc = 0.0
    small = 0
    for k in range(1, k_max + 1):
        c = fourier_coefficient(ctx, f, k)
        acc += c.value * c.value * c.eta
        small = small + 1 if c.value * c.value * c.eta <= 1e-18 * acc else 0
        if small >= 3:
            break
    return abs(total - acc)


def gram_integral(ctx: QContext, n: int, m: int, *, depth: int = _JACKSON_DEPTH) -> float:
    """Integral of x J_nu(j_n q x) J_nu(j_m q x) d_q x over (0, 1).

    Vanishes for n != m and equals eta_n on the diagonal.  The terms cancel
    off the diagonal, so all depth of them are summed exactly rounded.
    """
    terms = (_grid_weights(ctx.q, depth) * zero_column(ctx, n, depth)[:depth]
             * zero_column(ctx, m, depth)[:depth])
    return (1.0 - ctx.q) * math.fsum(terms.tolist())


def check_coefficient_integral_identity(ctx: QContext, f: GridFunction, k: int) -> float:
    """Residual of the boundary-plus-four-integrals form of the coefficient
    integral (valid for finite f(0+) and nu > 0); needs f(q^-1)."""
    if ctx.nu <= 0.0:
        raise ValueError("the identity requires nu > 0")
    if f.pre_value is None:
        raise ValueError("the identity requires the sample f(q^-1)")
    q, nu = ctx.q, ctx.nu
    zk = _zeros.find_zero(ctx, k)
    depth = f.depth

    jn = zero_column(ctx, k, depth).tolist()

    def jackson(series_term) -> float:
        # the integrands oscillate with the column, so their sums are
        # rounded exactly, over the whole grid
        return (1.0 - q) * math.fsum(series_term(l) for l in range(depth))

    lhs = jackson(lambda l: q**(2 * l) * f.values[l] * jn[l])

    i1 = jackson(lambda l: jn[l] * f.values[l + 1])
    i2 = jackson(lambda l: jn[l] * f.values[l])
    i3 = jackson(lambda l: jn[l] * (f.values[l + 1] - f.values[l]))
    i4 = jackson(lambda l: jn[l] * (f.values[l] - f[l - 1]))

    rqnu = q**(nu / 2.0)
    shalf = math.sqrt(q) - 1.0 / math.sqrt(q)
    j2 = zk.value**2
    j_at_q = bessel_j_qpow(ctx, 1 - k, zk.eps_k).value
    boundary = (1.0 - q) * q**(nu - 2.0) * f.pre_value * j_at_q / j2
    # the four-integral bracket enters with a plus: substituting the two
    # integration-by-parts steps into the boundary identity leaves
    # -[-(...)  * (I1, I2 group) + (...) * (I3, I4 group)], and the bracket
    # below is the I-group combination with that outer minus distributed
    bracket = ((rqnu - 1.0 / rqnu) * (rqnu * i1 - i2 / rqnu)
               - rqnu * (rqnu * i3 - i4 / rqnu))
    rhs = boundary + (1.0 - q)**2 * q**(nu - 3.0) / (shalf**2 * j2) * bracket
    return abs(lhs - rhs)
