"""Third Jackson (Hahn-Exton) q-Bessel function J_nu(z; q^2) and relatives.

Two evaluation routes are used, switched on the argument size:

* power series in z^2 (base q^2) for z <= 1/q, summed with compensated
  addition and a certified alternating/geometric tail bound;
* a product-form rearrangement for larger z, obtained from the symmetry of
  (c; p)_inf * sum_k (-1)^k p^(k(k-1)/2) w^k / ((p;p)_k (c;p)_k) under
  (c, w) exchange, which moves the violent growth of the series into
  infinite products (1 - p^(s+w0)) evaluated factor by factor:

      J_nu(x; p) = x^nu / (p;p)_inf *
                   sum_i (-1)^i p^(i(i+1)/2 + nu*i) (p^(i+1) x^2; p)_inf / (p;p)_i

  with p = q^2.  The direct series cancels catastrophically near the large
  zeros (the true value is exponentially smaller than the largest term);
  the product form keeps full relative precision there, because the
  smallness is carried by a single factor 1 - p^eps computed with expm1.

bessel_j_qpow accepts the argument as q^(n + frac) with the fractional
exponent passed exactly, which is how zero-related quantities q^m j_k are
evaluated without losing the tiny offset eps_k to float rounding.
bessel_j_column evaluates a whole column J_nu(q^(n+1) j_k), n = 0..N-1, of
one zero in one pass of the product form, its sums vectorised with numpy.

The constants of one base and order -- (p;p)_inf, (p^(order+1);p)_inf and
the product-form coefficients -- are computed once and shared by every
route (_order_constants).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import QContext, NonConvergentTail, q_pochhammer, _kahan_add

_EPS = 2.220446049250313e-16
_TINY = 2.2250738585072014e-308  # smallest normal binary64


@dataclass(frozen=True)
class BesselEval:
    """One function evaluation with its certification data.

    tail_bound is an absolute bound on |returned - true| combining the
    truncation remainder with a rounding estimate; peak records the largest
    intermediate contribution, so peak/|value| measures the cancellation
    the evaluation had to survive.
    """

    value: float
    terms_used: int
    tail_bound: float
    peak: float

    @property
    def condition(self) -> float:
        if self.value == 0.0:
            return math.inf
        return self.peak / abs(self.value)


@dataclass(frozen=True)
class BesselColumn:
    """J_nu(q^(n+1) j_k; q^2) for n = 0..N-1, with BesselEval's data per entry."""

    values: np.ndarray
    tail_bound: np.ndarray
    peak: np.ndarray


@dataclass(frozen=True)
class _OrderConstants:
    """The constants of one base p and order, shared by every route.

    coeffs[i] = p^(i(i+1)/2 + order*i) / (p;p)_i, built by their product
    recurrence and ending at the first one that underflows to 0.0 (or, for
    q close to 1, where they overflow).  pp_err and prefactor_err bound the
    relative rounding error of pp_inf and prefactor.
    """

    pp_inf: float       # (p; p)_inf
    prefactor: float    # (p^(order+1); p)_inf / (p; p)_inf
    pp_err: float
    prefactor_err: float
    coeffs: tuple[float, ...]


def _poch_inf_err(a: float, p: float, weight: float) -> float:
    """Relative rounding bound of q_pochhammer(a, p, inf, term_tol=1e-17).

    Each of the m factors 1 - a p^j costs a subtraction and a product, and
    a p^j carries the rounding of p, of a (through weight) and of j
    products, which 1 - a p^j amplifies by a p^j / (1 - a p^j); summed over
    j this is at most weight a / ((1 - a) (1 - p)^2).  The truncated tail
    is below 1e-17.
    """
    m = 1.0 + max(0.0, math.log(1e-17 * (1.0 - p) / a) / math.log(p))
    return _EPS * (m + 0.5 * weight * a / ((1.0 - a) * (1.0 - p) ** 2)) + 1e-17


@functools.lru_cache(maxsize=16)
def _order_constants(p: float, order: float) -> _OrderConstants:
    a = p**(order + 1.0)
    num = q_pochhammer(a, p, math.inf, term_tol=1e-17)
    den = q_pochhammer(p, p, math.inf, term_tol=1e-17)
    pp_err = _poch_inf_err(p, p, 2.0)
    num_err = _poch_inf_err(a, p, abs(order) + 2.0)
    # the ratio of consecutive coefficients tends to 0, so they end in an
    # underflow to 0.0 unless they overflow first
    coeffs = [1.0]
    while coeffs[-1] != 0.0 and math.isfinite(coeffs[-1]):
        i = len(coeffs) - 1
        coeffs.append(coeffs[-1] * (p**(i + 1.0 + order) / (1.0 - p**(i + 1))))
    return _OrderConstants(den, num / den, pp_err, num_err + pp_err + _EPS, tuple(coeffs))


def _prefactor(ctx: QContext, order: float) -> float:
    """(p^(order+1); p)_inf / (p; p)_inf in base p = q^2."""
    return _order_constants(ctx.p, order).prefactor


def _series_eval(ctx: QContext, order: float, z: float, z_err: float = 0.0) -> BesselEval:
    """Direct power series; intended for z <= 1/q where cancellation is mild.

    z_err is the relative uncertainty of z itself; it moves z^order and
    every z^(2k) of the series, and enters the error bound that way.
    """
    p, tol = ctx.p, ctx.term_tol
    const = _order_constants(p, order)
    pref = z**order * const.prefactor
    if not math.isfinite(pref):
        raise OverflowError(f"z^nu prefactor overflows at z={z}, order={order}")

    total = comp = 0.0
    term = 1.0
    abs_sum = 0.0
    moment = 0.0  # sum of k |term_k|: the sensitivity of the sum to ln z, halved
    peak = 0.0
    ratio = math.inf
    used = 0
    omitted = 0.0
    for k in range(ctx.max_terms):
        total, comp = _kahan_add(total, comp, term)
        abs_sum += abs(term)
        moment += k * abs(term)
        peak = max(peak, abs(term))
        used = k + 1
        nxt = term * (-(z * z) * p**(k + 1)) / ((1.0 - p**(order + 1.0 + k)) * (1.0 - p**(k + 1)))
        ratio = abs(nxt / term) if term != 0.0 else 0.0
        term = nxt
        scale = max(abs(total), peak)
        if k >= 2 and ratio < 1.0 and abs(term) <= tol * scale:
            r_eff = min(ratio, p)
            if abs(term) / (1.0 - r_eff) <= tol * scale:
                omitted = abs(term) / (1.0 - r_eff)
                break
    else:
        raise NonConvergentTail(f"q-Bessel series not converged in {ctx.max_terms} terms")

    value = pref * total
    apref = abs(pref)
    rounding = (2.0 * used + 8.0) * _EPS * apref * (abs_sum + abs(total))
    # z**order and the two infinite products of the prefactor round too
    pref_err = (_EPS + abs(order) * z_err + const.prefactor_err) * abs(value)
    arg_err = 2.0 * z_err * apref * moment
    return BesselEval(value, used, apref * omitted + rounding + pref_err + arg_err, apref * peak)


def _signed_sum(ctx: QContext, coeffs, suffix, start: int, min_i: int):
    """Kahan sum of the product-form terms (-1)^i coeffs[i] suffix[i - start]
    for i = start, start+1, ..., the last entry of suffix being the empty
    product.

    From i = min_i on the sum stops once the current term and the geometric
    estimate of the rest both sit within ctx.term_tol of the running scale.
    Returns (total, abs_sum, peak, used, omitted), omitted bounding the
    terms left out.
    """
    p, tol = ctx.p, ctx.term_tol
    total = comp = 0.0
    abs_sum = 0.0
    peak = 0.0
    used = 0
    omitted = 0.0
    prev_term = 0.0
    for i in range(start, min(start + len(suffix) - 1, ctx.max_terms)):
        j = i - start
        coeff = coeffs[i]  # p^(i(i+1)/2 + order*i) / (p;p)_i
        term = (coeff if i % 2 == 0 else -coeff) * suffix[j]
        total, comp = _kahan_add(total, comp, term)
        abs_sum += abs(term)
        peak = max(peak, abs(term))
        used = j + 1
        if i + 1 == len(coeffs):
            raise NonConvergentTail("product-form coefficients overflow")
        coeff = coeffs[i + 1]
        if coeff == 0.0:
            # every remaining term underflows; bound them by one denormal
            omitted = 5e-324 * abs(suffix[j])
            break
        scale = max(abs(total), peak)
        if i >= min_i and scale > 0.0 and abs(term) <= tol * scale:
            ratio = abs(term / prev_term) if prev_term != 0.0 else 0.0
            r_eff = min(ratio, p) if ratio < 1.0 else p
            nxt = coeff * abs(suffix[j + 1])
            if nxt / (1.0 - r_eff) <= tol * scale:
                omitted = nxt / (1.0 - r_eff)
                break
        prev_term = term
    else:
        raise NonConvergentTail("product-form series did not settle")
    return total, abs_sum, peak, used, omitted


def _product_eval(ctx: QContext, order: float, w_int: int, w_frac: float,
                  frac_err: float) -> BesselEval:
    """Product-form evaluation at x with x^2 = p^(w_int + w_frac).

    frac_err is the absolute uncertainty of w_frac; it feeds the error
    bound through every product factor, most through the most nearly
    vanishing one.
    """
    p = ctx.p
    ln_p = 2.0 * math.log(ctx.q)
    const = _order_constants(p, order)
    coeffs = const.coeffs

    # factor table f_s = 1 - p^(s + w0); exponents past the cut contribute
    # less than ~1e-22 to the log-product
    cut = 22.0 * math.log(10.0) / -ln_p
    n_factors = max(4, int(math.ceil(cut - w_int)) + 2)
    # relative shift of the factors under the uncertainty of their
    # exponents: frac_err plus the rounding of s + w0 and of (s + w0) ln p
    shift = 0.0
    factors = []
    for s in range(1, n_factors + 1):
        w = (s + w_int) + w_frac
        e = math.expm1(w * ln_p)
        factors.append(-e)
        if e != 0.0:
            shift += (frac_err + 1.5 * _EPS * abs(w)) * (1.0 + e) / abs(e)

    # suffix products: G[i] = (p^(i+1) x^2; p)_inf = prod_(s > i) f_s
    suffix = [1.0] * (n_factors + 1)
    for s in range(n_factors, 0, -1):
        suffix[s - 1] = factors[s - 1] * suffix[s]
        if not math.isfinite(suffix[s - 1]):
            raise OverflowError("product form overflows; argument too large")

    # leading G may vanish exactly at integer exponents
    total, abs_sum, peak, used, omitted = _signed_sum(ctx, coeffs, suffix, 0, max(4, -w_int + 2))

    # x^order = p^(order * w0 / 2)
    log_xpow = order * (w_int + w_frac) * 0.5 * ln_p
    if log_xpow > 700.0:
        raise OverflowError("x^nu overflows in product form")
    xpow = math.exp(log_xpow)
    pref = xpow / const.pp_inf
    value = pref * total

    rel_noise = _EPS * (8.0 + 2.0 * (used + n_factors)) + abs(ln_p) * shift
    # x^order = exp(log_xpow) carries the rounding of log_xpow and the
    # uncertainty of w_frac; (p;p)_inf carries its own
    pref_err = (_EPS * (2.0 * abs(log_xpow) + 1.0) + 0.5 * abs(order * ln_p) * frac_err
                + const.pp_err)
    err = pref * omitted + rel_noise * pref * (abs_sum + abs(total)) + pref_err * abs(value)
    return BesselEval(value, used, err, pref * peak)


def zero_offset_map(ctx: QContext, k: int, eps: float) -> float:
    """The fixed-point map g(eps) = log_p(1 + B/A) of the k-th zero's offset.

    At x^2 = p^(-k + eps) the product-form sum of _product_eval splits at
    its factor f_k = 1 - p^eps, which vanishes at the zero: the terms i < k
    carry it (head group f_k A), the terms i >= k do not (tail group B).
    J = 0 where p^eps = 1 + B/A, and A and B barely depend on eps, so the
    map contracts and eps_k keeps full relative precision however small it
    is.  A is the Kahan sum of the head terms, B the tail terms summed and
    stopped as _product_eval sums and stops them.  A ratio that underflows
    to 0 gives eps = 0; ArithmeticError where B/A leaves (-1, 0].
    """
    ln_p = 2.0 * math.log(ctx.q)
    coeffs = _order_constants(ctx.p, ctx.nu).coeffs
    if k >= len(coeffs) - 1:
        if coeffs[-1] != 0.0:
            raise NonConvergentTail("product-form coefficients overflow")
        return 0.0  # every tail coefficient underflows: B = 0
    # the factor table of _product_eval at w_int = -k, w_frac = eps
    cut = 22.0 * math.log(10.0) / -ln_p
    n_factors = max(4, int(math.ceil(cut + k)) + 2)
    factors = [-math.expm1(((s - k) + eps) * ln_p) for s in range(1, n_factors + 1)]

    # tail suffixes T[i] = prod_(s > i) f_s for i >= k, f_k never among them
    tail = [1.0] * (n_factors + 1 - k)
    for s in range(n_factors, k, -1):
        tail[s - 1 - k] = factors[s - 1] * tail[s - k]
    b_sum = _signed_sum(ctx, coeffs, tail, k, max(4, k + 2))[0]
    a_sum = comp = 0.0
    head = tail[0]  # T[k] prod_(i < s < k) f_s
    for i in range(k - 1, -1, -1):
        a_sum, comp = _kahan_add(a_sum, comp, (coeffs[i] if i % 2 == 0 else -coeffs[i]) * head)
        head *= factors[i - 1] if i > 0 else 1.0
    if not math.isfinite(a_sum):
        raise OverflowError("head group overflows; argument too large")
    ratio = b_sum / a_sum  # p^eps - 1
    if not -1.0 < ratio <= 0.0:
        raise ArithmeticError(f"zero-offset map left [0, inf) at k={k}")
    return math.log1p(ratio) / ln_p


def bessel_j(ctx: QContext, z: float) -> BesselEval:
    """J_nu(z; q^2) for real z >= 0, order nu = ctx.nu > -1."""
    nu = ctx.nu
    if z < 0.0:
        raise ValueError("bessel_j evaluates real nonnegative arguments only")
    if z == 0.0:
        if nu > 0.0:
            return BesselEval(0.0, 0, 0.0, 0.0)
        if nu == 0.0:
            return BesselEval(1.0, 1, _EPS, 1.0)
        raise ValueError(f"J_nu diverges at z=0 for nu={nu} < 0")
    if z <= 1.0 / ctx.q:
        return _series_eval(ctx, nu, z)
    w = math.log(z) / math.log(ctx.q)  # p-exponent of z^2 equals log_q z
    w_int = round(w)
    w_frac = w - w_int
    # two logs and a quotient: w is good to about 3 half-ulps of itself
    frac_err = _EPS * (2.0 * abs(w) + 2.0)
    return _product_eval(ctx, nu, w_int, w_frac, frac_err)


def bessel_j_qpow(ctx: QContext, n: int, frac: float) -> BesselEval:
    """J_nu(q^(n + frac); q^2) with the fractional exponent given exactly.

    This is the accurate route for arguments q^m j_k = q^(m - k + eps_k):
    call with n = m - k and frac = eps_k.  Full relative precision is kept
    in the nearly cancelling factors 1 - q^(2(n + frac + s)).
    """
    if n + frac >= -1.0:
        z = ctx.q**(n + frac)
        # n + frac and the power each round once
        z_err = _EPS * (1.0 + abs(math.log(ctx.q) * (n + frac)))
        return _series_eval(ctx, ctx.nu, z, z_err)
    return _product_eval(ctx, ctx.nu, n, frac, _EPS * abs(frac))


def bessel_j_column(ctx: QContext, k: int, eps: float, count: int) -> BesselColumn:
    """J_nu(q^(n+1) j_k; q^2) for n = 0..count-1, with j_k = q^(-k + eps).

    The product form for the whole column in one pass: entry n has
    x^2 = p^(n+1-k+eps), and its suffix products (p^(i+1) x^2; p)_inf are
    the suffixes from d = i + n + 2 - k of one factor table
    f_d = 1 - p^(d + eps) shared by every entry.  Entry n is then the signed
    coefficient vector correlated against the window of suffixes that
    starts at d = n + 2 - k, one numpy correlation for all entries.  Every
    coefficient down to the first that underflows is summed, so the
    truncation remainder is one denormal.  Each entry's tail_bound is built
    as bessel_j_qpow builds it on the product route.
    """
    if k < 1 or count < 1:
        raise ValueError(f"column needs k >= 1 and count >= 1, got k={k}, count={count}")
    p, nu = ctx.p, ctx.nu
    ln_p = 2.0 * math.log(ctx.q)
    const = _order_constants(p, nu)
    if const.coeffs[-1] != 0.0:
        raise NonConvergentTail("product-form coefficients overflow")
    n_terms = len(const.coeffs) - 1
    if n_terms > ctx.max_terms:
        raise NonConvergentTail(f"column needs {n_terms} terms, max_terms is {ctx.max_terms}")
    signed = np.array(const.coeffs[:n_terms])
    signed[1::2] *= -1.0
    frac_err = _EPS * abs(eps)

    # factor table f_d = 1 - p^(d + eps) for d >= 2 - k, with exactly the
    # scalar route's arithmetic; past the cut every factor rounds to 1.0
    cut = 22.0 * math.log(10.0) / -ln_p
    d_lo = 2 - k
    d_cut = min(int(math.ceil(cut)) + 2, count + n_terms - k)
    factors = []
    shift_terms = []  # relative shift of f_d under the uncertainty of d + eps
    for d in range(d_lo, d_cut + 1):
        x = d + eps
        e = math.expm1(x * ln_p)
        factors.append(-e)
        shift_terms.append((frac_err + 1.5 * _EPS * abs(x)) * (1.0 + e) / abs(e) if e != 0.0 else 0.0)
    pad = count + n_terms - k - d_cut
    with np.errstate(over="ignore", invalid="ignore"):
        suffix = np.cumprod((factors + [1.0] * pad)[::-1])[::-1]
    # a product that overflowed leaves every suffix below it infinite or nan
    if not math.isfinite(suffix[0]):
        raise OverflowError("product form overflows; argument too large")
    shift = np.cumsum((shift_terms + [0.0] * pad)[::-1])[::-1][:count]

    # entry n correlates the coefficients with the suffixes from d = n + 2 - k
    total = np.correlate(suffix, signed, "valid")[:count]
    abs_suffix = np.abs(suffix)
    abs_sum = np.correlate(abs_suffix, np.abs(signed), "valid")[:count]
    peak = np.zeros(count)
    for i, c in enumerate(const.coeffs[:n_terms]):
        np.maximum(peak, c * abs_suffix[i:i + count], out=peak)
    # the remainder past the last nonzero coefficient, as on the scalar route
    omitted = 5e-324 * abs_suffix[n_terms - 1:n_terms - 1 + count]

    # x^nu = z^nu with z = q^m q^eps, m = n+1-k: both powers take exact
    # exponents, so z is good to 2.5 ulp and z^nu to (1 + 2.5 |nu|) ulp,
    # where exp(nu (m + eps) ln q) would lose |nu (m + eps) ln q| ulp to the
    # rounding of its argument.  Subnormal z falls back to that exp.
    q = ctx.q
    ln_q = math.log(q)
    q_eps = q**eps
    xpow = []
    xpow_err = []
    for m in range(1 - k, count + 1 - k):
        z = q**m * q_eps
        if z >= _TINY:
            xpow.append(z**nu)
            xpow_err.append(_EPS * (1.0 + 2.5 * abs(nu)))
        else:
            log_xpow = nu * (m + eps) * ln_q
            xpow.append(math.exp(log_xpow))
            xpow_err.append(_EPS * (2.0 * abs(log_xpow) + 1.0))
    pref = np.array(xpow) / const.pp_inf
    values = pref * total

    # factors the scalar route multiplies at x^2 = p^(n+1-k+eps)
    n_factors = np.maximum(4, int(math.ceil(cut)) + (k - 1) - np.arange(count)) + 2
    rel_noise = _EPS * (8.0 + 2.0 * (n_terms + n_factors)) + abs(ln_p) * shift
    pref_err = np.array(xpow_err) + abs(nu * ln_q) * frac_err + const.pp_err
    bound = pref * omitted + rel_noise * pref * (abs_sum + np.abs(total)) + pref_err * np.abs(values)
    peak = pref * peak
    for arr in (values, bound, peak):
        arr.flags.writeable = False
    return BesselColumn(values, bound, peak)


def bessel_j_prime(ctx: QContext, z: float) -> BesselEval:
    """d/dz J_nu(z; q^2), by exact differentiation of the truncated series.

    Each series term C (-1)^k q^(2k(k+1)) z^(2k+nu) / [...] contributes
    (2k + nu)/z times itself; the sum is well conditioned at the zeros
    j_k (where the pure-series part dominates) and for moderate z.
    """
    nu = ctx.nu
    p, tol = ctx.p, ctx.term_tol
    if z < 0.0:
        raise ValueError("bessel_j_prime evaluates real nonnegative arguments only")
    if z == 0.0:
        if nu == 1.0:
            return BesselEval(_prefactor(ctx, nu), 1, _EPS, 1.0)
        if nu > 1.0 or nu == 0.0:
            return BesselEval(0.0, 0, 0.0, 0.0)
        raise ValueError(f"derivative at 0 is singular for nu={nu}")

    const = _order_constants(p, nu)
    pref = const.prefactor
    base = z**nu
    if not math.isfinite(base):
        raise OverflowError(f"z^nu overflows at z={z}")
    total = comp = 0.0
    abs_sum = 0.0
    peak = 0.0
    used = 0
    omitted = 0.0
    term = base  # running series term without the derivative weight
    for k in range(ctx.max_terms):
        contrib = (2.0 * k + nu) * term / z
        total, comp = _kahan_add(total, comp, contrib)
        abs_sum += abs(contrib)
        peak = max(peak, abs(contrib))
        used = k + 1
        term = term * (-(z * z) * p**(k + 1)) / ((1.0 - p**(nu + 1.0 + k)) * (1.0 - p**(k + 1)))
        if not math.isfinite(term):
            raise OverflowError("derivative series overflows; argument too large")
        nxt_c = (2.0 * (k + 1) + nu) * abs(term) / z
        scale = max(abs(total), peak)
        if k >= 2 and contrib != 0.0 and nxt_c < abs(contrib) and nxt_c <= tol * scale:
            r_eff = min(nxt_c / abs(contrib), p)
            if nxt_c / (1.0 - r_eff) <= tol * scale:
                omitted = nxt_c / (1.0 - r_eff)
                break
    else:
        raise NonConvergentTail(f"derivative series not converged in {ctx.max_terms} terms")

    value = pref * total
    rounding = (2.0 * used + 8.0) * _EPS * abs(pref) * (abs_sum + abs(total))
    pref_err = (_EPS + const.prefactor_err) * abs(value)  # z**nu and the prefactor
    return BesselEval(value, used, abs(pref) * omitted + rounding + pref_err, abs(pref) * peak)


def check_difference_relation(ctx: QContext, x: float) -> float:
    """Absolute residual of the three-term relation
    J_nu(q^2 x) + q^(-nu) (q^2 x^2 - 1 - q^(2 nu)) J_nu(q x) + J_nu(x) = 0."""
    q, nu = ctx.q, ctx.nu
    j0 = bessel_j(ctx, q * q * x).value
    j1 = bessel_j(ctx, q * x).value
    j2 = bessel_j(ctx, x).value
    coef = q**(-nu) * (q * q * x * x - 1.0 - q**(2.0 * nu))
    return abs(j0 + coef * j1 + j2)


def difference_relation_budget(ctx: QContext, x: float) -> float:
    """Error budget for check_difference_relation from the three evaluations."""
    q, nu = ctx.q, ctx.nu
    e0 = bessel_j(ctx, q * q * x)
    e1 = bessel_j(ctx, q * x)
    e2 = bessel_j(ctx, x)
    coef = abs(q**(-nu) * (q * q * x * x - 1.0 - q**(2.0 * nu)))
    scale = abs(e0.value) + coef * abs(e1.value) + abs(e2.value)
    return e0.tail_bound + coef * e1.tail_bound + e2.tail_bound + 16.0 * _EPS * scale


def check_shift_identity(ctx: QContext, k: int) -> float:
    """Residual |J_nu(q j_k; q^2) - q j_k J_(nu+1)(q j_k; q^2)|."""
    from . import zeros  # deferred: zeros builds on this module

    zk = zeros.find_zero(ctx, k)
    lhs = bessel_j_qpow(ctx, 1 - k, zk.eps_k).value
    rhs = ctx.q * zk.value * bessel_j_qpow(ctx.with_order(ctx.nu + 1.0), 1 - k, zk.eps_k).value
    return abs(lhs - rhs)
