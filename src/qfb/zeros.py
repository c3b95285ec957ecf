"""Certified localization of the positive zeros j_k of J_nu(.; q^2).

In the regime q^(2(k+nu)) <= (1 - q^2)(1 - q^(2k)) the k-th zero satisfies
j_k = q^(-k + eps_k) with 0 < eps_k < alpha_k, so [q^(-k+alpha_k), q^(-k)]
is a bracket containing exactly j_k.  After the sign change across it is
checked, eps_k is solved directly in the exponent offset by the head/tail
fixed point of the product form (qbessel.zero_offset_map), which keeps its
full relative accuracy even when it is as small as q^(2k), and a bracket
about 1e-13 relative wide around it is sign-checked again.  The zero value
q^(-k+eps_k) and every downstream quantity built on it inherit that
accuracy through bessel_j_qpow.

Below the regime threshold the zeros are located by an anchored geometric
scan: the count of sign changes between a provably positive starting point
and the first certified bracket is checked against the expected number.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .qcore import QContext, q_pochhammer, solve_offset
from .qbessel import bessel_j, bessel_j_prime, bessel_j_qpow, zero_offset_map

_OFFSET_TOL = 4e-16  # relative settling tolerance of the zero-offset fixed point
_SCAN_BISECT_STEPS = 80
_UNIT = 2.0 ** -53  # binary64 unit roundoff


class OutOfRegimeError(ValueError):
    """The closed-form zero bound is undefined at this (q, nu, k)."""


class ZeroLocalizationError(RuntimeError):
    """Scanning failed to isolate the expected number of zeros."""


@dataclass(frozen=True)
class BesselZero:
    """The k-th positive zero with its certification record.

    value = q^(-k + eps_k); certified means the Theorem-regime bracket
    0 < eps_k < alpha_k was validated by an actual sign change.
    """

    k: int
    value: float
    bracket_lo: float
    bracket_hi: float
    eps_k: float
    alpha_k: float
    certified: bool


def alpha_bound(ctx: QContext, k: int) -> float:
    """Upper bound alpha_k on the exponent offset eps_k of the k-th zero."""
    if k < 1:
        raise ValueError(f"zero index must be >= 1, got {k}")
    p = ctx.p
    ratio = p**(k + ctx.nu) / (1.0 - p**k)
    if ratio >= 1.0:
        raise OutOfRegimeError(
            f"zero bound undefined at k={k} for q={ctx.q}, nu={ctx.nu}")
    # log1p keeps the bound alive when the log argument rounds to 1.0
    return math.log1p(-ratio) / (2.0 * math.log(ctx.q))


def regime_start(ctx: QContext) -> int:
    """Smallest k0 with q^(2(k0+nu)) <= (1 - q^2)(1 - q^(2 k0)).

    The condition is monotone in k, so the exponent-offset bracket holds for
    every k >= k0.
    """
    p = ctx.p
    for k in range(1, 100_000):
        if p**(k + ctx.nu) <= (1.0 - p) * (1.0 - p**k):
            return k
    raise OutOfRegimeError(f"no regime threshold found for q={ctx.q}, nu={ctx.nu}")


def _phi(ctx: QContext, k: int, eps: float) -> float:
    """J_nu at q^(-k + eps), evaluated with the exponent split kept exact."""
    return bessel_j_qpow(ctx, -k, eps).value


def _find_certified(ctx: QContext, k: int) -> BesselZero:
    alpha = alpha_bound(ctx, k)
    # eps_k can brush the alpha_k endpoint (the bound tightens as q -> 0),
    # where the endpoint sign drowns in evaluation noise; widen a little
    # before giving up, marking any widened find as uncertified.  The cap
    # keeps the bracket clear of the neighbouring zero at offset 1.
    certified = True
    f_lo = _phi(ctx, k, 0.0)
    hi = f_hi = None
    for widen in (1.0, 2.0, 8.0, 64.0):
        cand = min(widen * alpha, alpha + 0.45)
        f_cand = _phi(ctx, k, cand)
        if f_lo != 0.0 and f_cand != 0.0 and (f_lo > 0.0) != (f_cand > 0.0):
            hi, f_hi = cand, f_cand
            certified = widen == 1.0
            break
    if hi is None:
        raise ZeroLocalizationError(
            f"no sign change across the certified bracket at k={k} "
            f"(q={ctx.q}, nu={ctx.nu})")
    # eps_k solves the head/tail fixed point of the product form, which
    # keeps its full relative precision however small it is
    try:
        eps = solve_offset(lambda e: zero_offset_map(ctx, k, e), _OFFSET_TOL)
    except ArithmeticError as exc:
        raise ZeroLocalizationError(
            f"zero offset not solved at k={k} (q={ctx.q}, nu={ctx.nu}): {exc}") from exc
    if not eps < hi:
        raise ZeroLocalizationError(
            f"zero offset {eps} left its bracket (0, {hi}) at k={k} (q={ctx.q}, nu={ctx.nu})")
    # below ~1e-300 the offset loses denormal precision while its effect on
    # J at grid multiples q^m j_k (m >= 1, orders up to nu+1) is already
    # O(q^(2k)) relative, so it is recorded as exactly zero
    if eps < 1e-300:
        eps = 0.0
    # the reported x-bracket is ~1e-13 relative wide, about what the
    # endpoint evaluations can still resolve; each end that moved off the
    # sign-checked 0 or hi is checked again
    half = 0.5e-13 / -math.log(ctx.q)
    w_lo, w_hi = max(eps - half, 0.0), min(eps + half, hi)
    for w, f_ref in ((w_lo, f_lo), (w_hi, f_hi)):
        if w not in (0.0, hi):
            f_w = _phi(ctx, k, w)
            if f_w == 0.0 or (f_w > 0.0) != (f_ref > 0.0):
                raise ZeroLocalizationError(
                    f"no sign change across the refined bracket at k={k} "
                    f"(q={ctx.q}, nu={ctx.nu})")
    q = ctx.q
    # each end is q**(-k + w) rounded to nearest: the exponent sum is off by
    # up to k/2 ulp and pow by another half ulp, so for tiny eps_k an end
    # could land on or past j_k; twice that rounding moves the ends outward
    out = _UNIT * 2.0 * (2.0 + k * abs(math.log(q)))
    return BesselZero(
        k=k,
        value=q**(-k + eps),
        bracket_lo=q**(-k + w_hi) * (1.0 - out),
        bracket_hi=q**(-k + w_lo) * (1.0 + out),
        eps_k=eps,
        alpha_k=alpha,
        certified=certified and 0.0 < eps < alpha,
    )


def _safe_start(ctx: QContext) -> float:
    """A point provably below the first zero (the series head dominates)."""
    p, nu = ctx.p, ctx.nu
    tiny = math.sqrt((1.0 - p) * (1.0 - p**(nu + 1.0)) / (3.0 * p))
    return min(ctx.q**(nu / 2.0), tiny)


def _scan_brackets(ctx: QContext, x_hi: float, expected: int) -> list[tuple[float, float]]:
    """Sign-change brackets on (safe start, x_hi], retrying with finer steps
    until exactly `expected` are found."""
    q = ctx.q
    x_lo = _safe_start(ctx)
    brackets: list[tuple[float, float]] = []
    for halving in range(4):
        step = q**(-0.5 / 2**halving)
        xs = [x_lo]
        while xs[-1] < x_hi:
            xs.append(min(xs[-1] * step, x_hi))
        signs = [bessel_j(ctx, x).value > 0.0 for x in xs]
        brackets = [(xs[i], xs[i + 1])
                    for i in range(len(xs) - 1) if signs[i] != signs[i + 1]]
        if len(brackets) == expected:
            return brackets
    raise ZeroLocalizationError(
        f"expected {expected} zeros below {x_hi}, scanning found "
        f"{len(brackets)} (q={ctx.q}, nu={ctx.nu})")


def _refine_scan_bracket(ctx: QContext, k: int, a: float, b: float) -> BesselZero:
    """Bisect a scan bracket in log space; the result is never certified.

    The reported bracket keeps, at each end, the last point whose J exceeded
    its tail_bound: nearer the zero the sign of J is rounding noise.
    """
    q = ctx.q
    ta, tb = math.log(a), math.log(b)
    w_ta, w_tb = ta, tb
    fa = bessel_j(ctx, a).value
    for _ in range(_SCAN_BISECT_STEPS):
        tm = 0.5 * (ta + tb)
        ev = bessel_j(ctx, math.exp(tm))
        fm = ev.value
        if fm == 0.0:
            ta = tb = tm
            break
        trusted = abs(fm) > ev.tail_bound
        if (fm > 0.0) == (fa > 0.0):
            ta, fa = tm, fm
            if trusted:
                w_ta = tm
        else:
            tb = tm
            if trusted:
                w_tb = tm
    value = math.exp(0.5 * (ta + tb))
    eps = k + math.log(value) / math.log(q)
    try:
        alpha = alpha_bound(ctx, k)
    except OutOfRegimeError:
        alpha = math.nan
    # an end still at the scan point comes back as exp(log(a)), off by half
    # an ulp of |log a| and another half ulp of exp; twice that rounding
    # moves both ends outward
    out = _UNIT * 2.0 * (2.0 + max(abs(w_ta), abs(w_tb)))
    return BesselZero(
        k=k,
        value=value,
        bracket_lo=math.exp(w_ta) * (1.0 - out),
        bracket_hi=math.exp(w_tb) * (1.0 + out),
        eps_k=eps,
        alpha_k=alpha,
        certified=False,
    )


def _scan_below_regime(ctx: QContext, k0: int) -> list[BesselZero]:
    """Locate j_1 .. j_(k0-1) by sign-change scanning below the certified bracket."""
    if k0 == 1:
        return []
    x_hi = ctx.q**(-k0 + alpha_bound(ctx, k0))  # strictly below j_k0
    brackets = _scan_brackets(ctx, x_hi, k0 - 1)
    return [_refine_scan_bracket(ctx, idx, a, b)
            for idx, (a, b) in enumerate(brackets, start=1)]


# zero tables of the most recently used contexts, least recently used out first
_CACHE_CONTEXTS = 32
_CACHE: OrderedDict[tuple[float, float, float, int], dict[int, BesselZero]] = OrderedDict()
_CACHE_LOCK = threading.Lock()


def _cache_key(ctx: QContext) -> tuple[float, float, float, int]:
    return (round(ctx.q, 12), round(ctx.nu, 12), ctx.term_tol, ctx.max_terms)


def find_zero(ctx: QContext, k: int) -> BesselZero:
    """The k-th positive zero of J_nu(.; q^2), bracketed and refined."""
    if k < 1:
        raise ValueError(f"zero index must be >= 1, got {k}")
    key = _cache_key(ctx)
    with _CACHE_LOCK:
        table = _CACHE.setdefault(key, {})
        _CACHE.move_to_end(key)
        while len(_CACHE) > _CACHE_CONTEXTS:
            _CACHE.popitem(last=False)
        if k in table:
            return table[k]
    k0 = regime_start(ctx)
    if k >= k0:
        try:
            zk = _find_certified(ctx, k)
        except ZeroLocalizationError:
            # last resort: locate the k-th zero by a full anchored scan
            brackets = _scan_brackets(ctx, ctx.q**-k, k)
            zk = _refine_scan_bracket(ctx, k, *brackets[-1])
        with _CACHE_LOCK:
            table[k] = zk
        return zk
    scanned = _scan_below_regime(ctx, k0)
    with _CACHE_LOCK:
        for z in scanned:
            table.setdefault(z.k, z)
    return scanned[k - 1]


def zero_table(ctx: QContext, kmax: int) -> list[BesselZero]:
    """Zeros j_1 .. j_kmax in ascending order."""
    return [find_zero(ctx, k) for k in range(1, kmax + 1)]


def count_zeros_below(ctx: QContext, x_max: float, *, shrink: int = 0) -> int:
    """Number of sign changes of J_nu on (safe start, x_max], by scanning."""
    x = _safe_start(ctx)
    step = ctx.q**(-0.5 / 2**shrink)
    sign = bessel_j(ctx, x).value > 0.0
    count = 0
    while x < x_max:
        x = min(x * step, x_max)
        s = bessel_j(ctx, x).value > 0.0
        if s != sign:
            count += 1
            sign = s
    return count


def check_zero_value_bound(ctx: QContext, k: int) -> tuple[float, float]:
    """(|J_nu(q j_k; q^2)|, closed-form large-k bound) for the value at q j_k."""
    zk = find_zero(ctx, k)
    lhs = abs(bessel_j_qpow(ctx, 1 - k, zk.eps_k).value)
    p = ctx.p
    const = (q_pochhammer(-p, p, math.inf)
             * q_pochhammer(-p**(ctx.nu + 1.0), p, math.inf)
             / q_pochhammer(p, p, math.inf))
    rhs = const * ctx.q**((k + ctx.nu) * (k - 1.0))
    return lhs, rhs


@dataclass(frozen=True)
class DerivativeReport:
    """Normalized derivative values at the zeros over a k-range.

    s_values[k] strips the predicted growth A_nu(q) q^(-(k + nu/2 - 1 - eps_k)^2)
    from J_nu'(j_k; q^2); bounded_seq[k] is |J_nu'(j_k)| q^(k(k + nu - 2)),
    which should stay within fixed positive bounds.
    """

    ks: tuple[int, ...]
    s_values: tuple[float, ...]
    bounded_seq: tuple[float, ...]

    @property
    def min_abs_s(self) -> float:
        return min(abs(s) for s in self.s_values)

    @property
    def max_abs_s(self) -> float:
        return max(abs(s) for s in self.s_values)


def check_derivative_asymptotics(ctx: QContext, k_lo: int, k_hi: int) -> DerivativeReport:
    """Compute S_k = J_nu'(j_k) / [A_nu(q) q^(-(k + nu/2 - 1 - eps_k)^2)] over a range.

    The growth factor is applied in log space to dodge overflow.
    """
    q, nu, p = ctx.q, ctx.nu, ctx.p
    ln_q = math.log(q)
    a_const = (2.0 * q_pochhammer(p**(nu + 1.0), p, math.inf)
               / q_pochhammer(p, p, math.inf)
               * q**((nu - 1.0) * (nu - 3.0) / 4.0))
    ks, svals, bounded = [], [], []
    for k in range(k_lo, k_hi + 1):
        zk = find_zero(ctx, k)
        jp = bessel_j_prime(ctx, zk.value).value
        b = k + nu / 2.0 - 1.0 - zk.eps_k
        log_s = math.log(abs(jp)) - math.log(a_const) + b * b * ln_q
        svals.append(math.copysign(math.exp(log_s), jp))
        log_bounded = math.log(abs(jp)) + k * (k + nu - 2.0) * ln_q
        bounded.append(math.exp(log_bounded))
        ks.append(k)
    return DerivativeReport(tuple(ks), tuple(svals), tuple(bounded))


def jacobi_identity_residual(q: float, *, term_tol: float = 1e-16) -> float:
    """|sum_i (-1)^i (2i+1) q^(i(i+1)) - prod_i (1 - q^(2i))^3|."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    total = 0.0
    i = 0
    while True:
        t = (2 * i + 1) * q**(i * (i + 1))
        total += -t if i % 2 else t
        if t < term_tol * (abs(total) + 1.0) and i > 2:
            break
        i += 1
    prod = q_pochhammer(q * q, q * q, math.inf, term_tol=1e-17)**3
    return abs(total - prod)
