"""Closed-form reference expansions used as ground truth for the series code.

Two families are provided:

* power_nu: the target x^nu, whose coefficients collapse to
  -2 / (q^nu j_k J_nu'(j_k; q^2));
* g_nu_mu: the target x^nu (x^2 q^2; q^2)_inf / (x^2 q^(2mu-2nu); q^2)_inf
  for mu > nu > -1/2, whose coefficients involve J_mu at q j_k.  Choosing
  mu = nu + 1 telescopes the product ratio away and reproduces the power
  family exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qcore import QContext, GridFunction, q_pochhammer, DEFAULT_GRID_DEPTH
from .qbessel import bessel_j_prime, bessel_j_qpow
from .series import FourierCoefficient, eta_closed
from . import zeros as _zeros


def power_nu_coefficient(ctx: QContext, k: int) -> float:
    """Closed-form expansion coefficient of x^nu against mode k."""
    zk = _zeros.find_zero(ctx, k)
    jp = bessel_j_prime(ctx, zk.value).value
    return -2.0 / (ctx.q**ctx.nu * zk.value * jp)


def g_nu_mu_target(ctx: QContext, mu: float, x: float) -> float:
    """g(x) = x^nu (x^2 q^2; q^2)_inf / (x^2 q^(2mu-2nu); q^2)_inf.

    Both truncated products share their truncation index so their errors
    largely cancel in the ratio.  Arguments with |x| > 1 are rejected (the
    denominator develops zeros there); the closed unit interval is fine.
    """
    nu = ctx.nu
    if not mu > nu:
        raise ValueError(f"g_nu_mu needs mu > nu, got mu={mu}, nu={nu}")
    if not nu > -0.5:
        raise ValueError(f"g_nu_mu needs nu > -1/2, got {nu}")
    if abs(x) > 1.0:
        raise ValueError(f"g_nu_mu target is defined for |x| <= 1, got {x}")
    if x == 0.0:
        return 0.0 if nu > 0.0 else (1.0 if nu == 0.0 else math.inf)
    p = ctx.p
    a_num = x * x * p
    a_den = x * x * ctx.q**(2.0 * (mu - nu))
    num = den = 1.0
    fn, fd = a_num, a_den
    for _ in range(200_000):
        if abs(fn) < 1e-17 * (1.0 - p) and abs(fd) < 1e-17 * (1.0 - p):
            break
        num *= 1.0 - fn
        den *= 1.0 - fd
        fn *= p
        fd *= p
    return x**nu * num / den


def g_nu_mu_coefficient(ctx: QContext, mu: float, k: int) -> float:
    """Closed-form expansion coefficient of the g_nu_mu target against mode k."""
    nu, q, p = ctx.nu, ctx.q, ctx.p
    if not mu > nu:
        raise ValueError(f"g_nu_mu needs mu > nu, got mu={mu}, nu={nu}")
    zk = _zeros.find_zero(ctx, k)
    j_mu = bessel_j_qpow(ctx.with_order(mu), 1 - k, zk.eps_k).value
    j_nu1 = bessel_j_qpow(ctx.with_order(nu + 1.0), 1 - k, zk.eps_k).value
    jp = bessel_j_prime(ctx, zk.value).value
    if j_nu1 == 0.0 or jp == 0.0:
        raise ZeroDivisionError(f"degenerate denominator at k={k} (should not occur at true zeros)")
    const = q_pochhammer(p, p, math.inf) / q_pochhammer(q**(2.0 * (mu - nu)), p, math.inf)
    return (-2.0 * q**(1.0 - mu) * zk.value**(nu - mu) * const * j_mu / (j_nu1 * jp))


@dataclass(frozen=True)
class ClosedFormExpansion:
    """A target with known coefficients, packaged for the series module."""

    kind: str  # "power_nu" or "g_nu_mu"
    ctx: QContext
    mu: float | None = None

    def __post_init__(self):
        if self.kind not in ("power_nu", "g_nu_mu"):
            raise ValueError(f"unknown expansion kind {self.kind!r}")
        if self.kind == "g_nu_mu":
            if self.mu is None:
                raise ValueError("g_nu_mu expansion needs mu")
            if not (self.mu > self.ctx.nu > -0.5):
                raise ValueError("g_nu_mu expansion needs mu > nu > -1/2")

    def target(self, x: float) -> float:
        if self.kind == "power_nu":
            return x**self.ctx.nu
        return g_nu_mu_target(self.ctx, self.mu, x)

    def coefficient(self, k: int) -> float:
        if self.kind == "power_nu":
            return power_nu_coefficient(self.ctx, k)
        return g_nu_mu_coefficient(self.ctx, self.mu, k)

    def coefficient_list(self, k_max: int) -> list[FourierCoefficient]:
        return [FourierCoefficient(k, self.coefficient(k), eta_closed(self.ctx, k),
                                   "closed-form")
                for k in range(1, k_max + 1)]

    def target_grid(self, depth: int = DEFAULT_GRID_DEPTH, *,
                    with_pre: bool = False) -> GridFunction:
        ctx = self.ctx
        vals = tuple(self.target(ctx.q**n) for n in range(depth + 1))
        pre = None
        if with_pre:
            if self.kind != "power_nu":
                raise ValueError("the g_nu_mu target is not defined at q^-1")
            pre = ctx.q**(-ctx.nu)
        tail = ctx.nu if self.kind == "power_nu" else None
        limit = 0.0 if ctx.nu > 0.0 else None
        return GridFunction(ctx, vals, pre, limit, tail)


def power_nu_expansion(ctx: QContext) -> ClosedFormExpansion:
    return ClosedFormExpansion("power_nu", ctx)


def g_nu_mu_expansion(ctx: QContext, mu: float) -> ClosedFormExpansion:
    return ClosedFormExpansion("g_nu_mu", ctx, mu)
