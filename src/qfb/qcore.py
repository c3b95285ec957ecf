"""q-calculus primitives on the q-linear grid.

Conventions used throughout the package: the base satisfies 0 < q < 1, the
grid is V_q+ = {q^n : n = 0, 1, 2, ...}, and grid samples are stored densely
by index n.  Every routine is a pure function of its inputs and safe to call
from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

DEFAULT_GRID_DEPTH = 256

_EPS = 2.220446049250313e-16


class NonConvergentTail(ArithmeticError):
    """A q-series tail did not stagnate within the available depth."""


@dataclass(frozen=True)
class QContext:
    """Base q, order nu, and the truncation policy for infinite sums.

    term_tol is the relative truncation tolerance applied by the two-part
    stopping rule (current term small AND geometric tail estimate small);
    max_terms caps the number of summed terms before giving up.
    """

    q: float
    nu: float
    term_tol: float = 1e-15
    max_terms: int = 2000

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not (self.nu > -1.0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be finite and exceed -1, got {self.nu}")
        if not 0.0 < self.term_tol < 1.0:
            raise ValueError(f"term_tol must lie in (0, 1), got {self.term_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")

    @property
    def p(self) -> float:
        """The squared base q^2; every series in this package runs in it."""
        return self.q * self.q

    def with_order(self, nu: float) -> "QContext":
        return replace(self, nu=nu)


@dataclass(frozen=True)
class GridFunction:
    """A function known on the truncated grid {q^n : 0 <= n <= depth}.

    pre_value holds f(q^-1) when available (boundary terms reach outside
    [0, 1]); limit_value holds f(0+); tail_exponent optionally declares a
    power-law model f(t) ~ C t^a used to bound quadrature tails past depth.
    """

    ctx: QContext
    values: tuple[float, ...]
    pre_value: float | None = None
    limit_value: float | None = None
    tail_exponent: float | None = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("GridFunction needs at least the n=0 sample")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("grid samples must be finite")
        if self.limit_value is not None and not math.isfinite(self.limit_value):
            raise ValueError("limit_value must be finite when present")

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> float:
        if n == -1:
            if self.pre_value is None:
                raise ValueError("f(q^-1) requested but pre_value is absent")
            return self.pre_value
        return self.values[n]

    @classmethod
    def from_callable(
        cls,
        ctx: QContext,
        f: Callable[[float], float],
        depth: int = DEFAULT_GRID_DEPTH,
        *,
        with_pre: bool = False,
        limit_value: float | None = None,
        tail_exponent: float | None = None,
    ) -> "GridFunction":
        """Sample f on the grid; with_pre additionally samples f(q^-1)."""
        q = ctx.q
        vals = tuple(f(q**n) for n in range(depth + 1))
        pre = f(1.0 / q) if with_pre else None
        return cls(ctx, vals, pre, limit_value, tail_exponent)


def q_pochhammer(a: float, q: float, n: float | int, *,
                 term_tol: float = 1e-15, max_terms: int = 500_000) -> float:
    """q-shifted factorial (a; q)_n.

    n may be a nonnegative integer, a negative integer (via the reciprocal
    identity (a;q)_{-n} = 1/(a q^{-n}; q)_n), or math.inf.  The infinite
    product truncates once the multiplicand sits within term_tol of 1 and
    the geometric bound on the remaining log-product drops below term_tol.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if n == math.inf:
        out = 1.0
        x = a
        for _ in range(max_terms):
            if abs(x) < term_tol and abs(x) / (1.0 - q) < term_tol:
                break
            out *= 1.0 - x
            x *= q
        else:
            raise NonConvergentTail("infinite q-product did not settle")
        return out
    if n != int(n):
        raise ValueError(f"n must be an integer or math.inf, got {n}")
    n = int(n)
    if n >= 0:
        out = 1.0
        x = a
        for _ in range(n):
            out *= 1.0 - x
            x *= q
        return out
    # (a;q)_{-m} = 1 / (a q^{-m}; q)_m
    m = -n
    out = 1.0
    x = a * q**(-m)
    for _ in range(m):
        factor = 1.0 - x
        if factor == 0.0:
            raise ZeroDivisionError(
                f"(a;q)_{{{n}}} undefined: factor 1 - a q^j vanishes (a={a}, q={q})")
        out *= factor
        x *= q
    return 1.0 / out


def _kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


class _JacksonSum:
    """Kahan sum of Jackson terms with the two-part stopping rule.

    add() reports the sum settled once three zero terms in a row follow a
    nonzero scale, or once the current term and the geometric estimate of
    the tail beyond it both sit within tol of the running scale (largest
    partial sum or term).  last is the latest nonzero term.
    """

    __slots__ = ("tol", "total", "comp", "scale", "last", "zero_run")

    def __init__(self, tol: float):
        self.tol = tol
        self.total = self.comp = self.scale = self.last = 0.0
        self.zero_run = 0

    def add(self, term: float) -> bool:
        self.total, self.comp = _kahan_add(self.total, self.comp, term)
        self.scale = max(self.scale, abs(self.total), abs(term))
        if term == 0.0:
            self.zero_run += 1
            return self.zero_run >= 3 and self.scale > 0.0
        self.zero_run = 0
        prev, self.last = self.last, term
        if prev == 0.0:
            return False
        r = abs(term / prev)
        bound = self.tol * self.scale
        return r < 1.0 and abs(term) <= bound and abs(term) * r / (1.0 - r) <= bound


def solve_offset(g: Callable, tol):
    """Fixed point eps = g(eps) of a zero-offset map, from eps = 0.

    Both lanes solve the offsets eps_k of the zeros with it, the float lane
    on floats and the mp lane on mpf.  The map is expected to contract;
    where it contracts slowly (the first zeros at q >~ 0.65) plain iteration
    would not settle, so from the second step on the secant step on
    eps - g(eps) is taken instead, whenever the secant slope says g' < 1 and
    the step stays in (0, inf).  Settled means |g(eps) - eps| <= tol g(eps);
    ArithmeticError if that takes more than 40 maps.
    """
    eps, prev = 0, None
    for _ in range(40):
        nxt = g(eps)
        if abs(nxt - eps) <= tol * nxt:
            return nxt
        h = eps - nxt
        step = nxt
        if prev is not None:
            slope = (h - prev[1]) / (eps - prev[0])  # estimates 1 - g'(eps)
            if slope > 0 and eps - h / slope > 0:
                step = eps - h / slope
        prev = (eps, h)
        eps = step
    raise ArithmeticError("zero-offset fixed point did not settle in 40 steps")


def _upper_exponent(q: float, upper: float) -> int:
    """Map an integration limit to its grid exponent m with upper = q^m."""
    if upper <= 0.0:
        raise ValueError(f"upper limit must be positive, got {upper}")
    m = round(math.log(upper) / math.log(q))
    if m < -1 or abs(q**m - upper) > 1e-9 * upper:
        raise ValueError(f"upper limit {upper} is not q^m for an integer m >= -1")
    return m


def q_integral(f: GridFunction, upper: float = 1.0) -> float:
    """Jackson q-integral of f over (0, upper) with upper = q^m, m >= -1.

    Sums (1-q) * sum_k f(upper q^k) upper q^k until the stopping rule of
    _JacksonSum holds.  If the grid runs out first, the tail_exponent model
    of f extends the sum; without one NonConvergentTail is raised (an
    identically zero integrand gives 0).
    """
    q = f.ctx.q
    acc = _JacksonSum(f.ctx.term_tol)
    for n in range(_upper_exponent(q, upper), f.depth + 1):
        if acc.add(f[n] * q**n):
            break
    else:
        if acc.scale > 0.0:
            if f.tail_exponent is None:
                raise NonConvergentTail(
                    f"q-integral tail not stagnated by depth {f.depth}; "
                    "deepen the grid or supply tail_exponent")
            rho = q**(1.0 + f.tail_exponent)
            if rho >= 1.0:
                raise NonConvergentTail(
                    f"tail model exponent {f.tail_exponent} gives a divergent tail")
            acc.total += acc.last * rho / (1.0 - rho)
    return (1.0 - q) * acc.total


def jackson_sum(ctx: QContext, h: Callable[[float], float], upper: float,
                *, max_nodes: int = 4096) -> float:
    """Jackson q-integral of a callable over (0, upper); upper may be 0.

    Same stopping rule as q_integral but the integrand is evaluated on the
    fly, so the node set is not limited to a pre-sampled grid.  The sum also
    ends where the nodes underflow to 0.
    """
    if upper == 0.0:
        return 0.0
    q = ctx.q
    acc = _JacksonSum(ctx.term_tol)
    node = upper
    for _ in range(max_nodes):
        if acc.add(h(node) * node):
            break
        node *= q
        if node == 0.0:
            break
    else:
        if acc.scale > 0.0:
            raise NonConvergentTail(
                f"callable q-integral not stagnated after {max_nodes} nodes")
    return (1.0 - q) * acc.total


def symmetric_q_derivative(ctx: QContext, f: Callable[[float], float], x: float,
                           *, f_prime_at_zero: float | None = None) -> float:
    """Symmetric q-derivative [f(q^(1/2) x) - f(q^(-1/2) x)] / [(q^(1/2) - q^(-1/2)) x].

    At x = 0 the supplied f_prime_at_zero is returned; without it the point
    is rejected.
    """
    if x == 0.0:
        if f_prime_at_zero is None:
            raise ValueError("symmetric q-derivative at 0 needs f_prime_at_zero")
        return f_prime_at_zero
    rq = math.sqrt(ctx.q)
    return (f(rq * x) - f(x / rq)) / ((rq - 1.0 / rq) * x)


def _stagnating_limit(ctx: QContext, h: Callable[[float], float], u: float) -> float:
    """Numerical limit of h(u q^(1/2 + n)) as n grows, by tail stagnation.

    Stagnation is judged against the scale of h near the start of the tail,
    so limits that decay to zero are accepted as well.
    """
    if u == 0.0:
        return h(0.0)
    q = ctx.q
    scale = abs(h(u * math.sqrt(q))) + 1e-300
    prev = None
    for n in (32, 64, 128, 256, 512, 1024, 2048):
        cur = h(u * q**(0.5 + n))
        scale = max(scale, abs(cur))
        if prev is not None and abs(cur - prev) <= 1e-13 * scale:
            return cur
        prev = cur
    raise NonConvergentTail("boundary limit in q-integration by parts did not stagnate")


def check_q_integration_by_parts(ctx: QContext, f: Callable[[float], float],
                                 g: Callable[[float], float],
                                 a: float = 0.0, b: float = 1.0) -> float:
    """Residual |LHS - RHS| of the q-integration-by-parts identity.

    Both sign variants (the half-step shift applied to g upward or downward)
    are evaluated; the larger residual is returned.  Used as a test oracle,
    never as a computation path.
    """
    q = ctx.q
    rq = math.sqrt(q)

    def dq(fn):
        return lambda x: symmetric_q_derivative(ctx, fn, x)

    def qint(h):
        return jackson_sum(ctx, h, b) - jackson_sum(ctx, h, a)

    fg = lambda x: f(x) * g(x)
    boundary = (fg(b / rq) - fg(a / rq)) - (
        _stagnating_limit(ctx, fg, b) - _stagnating_limit(ctx, fg, a))

    worst = 0.0
    for shift in (rq, 1.0 / rq):
        other = 1.0 / shift
        lhs = qint(lambda x: g(shift * x) * dq(f)(x))
        rhs = -qint(lambda x: f(other * x) * dq(g)(x)) + rq * boundary
        worst = max(worst, abs(lhs - rhs))
    return worst
