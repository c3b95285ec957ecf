"""The polynomial family P_n(x; q) tying J_nu at successive grid multiples
of a zero to its value at q j_k, plus the finite-sum identities used to
derive the explicit coefficient formula.

P_n satisfies J_nu(q^(n+1) j_k; q^2) = J_nu(q j_k; q^2) P_n(j_k^2; q) with

    P_(n+1)(x) = [(q^nu + q^-nu) - q^(-nu + 2(n+1)) x] P_n(x) - P_(n-1)(x),
    P_0 = 1,  P_(-1) = 0.

Coefficients a_j^(n) (sign (-1)^j) are built three independent ways: the
vector recurrence above, a convolution recurrence driven by the constant
terms a_0^(m), and an explicit double-sum formula; agreement of all three
is a test contract.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .qcore import QContext
from .qbessel import bessel_j_qpow
from . import zeros as _zeros

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class PolyP:
    """P_n as a dense coefficient vector a_j, j = 0..n (in the variable x)."""

    n: int
    coeffs: tuple[float, ...]
    ctx: QContext

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError("coefficient vector length must be n + 1")

    def __call__(self, x: float) -> float:
        acc = 0.0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def eval_with_condition(self, x: float) -> tuple[float, float]:
        """(P_n(x), sum_j |a_j x^j|); the ratio measures cancellation."""
        acc = 0.0
        mag = 0.0
        xp = 1.0
        for a in self.coeffs:
            acc += a * xp
            mag += abs(a * xp)
            xp *= x
        return acc, mag


def a0_closed(ctx: QContext, n: int) -> float:
    """Constant term a_0^(n) = q^(-n nu) sum_(i=0..n) q^(2 nu i)."""
    q, nu = ctx.q, ctx.nu
    s = 0.0
    for i in range(n + 1):
        s += q**(2.0 * nu * i)
    return q**(-n * nu) * s


def poly_p_by_recurrence(ctx: QContext, n: int) -> PolyP:
    """P_n from the three-term recurrence."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    q, nu = ctx.q, ctx.nu
    prev = [0.0]          # P_(-1) (conventionally zero)
    cur = [1.0]           # P_0
    if n == 0:
        return PolyP(0, (1.0,), ctx)
    c0 = q**nu + q**(-nu)
    for m in range(n):
        c1 = q**(-nu + 2.0 * (m + 1))
        nxt = [0.0] * (m + 2)
        for j in range(m + 1):
            nxt[j] += c0 * cur[j]
            nxt[j + 1] -= c1 * cur[j]
        for j in range(len(prev)):
            nxt[j] -= prev[j]
        prev, cur = cur, nxt
    return PolyP(n, tuple(cur), ctx)


def poch_prefix_table(q: float, powers, length: int) -> dict[int, list[float]]:
    """{power: [(q^power; q)_n for n = 0..length]} for integer powers.

    Each row is one left-to-right running product of the factors
    1 - q^(power + i), so every entry equals the direct product bit for bit.
    """
    table = {}
    for power in powers:
        row = [1.0]
        for i in range(length):
            row.append(row[-1] * (1.0 - q**(power + i)))
        table[power] = row
    return table


def poly_p_explicit(ctx: QContext, n: int) -> PolyP:
    """P_n from the explicit double-sum coefficient formula."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    q, nu, p = ctx.q, ctx.nu, ctx.p
    P = poch_prefix_table(p, range(n + 3), n + 1)
    a0 = [a0_closed(ctx, m) for m in range(n + 1)]
    coeffs = []
    for j in range(n + 1):
        s = 0.0
        for i in range((n - j) // 2 + 1):
            s += (a0[n - j - 2 * i] * p**i
                  * P[j][i] / P[1][i]
                  * P[1 + j][n - j - 2 * i]
                  / P[1][n - j - 2 * i]
                  * P[1 + n - 2 * i][i]
                  / P[n - j - 2 * i + 2][i])
        sign = -1.0 if j % 2 else 1.0
        coeffs.append(sign * q**(j * (j + 1.0 - nu)) * s)
    return PolyP(n, tuple(coeffs), ctx)


def poly_p_explicit_alt(ctx: QContext, n: int) -> PolyP:
    """P_n from the second displayed form of the explicit formula."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    q, nu, p = ctx.q, ctx.nu, ctx.p
    P = poch_prefix_table(p, range(n + 3), n + 1)
    a0 = [a0_closed(ctx, m) for m in range(n + 1)]
    coeffs = []
    for j in range(n + 1):
        s = 0.0
        for i in range((n - j) // 2 + 1):
            s += (a0[n - j - 2 * i] * p**i
                  * P[j][i] / P[1][i]
                  * P[1 + j][n - j - i]
                  / P[1][n - j - i]
                  * P[1 + n - j - 2 * i][1]
                  / P[1 + n - j - i][1])
        sign = -1.0 if j % 2 else 1.0
        coeffs.append(sign * q**(j * (j + 1.0 - nu)) * s)
    return PolyP(n, tuple(coeffs), ctx)


def poly_p_by_convolution(ctx: QContext, n: int) -> PolyP:
    """P_n from the convolution recurrence seeded by the closed-form a_0^(m)."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    q, nu = ctx.q, ctx.nu
    a0 = [a0_closed(ctx, m) for m in range(n + 1)]
    table: list[list[float]] = [[a0[m]] + [0.0] * m for m in range(n + 1)]
    c = q**(2.0 - nu)
    for m in range(1, n + 1):
        for j in range(1, m + 1):
            s = 0.0
            for lam in range(m - j + 1):
                s += q**(2.0 * (m - 1 - lam)) * a0[lam] * table[m - 1 - lam][j - 1]
            table[m][j] = -c * s
    return PolyP(n, tuple(table[n]), ctx)


def check_factorization(ctx: QContext, n: int, k: int) -> float:
    """Residual |J_nu(q^(n+1) j_k; q^2) - J_nu(q j_k; q^2) P_n(j_k^2; q)|."""
    zk = _zeros.find_zero(ctx, k)
    lhs = bessel_j_qpow(ctx, n + 1 - k, zk.eps_k).value
    j_at_q = bessel_j_qpow(ctx, 1 - k, zk.eps_k).value
    pn = poly_p_by_recurrence(ctx, n)
    val, mag = pn.eval_with_condition(zk.value**2)
    if val != 0.0 and mag / abs(val) > 1e10:
        warnings.warn(
            f"P_{n}(j_{k}^2) cancellation ratio {mag / abs(val):.2e}; "
            "factorization residual is conditioning-limited",
            stacklevel=2)
    return abs(lhs - j_at_q * val)


def factorization_error_budget(ctx: QContext, n: int, k: int) -> float:
    """Propagated-error allowance for check_factorization."""
    zk = _zeros.find_zero(ctx, k)
    lhs = bessel_j_qpow(ctx, n + 1 - k, zk.eps_k)
    j_at_q = bessel_j_qpow(ctx, 1 - k, zk.eps_k)
    pn = poly_p_by_recurrence(ctx, n)
    _, mag = pn.eval_with_condition(zk.value**2)
    poly_err = (3.0 * n + 8.0) * _EPS * mag
    return (lhs.tail_bound + abs(j_at_q.value) * poly_err
            + mag * j_at_q.tail_bound + 16.0 * _EPS * (abs(lhs.value) + abs(j_at_q.value) * mag))


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def gamma_sequence(m: int, seed: int) -> list[float]:
    """Deterministic pseudo-random gamma in [-1, 1] (splitmix-style)."""
    out = []
    state = seed & 0xFFFFFFFFFFFFFFFF
    for _ in range(m + 1):
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
        out.append(2.0 * (z / 2.0**64) - 1.0)
    return out


def check_finite_sum_identities(q: float, *, imax: int = 12, jmax: int = 12,
                                nmax: int = 12, mmax: int = 12,
                                nu: float = 1.5, n_gamma: int = 5,
                                seed: int = 12345) -> dict[str, float]:
    """Maximum relative residual of each finite-sum identity over the ranges.

    Keys: 'partial_sum' (the single-sum telescoping identity),
    'shifted_linear' (the lambda-shifted variant), 'nested' (the double-sum
    identity), 'zero_coefficient_convolution' (the a_0 product identity with
    arbitrary gamma weights), and 'convolution_pairs' (the underlying
    a_0^(l) a_0^(m-l) expansion).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    res: dict[str, float] = {}
    # P[power][n] = (q^power; q)_n for every power and length the sums use
    P = poch_prefix_table(q, range(-1, imax + jmax + 2), imax + nmax)

    worst = 0.0
    for j in range(jmax + 1):
        for i in range(imax + 1):
            lhs = sum(q**k * P[j][k] / P[1][k] for k in range(i + 1))
            rhs = P[1 + j][i] / P[1][i]
            worst = max(worst, _rel(lhs, rhs))
    res["partial_sum"] = worst

    worst = 0.0
    for lam in range(nmax + 1):
        for j in range(jmax + 1):
            for i in range(imax + 1):
                lhs = sum(q**(2 * k) * P[j - 1][k] / P[1][k]
                          * (1.0 - q**(1 + i + lam - k))
                          for k in range(i + 1))
                rhs = ((1.0 - q) * P[j + 1][i] / P[1][i]
                       + (1.0 - q**lam) * q**(1 + i) * P[j][i] / P[1][i])
                worst = max(worst, _rel(lhs, rhs))
    res["shifted_linear"] = worst

    worst = 0.0
    for n in range(nmax + 1):
        for j in range(jmax + 1):
            for i in range(imax + 1):
                lhs = 0.0
                for k in range(i + 1):
                    inner = sum(q**lam * P[j + i][lam] / P[1 + i][lam]
                                * (1.0 - q**(1 + i + lam - k)) / (1.0 - q**(1 + i + lam))
                                for lam in range(n + 1))
                    lhs += q**(2 * k) * P[j - 1][k] / P[1][k] * inner
                rhs = (P[1 + j][n + i] / P[1][n + i]
                       * (1.0 - q**(1 + n)) / (1.0 - q**(1 + n + i)))
                worst = max(worst, _rel(lhs, rhs))
    res["nested"] = worst

    ctx = QContext(q, nu)
    a0 = [a0_closed(ctx, m) for m in range(mmax + 1)]
    worst = 0.0
    for g in range(n_gamma):
        gamma = gamma_sequence(mmax, seed + g)
        for m in range(mmax + 1):
            lhs = sum(a0[lam] * a0[m - lam] * gamma[lam] for lam in range(m + 1))
            rhs = sum(a0[m - 2 * th] * sum(gamma[lam] for lam in range(th, m - th + 1))
                      for th in range(m // 2 + 1))
            worst = max(worst, _rel(lhs, rhs))
    res["zero_coefficient_convolution"] = worst

    worst = 0.0
    for m in range(mmax + 1):
        for lam in range(m + 1):
            lhs = a0[lam] * a0[m - lam]
            rhs = sum(a0[m - 2 * th] for th in range(min(lam, m - lam) + 1))
            worst = max(worst, _rel(lhs, rhs))
    res["convolution_pairs"] = worst

    return res


def uniform_boundedness_scan(ctx: QContext, *, n_max: int = 40, k_max: int = 15) -> float:
    """max over n <= n_max, k <= k_max of |J_nu(q^(1+n) j_k; q^2)|."""
    worst = 0.0
    for k in range(1, k_max + 1):
        zk = _zeros.find_zero(ctx, k)
        for n in range(n_max + 1):
            worst = max(worst, abs(bessel_j_qpow(ctx, n + 1 - k, zk.eps_k).value))
    return worst
