"""Extended-precision lane for cancellation-dominated quadratures.

The Jackson sums behind the expansion coefficients cancel to results far
below their largest term: the k-th coefficient integral resolves only past
~ (k - 1/2)^2 log10(1/q) digits, and re-extracting coefficients from a
partial sum needs the zeros themselves to comparable accuracy.  binary64
carries the whole library; the checks in this module re-run those specific
discrete sums under mpmath so the numeric-vs-closed-form comparisons can be
made at their stated tolerances even where that exceeds double precision.

The evaluation strategy mirrors the float lane: the product-form series
with per-zero factor tables, and zero offsets eps_k solved by the
fixed-point map eps <- log_p(1 - B(eps)/A(eps)) obtained by isolating the
single factor (1 - p^eps) that vanishes at the zero.  Every agreement check
builds one MpTables for its q and working precision, and the zero solve,
the columns and J' all read it: a factor 1 - p^(d + eps) is the integer
power p^d from the table times p^eps, one exp per zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import mpmath as mp

from .qcore import solve_offset


def _poch_inf(a, p):
    out = mp.mpf(1)
    x = mp.mpf(a)
    floor = mp.mpf(10) ** (-(mp.mp.dps + 8))
    while abs(x) > floor:
        out *= 1 - x
        x *= p
    return out


def _tail_len(p) -> int:
    return int(math.ceil((mp.mp.dps + 8) * math.log(10) / float(-mp.log(p)))) + 4


def _log2_abs(x) -> float:
    """log2 |x| as a float, read off the mantissa and exponent of the mpf."""
    _, man, exp, _ = x._mpf_
    return exp + math.log2(man) if man else -math.inf


class MpTables:
    """Constants of the product-form series at one q and working precision.

    p = q^2, ln p, (p;p)_inf, the integer powers p^d (grown on demand) and,
    per order, the series coefficients m_i = p^(i(i+1)/2 + order i) / (p;p)_i
    by their recurrence and the power-series prefactor.  Build one per
    agreement call, inside its ``mp.workdps``, and pass it to everything that
    call evaluates.
    """

    def __init__(self, q):
        self.q = q = mp.mpf(q)
        self.p = p = q * q
        self.ln_p = mp.log(p)
        self.tail = _tail_len(p)
        self.pp_inf = _poch_inf(p, p)
        self._pos = [mp.mpf(1)]  # p^d, d >= 0
        self._neg = [mp.mpf(1)]  # p^-d
        self._series: dict = {}
        self._prefactor: dict = {}

    def pow(self, d: int):
        """p^d for an integer d."""
        table, n = (self._pos, d) if d >= 0 else (self._neg, -d)
        if n >= len(table):
            step = self.p if d >= 0 else 1 / self.p
            for _ in range(n + 1 - len(table)):
                table.append(table[-1] * step)
        return table[n]

    def prefactor(self, order):
        """(p^(order+1); p)_inf / (p; p)_inf."""
        order = mp.mpf(order)
        if order not in self._prefactor:
            self._prefactor[order] = _poch_inf(self.p ** (order + 1), self.p) / self.pp_inf
        return self._prefactor[order]

    def series(self, order, count: int):
        """((-1)^i m_i, log2 m_i) for i = 0..count-1 (the lists may be longer)."""
        order = mp.mpf(order)
        entry = self._series.get(order)
        if entry is None:
            entry = self._series[order] = (self.p ** order, [mp.mpf(1)], [0.0])
        p_order, signed, logs = entry
        for _ in range(len(signed), count):
            pi = self.pow(len(signed))
            signed.append(-signed[-1] * p_order * pi / (1 - pi))
            logs.append(_log2_abs(signed[-1]))
        return signed, logs


def solve_zero_offset(q, nu, k: int, tables: MpTables | None = None):
    """eps_k with j_k = q^(-k + eps_k), to working precision.

    Splits the product-form series at the factor (1 - p^eps); the zero
    condition becomes p^eps = 1 + B/A with A the head group (the factor
    removed) and B the tail group, and the induced fixed-point map
    g(eps) = log_p(1 + B/A) contracts because A and B barely depend on eps;
    qcore.solve_offset, the driver the float lane shares, runs it.
    ``tables`` must belong to this q at the working precision; it is built
    here when omitted.
    """
    t = tables or MpTables(q)
    S = k + t.tail
    sm = t.series(nu, S + 1)[0]
    floor = mp.mpf(10) ** (-(mp.mp.dps + 8))

    def g(eps):
        # factors f_s = 1 - p^(s - k + eps), s = 1..S; the vanishing one,
        # s = k, is left out of both groups
        pe = mp.exp(eps * t.ln_p)
        t_suf = [mp.mpf(1)] * (S + 2)  # t_suf[i] = prod_(s>i) f_s, i >= k
        for s in range(S, k, -1):
            t_suf[s - 1] = (1 - t.pow(s - k) * pe) * t_suf[s]
        head = [mp.mpf(1)] * (k + 1)  # head[i] = prod_(i < s <= k-1) f_s
        for i in range(k - 2, -1, -1):
            head[i] = (1 - t.pow(i + 1 - k) * pe) * head[i + 1]
        a_sum = mp.mpf(0)
        for i in range(k):
            a_sum += sm[i] * head[i] * t_suf[k]
        b_sum = mp.mpf(0)
        for i in range(k, S + 1):
            term = sm[i] * t_suf[i]
            b_sum += term
            if abs(term) < floor * abs(b_sum):
                break
        ratio = b_sum / a_sum  # p^eps - 1, in (-1, 0) for eps in (0, inf)
        if not -1 < ratio < 0:
            raise ArithmeticError(f"zero-offset fixed point left (0, inf) at k={k}")
        return mp.log1p(ratio) / t.ln_p  # log1p keeps eps << 10^-dps alive

    return solve_offset(g, mp.mpf(10) ** (-(mp.mp.dps - 2)))


class ZeroColumn:
    """J_order(q^m j_k; q^2) for all shifts m >= 0 of one zero, precomputed.

    One factor table g(d) = 1 - p^(d + eps_k) serves every shift, because
    changing m only slides an integer window over the same exponents: entry
    m is the dot product of the signed series coefficients with the suffix
    products from index m on.
    """

    def __init__(self, q, nu_zero, order, k: int, eps, tables: MpTables | None = None):
        t = self.tables = tables or MpTables(q)
        self.q, self.p = t.q, t.p
        self.order = order = mp.mpf(order)
        self.k = k
        self.eps = eps = mp.mpf(eps)
        self._n = k + t.tail + 2
        self._signed, self._ms_log = t.series(order, self._n)
        # suf[j] = prod of g(d) over 1 - k + j <= d <= tail, then ones; expm1
        # keeps the d = 0 factor 1 - p^eps alive even when eps is far below
        # 10^-dps
        pe = mp.exp(eps * t.ln_p)
        suf = [mp.mpf(1)] * (k + t.tail + 1)
        for j in range(k + t.tail - 1, -1, -1):
            d = 1 - k + j
            factor = -mp.expm1(eps * t.ln_p) if d == 0 else 1 - t.pow(d) * pe
            suf[j] = factor * suf[j + 1]
        self._suf = suf
        self._suf_log = [_log2_abs(s) for s in suf]
        self._log_floor = -(mp.mp.dps + 6) * math.log2(10)
        # x^order = q^(order (m - k + eps)), by recurrence in m
        self._q_order = t.q ** order
        self._xpow = [t.q ** (order * (eps - k))]

    def _stop(self, m: int) -> int:
        """Number of series terms entry m sums: up to the first term, past
        i = max(4, k - m + 2), below 10^-(dps+6) of the largest so far."""
        ms_log, suf_log = self._ms_log, self._suf_log
        last = len(suf_log) - 1
        start = max(4, self.k - m + 2)
        peak = -math.inf
        for i in range(self._n):
            j = i + m
            lt = ms_log[i] + (suf_log[j] if j <= last else 0.0)
            if lt > peak:
                peak = lt
            if i > start and lt < peak + self._log_floor:
                return i + 1
        return self._n

    def j_at(self, m: int):
        """J_order(q^m j_k; q^2)."""
        n = self._stop(m)
        suf = self._suf
        if m + n > len(suf):
            suf.extend([mp.mpf(1)] * (m + n - len(suf)))
        total = mp.fdot(islice(self._signed, n), islice(suf, m, m + n))
        xpow = self._xpow
        while len(xpow) <= m:
            xpow.append(xpow[-1] * self._q_order)
        return xpow[m] / self.tables.pp_inf * total


def bessel_j_prime_mp(q, nu, z, tables: MpTables | None = None):
    """d/dz J_nu(z; q^2) by the direct differentiated series (mp)."""
    t = tables or MpTables(q)
    nu = mp.mpf(nu)
    z = mp.mpf(z)
    p_nu1 = t.p ** (nu + 1)
    total = mp.mpf(0)
    term = z ** nu
    mz2 = -(z * z)
    peak = mp.mpf(0)
    floor = mp.mpf(10) ** (-(mp.mp.dps + 6))
    for n in range(100_000):
        contrib = (2 * n + nu) * term / z
        total += contrib
        peak = max(peak, abs(contrib))
        pn1 = t.pow(n + 1)
        term *= mz2 * pn1 / ((1 - p_nu1 * t.pow(n)) * (1 - pn1))
        if n > 4 and abs(term) * (2 * n + 2 + nu) / z < floor * peak:
            break
    return t.prefactor(nu) * total


@dataclass
class _Zero:
    k: int
    eps: object
    value: object
    jp: object  # J_nu'(value), computed once per zero


def _zeros_mp(t: MpTables, nu, kmax: int) -> list[_Zero]:
    out = []
    for k in range(1, kmax + 1):
        eps = solve_zero_offset(t.q, nu, k, t)
        value = t.q ** (-k + eps)
        out.append(_Zero(k, eps, value, bessel_j_prime_mp(t.q, nu, value, t)))
    return out


def _eta_mp(q, nu, col: ZeroColumn, zk: _Zero):
    return -(1 - q) * q ** (nu - 2) / (2 * zk.value) * col.j_at(1) * zk.jp


def _coefficient_quadrature(t: MpTables, col: ZeroColumn, eta, f_at_node, depth: int):
    """a_k = (1/eta) (1-q) sum_l q^(2l) f(q^l) J_nu(q^(l+1) j_k; q^2)."""
    terms = []
    peak = mp.mpf(0)
    floor = mp.mpf(10) ** (-(mp.mp.dps + 4))
    for l in range(depth):
        term = t.pow(l) * f_at_node(l) * col.j_at(l + 1)
        terms.append(term)
        peak = max(peak, abs(term))
        if l > 3 * col.k + 8 and abs(term) < floor * peak:
            break
    return (1 - t.q) * mp.fsum(terms) / eta


def _quad_depth(q, nu, dps: int) -> int:
    return int(math.ceil(dps * math.log(10) / ((2 + float(nu)) * math.log(1 / float(q))))) + 40


def power_coefficient_agreement(q: float, nu: float, k_max: int, dps: int = 60) -> float:
    """max over k <= k_max of the relative gap between the numeric quadrature
    coefficient of f = t^nu and its closed form -2/(q^nu j_k J_nu'(j_k))."""
    with mp.workdps(dps):
        t = MpTables(q)
        qm, num = t.q, mp.mpf(nu)
        depth = _quad_depth(qm, num, dps)
        q_nu = qm ** num
        f_at = [mp.mpf(1)]  # f(q^l) = q^(l nu)
        for _ in range(depth):
            f_at.append(f_at[-1] * q_nu)
        worst = mp.mpf(0)
        for zk in _zeros_mp(t, num, k_max):
            col = ZeroColumn(qm, num, num, zk.k, zk.eps, t)
            eta = _eta_mp(qm, num, col, zk)
            a_num = _coefficient_quadrature(t, col, eta, f_at.__getitem__, depth)
            a_closed = -2 / (q_nu * zk.value * zk.jp)
            worst = max(worst, abs(a_num - a_closed) / abs(a_closed))
        return float(worst)


def g_coefficient_agreement(q: float, nu: float, mu: float, k_max: int,
                            dps: int = 55) -> float:
    """max over k <= k_max of the relative gap between the numeric quadrature
    coefficient of the product-ratio target and its closed form."""
    with mp.workdps(dps):
        t = MpTables(q)
        qm, num, mum = t.q, mp.mpf(nu), mp.mpf(mu)
        p = t.p
        depth = _quad_depth(qm, num, dps)
        shift = qm ** (2 * (mum - num))

        gcache: dict[int, object] = {}

        def g_at(l: int):
            if l not in gcache:
                x2 = t.pow(l)
                gcache[l] = qm ** (l * num) * _poch_inf(x2 * p, p) / _poch_inf(x2 * shift, p)
            return gcache[l]

        const = t.pp_inf / _poch_inf(shift, p)
        worst = mp.mpf(0)
        for zk in _zeros_mp(t, num, k_max):
            col = ZeroColumn(qm, num, num, zk.k, zk.eps, t)
            col_mu = ZeroColumn(qm, num, mum, zk.k, zk.eps, t)
            col_nu1 = ZeroColumn(qm, num, num + 1, zk.k, zk.eps, t)
            eta = _eta_mp(qm, num, col, zk)
            a_num = _coefficient_quadrature(t, col, eta, g_at, depth)
            a_closed = (-2 * qm ** (1 - mum) * zk.value ** (num - mum) * const
                        * col_mu.j_at(1) / (col_nu1.j_at(1) * zk.jp))
            worst = max(worst, abs(a_num - a_closed) / abs(a_closed))
        return float(worst)


def roundtrip_agreement(q: float, nu: float, k_sum: int = 40, k_check: int = 20,
                        dps: int = 160) -> float:
    """Round-trip defect of coefficient re-extraction from a partial sum.

    Builds S = sum_(k<=k_sum) a_k J_nu(q j_k x) for the power-target closed
    forms, re-extracts b_k by the quadrature, and returns
    max_(k<=k_check) |b_k - a_k| / |a_k|.
    """
    with mp.workdps(dps):
        t = MpTables(q)
        qm, num = t.q, mp.mpf(nu)
        zs = _zeros_mp(t, num, k_sum)
        q_nu = qm ** num
        a = [-2 / (q_nu * z.value * z.jp) for z in zs]

        depth = _quad_depth(qm, num, dps)
        etas, jtab = [], []
        for z in zs:  # one column alive at a time: its tables outweigh its row
            col = ZeroColumn(qm, num, num, z.k, z.eps, t)
            etas.append(_eta_mp(qm, num, col, z))
            jtab.append([col.j_at(l + 1) for l in range(depth)])
        # S at each node, weighted by q^(2l) = p^l
        weighted = [t.pow(l) * mp.fdot(a, row) for l, row in enumerate(zip(*jtab))]

        worst = mp.mpf(0)
        for i in range(k_check):
            b = (1 - qm) * mp.fdot(weighted, jtab[i]) / etas[i]
            worst = max(worst, abs(b - a[i]) / abs(a[i]))
        return float(worst)
