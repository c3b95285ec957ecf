"""Independent reference values for the qfb benchmark checks.

Everything here is computed from definitions under mpmath and shares no code
or evaluation route with ``qfb``; this module never imports it.

* ``J_nu(z; q^2)`` and ``d/dz J_nu(z; q^2)`` come from the defining power
  series of the Hahn-Exton q-Bessel function in base ``p = q^2``::

      J_nu(z; p) = z^nu (p^(nu+1); p)_inf / (p; p)_inf
                   * sum_m (-1)^m p^(m(m+1)/2) z^(2m) / ((p; p)_m (p^(nu+1); p)_m)

  The working precision is chosen from the largest term of the series: the
  sum is re-run at a higher precision until the digits it lost to
  cancellation against that term are covered.  Arguments at grid multiples
  ``q^m j_k`` of a zero cancel by hundreds of digits.
* Zero offsets ``eps_k`` (with ``j_k = q^(-k + eps_k)``) are refined by Newton
  steps in ``eps`` from a start inside a bracket the caller supplies.
* Closed forms: ``alpha_k``, the squared norm ``eta_k``, the expansion
  coefficients of ``x^nu`` and of ``g_{nu,mu}``, and the targets themselves.

``python3 perfbench/reference.py`` runs the self-test: every quantity the
benchmark checks is computed at ``d`` and at ``2d`` digits, from zeros the
reference locates by itself, and the two must agree to ``d`` digits.
"""

from __future__ import annotations

import math
import sys

import mpmath

LOG10_2 = math.log10(2.0)


def log10_abs(x) -> float:
    """log10 |x| for an mpf of any exponent, as a float (-inf for 0)."""
    if not x:
        return -math.inf
    man, exp = mpmath.frexp(abs(x))
    return math.log10(float(man)) + exp * LOG10_2


def digits_of_agreement(value: float, ref) -> float:
    """Correct decimal digits of a float against a reference mpf.

    An exact match counts as 17 digits, one more than binary64 can hold.
    """
    if not ref:
        return 17.0 if value == 0.0 else 0.0
    if value == ref:
        return 17.0
    return min(17.0, -log10_abs((ref.context.mpf(value) - ref) / ref))


class Reference:
    """Reference values for one base ``q`` and one order ``nu``.

    ``digits`` is the number of correct decimal digits each returned value
    carries.  The instance owns its mpmath context, so it never changes the
    global precision the program under test works with.
    """

    def __init__(self, q: float, nu: float, digits: int = 25):
        self.mp = mpmath.MPContext()
        self.q_float = float(q)
        self.nu_float = float(nu)
        self.digits = digits
        # log10 of max |term| / |sum| for the last series evaluated: a float
        # evaluation of the same series loses about this many digits
        self.last_log10_condition = 0.0
        self._largest = 0.0
        # first precision tried by a relative-digits evaluation (grid_column
        # starts each node where the previous one ended)
        self._dps_hint = 0
        self.last_dps = 0
        self._ratios: dict[float, tuple[int, list]] = {}
        self._prefactors: dict[float, tuple[int, object]] = {}
        self._g_consts: dict = {}  # mu -> (p; p)_inf / (q^(2(mu-nu)); p)_inf
        p = self.q_float ** 2
        self._log10_pref = {}  # order -> log10 (p^(order+1);p)_inf/(p;p)_inf
        self._log10_p = math.log10(p)

    # ----------------------------------------------------------- precision

    def _set_dps(self, dps: int) -> None:
        self.mp.dps = dps

    def exact(self, x):
        """x as an mpf of this context, never rounded to the current precision.

        Exponents are formed from exact mpf values: a float sum such as
        nu + 1 rounds, and q^(nu+1) would inherit a 1e-16 relative error.
        """
        return x if isinstance(x, self.mp.mpf) else self.mp.mpf(x)

    def q(self):
        return self.mp.mpf(self.q_float)

    def nu(self):
        return self.mp.mpf(self.nu_float)

    def p(self):
        q = self.q()
        return q * q

    def qpow(self, exponent):
        """q^exponent at the current precision."""
        return self.mp.exp(exponent * self.mp.log(self.q()))

    def q_pochhammer_inf(self, a):
        """(a; p)_inf, truncated once the factors fall below the precision."""
        mp = self.mp
        p = self.p()
        floor = mp.mpf(10) ** (-(mp.dps + 5))
        out = mp.mpf(1)
        x = mp.mpf(a)
        while abs(x) > floor:
            out *= 1 - x
            x *= p
        return out

    # -------------------------------------------------------- power series

    def _plan(self, order: float, log10_z: float, dps: int) -> tuple[float, int]:
        """(log10 of the largest series term, number of terms to sum).

        Float logarithms of the term magnitudes locate the largest term;
        summing stops once the terms past it fall ``dps + 5`` digits below.
        """
        order = float(order)
        ln_p = 2.0 * math.log(self.q_float)
        log_t = peak = 0.0
        m = 0
        while True:
            step = (2.0 * log10_z + (m + 1) * self._log10_p
                    - math.log10(-math.expm1((m + 1) * ln_p))
                    - math.log10(-math.expm1((order + 1.0 + m) * ln_p)))
            log_t += step
            m += 1
            peak = max(peak, log_t)
            if step < 0.0 and log_t < peak - dps - 5:
                return peak, m + 1

    def _ratio_table(self, order: float, dps: int, count: int) -> list:
        """r_m = p^(m+1) / ((1 - p^(m+1)) (1 - p^(order+1+m))) for m < count,
        to at least dps digits.

        One table per order is kept at twice the highest precision asked for
        so far; sums at lower precision use it as it is.
        """
        held, table = self._ratios.get(order, (0, []))
        if held < dps:
            held, table = 2 * dps, []
            self._ratios[order] = (held, table)
        if len(table) < count:
            keep = self.mp.dps
            self.mp.dps = held
            p = self.p()
            pm = p ** (len(table) + 1)
            am = p ** (self.exact(order) + 1 + len(table))
            for _ in range(len(table), count):
                table.append(pm / ((1 - pm) * (1 - am)))
                pm *= p
                am *= p
            self.mp.dps = keep
        return table

    def _prefactor(self, order: float, dps: int):
        """(p^(order+1); p)_inf / (p; p)_inf to at least dps digits, kept per
        order like the ratio tables."""
        held, value = self._prefactors.get(order, (0, None))
        if held < dps:
            keep = self.mp.dps
            self.mp.dps = held = 2 * dps
            p = self.p()
            value = (self.q_pochhammer_inf(p ** (self.exact(order) + 1))
                     / self.q_pochhammer_inf(p))
            self._prefactors[order] = (held, value)
            self.mp.dps = keep
        return value

    def _log10_scale(self, z, order: float, derivative: bool) -> float:
        """log10 of the factor that multiplies the bare series sum."""
        order = float(order)
        if order not in self._log10_pref:
            p = self.q_float ** 2
            s = 0.0
            for i in range(1, 4000):
                s += math.log10(1.0 - p ** (order + i)) - math.log10(1.0 - p ** i)
                if p ** i < 1e-20:
                    break
            self._log10_pref[order] = s
        return self._log10_pref[order] + (order - derivative) * log10_abs(z)

    def _series(self, z, order: float, dps: int, derivative: bool):
        """(bare sum, log10 of its largest term times the term count squared).

        The second value bounds the rounding noise of the sum at 10^(it - dps).
        """
        self._set_dps(dps)
        z = self.exact(z)
        peak, count = self._plan(order, log10_abs(z), dps)
        if derivative:
            peak += math.log10(2.0 * count + abs(order) + 1.0)
        self._largest = peak
        # each term carries the rounding of up to `count` products
        peak += 2.0 * math.log10(count)
        ratios = self._ratio_table(order, dps, count)
        mz2 = -(z * z)
        term = self.mp.mpf(1)
        total = self.mp.mpf(0)
        for m in range(count):
            total += (2 * m + order) * term if derivative else term
            term *= mz2 * ratios[m]
        return total, peak

    def _evaluate(self, z, order: float, derivative: bool, digits: int, floor):
        """J (or J') at z, to ``digits`` relative digits or absolute ``floor``.

        Without a floor the first pass runs at ``digits + 10`` (or where
        grid_column's previous node ended) and the precision rises until the
        sum stands ``digits`` clear of the rounding
        noise of its largest term (doubling while the sum is lost in that
        noise).  With a floor one pass at the precision that puts the noise
        below it suffices.
        """
        z = self.exact(z)
        scale = self._log10_scale(z, order, derivative)
        if floor:
            peak, count = self._plan(order, log10_abs(z), 20)
            peak += 2.0 * math.log10(count)
            dps = max(digits + 10, int(peak + scale - log10_abs(floor) + 8))
            total, peak = self._series(z, order, dps, derivative)
        else:
            dps = max(digits + 10, self._dps_hint)
            for _ in range(16):
                total, peak = self._series(z, order, dps, derivative)
                noise = peak - dps + 2
                size = log10_abs(total)
                if size >= noise + digits + 3:
                    break
                dps = 2 * dps if size < noise + 3 else int(peak - size + digits + 12)
            else:
                raise ArithmeticError(f"reference series did not resolve at z={z}")
        self.last_log10_condition = max(0.0, self._largest - log10_abs(total))
        self.last_dps = dps
        pref = self._prefactor(order, dps)
        self._set_dps(dps)
        power = z ** (self.exact(order) - 1) if derivative else z ** self.exact(order)
        return +(pref * power * total)

    def bessel_j(self, z, order: float | None = None, digits: int | None = None,
                 floor=None):
        """J_order(z; q^2), order defaulting to nu."""
        order = self.nu_float if order is None else order
        return self._evaluate(z, order, False, digits or self.digits, floor)

    def bessel_j_prime(self, z, order: float | None = None, digits: int | None = None):
        """d/dz J_order(z; q^2), order defaulting to nu."""
        order = self.nu_float if order is None else order
        return self._evaluate(z, order, True, digits or self.digits, None)

    def series_noise(self, z) -> float:
        """Rounding noise of J(z) summed as its power series in binary64.

        About UNIT times the largest term (prefactor included): below this a
        float evaluation by the series cannot tell the sign of J.
        """
        z = self.exact(z)
        peak, _ = self._plan(self.nu_float, log10_abs(z), 20)
        return 2.0 ** -53 * 10.0 ** (peak + self._log10_scale(z, self.nu_float, False))

    # ---------------------------------------------------------------- zeros

    def zero_argument(self, k: int, eps, shift: int = 0):
        """q^(shift - k + eps), precise enough to carry eps to full digits."""
        eps = self.exact(eps)
        extra = max(0.0, -log10_abs(eps)) if eps else 0.0
        self._set_dps(int(self.digits + 20 + extra))
        return self.qpow(shift - k + eps)

    def refine_offset(self, k: int, eps_start, x_lo: float, x_hi: float):
        """eps_k of the zero in [x_lo, x_hi], to ``digits`` relative digits.

        Newton steps in eps start from ``eps_start`` (the bracket's middle
        when the start lies outside it).  Each step takes J' to 20 digits and
        J to an absolute accuracy that bounds the step's error by
        10^-(digits+6) eps, three digits inside the stopping rule.
        """
        mp = self.mp
        self._set_dps(self.digits + 30)
        ln_q = mp.log(self.q())
        e_lo = k + mp.log(mp.mpf(x_hi)) / ln_q
        e_hi = k + mp.log(mp.mpf(x_lo)) / ln_q
        eps = mp.mpf(eps_start)
        if not e_lo <= eps <= e_hi:
            eps = (e_lo + e_hi) / 2
        for _ in range(40):
            z = self.zero_argument(k, eps)
            slope = self.bessel_j_prime(z, digits=20) * z * ln_q
            if eps:
                floor = abs(slope * eps) * mp.mpf(10) ** (-(self.digits + 6))
                g = self.bessel_j(z, digits=20, floor=floor)
            else:
                g = self.bessel_j(z, digits=20)
            step = g / slope
            new = eps - step
            if not e_lo - (e_hi - e_lo) <= new <= e_hi + (e_hi - e_lo):
                raise ArithmeticError(f"Newton step left the bracket at k={k}")
            if new and abs(step) <= mp.mpf(10) ** (-(self.digits + 3)) * abs(new):
                return +new
            eps = new
        raise ArithmeticError(f"zero offset did not settle at k={k}")

    def zero_in_bracket(self, x_lo: float, x_hi: float):
        """(J(x_lo), J(x_hi), j) for a bracket of relative width 1e-10 or less.

        When J changes sign across the bracket, two secant steps from its
        endpoints give the zero j to better than 1e-18 relative; the second
        step's size confirms it.  Otherwise j is None.
        """
        mp = self.mp
        a, b = mp.mpf(x_lo), mp.mpf(x_hi)
        fa = self.bessel_j(a, digits=12)
        fb = self.bessel_j(b, digits=12)
        if not fa or not fb or (fa > 0) == (fb > 0):
            return fa, fb, None
        self._set_dps(40)
        x1 = b - fb * (b - a) / (fb - fa)
        f1 = self.bessel_j(x1, digits=12)
        self._set_dps(40)
        other, f_other = (a, fa) if (f1 > 0) != (fa > 0) else (b, fb)
        x2 = x1 - f1 * (x1 - other) / (f1 - f_other)
        if abs(x2 - x1) > mp.mpf(10) ** -18 * x1:
            raise ArithmeticError(f"secant refinement did not settle in [{x_lo}, {x_hi}]")
        return fa, fb, x2

    # --------------------------------------------------------- closed forms

    def alpha(self, k: int):
        """alpha_k = log(1 - p^(k+nu) / (1 - p^k)) / (2 log q)."""
        mp = self.mp
        self._set_dps(self.digits + 10)
        p = self.p()
        return mp.log1p(-p ** (k + self.nu()) / (1 - p ** k)) / (2 * mp.log(self.q()))

    def in_regime(self, k: int) -> bool:
        """q^(2(k+nu)) <= (1 - q^2)(1 - q^(2k)), where 0 < eps_k < alpha_k holds."""
        self._set_dps(self.digits + 10)
        p = self.p()
        return p ** (k + self.nu()) <= (1 - p) * (1 - p ** k)

    def zero_quantities(self, k: int, eps, mu: float | None = None) -> dict:
        """j_k, eta_k, a_k(x^nu) and, given mu, a_k(g_{nu,mu}) at j_k = q^(-k+eps).

        ``jp_condition`` is the condition of the series for J'(j_k), which all
        three closed forms divide by or multiply with.
        """
        j = self.zero_argument(k, eps)
        qj = self.zero_argument(k, eps, shift=1)
        jp = self.bessel_j_prime(j)
        out = {"value": j, "jp_condition": 10.0 ** self.last_log10_condition}
        j_q = self.bessel_j(qj)
        if mu is not None:
            j_mu = self.bessel_j(qj, order=mu)
            j_nu1 = self.bessel_j(qj, order=self.nu() + 1)
        self._set_dps(self.digits + 10)
        q, p, nu = self.q(), self.p(), self.nu()
        out["eta"] = -(1 - q) * q ** (nu - 2) / (2 * j) * j_q * jp
        out["a_power"] = -2 / (q ** nu * j * jp)
        if mu is not None:
            mu = self.exact(mu)
            if mu not in self._g_consts:
                self._g_consts[mu] = (self.q_pochhammer_inf(p)
                                      / self.q_pochhammer_inf(q ** (2 * (mu - nu))))
            const = self._g_consts[mu]
            out["a_g"] = (-2 * q ** (1 - mu) * j ** (nu - mu) * const
                          * j_mu / (j_nu1 * jp))
        return out

    def power_target(self, x):
        """x^nu."""
        self._set_dps(self.digits + 10)
        return self.mp.mpf(x) ** self.nu_float

    def g_target(self, mu: float, x):
        """g_{nu,mu}(x) = x^nu (x^2 q^2; q^2)_inf / (x^2 q^(2mu-2nu); q^2)_inf."""
        self._set_dps(self.digits + 10)
        x = self.mp.mpf(x)
        q, p, nu = self.q(), self.p(), self.nu()
        return (x ** nu * self.q_pochhammer_inf(x * x * p)
                / self.q_pochhammer_inf(x * x * q ** (2 * (self.exact(mu) - nu))))

    def targets_on_grid(self, mu: float, depth: int) -> tuple[list, list]:
        """x^nu and g_{nu,mu}(x) at the nodes x = q^n, n = 0..depth.

        On the grid the products of g telescope: with r = q^(2(mu-nu)),
        (q^(2n) p; p)_inf = (p; p)_inf / (p; p)_n and
        (q^(2n) r; p)_inf = (r; p)_inf / (r; p)_n.
        """
        self._set_dps(self.digits + 10)
        q, p, nu = self.q(), self.p(), self.nu()
        r = q ** (2 * (self.exact(mu) - nu))
        g = self.q_pochhammer_inf(p) / self.q_pochhammer_inf(r)
        qn = q ** nu
        power, gs = [], []
        x = self.mp.mpf(1)
        for n in range(depth + 1):
            if n:
                g *= (1 - r * p ** (n - 1)) / (1 - p ** n)
                x *= qn
            power.append(x)
            gs.append(x * g)
        return power, gs

    def grid_column(self, k: int, eps, n_max: int) -> tuple[list, list]:
        """J_nu(q^(n+1) j_k; q^2) for n = 0..n_max, with its series' condition.

        These are the mode's values at the grid nodes q^n: the coefficient
        quadrature sums q^(2n) f(q^n) times them, and partial sums add them up
        with the coefficients as weights.  The second list holds
        max |term| / |sum| of the power series at each node.
        """
        values, conditions = [], []
        for n in range(n_max + 1):
            z = self.zero_argument(k, eps, shift=n + 1)
            values.append(self.bessel_j(z))
            conditions.append(10.0 ** min(300.0, self.last_log10_condition))
            # the next node cancels a little less: start it at this precision
            self._dps_hint = self.last_dps
        self._dps_hint = 0
        return values, conditions


# ------------------------------------------------------------------ self-test

SELF_TEST_CASES = ((0.3, 0.0, 10), (0.45, 0.5, 16), (0.5, 1.0, 18),
                   (0.6, 2.5, 14), (0.8, 1.3, 10), (0.85, 3.0, 8))


def _own_offsets(ref: Reference, kmax: int) -> list:
    """eps_1..eps_kmax located by the reference alone.

    Regime zeros have 0 < eps_k < alpha_k and Newton starts from eps = 0;
    the others are bracketed by the first sign change of J over q^(-k+e)
    as e rises from 0 (eps_1 exceeds 2 for q above 0.8).
    """
    out = []
    for k in range(1, kmax + 1):
        if ref.in_regime(k):
            lo, hi, start = float(ref.alpha(k)), 0.0, 0
        else:
            grid = [i / 32 for i in range(1, 128)]
            vals = [ref.bessel_j(ref.zero_argument(k, e), digits=10) for e in grid]
            i = next(i for i in range(126) if (vals[i] > 0) != (vals[i + 1] > 0))
            lo, hi, start = grid[i + 1], grid[i], (grid[i] + grid[i + 1]) / 2
        x_lo = float(ref.zero_argument(k, lo)) * (1 - 1e-15)
        x_hi = float(ref.zero_argument(k, hi)) * (1 + 1e-15)
        out.append(ref.refine_offset(k, start, x_lo, x_hi))
    return out


def _quantities(q: float, nu: float, kmax: int, digits: int) -> dict:
    """Every kind of reference quantity the benchmark checks, at one precision."""
    ref = Reference(q, nu, digits)
    mu = nu + 0.75
    out = {}
    for k, eps in enumerate(_own_offsets(ref, kmax), start=1):
        zq = ref.zero_quantities(k, eps, mu)
        out[f"eps_{k}"] = eps
        for name in ("value", "eta", "a_power", "a_g"):
            out[f"{name}_{k}"] = zq[name]
        for n, v in enumerate(ref.grid_column(k, eps, k + 3)[0]):
            out[f"J(q^{n + 1} j_{k})"] = v
        if ref.in_regime(k):
            out[f"alpha_{k}"] = ref.alpha(k)
    for z in (0.37, 1.9, 7.5, 40.0, 1234.5):
        out[f"J({z})"] = ref.bessel_j(z)
        out[f"J'({z})"] = ref.bessel_j_prime(z)
    out["g(0.3)"] = ref.g_target(mu, 0.3)
    out["x^nu(0.3)"] = ref.power_target(0.3)
    return out


def self_test(digits: int = 20) -> int:
    """Compare every checked quantity at d and 2d digits; 0 when all agree."""
    worst_all = math.inf
    for q, nu, kmax in SELF_TEST_CASES:
        low = _quantities(q, nu, kmax, digits)
        high = _quantities(q, nu, kmax, 2 * digits)
        worst = math.inf
        for name, a in low.items():
            b = high[name]
            agree = 2.0 * digits if a == b else -log10_abs((a - b) / b)
            worst = min(worst, agree)
            if agree < digits:
                print(f"FAIL q={q} nu={nu} {name}: {agree:.1f} digits < {digits}")
                return 1
        print(f"q={q} nu={nu} k<={kmax}: {len(low)} quantities agree to "
              f">= {worst:.1f} digits at {digits} vs {2 * digits} digits")
        worst_all = min(worst_all, worst)
    print(f"self-test passed: worst agreement {worst_all:.1f} digits")
    return 0


if __name__ == "__main__":
    sys.exit(self_test())
