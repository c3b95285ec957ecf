import math

import mpmath as mp
import pytest

from qfb.qcore import QContext
from qfb.qbessel import (
    bessel_j,
    bessel_j_column,
    bessel_j_prime,
    bessel_j_qpow,
    check_difference_relation,
    difference_relation_budget,
    check_shift_identity,
    _prefactor,
)
from qfb import highprec, zeros
from qfb.qpoly import gamma_sequence


CTX = QContext(0.5, 1.0)


def mp_bessel_j(q, nu, z, dps):
    """J_nu(z; q^2) from its defining power series, at dps digits; q, nu and
    z are taken as exact binary values (z may be an mpf)."""
    with mp.workdps(dps):
        q, nu, z = mp.mpf(q), mp.mpf(nu), mp.mpf(z)
        p = q * q
        floor = mp.mpf(10) ** (-dps - 5)

        def poch_inf(a):
            out, x = mp.mpf(1), a
            while abs(x) > floor:
                out *= 1 - x
                x *= p
            return out

        total, term, m = mp.mpf(0), mp.mpf(1), 0
        while m < 20 or abs(term) > floor * abs(total):
            total += term
            term *= -(z * z) * p ** (m + 1) / ((1 - p ** (nu + 1 + m)) * (1 - p ** (m + 1)))
            m += 1
        return z ** nu * poch_inf(p ** (nu + 1)) / poch_inf(p) * total


class TestBesselJ:
    def test_zero_argument_positive_order(self):
        assert bessel_j(CTX, 0.0).value == 0.0

    def test_zero_argument_order_zero(self):
        assert bessel_j(QContext(0.5, 0.0), 0.0).value == 1.0

    def test_zero_argument_negative_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(QContext(0.5, -0.5), 0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(CTX, -1.0)

    def test_value_at_zero_of_function(self):
        z1 = zeros.find_zero(CTX, 1)
        ev = bessel_j(CTX, z1.value)
        assert abs(ev.value) <= ev.tail_bound

    def test_overflow_signal_far_out(self):
        # midway between far zeros the function exceeds the double range
        with pytest.raises(OverflowError):
            bessel_j(CTX, 0.5**-40.5)

    def test_series_and_product_paths_agree_at_seam(self):
        # the evaluation switches route at z = 1/q
        for ctx in (CTX, QContext(0.8, 0.5), QContext(0.3, 2.5)):
            seam = 1.0 / ctx.q
            lo = bessel_j(ctx, seam * 0.999999)
            hi = bessel_j(ctx, seam * 1.000001)
            slope = abs(bessel_j_prime(ctx, seam).value)
            gap = abs(hi.value - lo.value)
            assert gap <= 3e-6 * seam * slope + 1e-12 * abs(lo.value) + 1e-15

    def test_tail_bound_honored_against_doubled_terms(self):
        for z in (0.3, 1.0, 3.7, 11.0):
            base = bessel_j(CTX, z)
            refined = bessel_j(QContext(CTX.q, CTX.nu, term_tol=1e-17,
                                        max_terms=CTX.max_terms * 2), z)
            assert abs(base.value - refined.value) <= base.tail_bound

    def test_alternating_partial_sums_bracket_small_z(self):
        # by hand: partial sums of the alternating series straddle the limit
        ctx, z = CTX, 0.7
        p = ctx.p
        pref = z**ctx.nu * _prefactor(ctx, ctx.nu)
        term, total = 1.0, 0.0
        partials = []
        for k in range(12):
            total += term
            partials.append(pref * total)
            term *= -(z * z) * p**(k + 1) / ((1 - p**(ctx.nu + 1 + k)) * (1 - p**(k + 1)))
        limit = bessel_j(ctx, z).value
        for lo, hi in zip(partials[3::2], partials[4::2]):
            assert min(lo, hi) <= limit <= max(lo, hi)


class TestBesselJQpow:
    def test_matches_direct_evaluation_on_plain_arguments(self):
        for n, frac in ((0, 0.3), (2, 0.1), (-1, 0.0), (-3, 0.25)):
            z = CTX.q**(n + frac)
            a = bessel_j_qpow(CTX, n, frac).value
            b = bessel_j(CTX, z).value
            assert a == pytest.approx(b, rel=5e-13)

    def test_keeps_relative_precision_at_zero_multiples(self):
        # J(q j_5) is ~1e-10; the exact-exponent route must keep it meaningful
        z5 = zeros.find_zero(CTX, 5)
        val = bessel_j_qpow(CTX, 1 - 5, z5.eps_k).value
        lhs, rhs = zeros.check_zero_value_bound(CTX, 5)
        assert 0.0 < lhs <= rhs
        assert abs(val) == lhs


class TestTailBound:
    def test_series_route_covers_rounded_argument_power(self):
        # q^(256 + eps_1) rounds its exponent, which z^nu amplifies by nu
        ctx = QContext(0.4, 2.3)
        eps = zeros.find_zero(ctx, 1).eps_k
        ev = bessel_j_qpow(ctx, 256, eps)
        with mp.workdps(60):
            z = mp.mpf(0.4) ** (256 + mp.mpf(eps))
            want = mp_bessel_j(0.4, 2.3, z, 60)
            assert abs(mp.mpf(ev.value) - want) <= ev.tail_bound

    @pytest.mark.parametrize("q,nu,z", [
        (0.359429, 2.730716, 18892084.0602),
        (0.3141, 2.1678, 16023591.9888),
    ])
    def test_product_route_covers_prefactor_rounding(self, q, nu, z):
        ev = bessel_j(QContext(q, nu), z)
        want = mp_bessel_j(q, nu, z, 200)
        with mp.workdps(200):
            assert abs(mp.mpf(ev.value) - want) <= ev.tail_bound


class TestBesselJColumn:
    @pytest.mark.parametrize("q", [0.4, 0.5, 0.8])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
    def test_matches_scalar_entry_by_entry(self, q, nu):
        ctx = QContext(q, nu)
        for k in range(1, 21):
            eps = zeros.find_zero(ctx, k).eps_k
            col = bessel_j_column(ctx, k, eps, 257)
            for n in range(257):
                ev = bessel_j_qpow(ctx, n + 1 - k, eps)
                assert abs(col.values[n] - ev.value) <= col.tail_bound[n] + ev.tail_bound, (k, n)

    @pytest.mark.parametrize("q,nu", [(0.4, 2.5), (0.5, 1.0), (0.8, 0.5)])
    def test_sampled_entries_match_mp_column(self, q, nu):
        ctx = QContext(q, nu)
        for k in (1, 6, 20):
            eps = zeros.find_zero(ctx, k).eps_k
            col = bessel_j_column(ctx, k, eps, 257)
            with mp.workdps(40):
                ref = highprec.ZeroColumn(q, nu, nu, k, eps)
                for n in sorted({0, 1, k - 1, k, 2 * k, 64, 256}):
                    gap = abs(mp.mpf(col.values[n]) - ref.j_at(n + 1))
                    assert gap <= col.tail_bound[n], (k, n)

    def test_overflow_and_bad_arguments(self):
        with pytest.raises(OverflowError):
            bessel_j_column(CTX, 40, 0.5, 8)  # midway between far zeros
        with pytest.raises(ValueError):
            bessel_j_column(CTX, 0, 0.0, 8)


class TestMpLaneAgainstPowerSeries:
    """highprec at 90 digits against mp_bessel_j, whose power series cancels
    by up to ~270 digits near q^-20 at q = 0.45, so it runs at 600."""

    REF_DPS = 600

    @pytest.mark.parametrize("q", [0.45, 0.6])
    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_zero_offset_to_1e_80(self, q, nu):
        for k in (1, 5, 20):
            with mp.workdps(90):
                eps = highprec.solve_zero_offset(q, nu, k)
            # J changes sign between q^(-k + eps (1 -+ 1e-80))
            with mp.workdps(self.REF_DPS):
                lo, hi = (mp.mpf(q) ** (-k + eps * (1 + s * mp.mpf(10) ** -80))
                          for s in (-1, 1))
            j_lo = mp_bessel_j(q, nu, lo, self.REF_DPS)
            j_hi = mp_bessel_j(q, nu, hi, self.REF_DPS)
            assert j_lo * j_hi < 0, k

    @pytest.mark.parametrize("q", [0.45, 0.6])
    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_column_entries_to_1e_80(self, q, nu):
        for k in (1, 5, 20):
            with mp.workdps(90):
                eps = highprec.solve_zero_offset(q, nu, k)
                col = highprec.ZeroColumn(q, nu, nu, k, eps)
                got = {m: col.j_at(m) for m in sorted({1, 2, k, k + 1, 3 * k, 130})}
            for m, value in got.items():
                with mp.workdps(self.REF_DPS):
                    z = mp.mpf(q) ** (m - k + eps)
                want = mp_bessel_j(q, nu, z, self.REF_DPS)
                with mp.workdps(self.REF_DPS):
                    assert abs(value - want) <= mp.mpf(10) ** -80 * abs(want), (k, m)


class TestBesselJPrime:
    def test_central_difference_oracle(self):
        h = 1e-5
        cd = (bessel_j(CTX, 1.0 + h).value - bessel_j(CTX, 1.0 - h).value) / (2 * h)
        got = bessel_j_prime(CTX, 1.0).value
        assert got == pytest.approx(cd, abs=5e-10)  # O(h^2) discretization

    def test_limit_at_zero_order_one(self):
        # leading term z^nu differentiates to nu z^(nu-1) -> prefactor at nu=1
        got = bessel_j_prime(CTX, 0.0).value
        assert got == pytest.approx(_prefactor(CTX, 1.0), rel=1e-14)
        tiny = bessel_j_prime(CTX, 1e-8).value
        assert got == pytest.approx(tiny, rel=1e-7)

    def test_zero_rejected_for_fractional_small_order(self):
        with pytest.raises(ValueError):
            bessel_j_prime(QContext(0.5, 0.5), 0.0)

    def test_nonzero_at_simple_zeros(self):
        for k in (1, 2, 5):
            zk = zeros.find_zero(CTX, k)
            jp = bessel_j_prime(CTX, zk.value)
            assert abs(jp.value) > 1e3 * jp.tail_bound


class TestDifferenceRelation:
    def test_vanishes_at_origin(self):
        assert check_difference_relation(CTX, 0.0) == 0.0

    @pytest.mark.parametrize("ctx,x", [
        (QContext(0.5, 1.0), 1.0),
        (QContext(0.8, 0.5), 2.0),
        (QContext(0.5, 2.0), 4.0),
    ])
    def test_residual_within_budget(self, ctx, x):
        assert check_difference_relation(ctx, x) <= difference_relation_budget(ctx, x)

    def test_hundred_random_samples(self):
        for i in range(100):
            u1, u2, u3 = gamma_sequence(2, 999 + 104729 * i)[:3]
            q = 0.1 + 0.425 * (u1 + 1.0)
            nu = min(2.5 * (u2 + 1.0) + 1e-3, 5.0)
            x = (u3 + 1.0) / 2.0 * q**-3
            ctx = QContext(q, nu)
            assert check_difference_relation(ctx, x) <= difference_relation_budget(ctx, x)


class TestShiftIdentity:
    @pytest.mark.parametrize("q,nu,k,tol", [
        (0.5, 1.0, 1, 1e-10),
        (0.5, 2.0, 3, 1e-10),
        (0.9, 1.0, 5, 1e-9),
    ])
    def test_residual(self, q, nu, k, tol):
        assert check_shift_identity(QContext(q, nu), k) < tol


def test_classical_limit_trend():
    # with the argument scaled by (1-q^2)/2 and the prefactor stripped, the
    # series head matches the classical normalized Bessel power series; the
    # gap must shrink monotonically as q -> 1 (trend only)
    z, nu = 0.3, 1.0
    classical = 0.0
    term = 1.0
    for m in range(30):
        classical += term
        term *= -(z * z / 4.0) / ((m + 1.0) * (m + 1.0 + nu))
    gaps = []
    for q in (0.9, 0.99, 0.999):
        ctx = QContext(q, nu)
        zq = z * (1.0 - q * q) / 2.0
        ev = bessel_j(ctx, zq)
        normalized = ev.value / (zq**nu * _prefactor(ctx, nu))
        gaps.append(abs(normalized - classical))
    assert gaps[0] > gaps[1] > gaps[2]
