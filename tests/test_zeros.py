import math
import os
import sys

import mpmath as mp
import pytest

from qfb.qcore import QContext
from qfb import highprec, zeros
from qfb.qbessel import bessel_j
from qfb.zeros import (
    OutOfRegimeError,
    alpha_bound,
    regime_start,
    find_zero,
    zero_table,
    count_zeros_below,
    check_zero_value_bound,
    check_derivative_asymptotics,
    jacobi_identity_residual,
)

from test_qbessel import mp_bessel_j

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from workloads import zero_count  # noqa: E402  (three quarters of the envelope)


CTX = QContext(0.5, 1.0)


class TestAlphaBound:
    def test_direct_formula_value(self):
        # log(1 - 0.0625/0.75) / (2 log 0.5)
        want = math.log(1.0 - 0.0625 / 0.75) / (2.0 * math.log(0.5))
        assert alpha_bound(CTX, 1) == pytest.approx(want, rel=1e-15)
        assert alpha_bound(CTX, 1) == pytest.approx(0.0628, abs=2e-4)

    def test_asymptotic_ratio_tends_to_q_squared(self):
        ratios = [alpha_bound(CTX, k + 1) / alpha_bound(CTX, k) for k in range(8, 14)]
        for r in ratios:
            assert r == pytest.approx(0.25, rel=0.02)

    def test_out_of_regime_rejected(self):
        with pytest.raises(OutOfRegimeError):
            alpha_bound(QContext(0.99, 0.1), 1)


class TestFindZero:
    def test_first_zero_inside_certified_bracket(self):
        z1 = find_zero(CTX, 1)
        assert 1.9145 < z1.value < 2.0
        assert z1.bracket_lo < z1.value < z1.bracket_hi
        assert z1.certified

    def test_formerly_computed_value(self):
        # frozen from an 80-digit bisection of the defining series
        assert find_zero(CTX, 1).value == pytest.approx(1.9167283958509361, rel=1e-14)
        assert find_zero(CTX, 2).value == pytest.approx(3.9991032380382754, rel=1e-14)

    def test_fifth_zero_relative_window(self):
        z5 = find_zero(CTX, 5)
        ratio = z5.value / CTX.q**-5
        assert CTX.q**z5.alpha_k < ratio <= 1.0

    def test_ascending_order(self):
        vals = [find_zero(CTX, k).value for k in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_certification_range(self):
        for zk in zero_table(CTX, 15):
            assert zk.certified
            assert 0.0 < zk.eps_k < zk.alpha_k

    def test_sign_change_across_stored_bracket(self):
        for k in (1, 2, 3):
            zk = find_zero(CTX, k)
            lo = bessel_j(CTX, zk.bracket_lo).value
            hi = bessel_j(CTX, zk.bracket_hi).value
            assert lo * hi < 0.0

    def test_refinement_idempotence(self):
        a = find_zero(CTX, 3).value
        b = find_zero(QContext(0.5, 1.0), 3).value
        assert a == b

    def test_bad_index(self):
        with pytest.raises(ValueError):
            find_zero(CTX, 0)

    @pytest.mark.parametrize("k", [3, 5, 7, 8, 9, 12])
    def test_bracket_rounded_outward(self, k):
        # eps_k is far below one ulp of k here, so ends rounded to nearest
        # would coincide with the value or fall on its wrong side
        zk = find_zero(QContext(0.3, 3.0), k)
        assert zk.bracket_lo < zk.value < zk.bracket_hi

    def test_cache_key_includes_max_terms(self):
        assert zeros._cache_key(QContext(0.5, 1.0, max_terms=100)) != zeros._cache_key(CTX)


class TestBelowRegimeScan:
    def test_scanned_zeros_are_zeros(self):
        ctx = QContext(0.9, 1.0)
        k0 = regime_start(ctx)
        assert k0 > 1
        for k in range(1, k0):
            zk = find_zero(ctx, k)
            assert not zk.certified
            lo = bessel_j(ctx, zk.bracket_lo).value
            hi = bessel_j(ctx, zk.bracket_hi).value
            assert lo * hi < 0.0

    def test_ordering_spans_regime_boundary(self):
        ctx = QContext(0.9, 1.0)
        vals = [find_zero(ctx, k).value for k in range(1, 13)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_counting_invariant(self):
        for K in (3, 6, 10):
            assert count_zeros_below(CTX, CTX.q**-K) == K
        ctx = QContext(0.9, 1.0)
        assert count_zeros_below(ctx, ctx.q**-10) == 10


def test_scan_brackets_hold_a_sign_change():
    # bisection once trusted the sign of J where |J| = 4.8e-13 lay below its
    # tail_bound of 1.5e-12, and the bracket of j_2 missed the zero
    q, nu = 0.838803, 1.356597
    ctx = QContext(q, nu)
    for k in (1, 2, 3):
        zk = find_zero(ctx, k)
        assert not zk.certified  # below the regime: found by scanning
        lo = mp_bessel_j(q, nu, zk.bracket_lo, 60)
        hi = mp_bessel_j(q, nu, zk.bracket_hi, 60)
        assert (lo > 0) != (hi > 0), k


def _eps_gap(q, nu, k):
    """Relative gap of the float eps_k to the mp lane's at 40 digits; a zero
    whose mp offset is below 1e-300 must come back as exactly 0."""
    got = find_zero(QContext(q, nu), k).eps_k
    with mp.workdps(40):
        want = highprec.solve_zero_offset(q, nu, k)
        if want < mp.mpf("1e-300"):
            return 0.0 if got == 0.0 else math.inf
        return float(abs(got - want) / want)


class TestEnvelopeSweep:
    """Float eps_k against the mp lane over the zeros workload's envelope."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.85])
    @pytest.mark.parametrize("nu", [0.0, 1.0, 3.0])
    def test_eps_matches_mp_lane(self, q, nu):
        k0 = regime_start(QContext(q, nu))
        gaps = {k: _eps_gap(q, nu, k) for k in range(k0, zero_count(q) + 1)}
        assert max(gaps.values()) <= 1e-12, gaps

    @pytest.mark.parametrize("q,nu,k", [(0.5, 1.0, 20), (0.3, 3.0, 12)])
    def test_offsets_far_below_one_ulp(self, q, nu, k):
        # a bisection in eps once returned both about 15x off: the
        # geometric midpoint sqrt(lo hi) underflowed to 0
        assert _eps_gap(q, nu, k) <= 1e-12


class TestEpsilonDecay:
    def test_ratio_below_q_squared_margin(self):
        table = zero_table(CTX, 12)
        for k in range(5, 12):
            ratio = table[k].eps_k / table[k - 1].eps_k
            assert ratio < 1.5 * CTX.q**2


class TestZeroValueBound:
    @pytest.mark.parametrize("ctx,k", [
        (QContext(0.5, 1.0), 5),
        (QContext(0.5, 1.0), 10),
        (QContext(0.8, 2.0), 8),
    ])
    def test_bounded(self, ctx, k):
        lhs, rhs = check_zero_value_bound(ctx, k)
        assert lhs <= rhs
        assert lhs > 0.0


class TestDerivativeAsymptotics:
    def test_normalized_values_bounded_away_from_zero(self):
        rep = check_derivative_asymptotics(CTX, 3, 12)
        assert rep.min_abs_s > 0.0
        assert rep.min_abs_s > 0.1 * rep.max_abs_s

    def test_growth_normalization_bounded(self):
        rep = check_derivative_asymptotics(QContext(0.8, 2.0), 5, 15)
        lo, hi = min(rep.bounded_seq), max(rep.bounded_seq)
        assert 0.0 < lo <= hi < math.inf
        assert hi / lo < 10.0

    def test_signs_alternate(self):
        rep = check_derivative_asymptotics(CTX, 3, 10)
        signs = [math.copysign(1.0, s) for s in rep.s_values]
        assert all(a == -b for a, b in zip(signs, signs[1:]))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_jacobi_identity(q):
    assert jacobi_identity_residual(q) < 1e-13
