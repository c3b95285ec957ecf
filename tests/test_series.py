import math
from collections import OrderedDict

import pytest
from mpmath import mp

from qfb.qcore import QContext, GridFunction
from qfb.qbessel import bessel_j_prime, bessel_j_qpow
from qfb import highprec, series, zeros
from qfb.series import (
    FourierCoefficient,
    eta_closed,
    eta_norm,
    eta_norm_integral,
    fourier_coefficient,
    partial_sum,
    partial_sum_at_node,
    convergence_report,
    holder_order_estimate,
    check_coefficient_integral_identity,
    gram_integral,
    weighted_norm_sq,
    parseval_defect,
)


CTX1 = QContext(0.5, 1.0)
CTX2 = QContext(0.5, 2.0)


def power_grid(ctx, depth=256):
    return GridFunction.from_callable(
        ctx, lambda t: t**ctx.nu, depth=depth, with_pre=True,
        limit_value=0.0, tail_exponent=ctx.nu)


class TestEtaNorm:
    def test_positive(self):
        for k in range(1, 11):
            assert eta_norm(CTX1, k) > 0.0

    def test_routes_agree(self):
        for k in (1, 2, 5, 10):
            closed = eta_closed(CTX1, k)
            assert eta_norm(CTX1, k) == eta_norm_integral(CTX1, k)
            integral = eta_norm_integral(CTX1, k)
            assert closed == pytest.approx(integral, rel=1e-9)

    @pytest.mark.parametrize("q", [0.5, 0.8])
    def test_against_mp_closed_form(self, q):
        # the closed form at 40 digits is free of the float J'(j_k)
        # cancellation, which costs eta_closed up to 7e-12 at q = 0.8
        ctx = QContext(q, 1.0)
        with mp.workdps(40):
            t = highprec.MpTables(q)
            for zk in highprec._zeros_mp(t, mp.mpf(1), 20):
                col = highprec.ZeroColumn(q, 1, 1, zk.k, zk.eps, t)
                ref = highprec._eta_mp(t.q, 1, col, zk)
                assert abs(eta_norm(ctx, zk.k) - ref) <= 1e-14 * ref

    def test_needs_no_derivative(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eta_norm must not evaluate J'")
        monkeypatch.setattr(series, "bessel_j_prime", refuse)
        ctx = QContext(0.55, 1.3)  # a context no other test has cached
        c = fourier_coefficient(ctx, power_grid(ctx), 3)
        assert c.eta == eta_norm_integral(ctx, 3)

    def test_middle_form_via_shift_identity(self):
        # -(1-q) q^(nu-1)/2 J_(nu+1)(q j; q^2) J_nu'(j; q^2) gives the same eta
        ctx = CTX1
        zk = zeros.find_zero(ctx, 1)
        jp = bessel_j_prime(ctx, zk.value).value
        j_up = bessel_j_qpow(ctx.with_order(2.0), 0, zk.eps_k).value
        middle = -(1.0 - ctx.q) / 2.0 * ctx.q**(ctx.nu - 1.0) * j_up * jp
        assert middle == pytest.approx(eta_norm(ctx, 1), rel=1e-13)


class TestZeroColumn:
    def test_memoised_and_grown_on_demand(self):
        col = series.zero_column(CTX1, 3, 40)
        assert series.zero_column(CTX1, 3, 40) is col
        longer = series.zero_column(CTX1, 3, len(col) + 10)
        assert len(longer) >= len(col) + 10
        assert list(longer[:len(col)]) == list(col)
        with pytest.raises(ValueError):
            col[0] = 1.0  # shared between callers, so read-only

    def test_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(series, "_COLUMNS", OrderedDict())
        monkeypatch.setattr(series, "_COLUMN_CACHE_SIZE", 4)
        contexts = [QContext(0.5, 1.0 + 0.25 * i) for i in range(6)]
        for ctx in contexts:
            series.zero_column(ctx, 1)
            assert len(series._COLUMNS) <= 4
        # least recently used first out
        assert (contexts[-1], 1) in series._COLUMNS
        assert (contexts[0], 1) not in series._COLUMNS


class TestOrthogonality:
    def test_off_diagonal_below_allowance(self):
        for n in range(1, 11):
            for m in range(n + 1, 11):
                g = gram_integral(CTX1, n, m)
                allow = 1e-10 * math.sqrt(eta_norm(CTX1, n) * eta_norm(CTX1, m))
                assert abs(g) < allow

    def test_diagonal_matches_eta(self):
        for n in range(1, 11):
            assert gram_integral(CTX1, n, n) == pytest.approx(
                eta_norm(CTX1, n), rel=1e-9)


class TestFourierCoefficient:
    def test_zero_function(self):
        z = GridFunction(CTX2, (0.0,) * 64)
        for k in (1, 2, 5):
            assert fourier_coefficient(CTX2, z, k).value == 0.0

    def test_power_target_matches_closed_form_small_k(self):
        f = power_grid(CTX2)
        zk = zeros.find_zero(CTX2, 1)
        closed = -2.0 / (CTX2.q**CTX2.nu * zk.value
                         * bessel_j_prime(CTX2, zk.value).value)
        got = fourier_coefficient(CTX2, f, 1)
        assert got.value == pytest.approx(closed, rel=1e-9)
        assert got.source == "numeric-integral"

    def test_linearity(self):
        f = power_grid(CTX2)
        g = GridFunction.from_callable(CTX2, lambda t: t**3, limit_value=0.0,
                                       tail_exponent=3.0)
        combo = GridFunction(
            CTX2, tuple(2.0 * a - 0.5 * b for a, b in zip(f.values, g.values)),
            limit_value=0.0, tail_exponent=2.0)
        for k in (1, 2, 3):
            lhs = fourier_coefficient(CTX2, combo, k).value
            rhs = (2.0 * fourier_coefficient(CTX2, f, k).value
                   - 0.5 * fourier_coefficient(CTX2, g, k).value)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_eta_field_positive(self):
        f = power_grid(CTX2)
        c = fourier_coefficient(CTX2, f, 2)
        assert c.eta == pytest.approx(eta_norm(CTX2, 2))
        with pytest.raises(ValueError):
            FourierCoefficient(1, 0.0, -1.0, "numeric-integral")


class TestPartialSum:
    def test_empty(self):
        assert partial_sum(CTX2, [], 0.7) == 0.0

    def test_off_grid_point_matches_node_route_on_grid(self):
        f = power_grid(CTX2)
        coeffs = [fourier_coefficient(CTX2, f, k) for k in range(1, 11)]
        node = partial_sum_at_node(CTX2, coeffs, 3)
        generic = partial_sum(CTX2, coeffs, CTX2.q**3)
        assert generic == pytest.approx(node, rel=1e-12)

    def test_generic_point_between_grid_nodes(self):
        from qfb.qbessel import bessel_j
        f = power_grid(CTX2)
        coeffs = [fourier_coefficient(CTX2, f, k) for k in range(1, 9)]
        x = 0.3  # not a power of q
        want = sum(c.value * bessel_j(CTX2, CTX2.q * zeros.find_zero(CTX2, c.k).value * x).value
                   for c in coeffs)
        assert partial_sum(CTX2, coeffs, x) == pytest.approx(want, rel=1e-13)
        # the truncated expansion already sits on the target this deep inside (0,1)
        assert partial_sum(CTX2, coeffs, x) == pytest.approx(x**2, rel=1e-6)

    def test_partial_sums_approach_power_target(self):
        f = power_grid(CTX2)
        coeffs = [fourier_coefficient(CTX2, f, k) for k in range(1, 31)]
        errs = [abs(1.0 - partial_sum_at_node(CTX2, coeffs[:K], 0))
                for K in (1, 3, 5, 30)]
        assert errs[0] > errs[1] > errs[2] >= errs[3]
        assert errs[3] < 1e-10


class TestConvergenceReport:
    def test_power_target_hypotheses_pass(self):
        f = power_grid(CTX2)
        rep = convergence_report(CTX2, f, k_max=25, n_grid=20)
        assert rep.holder_order == pytest.approx(2.0, abs=0.05)
        assert all(rep.hypotheses.values())
        assert not rep.warnings
        assert rep.sup_errors[-1] < 1e-8
        assert rep.rate < 1.0

    def test_sup_errors_nonincreasing(self):
        f = power_grid(CTX2)
        rep = convergence_report(CTX2, f, k_max=25, n_grid=20)
        scale = max(rep.sup_errors)
        for a, b in zip(rep.sup_errors, rep.sup_errors[1:]):
            assert b <= a * (1.0 + 1e-9) + 10.0 * 2.2e-16 * scale

    def test_low_order_violates_hypotheses_but_converges_pointwise(self):
        ctx = QContext(0.5, 0.5)
        f = GridFunction.from_callable(ctx, lambda t: math.sqrt(t),
                                       limit_value=0.0, tail_exponent=0.5)
        rep = convergence_report(ctx, f, k_max=25, n_grid=10)
        assert not rep.hypotheses["holder_order_gt_1"]
        assert rep.warnings
        for n in (0, 1, 2):
            first = rep.errors[0][n]
            last = max(rep.errors[-1][n], 1e-300)
            assert last < first

    def test_holder_estimate_on_power_functions(self):
        for nu in (0.5, 1.0, 2.0, 3.0):
            ctx = QContext(0.5, nu)
            f = GridFunction.from_callable(ctx, lambda t: t**nu, with_pre=True)
            assert holder_order_estimate(f) == pytest.approx(nu, abs=1e-6)


class TestCoefficientIntegralIdentity:
    @pytest.mark.parametrize("k", [1, 4])
    def test_power_target(self, k):
        f = power_grid(CTX2)
        resid = check_coefficient_integral_identity(CTX2, f, k)
        lhs_scale = abs(fourier_coefficient(CTX2, f, k).value * eta_norm(CTX2, k))
        assert resid < 1e-9 * lhs_scale

    def test_constant_function(self):
        # differences vanish; only the boundary and first bracket survive
        ctx = QContext(0.5, 1.5)
        f = GridFunction(ctx, (3.0,) * 200, pre_value=3.0, limit_value=3.0,
                         tail_exponent=0.0)
        resid = check_coefficient_integral_identity(ctx, f, 1)
        assert resid < 1e-12

    def test_requires_pre_value(self):
        f = GridFunction.from_callable(CTX2, lambda t: t**2, limit_value=0.0)
        with pytest.raises(ValueError):
            check_coefficient_integral_identity(CTX2, f, 1)

    def test_requires_positive_order(self):
        ctx = QContext(0.5, -0.25)
        f = GridFunction.from_callable(ctx, lambda t: t, with_pre=True,
                                       limit_value=0.0)
        with pytest.raises(ValueError):
            check_coefficient_integral_identity(ctx, f, 1)


class TestParseval:
    def test_power_target_defect_small(self):
        f = power_grid(CTX2)
        total = weighted_norm_sq(CTX2, f)
        assert total == pytest.approx(0.5 / (1.0 - 0.5**6), rel=1e-13)
        assert parseval_defect(CTX2, f, 40) < 1e-8 * total


class TestRoundTrip:
    def test_reextraction_small_k(self):
        # binary64 supports the round trip for the first few modes
        f = power_grid(CTX2)
        coeffs = [fourier_coefficient(CTX2, f, k) for k in range(1, 13)]
        sampled = GridFunction(
            CTX2,
            tuple(partial_sum_at_node(CTX2, coeffs, n) for n in range(257)),
            limit_value=0.0, tail_exponent=CTX2.nu)
        for k in (1, 2, 3):
            back = fourier_coefficient(CTX2, sampled, k).value
            assert back == pytest.approx(coeffs[k - 1].value, rel=1e-9)
