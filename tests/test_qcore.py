import math

import pytest
from hypothesis import given, settings, strategies as st

from qfb.qcore import (
    QContext,
    GridFunction,
    NonConvergentTail,
    q_pochhammer,
    q_integral,
    jackson_sum,
    symmetric_q_derivative,
    check_q_integration_by_parts,
)
from qfb.qbessel import bessel_j, bessel_j_qpow
from qfb import zeros


CTX = QContext(0.5, 1.0)


class TestQContext:
    def test_rejects_bad_q(self):
        for q in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                QContext(q, 1.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            QContext(0.5, -1.0)

    def test_p_is_q_squared(self):
        assert QContext(0.3, 1.0).p == pytest.approx(0.09)


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.3, 0.5, 0) == 1.0

    def test_single_factor(self):
        assert q_pochhammer(0.5, 0.5, 1) == 0.5

    def test_infinite_matches_long_partial_product(self):
        # oracle: direct product accumulation to machine-precision stagnation
        want = 1.0
        x = 0.3
        for _ in range(200):
            want *= 1.0 - x
            x *= 0.5
        got = q_pochhammer(0.3, 0.5, math.inf)
        assert got == pytest.approx(want, rel=1e-15)

    def test_negative_index_reciprocal(self):
        a, q, m = 0.3, 0.5, 4
        lhs = q_pochhammer(a, q, -m)
        rhs = 1.0 / q_pochhammer(a * q**-m, q, m)
        assert lhs == pytest.approx(rhs, rel=1e-15)

    def test_negative_index_pole_rejected(self):
        # a q^-1 = 1 makes the single factor vanish
        with pytest.raises(ZeroDivisionError):
            q_pochhammer(0.5, 0.5, -1)

    @given(st.floats(-2.0, 2.0), st.floats(0.05, 0.95),
           st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_splitting_identity(self, a, q, m, k):
        lhs = q_pochhammer(a, q, m + k)
        rhs = q_pochhammer(a, q, m) * q_pochhammer(a * q**m, q, k)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)

    @given(st.floats(-1.5, 0.9), st.floats(0.1, 0.9),
           st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_identity(self, a, q, m, k):
        den_k = q_pochhammer(a, q, k)
        den_m = q_pochhammer(a, q, m)
        if min(abs(den_k), abs(den_m)) < 1e-6:
            return  # too close to a pole of the ratio form
        lhs = q_pochhammer(a * q**m, q, k) / den_k
        rhs = q_pochhammer(a * q**k, q, m) / den_m
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)


class TestGridFunction:
    def test_depth_and_indexing(self):
        f = GridFunction.from_callable(CTX, lambda t: t, depth=8, with_pre=True)
        assert f.depth == 8
        assert f[3] == 0.5**3
        assert f[-1] == 2.0

    def test_missing_pre_value(self):
        f = GridFunction.from_callable(CTX, lambda t: t, depth=8)
        with pytest.raises(ValueError):
            f[-1]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GridFunction(CTX, (1.0, math.inf))


class TestQIntegral:
    def test_constant_one(self):
        f = GridFunction.from_callable(CTX, lambda t: 1.0)
        assert q_integral(f) == pytest.approx(1.0, rel=1e-14)

    def test_identity_function(self):
        f = GridFunction.from_callable(CTX, lambda t: t)
        assert q_integral(f) == pytest.approx(1.0 / 1.5, rel=1e-14)

    def test_bessel_weighted_moment_closed_form(self):
        # integral of t^(nu+1) J_nu(q j_1 t; q^2) = (1-q)/(q j_1) J_(nu+1)(q j_1; q^2)
        ctx = CTX
        z1 = zeros.find_zero(ctx, 1)
        f = GridFunction.from_callable(
            ctx, lambda t: t**2 * bessel_j(ctx, ctx.q * z1.value * t).value)
        want = ((1.0 - ctx.q) / (ctx.q * z1.value)
                * bessel_j_qpow(ctx.with_order(2.0), 0, z1.eps_k).value)
        assert q_integral(f) == pytest.approx(want, rel=1e-12)

    def test_partial_upper_limit(self):
        f = GridFunction.from_callable(CTX, lambda t: 1.0)
        # integral over (0, q^2) of 1 d_q t = q^2
        assert q_integral(f, upper=0.25) == pytest.approx(0.25, rel=1e-14)

    def test_bad_upper_limit(self):
        f = GridFunction.from_callable(CTX, lambda t: 1.0)
        with pytest.raises(ValueError):
            q_integral(f, upper=0.7)

    def test_nonconvergent_without_tail_model(self):
        f = GridFunction(CTX, tuple(2.0**n for n in range(40)))
        with pytest.raises(NonConvergentTail):
            q_integral(f)

    def test_tail_model_rescues_shallow_grid(self):
        shallow = GridFunction(CTX, tuple(0.5**n for n in range(12)),
                               tail_exponent=1.0)
        assert q_integral(shallow) == pytest.approx(1.0 / 1.5, rel=1e-9)

    def test_positivity(self):
        f = GridFunction.from_callable(CTX, lambda t: (t - 0.3)**2)
        assert q_integral(f) >= 0.0

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b):
        f = GridFunction.from_callable(CTX, lambda t: t)
        g = GridFunction.from_callable(CTX, lambda t: t * t)
        combo = GridFunction(CTX, tuple(a * x + b * y
                                        for x, y in zip(f.values, g.values)))
        lhs = q_integral(combo)
        rhs = a * q_integral(f) + b * q_integral(g)
        assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs) + abs(rhs))


class TestSymmetricQDerivative:
    def test_linear(self):
        assert symmetric_q_derivative(CTX, lambda t: t, 0.3) == pytest.approx(1.0)

    def test_constant_exactly_zero(self):
        assert symmetric_q_derivative(CTX, lambda t: 4.25, 0.125) == 0.0

    def test_square(self):
        q, x = CTX.q, 0.25
        want = (math.sqrt(q) + 1.0 / math.sqrt(q)) * x
        got = symmetric_q_derivative(CTX, lambda t: t * t, x)
        assert got == pytest.approx(want, rel=1e-14)

    def test_monomial_exponent_formula(self):
        # difference quotient of t^nu collapses to the q-bracket of nu
        q, nu = 0.5, 2.0
        ctx = QContext(q, nu)
        x = q**3
        want = ((q**(nu / 2) - q**(-nu / 2)) / (math.sqrt(q) - 1.0 / math.sqrt(q))
                * x**(nu - 1.0))
        got = symmetric_q_derivative(ctx, lambda t: t**nu, x)
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_needs_supplied_derivative(self):
        with pytest.raises(ValueError):
            symmetric_q_derivative(CTX, lambda t: t, 0.0)
        got = symmetric_q_derivative(CTX, lambda t: t, 0.0, f_prime_at_zero=1.0)
        assert got == 1.0


class TestIntegrationByParts:
    def test_constants(self):
        assert check_q_integration_by_parts(CTX, lambda t: 1.0, lambda t: 1.0) == 0.0

    def test_linear_pair(self):
        resid = check_q_integration_by_parts(CTX, lambda t: t, lambda t: t)
        assert resid < 1e-12

    def test_monomial_against_bessel_integrand(self):
        ctx = QContext(0.5, 2.0)
        z1 = zeros.find_zero(ctx, 1)
        g = lambda t: t**ctx.nu * bessel_j(ctx, ctx.q * z1.value * t).value
        resid = check_q_integration_by_parts(ctx, lambda t: t**ctx.nu, g)
        assert resid < 1e-10

    def test_general_interval(self):
        resid = check_q_integration_by_parts(CTX, lambda t: t * t, lambda t: t,
                                             a=0.25, b=1.0)
        assert resid < 1e-12


def test_jackson_sum_matches_grid_integral():
    f = GridFunction.from_callable(CTX, lambda t: t * t)
    assert jackson_sum(CTX, lambda t: t * t, 1.0) == pytest.approx(
        q_integral(f), rel=1e-13)


def test_jackson_sum_sums_past_leading_zero_terms():
    # the integrand vanishes on the first ten nodes; the sum is (1-q) sum_(n>=10) q^n
    q = CTX.q
    h = lambda t: 1.0 if t <= q**10 else 0.0
    f = GridFunction.from_callable(CTX, h)
    assert q_integral(f) == pytest.approx(q**10, rel=1e-14)
    assert jackson_sum(CTX, h, 1.0) == pytest.approx(q**10, rel=1e-14)
