import pytest
from hypothesis import given, settings, strategies as st

from qfb.qcore import QContext
from qfb.qpoly import (
    a0_closed,
    poly_p_by_recurrence,
    poly_p_explicit,
    poly_p_explicit_alt,
    poly_p_by_convolution,
    check_factorization,
    factorization_error_budget,
    check_finite_sum_identities,
    poch_prefix_table,
    uniform_boundedness_scan,
)


CTX = QContext(0.5, 1.0)

GRID = [QContext(q, nu) for q in (0.3, 0.5, 0.8) for nu in (0.5, 1.0, 2.5)]


class TestRecurrence:
    def test_base_case(self):
        assert poly_p_by_recurrence(CTX, 0).coeffs == (1.0,)

    def test_degree_one(self):
        q, nu = CTX.q, CTX.nu
        got = poly_p_by_recurrence(CTX, 1).coeffs
        assert got[0] == pytest.approx(q**nu + q**-nu, rel=1e-15)
        assert got[1] == pytest.approx(-(q**(-nu + 2.0)), rel=1e-15)

    @pytest.mark.parametrize("ctx", GRID)
    def test_boundary_coefficients(self, ctx):
        q, nu = ctx.q, ctx.nu
        for n in range(13):
            coeffs = poly_p_by_recurrence(ctx, n).coeffs
            assert coeffs[0] == pytest.approx(a0_closed(ctx, n), rel=1e-13)
            want_top = (-1.0)**n * q**(n * (n + 1.0 - nu))
            assert coeffs[n] == pytest.approx(want_top, rel=1e-13)

    def test_sign_pattern(self):
        for n in range(13):
            for j, a in enumerate(poly_p_by_recurrence(CTX, n).coeffs):
                assert (a > 0.0) == (j % 2 == 0)


class TestTripleAgreement:
    @pytest.mark.parametrize("ctx", GRID)
    def test_all_constructions_agree(self, ctx):
        for n in range(13):
            a = poly_p_by_recurrence(ctx, n).coeffs
            b = poly_p_explicit(ctx, n).coeffs
            c = poly_p_by_convolution(ctx, n).coeffs
            for j in range(n + 1):
                scale = max(abs(a[j]), abs(b[j]))
                assert abs(a[j] - b[j]) <= 1e-12 * scale
                assert abs(a[j] - c[j]) <= 1e-12 * scale

    def test_second_explicit_form_matches_first(self):
        for ctx in GRID:
            for n in range(13):
                b = poly_p_explicit(ctx, n).coeffs
                d = poly_p_explicit_alt(ctx, n).coeffs
                for j in range(n + 1):
                    assert abs(b[j] - d[j]) <= 1e-12 * max(abs(b[j]), abs(d[j]))


class TestFactorization:
    def test_degree_zero_exact(self):
        for k in (1, 3):
            assert check_factorization(CTX, 0, k) == 0.0

    @pytest.mark.parametrize("n,k", [(3, 2), (6, 4), (2, 1), (5, 5)])
    def test_residual_within_budget(self, n, k):
        assert check_factorization(CTX, n, k) <= factorization_error_budget(CTX, n, k)

    def test_relative_residual_small(self):
        from qfb import zeros
        from qfb.qbessel import bessel_j_qpow
        zk = zeros.find_zero(CTX, 2)
        pn = poly_p_by_recurrence(CTX, 3)
        scale = abs(bessel_j_qpow(CTX, 1 - 2, zk.eps_k).value * pn(zk.value**2))
        assert check_factorization(CTX, 3, 2) < 1e-9 * scale


class TestFiniteSumIdentities:
    def test_default_ranges(self):
        rep = check_finite_sum_identities(0.5)
        assert set(rep) == {"partial_sum", "shifted_linear", "nested",
                            "zero_coefficient_convolution", "convolution_pairs"}
        for name, resid in rep.items():
            assert resid < 1e-12, name

    @pytest.mark.parametrize("q", [0.3, 0.8])
    def test_other_bases(self, q):
        rep = check_finite_sum_identities(q, imax=8, jmax=8, nmax=8, mmax=10)
        assert max(rep.values()) < 1e-12

    @pytest.mark.parametrize("q", [0.3, 0.52, 0.8])
    def test_prefix_table_matches_direct_product_bitwise(self, q):
        table = poch_prefix_table(q, range(-1, 26), 24)
        for power, row in table.items():
            for length, entry in enumerate(row):
                direct = 1.0
                for i in range(length):
                    direct *= 1.0 - q**(power + i)
                assert entry == direct, (power, length)

    def test_deterministic_in_seed(self):
        a = check_finite_sum_identities(0.5, seed=7)
        b = check_finite_sum_identities(0.5, seed=7)
        assert a == b

    def test_single_sum_unit_case(self):
        # i = 1 collapses to 1 + q(1-q^j)/(1-q) = (1-q^(1+j))/(1-q)
        q = 0.5
        for j in range(5):
            lhs = 1.0 + q * (1.0 - q**j) / (1.0 - q)
            rhs = (1.0 - q**(1 + j)) / (1.0 - q)
            assert lhs == pytest.approx(rhs, rel=1e-15)


@given(st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_a0_convolution_pairs(lam, m_extra):
    # a_0^(l) a_0^(m-l) telescopes into a window sum of constant terms
    m = lam + m_extra
    ctx = QContext(0.5, 1.5)
    lhs = a0_closed(ctx, lam) * a0_closed(ctx, m - lam)
    rhs = sum(a0_closed(ctx, m - 2 * t) for t in range(min(lam, m - lam) + 1))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_uniform_boundedness():
    small = uniform_boundedness_scan(CTX, n_max=20, k_max=8)
    large = uniform_boundedness_scan(CTX, n_max=40, k_max=15)
    assert large < 2.0
    assert large <= small * 1.001 + 1e-12  # widening the range adds nothing new
