"""q-Fourier-Bessel series on the q-linear grid.

q-calculus primitives, evaluation of the third Jackson (Hahn-Exton)
q-Bessel function J_nu(z; q^2), certified localization of its positive
zeros, expansion coefficients and partial sums over the orthogonal system
{J_nu(q j_k x; q^2)}, closed-form reference expansions, and convergence
diagnostics.  The `qfb` command-line tool fronts all of it.
"""

from .qcore import (
    QContext,
    GridFunction,
    NonConvergentTail,
    q_pochhammer,
    q_integral,
    jackson_sum,
    symmetric_q_derivative,
    check_q_integration_by_parts,
    DEFAULT_GRID_DEPTH,
)
from .qbessel import (
    BesselEval,
    bessel_j,
    bessel_j_prime,
    bessel_j_qpow,
    check_difference_relation,
    check_shift_identity,
)
from .zeros import (
    BesselZero,
    OutOfRegimeError,
    ZeroLocalizationError,
    alpha_bound,
    find_zero,
    zero_table,
    check_zero_value_bound,
    check_derivative_asymptotics,
    jacobi_identity_residual,
)
from .qpoly import (
    PolyP,
    poly_p_by_recurrence,
    poly_p_explicit,
    poly_p_by_convolution,
    check_factorization,
    check_finite_sum_identities,
)
from .series import (
    FourierCoefficient,
    ConvergenceReport,
    eta_norm,
    fourier_coefficient,
    partial_sum,
    partial_sum_at_node,
    convergence_report,
    check_coefficient_integral_identity,
    gram_integral,
    parseval_defect,
)
from .expansions import (
    ClosedFormExpansion,
    power_nu_expansion,
    g_nu_mu_expansion,
    power_nu_coefficient,
    g_nu_mu_target,
    g_nu_mu_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "QContext", "GridFunction", "NonConvergentTail", "q_pochhammer",
    "q_integral", "jackson_sum", "symmetric_q_derivative",
    "check_q_integration_by_parts", "DEFAULT_GRID_DEPTH",
    "BesselEval", "bessel_j", "bessel_j_prime", "bessel_j_qpow",
    "check_difference_relation", "check_shift_identity",
    "BesselZero", "OutOfRegimeError", "ZeroLocalizationError", "alpha_bound",
    "find_zero", "zero_table", "check_zero_value_bound",
    "check_derivative_asymptotics", "jacobi_identity_residual",
    "PolyP", "poly_p_by_recurrence", "poly_p_explicit",
    "poly_p_by_convolution", "check_factorization", "check_finite_sum_identities",
    "FourierCoefficient", "ConvergenceReport", "eta_norm",
    "fourier_coefficient", "partial_sum", "partial_sum_at_node",
    "convergence_report", "check_coefficient_integral_identity",
    "gram_integral", "parseval_defect",
    "ClosedFormExpansion", "power_nu_expansion", "g_nu_mu_expansion",
    "power_nu_coefficient", "g_nu_mu_target", "g_nu_mu_coefficient",
    "__version__",
]
