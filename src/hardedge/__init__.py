"""Hard-edge gap probabilities for products of complex Ginibre matrices.

Three independent routes to the same quantity E_M(0;(0,s)) — Fredholm
determinants of explicit kernels, integration of the underlying Hamiltonian
ODE systems, and direct Monte Carlo over matrix products — plus the scalar
sigma-form/first-integral machinery that cross-validates them.
"""

__version__ = "0.1.0"

from .special_functions import (
    gamma_real,
    reciprocal_gamma,
    elementary_symmetric,
)
from .kernels import (
    HardEdgeParams,
    KernelBundle,
    MBParams,
    build_kernel_bundle,
    kernel_value,
    mb_params_for_hardedge,
)
from .fredholm import (
    QuadratureRule,
    make_rule,
    fredholm_det,
    GapPoint,
    GapCurve,
    gap_probability_mb,
    gap_probability_hardedge,
)
from .hamiltonian_flow import (
    HamiltonianState,
    Trajectory,
    launch_state,
    integrate,
    first_integral_residuals,
    structural_residuals,
    eta_derivatives,
    gap_from_eta0,
)
from .sigma_forms import (
    ResolventJet,
    radical_F,
    quartic_ode_residual,
    p3_sigma_residual,
    special_case_residuals,
    appendix_recover,
)
from .asymptotics import (
    IndicialReport,
    indicial_exponents,
    tail_model,
    TailFit,
    fit_tail,
    A1_PREDICTED,
)
from .ginibre_mc import McConfig, McResult, sample_min_singular_sq, empirical_gap

__all__ = [name for name in dir() if not name.startswith("_")]
