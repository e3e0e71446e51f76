"""Ruin probabilities for the discrete-time surplus process with unit premiums.

Exact values come from the ladder-form recursion (`psi_recursion`) or, for
negative binomial mixture claims, from the coefficient series (`psi_nbm`).
Mixed Poisson claims get two grid approximations (`psi_mp_method1`,
`psi_mp_method2`) plus an exact reference, and `simulate_paths` provides an
independent Monte Carlo oracle for everything.
"""

from .distributions import (
    DiscretePmf,
    MixingDistribution,
    NbmSpec,
    QuadratureError,
    geometric_pmf,
    mp_claims_pmf,
    nbm_claims_pmf,
)
from .mixed_poisson import (
    MpApproxConfig,
    mp_coefficients,
    psi_mp_exact_reference,
    psi_mp_method1,
    psi_mp_method2,
)
from .nbm import (
    CoefficientSeq,
    NStarSeq,
    cbar_sequence,
    compound_geo_zero_mass,
    nstar_sequence,
    psi_nbm,
)
from .pollaczek import psi_pk
from .recursion import (
    convert_cb_to_gd,
    psi_geometric_closed,
    psi_recursion,
)
from .simulate import (
    GofReport,
    PathStats,
    SimConfig,
    SimResult,
    check_record_count_law,
    check_severity_law,
    simulate_paths,
    simulate_single,
)

__version__ = "0.1.0"

__all__ = [
    "DiscretePmf",
    "NbmSpec",
    "MixingDistribution",
    "QuadratureError",
    "geometric_pmf",
    "nbm_claims_pmf",
    "mp_claims_pmf",
    "psi_recursion",
    "psi_geometric_closed",
    "convert_cb_to_gd",
    "psi_pk",
    "CoefficientSeq",
    "NStarSeq",
    "cbar_sequence",
    "nstar_sequence",
    "psi_nbm",
    "compound_geo_zero_mass",
    "MpApproxConfig",
    "mp_coefficients",
    "psi_mp_method1",
    "psi_mp_method2",
    "psi_mp_exact_reference",
    "SimConfig",
    "SimResult",
    "PathStats",
    "GofReport",
    "simulate_paths",
    "simulate_single",
    "check_record_count_law",
    "check_severity_law",
    "__version__",
]
