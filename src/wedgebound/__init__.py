"""Variational eigenvalue bounds for the broken-line delta-interaction
Schrodinger operator, with an independent finite-difference cross-check."""

from .trial import (
    BoundReport,
    DomainError,
    TrialParams,
    WedgeConfig,
    bound_constants,
    closed_J,
    closed_R,
    g_rho,
    lambda_upper,
    profile_F,
)
from .quadrature import ConvergenceError, QuadratureEstimate, integrate
from .variational import RayleighReport, optimize_bound, quad_J, rayleigh, verify_thm1
from .spectral import (
    GridSpec,
    SpectralResult,
    assemble,
    delta_well_1d,
    lowest_eigenvalue,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConvergenceError",
    "DomainError",
    "GridSpec",
    "QuadratureEstimate",
    "RayleighReport",
    "SpectralResult",
    "TrialParams",
    "WedgeConfig",
    "assemble",
    "bound_constants",
    "closed_J",
    "closed_R",
    "delta_well_1d",
    "g_rho",
    "integrate",
    "lambda_upper",
    "lowest_eigenvalue",
    "optimize_bound",
    "profile_F",
    "quad_J",
    "rayleigh",
    "solve",
    "verify_thm1",
]
