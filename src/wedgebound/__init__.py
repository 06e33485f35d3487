"""Variational eigenvalue bounds for the broken-line delta-interaction
Schrodinger operator, with an independent finite-difference cross-check.

The finite-difference names (``GridSpec``, ``SpectralResult``, ``assemble``,
``lowest_eigenvalue``, ``solve``) load ``spectral``, and with it SciPy, on
first access; the bound and the Rayleigh quotients need neither.
"""

from .trial import (
    BoundReport,
    DomainError,
    TrialParams,
    WedgeConfig,
    bound_constants,
    closed_J,
    closed_R,
    lambda_upper,
)
from .quadrature import ConvergenceError, QuadratureEstimate, integrate
from .variational import RayleighReport, optimize_bound, quad_J, rayleigh, verify_thm1

_SPECTRAL_NAMES = (
    "GridSpec",
    "SpectralResult",
    "assemble",
    "lowest_eigenvalue",
    "solve",
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
    "integrate",
    "lambda_upper",
    "lowest_eigenvalue",
    "optimize_bound",
    "quad_J",
    "rayleigh",
    "solve",
    "verify_thm1",
]


def __getattr__(name: str):
    if name in _SPECTRAL_NAMES:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SPECTRAL_NAMES))
