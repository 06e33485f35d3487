"""Variational eigenvalue bounds for the broken-line delta-interaction
Schrodinger operator, with an independent finite-difference cross-check.

Every public name loads its defining module on first access, so
``import wedgebound`` loads no submodule, and only the finite-difference
names (``GridSpec``, ``SpectralResult``, ``solve``) load ``spectral``, and
with it SciPy; the boundary-integral reference (``BoundaryResult``,
``ground_state``) loads ``boundary``.
"""

import importlib

__version__ = "0.1.0"

# each module's public names, exported here and loaded on first access
_NAMES = {
    "trial": ("BoundReport", "ConvergenceError", "DomainError", "TrialParams", "WedgeConfig",
              "bound_constants", "closed_J", "closed_R", "lambda_upper"),
    "quadrature": ("QuadratureEstimate", "integrate"),
    "variational": ("RayleighReport", "optimize_bound", "quad_J", "rayleigh", "verify_thm1"),
    "spectral": ("GridSpec", "SpectralResult", "solve"),
    "boundary": ("BoundaryResult", "ground_state"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
