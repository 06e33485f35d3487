"""Adaptive 1D quadrature on finite intervals.

A vectorized adaptive panel Gauss-Legendre rule.  Callers pass the edges
of the starting panels in increasing order: the interval's ends and, in
between, the integrand's kinks, so a kink never sits inside a panel.  Each
panel's error estimate is the difference between the 10-point rule on the
whole panel and on its two halves; a panel whose estimate exceeds its share
of the tolerance is bisected.  Integrands take an array of abscissae and are
called once per refinement round with the nodes of every active panel.  An
integrand may return a stack of components; they share one refinement tree,
so integrals of the same profile cost one evaluation of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .trial import ConvergenceError, DomainError

__all__ = [
    "QuadratureEstimate",
    "integrate",
]

#: integrate's error tolerances and evaluation budget, read at each call
ABS_TOL = 1e-13
REL_TOL = 1e-11
BUDGET = 10**6

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_K = _GL_X.size
# 10-point rule on the unit panel [0, 1]: nodes of its left half, its right
# half, then of the whole panel, which is needed only for a panel's first round
_NODES = np.concatenate([(_GL_X + 1.0) / 4.0, (_GL_X + 3.0) / 4.0, (_GL_X + 1.0) / 2.0])
_WEIGHTS = np.concatenate([_GL_W / 4.0, _GL_W / 4.0, _GL_W / 2.0])


@dataclass(frozen=True)
class QuadratureEstimate:
    """Integral, error estimate and the tolerance the estimate is judged
    against: floats, or one entry per component of a stacked integrand."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    tolerance: float | np.ndarray
    evaluations: int
    converged: bool

    def require(self) -> float | np.ndarray:
        """Return the value, raising if the estimate did not converge."""
        if not self.converged:
            raise ConvergenceError(
                f"quadrature did not converge: value={self.value}, "
                f"error estimate={self.abs_error_estimate}, "
                f"evaluations={self.evaluations}"
            )
        return self.value


def integrate(f: Callable[[np.ndarray], np.ndarray], *edges: float) -> QuadratureEstimate:
    """Integrate ``f`` over the panels between consecutive ``edges``.

    ``edges`` are two or more strictly increasing abscissae, each gap finite:
    ``integrate(f, lo, hi)`` integrates over one interval, and interior
    edges split it into panels that are refined independently, so a kink
    placed on an edge never sits inside a panel.  ``f`` maps an array ``x``
    of abscissae to the array of integrand values, or to a stack of k
    components of shape ``(k,) + x.shape``.  All components share one
    refinement tree: a panel is bisected while any component's error
    estimate on it exceeds its share of ``ABS_TOL + REL_TOL * (integral of
    |f_k|)``.  ``value``, ``abs_error_estimate`` and ``tolerance``, that
    expression over the whole interval, are floats for a scalar integrand
    and arrays of k entries for a stack; ``evaluations`` counts abscissae,
    not component values.  The estimate has converged when refinement ended
    within ``BUDGET`` evaluations and every component's summed error
    estimate is within its tolerance.

    The integrand must be smooth on each panel.  The tolerance share of a
    panel halves with each bisection, so an integrable endpoint singularity
    such as 1/sqrt(x) on (0, 1), whose panel error falls only as the square
    root of its width, exhausts the budget and reports ``converged=False``.
    """
    # a finite gap needs finite edges, but finite edges 1e308 apart overflow
    if not (len(edges) >= 2 and all(0.0 < b - a < np.inf for a, b in zip(edges, edges[1:]))):
        raise DomainError(f"need 2+ strictly increasing edges, gaps finite: {list(edges)}")
    edges = np.array(edges, dtype=float)
    start, width = edges[:-1], np.diff(edges)
    share = np.full(start.size, 1.0 / start.size)
    nodes, weights = _NODES, _WEIGHTS
    whole = None

    value = err = l1_mass = 0.0
    evaluations = 0
    ok = True
    while True:
        # weighted integrand values, shaped (components, panels, nodes)
        x = start[:, None] + width[:, None] * nodes
        fx = f(x) * (width[:, None] * weights)
        stacked = fx.ndim > x.ndim
        fx = fx.reshape(-1, *x.shape)
        evaluations += x.size
        if whole is None:
            whole = fx[..., 2 * _K :].sum(axis=-1)
            nodes, weights = _NODES[: 2 * _K], _WEIGHTS[: 2 * _K]
        left = fx[..., :_K].sum(axis=-1)
        right = fx[..., _K : 2 * _K].sum(axis=-1)
        l1 = np.abs(fx[..., : 2 * _K]).sum(axis=-1)
        panel_err = np.abs(whole - (left + right))
        # a panel splits while any component misses its share; NaN splits too
        split = ~(panel_err <= share * ABS_TOL + REL_TOL * l1).all(axis=0)
        if evaluations + 4 * _K * np.count_nonzero(split) > BUDGET:
            ok = False
            split[:] = False
        keep = ~split
        value += (left + right)[:, keep].sum(axis=-1)
        err += panel_err[:, keep].sum(axis=-1)
        l1_mass += l1[:, keep].sum(axis=-1)
        if not split.any():
            break
        start, half = start[split], width[split] / 2.0
        start = np.concatenate([start, start + half])
        width = np.concatenate([half, half])
        share = np.tile(share[split] / 2.0, 2)
        whole = np.concatenate([left[:, split], right[:, split]], axis=-1)

    tol = ABS_TOL + REL_TOL * l1_mass
    converged = ok and bool(np.all(err <= tol))
    if not stacked:
        value, err, tol = float(value[0]), float(err[0]), float(tol[0])
    return QuadratureEstimate(
        value=value,
        abs_error_estimate=err,
        tolerance=tol,
        evaluations=evaluations,
        converged=converged,
    )
