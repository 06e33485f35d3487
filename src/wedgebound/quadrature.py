"""Adaptive 1D quadrature for exponentially decaying integrands.

A vectorized adaptive panel Gauss-Legendre rule.  Breakpoints split the
interval into panels, so callers list interior kink abscissae as
breakpoints and a kink never sits inside a panel.  An infinite end is
mapped onto [0, 1) by x = a + s/(1-s) (or x = b - s/(1-s)).  Each panel's
error estimate is the difference between the 10-point rule on the whole
panel and on its two halves; a panel whose estimate exceeds its share of
the tolerance is bisected.  Integrands take an array of abscissae and are
called once per refinement round with the nodes of every active panel.  An
integrand may return a stack of components; they share one refinement tree,
so integrals of the same profile cost one evaluation of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .trial import DomainError, WedgeConfig, _check_rho, log_profile_F

__all__ = [
    "ConvergenceError",
    "QuadratureEstimate",
    "integrate",
    "quad_J",
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


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its requested accuracy."""


@dataclass(frozen=True)
class QuadratureEstimate:
    """Integral and error estimate: floats, or one entry per component of a
    stacked integrand."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
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


def _rule_terms(f, u0, width, anchor, direction, unit_x, unit_w):
    """Weighted integrand values at the rule's nodes, shaped (components,
    panels, nodes), and whether the integrand returned a stack.

    A panel with direction 0 spans x in [u0, u0 + width]; direction +1 or -1
    maps s in [u0, u0 + width] within [0, 1) to x = anchor + direction*s/(1-s).
    """
    s = u0[:, None] + width[:, None] * unit_x
    mapped = (direction != 0.0)[:, None]
    q = np.where(mapped, 1.0 - s, 1.0)
    x = np.where(mapped, anchor[:, None] + direction[:, None] * s / q, s)
    fx = f(x) * np.where(mapped, 1.0 / (q * q), 1.0) * (width[:, None] * unit_w)
    return fx.reshape(-1, *x.shape), fx.ndim > x.ndim


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: Iterable[float] = (),
) -> QuadratureEstimate:
    """Integrate ``f`` over (lo, hi), either endpoint possibly infinite.

    ``f`` maps an array ``x`` of abscissae to the array of integrand values,
    or to a stack of k components of shape ``(k,) + x.shape``.  Breakpoints
    strictly inside the interval split it into panels that are refined
    independently, so kinks never sit inside a panel.  All components share
    one refinement tree: a panel is bisected while any component's error
    estimate on it exceeds its share of ``ABS_TOL + REL_TOL * (integral of
    |f_k|)``.  ``value`` and ``abs_error_estimate`` are floats for a scalar
    integrand and arrays of k entries for a stack; ``evaluations`` counts
    abscissae, not component values.  The estimate has converged when
    refinement ended within ``BUDGET`` evaluations and every component's
    summed error estimate is within its tolerance.

    The integrand must be smooth on each panel.  The tolerance share of a
    panel halves with each bisection, so an integrable endpoint singularity
    such as 1/sqrt(x) on (0, 1), whose panel error falls only as the square
    root of its width, exhausts the budget and reports ``converged=False``.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got lo={lo}, hi={hi}")

    pts = sorted(p for p in breakpoints if lo < p < hi)
    if not pts and math.isinf(lo) and math.isinf(hi):
        pts = [0.0]
    edges = [lo, *pts, hi]
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        if math.isinf(a):  # (-inf, b]: x = b - s/(1-s)
            panels.append((0.0, 1.0, b, -1.0))
        elif math.isinf(b):  # [a, inf): x = a + s/(1-s)
            panels.append((0.0, 1.0, a, 1.0))
        else:
            panels.append((a, b - a, 0.0, 0.0))
    u0, width, anchor, direction = np.array(panels).T
    share = np.full(len(u0), 1.0 / len(u0))
    nodes, weights = _NODES, _WEIGHTS
    whole = None

    value = err = l1_mass = 0.0
    evaluations = 0
    ok = True
    while True:
        fx, stacked = _rule_terms(f, u0, width, anchor, direction, nodes, weights)
        evaluations += u0.size * nodes.size
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
        u0, half = u0[split], width[split] / 2.0
        u0 = np.concatenate([u0, u0 + half])
        width = np.concatenate([half, half])
        anchor = np.tile(anchor[split], 2)
        direction = np.tile(direction[split], 2)
        share = np.tile(share[split] / 2.0, 2)
        whole = np.concatenate([left[:, split], right[:, split]], axis=-1)

    converged = ok and bool(np.all(err <= ABS_TOL + REL_TOL * l1_mass))
    if not stacked:
        value, err = float(value[0]), float(err[0])
    return QuadratureEstimate(
        value=value,
        abs_error_estimate=err,
        evaluations=evaluations,
        converged=converged,
    )


def quad_J(cfg: WedgeConfig, rho: float) -> QuadratureEstimate:
    """Numeric value of the weighted profile integral over the whole line.

    Cross-checks the closed form (2^(2*rho)-1) / (rho*(2*rho+1)*tan(theta)*alpha^(2*rho)).
    """
    _check_rho(cfg, rho)
    tan_t = cfg.tan_theta
    alpha = cfg.alpha
    power = 2.0 * rho - 1.0

    def integrand(x: np.ndarray) -> np.ndarray:
        t = x * tan_t
        return np.exp(power * log_profile_F(t, alpha) - 2.0 * alpha * np.abs(t))

    # pin the integrand's features: geometric multiples of the natural decay
    # length keep every panel's mass near its edges, and for rho > 3/2 the
    # integrand peaks away from the kink (slow saturation of F**(2*rho-1)
    # balancing the exponential decay), so the peak gets a breakpoint too
    scale = 1.0 / (alpha * tan_t)
    breakpoints = [0.0]
    breakpoints.extend(s * scale for s in (-4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0, 16.0))
    if rho > 1.5:
        x_peak = math.log((2.0 * rho + 1.0) / 4.0) / (alpha * tan_t)
        breakpoints.extend((0.5 * x_peak, x_peak, 2.0 * x_peak, 4.0 * x_peak))

    return integrate(integrand, -math.inf, math.inf, breakpoints=breakpoints)
