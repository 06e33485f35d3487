"""Boundary-integral (Birman-Schwinger) ground state of the wedge
delta-interaction, an independent reference for the finite-difference solver.

-kappa^2 < -alpha^2/4 is an eigenvalue of the operator exactly when alpha*K
has the eigenvalue 1, with K the single-layer operator of (2 pi)^-1
K_0(kappa |x - y|) on the two rays (Brasche, Exner, Kuperin and Seba,
J. Math. Anal. Appl. 184 (1994); Exner and Ichinose, J. Phys. A 34 (2001)).
The ground state is even under the reflection across the bisector, and on
the even subspace K acts on one ray as

    (K phi)(s) = (2 pi)^-1 int_0^inf [K_0(kappa |s - t|) + K_0(kappa d)] phi(t) dt,

with d = sqrt((s - t)^2 + 4 s t sin^2 theta) the distance from s on one ray
to t on the other, written so that it does not cancel at small theta.  The
kernel is positive, so K's largest eigenvalue is its spectral radius r(kappa),
which falls as kappa grows, and the ground state is the root of
alpha r(kappa) = 1 in (alpha/2, alpha], since lambda_0 >= -alpha^2.  A
dilation gives lambda_0(theta, alpha) = alpha^2 lambda_0(theta, 1) exactly, so
the solver works at alpha = 1 and scales the result.

The ray is cut at a length S and discretized by a Nystrom rule on panels of
``NODES`` Gauss-Legendre nodes: graded geometrically toward the corner down
to ``CORNER``, 0.5 wide up to s = 4, then each 1.25 times as wide as the
last, up to ``MAX_WIDTH``, which keeps the near rule valid on long rays.  A
target's own panel and its two neighbours take a product rule for both
kernel terms, since K_0 has a log singularity on the diagonal and, at small
theta, K_0(kappa d) a peak within 2 s theta of it: the own panel is split at
the target and each neighbour clustered at its end next to the target, by
t = end +- length u^6 with ``NEAR_NODES``-point Gauss-Legendre in u, and the
density there is interpolated from the panel's nodes by barycentric
Lagrange weights.  The distance there is taken as length u^6 (plus the gap
to the panel), never as s - t, which rounds to 0 next to the target.  No
rule depends on kappa, so each kappa costs one dense kernel evaluation and
one Arnoldi solve for r.

The density decays like exp(-beta s), with beta = sqrt(mu) and mu =
-alpha^2/4 - lambda_0 the binding energy, so S must cover many decay
lengths: S = 60 below theta = 0.2 and S = 300 above, and where that leaves
2 beta S < 37 the root is found again at S = 20/beta.  The result is the
root at 2S, which must lie within ``MU_RTOL`` of the root at S in mu, or
ConvergenceError.  Near theta = pi/2 the ray grows as 1/beta, and the
capped panels with it, so ``ground_state`` covers the angles on which it is
checked against the reference table in ROADMAP.md, ``MIN_THETA`` to
``MAX_THETA``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.sparse.linalg import ArpackError, eigs
from scipy.special import k0

from .trial import ConvergenceError, DomainError, WedgeConfig, _alpha_squared

__all__ = ["BoundaryResult", "ground_state"]

#: the angles ground_state accepts
MIN_THETA = 0.005
MAX_THETA = 1.3
#: Gauss-Legendre nodes per panel and per near-field segment, the width of
#: the panel at the corner, and the cap on the growing panels' widths
NODES = 16
NEAR_NODES = 24
CORNER = 2.0**-14
MAX_WIDTH = 64.0
#: the Arnoldi tolerance on r(kappa): 1e-14 matches the default (machine
#: precision) to about 1e-15 at 2.5 times the speed on long rays
EIG_TOL = 1e-14
#: the decay lengths 2 beta S the ray must cover, exp(-37) ~ 1e-16; a
#: shorter ray is lengthened to S = 20/beta
MIN_DECAY = 37.0
#: how far the binding energy may move, relative to itself, when S doubles
MU_RTOL = 1e-9


@dataclass(frozen=True)
class BoundaryResult:
    """The ground eigenvalue and binding energy mu = -alpha^2/4 - eigenvalue,
    the ray length S they were found on, and the relative change of mu from
    the root at S/2."""

    eigenvalue: float
    binding_energy: float
    ray_length: float
    doubling_change: float


def _panel_edges(S: float) -> np.ndarray:
    """Edges of the panels covering (0, S)."""
    edges = [0.0, *(2.0 ** np.arange(math.log2(CORNER), 0.0)), *np.arange(1.0, 4.5, 0.5)]
    width = 0.5
    while edges[-1] < S:
        width = min(1.25 * width, MAX_WIDTH)
        edges.append(edges[-1] + width)
    edges[-1] = S
    return np.array(edges)


class _Rule:
    """The Nystrom rule for K on (0, S) at one theta, on the nodes s;
    ``radius(kappa)`` is r(kappa)."""

    def __init__(self, theta: float, S: float):
        x, wx = np.polynomial.legendre.leggauss(NODES)
        u, wu = np.polynomial.legendre.leggauss(NEAR_NODES)
        u = (u + 1.0) / 2.0  # on (0, 1), where t - start = length u^6
        u6, jac = u**6, 3.0 * u**5 * wu
        bary = 1.0 / np.prod(x[:, None] - x + np.eye(NODES), axis=1)
        edges = _panel_edges(S)
        half = np.diff(edges) / 2.0
        panels = half.size
        panel = np.repeat(np.arange(panels), NODES)
        xi = np.tile(x, panels)  # each node in its panel's coordinates
        s = edges[panel] + half[panel] * (1.0 + xi)
        self.s, self.v0 = s, np.ones(s.size)
        self.weights = half[panel] * np.tile(wx, panels)
        sin2 = 4.0 * math.sin(theta) ** 2

        # the far field: node pairs i < j with a panel between them
        self.far = np.nonzero(np.subtract.outer(panel, panel) < -1)
        self.far_dist = s[self.far[1]] - s[self.far[0]]
        self.far_cross = sin2 * s[self.far[0]] * s[self.far[1]]

        # the near field: four segments per target, each NEAR_NODES points
        # t = start + sign * length * u^6 clustered at its start: the own
        # panel from the target to its left and to its right end, and the
        # left and the right neighbour from their ends next to the target.
        # Each also holds the panel it interpolates from (owner), its start's
        # distance from the target (gap) and its start in the owner's
        # coordinates (ref); the first and the last panel lack a neighbour,
        # whose segment has length 0 on the own panel
        left, right = np.maximum(panel - 1, 0), np.minimum(panel + 1, panels - 1)
        zero = np.zeros_like(s)
        segments = [  # (owner, sign, start, length, gap, ref)
            (panel, -1.0, s, half[panel] * (1.0 + xi), zero, xi),
            (panel, 1.0, s, half[panel] * (1.0 - xi), zero, xi),
            (left, -1.0, edges[panel], 2.0 * half[left] * (panel > 0), s - edges[panel], 1.0),
            (right, 1.0, edges[panel + 1], 2.0 * half[right] * (panel < panels - 1),
             edges[panel + 1] - s, -1.0),
        ]
        dist, cross, weight, self.cols = [], [], [], []
        for owner, sign, start, length, gap, ref in segments:
            step = np.outer(length, u6)
            dist.append(gap[:, None] + step)
            cross.append(sin2 * s[:, None] * (start[:, None] + sign * step))
            # each point minus each node of its panel, in that panel's coordinates
            diff = (np.subtract.outer(ref, x)[..., None, :]
                    + sign * (step / half[owner][:, None])[..., None])
            lagrange = bary / diff
            lagrange /= lagrange.sum(axis=-1, keepdims=True)
            weight.append(np.outer(length, jac)[..., None] * lagrange)
            self.cols.append(owner[:, None] * NODES + np.arange(NODES))
        self.near_dist, self.near_cross = np.stack(dist, 1), np.stack(cross, 1)
        self.near_weight = np.stack(weight, 1)  # (target, segment, point, node)

    def matrix(self, kappa: float) -> np.ndarray:
        """The Nystrom matrix of K at kappa."""
        A = np.zeros((self.s.size, self.s.size))
        d = self.far_dist
        kernel = k0(kappa * d) + k0(kappa * np.sqrt(d * d + self.far_cross))
        A[self.far] = kernel
        A[self.far[::-1]] = kernel
        A *= self.weights
        d = self.near_dist
        near = k0(kappa * d) + k0(kappa * np.sqrt(d * d + self.near_cross))
        rows = np.arange(self.s.size)[:, None]
        for cols, block in zip(self.cols, np.einsum("nsq,nsqj->snj", near, self.near_weight)):
            A[rows, cols] += block
        A /= 2.0 * math.pi
        return A

    def radius(self, kappa: float) -> float:
        """r(kappa), by an Arnoldi solve started from the last one's vector."""
        try:
            vals, vecs = eigs(self.matrix(kappa), k=1, which="LR", v0=self.v0, tol=EIG_TOL)
        except ArpackError as exc:
            raise ConvergenceError(f"Arnoldi failed for r(kappa) at kappa = {kappa!r}: {exc}") from exc
        self.v0 = np.abs(vecs[:, 0].real)
        return float(vals[0].real)


def _root(theta: float, S: float, lo: float, hi: float) -> float:
    """The root of r(kappa) = 1 in (lo, hi) at alpha = 1 on the ray (0, S);
    ConvergenceError when r - 1 has no sign change there."""
    rule = _Rule(theta, S)
    try:
        return brentq(lambda k: rule.radius(k) - 1.0, lo, hi, xtol=1e-15)
    except ValueError as exc:
        raise ConvergenceError(
            f"no root of r(kappa) = 1 in ({lo!r}, {hi!r}) on the ray to S = {S}"
        ) from exc


def ground_state(cfg: WedgeConfig) -> BoundaryResult:
    """The ground eigenvalue by the Birman-Schwinger boundary integral.

    Takes ``MIN_THETA`` <= theta <= ``MAX_THETA`` and any alpha whose
    square, and the binding energy scaled by it, are normal floats;
    DomainError otherwise, since a result scaled below the normal range has
    lost its digits.  The root at S (at S = 20/beta where S = 60 or 300
    leaves 2 beta S < 37) is checked by the root at 2S, sought only in the
    band of kappa where mu moves by at most ``MU_RTOL`` of itself:
    ConvergenceError when it lies outside.
    """
    theta = cfg.theta
    if not MIN_THETA <= theta <= MAX_THETA:
        raise DomainError(
            f"the boundary integral covers {MIN_THETA} <= theta <= {MAX_THETA}, got {theta}"
        )
    scale = _alpha_squared(cfg)
    S = 60.0 if theta < 0.2 else 300.0
    kappa = _root(theta, S, 0.5, 1.0)
    beta = math.sqrt((kappa - 0.5) * (kappa + 0.5))
    if 2.0 * beta * S < MIN_DECAY:
        S = 20.0 / beta
        kappa = _root(theta, S, 0.5, 1.0)
    mu = (kappa - 0.5) * (kappa + 0.5)
    band = (math.sqrt(0.25 + mu * (1.0 - MU_RTOL)), math.sqrt(0.25 + mu * (1.0 + MU_RTOL)))
    try:
        kappa = _root(theta, 2.0 * S, *band)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"the binding energy {mu!r} moves by more than {MU_RTOL} of itself "
            f"when the ray doubles to S = {2.0 * S}"
        ) from exc
    mu2 = (kappa - 0.5) * (kappa + 0.5)
    if not scale * mu2 >= sys.float_info.min:
        raise DomainError(f"the binding energy {scale * mu2!r} underflows a normal float")
    return BoundaryResult(-scale * kappa * kappa, scale * mu2, 2.0 * S, abs(mu2 - mu) / mu)
