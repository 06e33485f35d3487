"""Rayleigh quotients of the cut-off trial family and parameter search.

The trial function separates as exp(-alpha*|x1|/2) * h(x2) with
h = g_rho * chi(./n), so every quantity reduces to a 1D integral in x2.
The Rayleigh quotient is the ratio of two such integrals of the same
profile, the energy functional R and the squared norm N; rayleigh()
integrates them as the two components of one stacked integrand, so the
profile is evaluated once per abscissa and both share one refinement tree.
Derivatives of h are taken analytically piecewise; numerical
differentiation would dominate the error budget of the energy functional.
The integrands are numpy functions of an array of abscissae, and powers of
the profile F are formed from log F, which stays finite deep in its tail.
Every integral of the trial family lives here, quad_J's check of the closed
form J included.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import ConvergenceError, QuadratureEstimate, integrate
from .trial import DomainError, TrialParams, WedgeConfig, bound_constants, log_profile_F
from .trial import _check_rho, _pow

__all__ = [
    "RayleighReport",
    "rayleigh",
    "quad_J",
    "verify_thm1",
    "optimize_bound",
    "golden_section",
]

#: Beyond this multiple of the natural length scale the quotient is within
#: 1e-6 * alpha^2 of its large-n limit and optimization stalls by design.
N_MAX_SCALE = 1e4
#: verify_thm1 gives up after this many doublings of the cutoff scale.
MAX_DOUBLINGS = 60
#: optimize_bound's cap on coordinate-descent sweeps, and its relative
#: tolerance for both golden_section's line searches and the per-sweep gain.
MAX_SWEEPS = 30
OPT_REL_TOL = 1e-6
#: golden_section's iteration cap.
GOLDEN_MAX_ITER = 200


@dataclass(frozen=True)
class RayleighReport:
    """Energy functional, squared norm and the resulting Rayleigh quotient."""

    r_value: float
    norm_sq: float
    quotient: float
    margin: float


def _trial_profile(cfg: WedgeConfig, params: TrialParams, x: np.ndarray):
    """h, h', F and F' at the abscissae x, with F and F' taken at x*tan(theta).

    h = g_rho * chi(x/n) with the tent cutoff chi(s) = clip(2 - |s|, 0, 1).
    """
    alpha, tan_t, rho, n = cfg.alpha, cfg.tan_theta, params.rho, params.n
    t = x * tan_t
    log_decay = -alpha * np.abs(t)  # log F'
    log_f = log_profile_F(t, alpha)
    g = np.exp(rho * log_f)
    # F**(rho-1) * F' in log space: either factor alone can over/underflow
    g_slope = rho * tan_t * np.exp((rho - 1.0) * log_f + log_decay)
    s = np.abs(x) / n
    chi = np.clip(2.0 - s, 0.0, 1.0)
    chi_slope = np.where((s > 1.0) & (s < 2.0), -np.sign(x), 0.0)
    return g * chi, g_slope * chi + g * chi_slope / n, np.exp(log_f), np.exp(log_decay)


def _cut_breakpoints(cfg: WedgeConfig, n: float) -> tuple[float, ...]:
    """Kinks of the integrands plus geometric multiples of the decay length.

    For cutoff scales n far beyond the natural length 1/(alpha*tan(theta))
    the derivative terms concentrate in a vanishing fraction of the (0, n)
    panel; without interior breakpoints the adaptive rule can sample right
    past the core and silently report (nearly) zero.
    """
    scale = 1.0 / (cfg.alpha * cfg.tan_theta)
    pts = {-n, 0.0, n}
    k = scale
    while k < 64.0 * scale:
        pts.update((-k, k))
        k *= 2.0
    return tuple(sorted(p for p in pts if -2.0 * n < p < 2.0 * n))


def _overflow(kind: str, flag: int) -> None:
    """numpy error callback: raise at once, rather than integrate inf."""
    raise DomainError("the integrand overflows a float")


@np.errstate(over="call", call=_overflow)
def rayleigh(cfg: WedgeConfig, params: TrialParams) -> RayleighReport:
    """Rayleigh quotient report; quotient = -alpha^2/4 + R/norm^2 by identity.

    R and norm^2 come from one quadrature of the stacked integrand.  R
    converges to closed_R(cfg, rho) as n grows, with O(1/n) error from the
    cutoff wings, and is reported without sign judgment.  An integrand or
    squared norm out of normal float range, as at extreme alpha, is invalid.
    """
    params.check(cfg)
    cot_t = 1.0 / cfg.tan_theta

    def integrand(x: np.ndarray) -> np.ndarray:
        h, hp, f, fp = _trial_profile(cfg, params, x)
        return np.stack([hp * (hp * f - h * fp * cot_t), h * h * f])

    est = integrate(
        integrand,
        -2.0 * params.n,
        2.0 * params.n,
        breakpoints=_cut_breakpoints(cfg, params.n),
    )
    r, ns = est.require().tolist()
    if not ns >= sys.float_info.min:  # a subnormal norm has lost digits
        raise DomainError(f"the squared norm {ns} underflows a normal float")
    ratio = r / ns
    return RayleighReport(
        r_value=r,
        norm_sq=ns,
        quotient=-_pow(cfg.alpha, 2) / 4.0 + ratio,
        margin=-ratio,
    )


@np.errstate(over="call", call=_overflow)
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

    # cut the line where each tail drops below exp(-40) = 4.2e-18 of J: the
    # tail left of lo is exactly rho/(2^(2rho)-1) * exp(-40) <= exp(-40)/(2 ln 2)
    # of J, and as F lies in [1/alpha, 2/alpha) for x > 0, the tail right of
    # hi is at most (1 + rho*(2rho+1)) * exp(-2*hi/scale) = exp(-40) of J;
    # together less than 1e-17 * J for every admissible rho
    lo = -40.0 / (2.0 * rho + 1.0) * scale
    hi = (20.0 + 0.5 * math.log1p(rho * (2.0 * rho + 1.0))) * scale
    return integrate(integrand, lo, hi, breakpoints=breakpoints)


def verify_thm1(cfg: WedgeConfig, rho: float) -> tuple[float, RayleighReport]:
    """Search a doubling sequence of cutoff scales until the energy is negative.

    Starts at the natural transition length 1/(alpha*tan(theta)); guaranteed
    to succeed for admissible rho, so exhaustion indicates a bug.
    """
    _check_rho(cfg, rho)
    n = 1.0 / (cfg.alpha * cfg.tan_theta)
    for _ in range(MAX_DOUBLINGS + 1):
        report = rayleigh(cfg, TrialParams(rho=rho, n=n))
        if report.r_value < 0.0:
            return n, report
        n *= 2.0
    raise RuntimeError(
        f"no negative energy found up to n={n}; this should be impossible"
    )


def golden_section(
    f: Callable[[float], float],
    a: float,
    b: float,
) -> tuple[float, float]:
    """Minimize a unimodal function on [a, b]; returns (x_min, f(x_min)).

    Stops at a bracket of ``OPT_REL_TOL`` * (|a| + |b|), read at each call.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if abs(b - a) <= OPT_REL_TOL * (abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def optimize_bound(cfg: WedgeConfig) -> tuple[TrialParams, RayleighReport]:
    """Improve the Rayleigh quotient over (rho, n) by coordinate descent.

    Deterministic golden-section line searches, initialized at the
    closed-form default (rho = cos^2 theta, n = 2b/a); the result is never
    worse than the starting point.
    """
    report = bound_constants(cfg)
    cot_sq = cfg.cot_sq_theta
    rho = math.cos(cfg.theta) ** 2
    n = report.n_opt
    n_lo = max(report.n_opt / 100.0, 1.0 / (cfg.alpha * cfg.tan_theta) / 100.0)
    n_hi = N_MAX_SCALE / (cfg.alpha * cfg.tan_theta)
    rho_lo = 1e-6 * cot_sq
    rho_hi = (1.0 - 1e-6) * cot_sq

    def quotient(r: float, m: float) -> float:
        try:
            return rayleigh(cfg, TrialParams(rho=r, n=m)).quotient
        except DomainError as exc:  # the search left float range, not the input
            raise ConvergenceError(f"the search probed rho={r}, n={m}: {exc}") from None

    best_q = quotient(rho, n)
    best = (rho, n)
    for _ in range(MAX_SWEEPS):
        prev_q = best_q
        rho, q = golden_section(lambda r: quotient(r, best[1]), rho_lo, rho_hi)
        if q < best_q:
            best_q, best = q, (rho, best[1])
        # search over log(n): the optimum scale spans orders of magnitude
        s, q = golden_section(
            lambda t: quotient(best[0], math.exp(t)),
            math.log(n_lo),
            math.log(n_hi),
        )
        if q < best_q:
            best_q, best = q, (best[0], math.exp(s))
        gain = prev_q - best_q
        if gain <= OPT_REL_TOL * abs(best_q):
            break

    best_params = TrialParams(rho=best[0], n=best[1])
    return best_params, rayleigh(cfg, best_params)
