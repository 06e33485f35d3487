"""Rayleigh quotients of the cut-off trial family and parameter search.

The trial function separates as exp(-alpha*|x1|/2) * h(x2) with
h = F(x2*tan(theta))**rho * chi(x2/n), so every quantity reduces to a 1D
integral in x2.
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

from .quadrature import QuadratureEstimate, integrate
from .trial import ConvergenceError, DomainError, TrialParams, WedgeConfig, bound_constants
from .trial import _check_rho, _pow

__all__ = [
    "RayleighReport",
    "log_profile_F",
    "rayleigh",
    "quad_J",
    "verify_thm1",
    "optimize_bound",
]

#: Beyond this multiple of the natural length scale the quotient is within
#: 1e-6 * alpha^2 of its large-n limit and optimization stalls by design.
N_MAX_SCALE = 1e4
#: verify_thm1 gives up after this many doublings of the cutoff scale.
MAX_DOUBLINGS = 60
#: optimize_bound's cap on coordinate-descent sweeps, and its relative
#: tolerance for both the per-sweep gain and _brent's line searches, where
#: it is taken relative to the initial bracket.
MAX_SWEEPS = 30
OPT_REL_TOL = 1e-6
#: _brent's cap on steps, one function evaluation each, per line search.
LINE_SEARCH_MAX_ITER = 200


@dataclass(frozen=True)
class RayleighReport:
    """Energy functional, squared norm and the resulting Rayleigh quotient,
    with the quadrature tolerance that ``r_value`` converged within."""

    r_value: float
    norm_sq: float
    quotient: float
    margin: float
    r_tolerance: float


def log_profile_F(t: np.ndarray, alpha: float) -> np.ndarray:
    """Natural log of the profile F(t), the integral of exp(-alpha*|s|)
    over s < t, elementwise on an array.

    F(0) = 1/alpha, and F increases from 0 to 2/alpha.  The log is finite
    for every finite ``t``, so powers of F formed as exp(p*log F)
    cannot underflow to 0 and turn 0**(negative) into inf or NaN.
    """
    at = np.abs(t)
    return np.where(t < 0.0, -alpha * at, np.log(2.0 - np.exp(-alpha * at))) - math.log(alpha)


def _trial_profile(cfg: WedgeConfig, params: TrialParams, x: np.ndarray):
    """h, h', F and F' at the abscissae x, with F and F' taken at x*tan(theta).

    h = F(x*tan(theta))**rho * chi(x/n) with the tent cutoff
    chi(s) = clip(2 - |s|, 0, 1).
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


def _panel_edges(cfg: WedgeConfig, n: float) -> tuple[float, ...]:
    """Edges of the panels of every integral on the trial support (-2n, 2n):
    its ends, the kinks 0 and +-n, and doublings of the decay length.

    For cutoff scales n far beyond the natural length 1/(alpha*tan(theta))
    the derivative terms concentrate in a vanishing fraction of the (0, n)
    panel; without the interior edges the adaptive rule can sample right
    past the core and silently report (nearly) zero.
    """
    scale = 1.0 / (cfg.alpha * cfg.tan_theta)
    pts = {-n, 0.0, n}
    k = scale
    while k < 64.0 * scale:
        pts.update((-k, k))
        k *= 2.0
    lo, hi = -2.0 * n, 2.0 * n
    return (lo, *sorted(p for p in pts if lo < p < hi), hi)


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
    A quotient below -alpha^2, a lower bound of the operator's spectrum, is
    a numerical failure.
    """
    _check_rho(cfg, params.rho)
    cot_t = 1.0 / cfg.tan_theta

    def integrand(x: np.ndarray) -> np.ndarray:
        h, hp, f, fp = _trial_profile(cfg, params, x)
        return np.stack([hp * (hp * f - h * fp * cot_t), h * h * f])

    est = integrate(integrand, *_panel_edges(cfg, params.n))
    r, ns = est.require().tolist()
    if not ns >= sys.float_info.min:  # a subnormal norm has lost digits
        raise DomainError(f"the squared norm {ns} underflows a normal float")
    ratio = r / ns
    alpha_sq = _pow(cfg.alpha, 2)
    quotient = -alpha_sq / 4.0 + ratio
    # the rays lie in lines l1, l2, and -Delta - alpha*delta_rays >=
    # sum_k (-Delta - 2*alpha*delta_lk)/2 >= 2*(-alpha^2/2)
    if quotient < -alpha_sq:
        raise ConvergenceError(f"Rayleigh quotient {quotient} is below -alpha^2 = {-alpha_sq}")
    return RayleighReport(
        r_value=r,
        norm_sq=ns,
        quotient=quotient,
        margin=-ratio,
        r_tolerance=float(est.tolerance[0]),
    )


@np.errstate(over="call", call=_overflow)
def quad_J(cfg: WedgeConfig, rho: float) -> QuadratureEstimate:
    """Numeric value of the weighted profile integral over the whole line.

    Cross-checks the closed form (2^(2*rho)-1) / (rho*(2*rho+1)*tan(theta)*alpha^(2*rho)).
    Integrates on a Rayleigh quotient's panels with n = 32/(alpha*tan(theta)):
    beyond 2n each tail is below (1 + rho*(2*rho+1))*exp(-64) of J.
    """
    _check_rho(cfg, rho)
    tan_t = cfg.tan_theta
    alpha = cfg.alpha
    power = 2.0 * rho - 1.0

    def integrand(x: np.ndarray) -> np.ndarray:
        t = x * tan_t
        return np.exp(power * log_profile_F(t, alpha) - 2.0 * alpha * np.abs(t))

    n = 32.0 / (alpha * tan_t)
    return integrate(integrand, *_panel_edges(cfg, n))


def verify_thm1(cfg: WedgeConfig, rho: float) -> tuple[float, RayleighReport]:
    """Search a doubling sequence of cutoff scales until the energy is negative.

    Starts at the natural transition length 1/(alpha*tan(theta)).  An energy
    counts as negative only below minus its quadrature tolerance, so its
    sign is certified.  The energy is closed_R + O(1/n), and for small rho
    or theta near pi/2 closed_R is so close to 0 that n would have to pass
    ``MAX_DOUBLINGS`` doublings; the search then raises ConvergenceError.
    """
    _check_rho(cfg, rho)  # before TrialParams, whose message names the derived n
    n = 1.0 / (cfg.alpha * cfg.tan_theta)
    for _ in range(MAX_DOUBLINGS + 1):
        report = rayleigh(cfg, TrialParams(rho=rho, n=n))
        if report.r_value < -report.r_tolerance:
            return n, report
        n *= 2.0
    raise ConvergenceError(f"no negative energy found up to n={n}")


def _brent(
    f: Callable[[float], float],
    a: float,
    b: float,
) -> tuple[float, float]:
    """Minimize a unimodal function between a and b, in either order;
    returns (x_min, f(x_min)).

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5): x is the best point so far, and each step
    goes to the vertex of the parabola through x and the two next best
    points, or, when that vertex leaves the bracket or the step would not
    halve the one before last, golden-section into the larger side of x.
    Stops once both ends of the bracket lie within tol = ``OPT_REL_TOL`` *
    (|a| + |b|) of x, with tol read once from the initial bracket, so a
    minimizer at 0 stops as soon as any other; no step is shorter than tol/2.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = min(a, b), max(a, b)
    tol = OPT_REL_TOL * (abs(a) + abs(b))
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    step = prev = 0.0  # the last step and the one before it
    for _ in range(LINE_SEARCH_MAX_ITER):
        mid = (a + b) / 2.0
        if max(x - a, b - x) <= tol:
            break
        # the parabola's vertex is at x + p/q
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        inside = q * (a - x) < p < q * (b - x)
        if inside and abs(prev) > tol / 2.0 and abs(p) < q * abs(prev) / 2.0:
            prev, step = step, p / q
            if min(x + step - a, b - x - step) < tol:
                step = math.copysign(tol / 2.0, mid - x)
        else:
            prev = (a if x >= mid else b) - x
            step = golden * prev
        u = x + (step if abs(step) >= tol / 2.0 else math.copysign(tol / 2.0, step))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def optimize_bound(cfg: WedgeConfig) -> tuple[TrialParams, RayleighReport]:
    """Improve the Rayleigh quotient over (rho, n) by coordinate descent.

    Each sweep runs a deterministic Brent line search over rho, then one
    over log n, starting at the closed-form default (rho = cos^2 theta,
    n = 2b/a); sweeps stop once one gains no more than ``OPT_REL_TOL`` of
    the quotient.  The result is never worse than the starting point, and
    its report is the one computed when the search probed it.
    """
    report = bound_constants(cfg)
    cot_sq = cfg.cot_sq_theta
    rho = math.cos(cfg.theta) ** 2
    n = report.n_opt
    n_lo = report.n_opt / 100.0
    n_hi = N_MAX_SCALE / (cfg.alpha * cfg.tan_theta)
    rho_lo = 1e-6 * cot_sq
    rho_hi = (1.0 - 1e-6) * cot_sq

    reports: dict[tuple[float, float], RayleighReport] = {}

    def quotient(r: float, m: float) -> float:
        try:
            reports[r, m] = rayleigh(cfg, TrialParams(rho=r, n=m))
        except DomainError as exc:  # the search left float range, not the input
            raise ConvergenceError(f"the search probed rho={r}, n={m}: {exc}") from None
        return reports[r, m].quotient

    best_q = quotient(rho, n)
    best = (rho, n)
    for _ in range(MAX_SWEEPS):
        prev_q = best_q
        rho, q = _brent(lambda r: quotient(r, best[1]), rho_lo, rho_hi)
        if q < best_q:
            best_q, best = q, (rho, best[1])
        # search over log(n): the optimum scale spans orders of magnitude
        s, q = _brent(
            lambda t: quotient(best[0], math.exp(t)),
            math.log(n_lo),
            math.log(n_hi),
        )
        if q < best_q:
            best_q, best = q, (best[0], math.exp(s))
        gain = prev_q - best_q
        if gain <= OPT_REL_TOL * abs(best_q):
            break

    return TrialParams(rho=best[0], n=best[1]), reports[best]
