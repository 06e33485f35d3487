"""Closed-form trial-function family and eigenvalue bound constants.

The geometry is a wedge: two rays from the origin at half-angle ``theta``
carrying an attractive delta-interaction of strength ``alpha``.  Everything
in this module is an explicit formula, on the standard library alone, so
the command line loads no numpy for the closed-form commands.  The trial
family is exp(-alpha*|x1|/2) * F(x2*tan(theta))**rho * chi(x2/n).  Its
profile F (``log_profile_F``) and its integrals live in
:mod:`wedgebound.variational`: the Rayleigh quotients compute the optimized
bound by quadrature, and ``quad_J`` checks the closed form J.  The
package's two error types, ``DomainError`` and ``ConvergenceError``, are
defined here too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "ConvergenceError",
    "DomainError",
    "WedgeConfig",
    "TrialParams",
    "BoundReport",
    "closed_R",
    "closed_J",
    "lambda_upper",
    "bound_constants",
]


class DomainError(ValueError):
    """Input outside the admissible parameter range."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its requested accuracy."""


@dataclass(frozen=True)
class WedgeConfig:
    """Problem instance: wedge half-angle (radians) and coupling constant.

    theta = pi/2 (straight line) is accepted here but rejected by the
    operations for which it is degenerate.
    """

    theta: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= math.pi / 2:
            raise DomainError(f"theta must lie in (0, pi/2], got {self.theta}")
        if not 0.0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def tan_theta(self) -> float:
        return math.tan(self.theta)

    @property
    def cot_sq_theta(self) -> float:
        cot = math.cos(self.theta) / math.sin(self.theta)
        if cot == math.inf:  # a subnormal theta; inf**2 would not raise
            raise DomainError(f"cot(theta) overflows a float at theta = {self.theta}")
        return _pow(cot, 2)


@dataclass(frozen=True)
class TrialParams:
    """Variational family parameters: exponent and cutoff scale."""

    rho: float
    n: float

    def __post_init__(self) -> None:
        # the trial function's support (-2n, 2n) must be finite too
        if not (0.0 < self.rho < math.inf and 0.0 < 2.0 * self.n < math.inf):
            raise DomainError(
                "rho and n must be positive and finite, and so must the support"
                f" (-2n, 2n), got rho={self.rho}, n={self.n}"
            )


def _check_rho(cfg: WedgeConfig, rho: float) -> None:
    """Raise DomainError unless 0 < rho < cot^2(theta)."""
    if not 0.0 < rho < cfg.cot_sq_theta:
        raise DomainError(
            f"rho must lie in (0, cot^2 theta) = (0, {cfg.cot_sq_theta}), got {rho}"
        )


@dataclass(frozen=True)
class BoundReport:
    """All intermediates of the closed-form eigenvalue bound."""

    a: float
    b: float
    c: float
    big_b: float
    n_opt: float
    capital_lambda: float
    lambda_upper_bound: float


def _two_pow_minus_one(e: float) -> float:
    # expm1 keeps full precision for small exponents, where 2**e - 1 would
    # cancel; the same helper is used by every formula so the two bound
    # computation paths stay bitwise-correlated.
    try:
        return math.expm1(e * math.log(2.0))
    except OverflowError:
        raise DomainError(f"2**{e} overflows a float") from None


def _pow(base: float, exponent: float) -> float:
    """base**exponent, raising DomainError where it overflows a float."""
    try:
        return base**exponent
    except OverflowError:
        raise DomainError(f"{base}**{exponent} overflows a float") from None


def _alpha_squared(cfg: WedgeConfig) -> float:
    """alpha^2, by which a solver at alpha = 1 scales its energies; DomainError
    unless it is a normal float, below which a scaled result has lost its digits."""
    scale = _pow(cfg.alpha, 2)
    if not scale >= sys.float_info.min:
        raise DomainError(f"alpha^2 = {scale!r} is not a normal float")
    return scale


def closed_R(cfg: WedgeConfig, rho: float) -> float:
    """Closed-form energy functional of the uncut profile.

    Strictly negative for rho in (0, cot^2 theta); zero at the right
    endpoint by continuity.
    """
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    cot_sq = cfg.cot_sq_theta
    if rho > cot_sq:
        raise DomainError(f"rho must not exceed cot^2 theta = {cot_sq}, got {rho}")
    return (
        _pow(cfg.alpha, -2.0 * rho)
        * cfg.tan_theta
        * (rho - cot_sq)
        * _two_pow_minus_one(2.0 * rho)
        / (2.0 * rho + 1.0)
    )


def closed_J(cfg: WedgeConfig, rho: float) -> float:
    """Closed form of the weighted profile integral checked by quad_J."""
    _check_rho(cfg, rho)
    return _two_pow_minus_one(2.0 * rho) / (
        rho * (2.0 * rho + 1.0) * cfg.tan_theta * _pow(cfg.alpha, 2.0 * rho)
    )


def _big_b(cos_sq: float) -> float:
    return 108.0 + 180.0 * cos_sq - 132.0 * cos_sq**2 + 45.0 * cos_sq**3 - 5.0 * cos_sq**4


def lambda_upper(theta: float) -> float:
    """Dimensionless gap of the closed-form eigenvalue bound.

    Strictly positive on (0, pi/2), zero at theta = pi/2; the resulting
    bound is lambda <= -alpha^2 * (1/4 + lambda_upper(theta)).
    """
    if not 0.0 < theta <= math.pi / 2:
        raise DomainError(f"theta must lie in (0, pi/2], got {theta}")
    if theta == math.pi / 2:  # cos(pi/2) is not exactly zero in floats
        return 0.0
    c = math.cos(theta) ** 2
    w = _two_pow_minus_one(2.0 * c)
    return 3.0 * c**3 * w**2 / (2.0 * (1.0 + 2.0 * c) ** 3 * _big_b(c))


def _bound_thm2(alpha: float, capital_lambda: float) -> float:
    """Theorem 2's bound -alpha^2 (1/4 + Lambda(theta))."""
    return -_pow(alpha, 2) * (0.25 + capital_lambda)


def bound_constants(cfg: WedgeConfig) -> BoundReport:
    """Assemble every intermediate of the closed-form bound at rho = cos^2 theta.

    Degenerate where a = 0: at theta = pi/2, wherever sin^2 theta rounds to 1,
    and wherever alpha**(-2 cos^2 theta) underflows.
    """
    cos_sq = math.cos(cfg.theta) ** 2
    sin_sq = math.sin(cfg.theta) ** 2
    a = -closed_R(cfg, cos_sq)
    if not a > 0.0:
        raise DomainError(
            f"the bound is degenerate at theta = {cfg.theta}, alpha = {cfg.alpha}:"
            " a = 0, so n_opt is undefined"
        )
    big_b = _big_b(cos_sq)
    alpha_pow = _pow(cfg.alpha, -(2.0 * cos_sq + 1.0))
    b = alpha_pow * big_b / (36.0 * sin_sq)
    c = 6.0 * (1.0 + 2.0 * cos_sq) * alpha_pow
    n_opt = 2.0 * b / a
    denominator = 4.0 * b * c * _pow(cfg.alpha, 2)
    if not 0.0 < denominator < math.inf:  # Lambda is scale-free, 4*b*c is not
        raise DomainError(f"4*b*c*alpha**2 = {denominator} is out of float range")
    capital_lambda = a * a / denominator
    return BoundReport(
        a=a,
        b=b,
        c=c,
        big_b=big_b,
        n_opt=n_opt,
        capital_lambda=capital_lambda,
        lambda_upper_bound=_bound_thm2(cfg.alpha, capital_lambda),
    )
