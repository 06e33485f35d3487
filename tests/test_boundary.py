import math
from decimal import Decimal

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from wedgebound import ConvergenceError, DomainError, WedgeConfig, boundary, ground_state
from conftest import BIE_BINDING, BIE_REFERENCE


def tolerance(text: str) -> float:
    """One unit in the last digit a table entry gives, and at least 5e-14,
    about ten times the solver's own rounding: r(kappa) is found to about
    1e-15, and each root is taken to within 1e-15 in kappa."""
    return max(10.0 ** Decimal(text).as_tuple().exponent, 5e-14)


@pytest.mark.parametrize("theta", sorted(BIE_REFERENCE))
def test_reproduces_the_reference_table(bie, theta):
    res = bie(theta)
    text = BIE_REFERENCE[theta]
    assert abs(res.eigenvalue - float(text)) <= tolerance(text)
    assert res.doubling_change <= boundary.MU_RTOL


@pytest.mark.parametrize("theta", [t for t in sorted(BIE_BINDING) if t <= boundary.MAX_THETA])
def test_reproduces_the_reference_binding_energies(bie, theta):
    # near pi/2 the table gives mu = -1/4 - lambda_0, to fewer digits
    res = bie(theta)
    text = BIE_BINDING[theta]
    assert abs(res.binding_energy - float(text)) <= tolerance(text)
    assert res.binding_energy == pytest.approx(-0.25 - res.eigenvalue, rel=1e-10, abs=0.0)
    # the first ray, half the final one, covers 2 beta S >= MIN_DECAY
    assert math.sqrt(res.binding_energy) * res.ray_length >= boundary.MIN_DECAY


def test_scales_with_alpha_squared(bie):
    # alpha = 2 is solved at alpha = 1 and scaled by 4, exactly
    res = ground_state(WedgeConfig(math.pi / 4, 2.0))
    assert res.eigenvalue == 4.0 * bie(math.pi / 4).eigenvalue
    assert res.binding_energy == 4.0 * bie(math.pi / 4).binding_energy


@pytest.mark.parametrize("theta", [0.001, 1.31, math.pi / 2])
def test_refuses_angles_outside_its_range(theta, monkeypatch):
    def solved(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(boundary, "_root", solved)
    with pytest.raises(DomainError, match="boundary integral covers"):
        ground_state(WedgeConfig(theta, 1.0))


@pytest.mark.parametrize("alpha", [1e-200, 1e-160])
def test_refuses_alpha_whose_square_is_not_normal(alpha, monkeypatch):
    # alpha^2 is 0 at 1e-200 and subnormal at 1e-160: the scaled result would
    # read as no binding, or keep a few bits
    def solved(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(boundary, "_root", solved)
    with pytest.raises(DomainError, match="not a normal float"):
        ground_state(WedgeConfig(math.pi / 4, alpha))


def test_refuses_a_binding_energy_below_the_normal_range(monkeypatch):
    # alpha^2 = 4e-308 is normal, and mu = 0.3125 at kappa = 0.75 scales below it
    monkeypatch.setattr(boundary, "_root", lambda *args: 0.75)
    assert ground_state(WedgeConfig(math.pi / 4, 1.0)).binding_energy == 0.3125
    with pytest.raises(DomainError, match="binding energy .* underflows"):
        ground_state(WedgeConfig(math.pi / 4, 2e-154))


def test_short_ray_fails_the_doubling_check(monkeypatch):
    # at theta = 1.2 the first ray, S = 300, covers 2 beta S = 17 decay
    # lengths; without the re-solve at 20/beta, mu moves by more than
    # MU_RTOL when S doubles
    monkeypatch.setattr(boundary, "MIN_DECAY", 0.0)
    with pytest.raises(ConvergenceError, match="moves by more than 1e-09 of itself"):
        ground_state(WedgeConfig(1.2, 1.0))


def test_straight_line_integrates_the_kernel():
    # at theta = pi/2, d = s + t, so K 1 = (2 pi)^-1 int_{-S}^{S} K_0(kappa|s - u|) du,
    # which is 1/(2 kappa) wherever the cut at S is many decay lengths away:
    # the near rule integrates the log singularity on every panel
    S, kappa = 300.0, 0.5
    rule = boundary._Rule(math.pi / 2, S)
    got = rule.matrix(kappa) @ np.ones(rule.s.size)
    inside = rule.s < S - 40.0 / kappa
    assert np.max(np.abs(got[inside] - 1.0 / (2.0 * kappa))) <= 1e-10


def test_arnoldi_failure_is_convergence_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(boundary, "eigs", no_convergence)
    with pytest.raises(ConvergenceError, match="Arnoldi failed"):
        ground_state(WedgeConfig(0.1, 1.0))
