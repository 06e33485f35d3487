"""End-to-end acceptance gate.

Each test exercises one numbered criterion, records a one-line PASS/FAIL
verdict (printed in the terminal summary), and asserts it.  Solver results
are shared through session-scoped fixtures so each (theta, alpha) pair is
solved exactly once.
"""

import math

import numpy as np
import pytest

from wedgebound import (
    TrialParams,
    WedgeConfig,
    bound_constants,
    closed_R,
    lambda_upper,
    optimize_bound,
    quad_J,
    rayleigh,
    solve,
    verify_thm1,
)
from wedgebound import boundary, quadrature, spectral
from conftest import bie_reference, delta_well_1d, record_criterion

PI_4 = math.pi / 4


def check(number: int, passed: bool, detail: str) -> None:
    record_criterion(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def fd():
    """Finite-difference solves shared across criteria 7-10 (one per config)."""
    cache = {}

    def get(theta: float, alpha: float = 1.0, **kw):
        key = (theta, alpha, tuple(sorted(kw.items())))
        if key not in cache:
            cache[key] = solve(WedgeConfig(theta, alpha), **kw)
        return cache[key]

    return get


def test_criterion_1_closed_form_consistency():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.01, math.pi / 2 - 0.01)
        for alpha in (0.5, 1.0, 2.0):
            rep = bound_constants(WedgeConfig(theta, alpha))
            lam = lambda_upper(theta)
            worst = max(worst, abs(rep.capital_lambda - lam) / lam)
    check(1, worst <= 1e-12, f"lambda_upper vs bound_constants, max rel diff {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="rel diff 4.4e-12: bound_constants' a = -closed_R forms cos^2 - cot^2,"
    " which cancels as theta -> pi/2",
)
def test_criterion_1_bound_next_to_pi_half():
    # a point of criterion 1's range that its seeded samples (worst 5.9e-13) miss
    theta = 1.558857831386403
    rep = bound_constants(WedgeConfig(theta, 0.5))
    lam = lambda_upper(theta)
    assert abs(rep.capital_lambda - lam) / lam <= 1e-12


def test_criterion_2_small_angle_limit():
    value = lambda_upper(1e-6)
    rel = abs(value - 1.0 / 392.0) * 392.0
    check(2, rel <= 1e-4, f"lambda_upper(1e-6) vs 1/392, rel diff {rel:.2e}")


def test_criterion_3_quadrature_oracle():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        alpha = rng.uniform(0.2, 5.0)
        cfg = WedgeConfig(theta, alpha)
        rho = rng.uniform(0.05, 0.95) * cfg.cot_sq_theta
        j = quad_J(cfg, rho).require()
        target = closed_R(cfg, rho)
        relation = rho * cfg.tan_theta**2 * (rho - cfg.cot_sq_theta) * j
        worst = max(worst, abs(relation - target) / abs(target))
    check(3, worst <= 1e-10, f"quad_J vs closed form, max rel diff {worst:.2e}")


def test_criterion_4_theorem_1_grid():
    failures = []
    chain_ok = True
    for i in range(10):
        theta = 0.1 + i * (math.pi / 2 - 0.2) / 9.0
        cfg1 = WedgeConfig(theta, 1.0)
        for alpha in (0.5, 1.0, 2.0):
            cfg = WedgeConfig(theta, alpha)
            for frac in (0.25, 0.5, 0.75):
                rho = frac * cfg.cot_sq_theta
                _, rep = verify_thm1(cfg, rho)
                if not rep.r_value < 0.0:
                    failures.append((theta, alpha, rho))
        rep = bound_constants(cfg1)
        r = rayleigh(cfg1, TrialParams(rho=math.cos(theta) ** 2, n=rep.n_opt)).r_value
        if not r <= -rep.a / 2.0:
            chain_ok = False
    ok = not failures and chain_ok
    check(4, ok, f"verify_thm1 on 10x3x3 grid, failures={failures}, chain_ok={chain_ok}")


def test_criterion_5_cutoff_convergence_rate():
    ns = [25.0, 50.0, 100.0, 200.0, 400.0]
    slopes = []
    for theta, alpha in ((PI_4, 1.0), (0.5, 2.0)):
        cfg = WedgeConfig(theta, alpha)
        rho = math.cos(theta) ** 2
        target = closed_R(cfg, rho)
        errs = [abs(rayleigh(cfg, TrialParams(rho=rho, n=n)).r_value - target) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        slopes.append(slope)
    ok = all(-1.3 <= s <= -0.7 for s in slopes)
    check(5, ok, f"cutoff error log-log slopes {[f'{s:.3f}' for s in slopes]} in [-1.3, -0.7]")


def test_criterion_6_theorem_2_quotients():
    # each margin must exceed the quotient's quadrature error: r_value to
    # r_tolerance, and the squared norm (positive, so its own L1 mass) to
    # ABS_TOL + REL_TOL * norm_sq, propagated through r_value / norm_sq
    margins, errors = {}, {}
    for theta in (0.3, 0.6, PI_4, 1.0, 1.3):
        cfg = WedgeConfig(theta, 1.0)
        rep = bound_constants(cfg)
        quot = rayleigh(cfg, TrialParams(rho=math.cos(theta) ** 2, n=rep.n_opt))
        margins[theta] = rep.lambda_upper_bound - quot.quotient
        ns = quot.norm_sq
        norm_rel_error = quadrature.REL_TOL + quadrature.ABS_TOL / ns
        errors[theta] = (quot.r_tolerance + abs(quot.r_value) * norm_rel_error) / ns
    ok = all(margins[t] > errors[t] for t in margins)
    ratio = min(margins[t] / errors[t] for t in margins)
    check(
        6,
        ok,
        f"quotient below Theorem 2 bound by {min(margins.values()):.2e} at worst, "
        f"margin/quadrature error >= {ratio:.2e}",
    )


def test_criterion_7_solver_calibration(fd):
    rel1d = abs(delta_well_1d() + 0.25) / 0.25
    res2d = fd(math.pi / 2, L=16.0)
    rel2d = abs(res2d.extrapolated + 0.25) / 0.25
    ok = rel1d <= 0.002 and rel2d <= 0.01
    check(7, ok, f"1D well rel err {rel1d:.2e} (<=0.2%), straight line rel err {rel2d:.2e} (<=1%)")


def test_criterion_8_end_to_end_ordering(fd):
    details = []
    ok = True
    for theta in (0.6, PI_4, 1.0):
        cfg = WedgeConfig(theta, 1.0)
        thm2 = bound_constants(cfg).lambda_upper_bound
        _, opt = optimize_bound(cfg)
        res = fd(theta)
        ordered = res.extrapolated <= opt.quotient <= thm2
        gap = thm2 - res.extrapolated
        conclusive = gap > res.error_estimate
        ok = ok and ordered and conclusive
        # the final box, and its boundary mass marked where it exceeds the
        # limit: there the box stopped at its enlargement cap
        mass = f"{res.boundary_mass:.1e}"
        if res.boundary_mass > spectral.BOUNDARY_MASS_LIMIT:
            mass += " (above limit)"
        details.append(f"theta={theta:.3f} gap={gap:.2e} budget={res.error_estimate:.2e}"
                       f" L={res.grid.L:g} boundary_mass={mass}")
    check(8, ok, "lambda_fd <= optimized <= thm2 with gap > budget; " + "; ".join(details))


def test_criterion_9_scaling_law(fd):
    r1 = fd(PI_4, 1.0)
    r2 = fd(PI_4, 2.0)
    fd_err = abs(r2.extrapolated - 4.0 * r1.extrapolated)
    fd_budget = r2.error_estimate + 4.0 * r1.error_estimate
    params = TrialParams(rho=0.5, n=40.0)
    q1 = rayleigh(WedgeConfig(PI_4, 1.0), params).quotient
    q2 = rayleigh(WedgeConfig(PI_4, 2.0), TrialParams(rho=0.5, n=20.0)).quotient
    var_rel = abs(q2 - 4.0 * q1) / abs(4.0 * q1)
    ok = fd_err <= fd_budget and var_rel <= 1e-10
    check(9, ok, f"|lambda(2)-4*lambda(1)|={fd_err:.2e} <= {fd_budget:.2e}; quotient rel {var_rel:.2e}")


def test_criterion_10_asymptotic_exponent(bie):
    # the binding energy mu = -1/4 - lambda_0 near pi/2 from the boundary
    # integral, which raises unless each mu holds to MU_RTOL of itself when
    # its ray doubles
    thetas = (1.1, 1.2, 1.3)
    mu = [bie(theta).binding_energy for theta in thetas]
    slope = float(np.polyfit([math.log(math.pi / 2 - t) for t in thetas], np.log(mu), 1)[0])
    ok = 3.0 <= slope <= 5.0
    mus = ", ".join(f"{m:.4e}" for m in mu)
    check(10, ok, f"pi_half exponent from the BIE, fit slope {slope:.3f} in [3, 5]; mu = {mus}")


def test_criterion_10_fd_fit(fd):
    # the same fit on the FD's extrapolated values, its own ledger line
    thetas = (1.1, 1.2, 1.3)
    points = []
    conclusive = True
    for theta in thetas:
        res = fd(theta)
        mu = -0.25 - res.extrapolated
        if mu <= res.error_estimate:
            conclusive = False
            continue
        points.append((math.log(math.pi / 2 - theta), math.log(mu)))
    if conclusive and len(points) == 3:
        slope = float(np.polyfit(*zip(*points), 1)[0])
        ok = 3.0 <= slope <= 5.0
        record_criterion(10, ok, f"pi_half exponent FD fit slope {slope:.3f} in [3, 5]", " FD")
        assert ok, f"criterion 10 FD: slope {slope:.3f}"
    else:
        # non-blocking by design: budgets overlap the tiny binding energy
        record_criterion(
            10, True, "inconclusive: error budgets overlap near pi/2 (non-blocking)", " FD"
        )


@pytest.mark.parametrize(
    "theta",
    [
        pytest.param(0.02, marks=pytest.mark.xfail(
            strict=True, reason="error/budget = 1.33: the small-angle end is under-resolved")),
        pytest.param(0.05, marks=pytest.mark.xfail(
            strict=True, reason="error/budget = 4.43: the small-angle end is under-resolved")),
        0.1,
        PI_4,
        1.0,
        1.2,
        pytest.param(1.3, marks=pytest.mark.xfail(
            strict=True, reason="error/budget = 1.26: the box stops at its enlargement cap")),
        pytest.param(1.4, marks=pytest.mark.xfail(
            strict=True, reason="error/budget = 2.03: the box stops at its enlargement cap")),
    ],
)
def test_fd_error_budget_holds_against_the_reference(fd, bie, theta):
    # the reference is the boundary integral where it reaches, the table beyond
    res = fd(theta)
    reference = bie(theta).eigenvalue if theta <= boundary.MAX_THETA else bie_reference(theta)
    error = abs(res.extrapolated - reference)
    assert error <= res.error_estimate, f"error/budget = {error / res.error_estimate:.2f}"


@pytest.mark.parametrize(
    "alpha",
    [
        8.0,
        pytest.param(16.0, marks=pytest.mark.xfail(
            strict=True, reason="error/budget = 1.169: alpha*h_finest = 0.75")),
        pytest.param(32.0, marks=pytest.mark.xfail(
            strict=True, reason="error/budget = 2.547: alpha*h_finest = 1.5")),
    ],
)
def test_fd_error_budget_holds_on_a_given_grid(fd, bie, alpha):
    # the benchmark's grid, L = 12 and h = 0.1875, as the state shrinks as
    # 1/alpha: the budget models only the h terms, so it holds at
    # alpha*h_finest = 0.375 (error/budget 0.577) and not from 0.75 on; the
    # reference scales exactly as alpha^2
    res = fd(PI_4, alpha, L=12.0, h=0.1875)
    error = abs(res.extrapolated - alpha**2 * bie(PI_4).eigenvalue)
    assert error <= res.error_estimate, f"error/budget = {error / res.error_estimate:.3f}"
