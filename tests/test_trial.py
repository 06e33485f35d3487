import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wedgebound import (
    DomainError,
    TrialParams,
    WedgeConfig,
    bound_constants,
    closed_J,
    closed_R,
    lambda_upper,
)
from wedgebound.quadrature import integrate
from wedgebound.trial import _bound_thm2
from wedgebound.variational import _trial_profile, log_profile_F

PI_4 = math.pi / 4


class TestWedgeConfig:
    def test_valid(self):
        cfg = WedgeConfig(theta=0.7, alpha=2.0)
        assert cfg.tan_theta == pytest.approx(math.tan(0.7))

    @pytest.mark.parametrize("theta", [0.0, -0.1, math.pi / 2 + 0.01, 2.0])
    def test_bad_theta(self, theta):
        with pytest.raises(DomainError):
            WedgeConfig(theta=theta, alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            WedgeConfig(theta=0.5, alpha=alpha)

    def test_straight_line_admitted(self):
        WedgeConfig(theta=math.pi / 2, alpha=1.0)


class TestTrialParams:
    # at n = 1e308 the support (-2n, 2n) overflows
    @pytest.mark.parametrize(
        "rho, n", [(math.inf, 1.0), (0.5, math.inf), (0.5, math.nan), (0.5, 1e308)]
    )
    def test_rejects_non_finite(self, rho, n):
        with pytest.raises(DomainError):
            TrialParams(rho=rho, n=n)


class TestProfileF:
    def test_at_zero(self):
        assert log_profile_F(0.0, 1.0) == 0.0
        assert log_profile_F(0.0, 4.0) == -math.log(4.0)

    def test_total_mass(self):
        assert log_profile_F(1e3, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_left_tail_against_quadrature_oracle(self):
        # oracle: adaptive quadrature of exp(-2|x|) over (-21, -1); the tail
        # beyond -21 is e^-42/2, 6e-18 of the value
        oracle = integrate(lambda x: np.exp(-2.0 * np.abs(x)), -21.0, -1.0)
        assert oracle.converged
        assert oracle.value == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)
        assert np.exp(log_profile_F(-1.0, 2.0)) == pytest.approx(oracle.value, rel=1e-12)

    @given(
        t=st.floats(-50, 50),
        alpha=st.floats(0.1, 10),
    )
    @settings(max_examples=200)
    def test_symmetry_and_range(self, t, alpha):
        assume(abs(t) * alpha < 30.0)  # exp(-a|t|) must stay representable
        f, f_mirror = np.exp(log_profile_F(np.array([t, -t]), alpha))
        assert 0.0 < f < 2.0 / alpha
        assert f + f_mirror == pytest.approx(2.0 / alpha, rel=1e-12)

    @given(
        t=st.floats(-30, 30),
        dt=st.floats(1e-6, 10),
        alpha=st.floats(0.1, 10),
    )
    @settings(max_examples=200)
    def test_monotone(self, t, dt, alpha):
        assert log_profile_F(t + dt, alpha) >= log_profile_F(t, alpha)


def _h(x: float, cfg: WedgeConfig, rho: float, n: float) -> float:
    """The trial profile h = F(x*tan(theta))**rho * chi(x/n) at one abscissa."""
    return _trial_profile(cfg, TrialParams(rho=rho, n=n), np.array([x]))[0][0]


class TestGRho:
    # inside |x| <= n the cutoff is 1 and h is the power profile itself
    def test_at_zero(self):
        cfg = WedgeConfig(theta=0.9, alpha=1.0)
        assert _h(0.0, cfg, 1.0, 1.0) == 1.0

    def test_right_limit(self):
        cfg = WedgeConfig(theta=PI_4, alpha=1.0)
        assert _h(1e3, cfg, 0.5, 1e3) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_pointwise(self):
        cfg = WedgeConfig(theta=PI_4, alpha=1.0)
        expected = (2.0 - math.exp(-1.0)) ** 0.5
        assert _h(1.0, cfg, 0.5, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.2775447384841587, rel=1e-12)


def _cutoff(t: float) -> float:
    """The tent cutoff chi(t), read off the trial profile h = F**rho * chi(x/n) at n = 1."""
    cfg = WedgeConfig(theta=PI_4, alpha=1.0)
    h, _, f, _ = _trial_profile(cfg, TrialParams(rho=0.5, n=1.0), np.array([t]))
    return (h / np.sqrt(f))[0]


class TestCutoff:
    @pytest.mark.parametrize(
        "t,expected",
        [(0.5, 1.0), (1.5, 0.5), (-3.0, 0.0), (1.0, 1.0), (2.0, 0.0), (-1.7, 0.3)],
    )
    def test_values(self, t, expected):
        assert _cutoff(t) == pytest.approx(expected, abs=1e-15)

    def test_lipschitz_constant(self):
        ts = [i / 100.0 - 3.0 for i in range(601)]
        slopes = [
            abs(_cutoff(b) - _cutoff(a)) / (b - a)
            for a, b in zip(ts[:-1], ts[1:])
        ]
        assert max(slopes) <= 1.0 + 1e-12


class TestClosedR:
    def test_quarter_pi_value(self):
        cfg = WedgeConfig(theta=PI_4, alpha=1.0)
        assert closed_R(cfg, 0.5) == pytest.approx(-0.25, rel=1e-14)

    def test_vanishes_at_endpoint(self):
        cfg = WedgeConfig(theta=0.6, alpha=1.5)
        assert closed_R(cfg, cfg.cot_sq_theta) == 0.0

    def test_special_angle_display_agrees(self):
        # at rho = cos^2(pi/4) the two algebraic forms coincide
        cfg = WedgeConfig(theta=PI_4, alpha=1.0)
        direct = -math.cos(PI_4) ** 3 * (2.0 ** (2 * 0.5) - 1.0) / (
            math.sin(PI_4) * (1.0 + 2.0 * 0.5)
        )
        assert closed_R(cfg, 0.5) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(-0.25, rel=1e-14)

    @given(
        theta=st.floats(0.05, math.pi / 2 - 0.05),
        frac=st.floats(0.01, 0.99),
        alpha=st.floats(0.2, 5.0),
    )
    @settings(max_examples=200)
    def test_strictly_negative_inside(self, theta, frac, alpha):
        cfg = WedgeConfig(theta=theta, alpha=alpha)
        rho = frac * cfg.cot_sq_theta
        # keep alpha**(-2*rho) and 2**(2*rho) inside double range
        assume(rho < 60.0)
        assume(2.0 * rho * abs(math.log(alpha)) < 600.0)
        assert closed_R(cfg, rho) < 0.0

    @given(
        theta=st.floats(0.1, 1.4),
        frac=st.floats(0.05, 0.95),
        s=st.floats(0.2, 5.0),
    )
    @settings(max_examples=100)
    def test_coupling_scaling(self, theta, frac, s):
        rho = frac * WedgeConfig(theta, 1.0).cot_sq_theta
        r1 = closed_R(WedgeConfig(theta, 1.0), rho)
        rs = closed_R(WedgeConfig(theta, s), rho)
        assert rs == pytest.approx(s ** (-2.0 * rho) * r1, rel=1e-10)

    def test_rejects_nonpositive_rho(self):
        cfg = WedgeConfig(theta=0.5, alpha=1.0)
        with pytest.raises(DomainError):
            closed_R(cfg, 0.0)
        with pytest.raises(DomainError):
            closed_R(cfg, 2.0 * cfg.cot_sq_theta)


class TestOverflow:
    # rho = 1000 is admissible at theta = 0.02 (cot^2 theta = 2500), but
    # 2**(2*rho) is not a float
    @pytest.mark.parametrize("closed_form", [closed_R, closed_J])
    def test_closed_forms(self, closed_form):
        with pytest.raises(DomainError, match="overflows"):
            closed_form(WedgeConfig(0.02, 1.0), 1000.0)

    # alpha**(-2cos^2 theta) overflows at 1e-300, alpha**(-2cos^2 theta - 1)
    # at 1e-200 and alpha**2 at 1e200; 4*b*c overflows at 1e-100 and
    # underflows at 1e100
    @pytest.mark.parametrize("alpha", [1e-300, 1e-200, 1e-100, 1e100, 1e200])
    def test_bound_constants(self, alpha):
        with pytest.raises(DomainError):
            bound_constants(WedgeConfig(0.7, alpha))


class TestLambdaUpper:
    def test_small_angle_limit(self):
        assert lambda_upper(1e-6) == pytest.approx(1.0 / 392.0, rel=1e-4)

    def test_straight_line(self):
        assert lambda_upper(math.pi / 2) == 0.0

    def test_quarter_pi(self):
        assert lambda_upper(PI_4) == pytest.approx(0.375 / 2725.0, rel=1e-13)

    def test_positive_on_open_interval(self):
        for i in range(1, 200):
            theta = i * (math.pi / 2) / 200
            assert lambda_upper(theta) > 0.0

    def test_near_line_tenth_order(self):
        theta = math.pi / 2 - 0.01
        predicted = math.log(2.0) ** 2 / 18.0 * math.cos(theta) ** 10
        assert lambda_upper(theta) == pytest.approx(predicted, rel=1e-3)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            lambda_upper(2.0)
        with pytest.raises(DomainError):
            lambda_upper(0.0)


class TestBoundConstants:
    def test_quarter_pi_values(self):
        rep = bound_constants(WedgeConfig(theta=PI_4, alpha=1.0))
        assert rep.a == pytest.approx(0.25, rel=1e-14)
        assert rep.b == pytest.approx(170.3125 / 18.0, rel=1e-14)
        assert rep.c == pytest.approx(12.0, rel=1e-14)
        assert rep.big_b == pytest.approx(170.3125, rel=1e-14)
        assert rep.n_opt == pytest.approx(75.69444444444444, rel=1e-12)
        assert rep.capital_lambda == pytest.approx(1.3761467889908257e-4, rel=1e-12)
        assert rep.lambda_upper_bound == pytest.approx(-0.25013761467889907, rel=1e-13)

    def test_alpha_independence_of_lambda(self):
        r1 = bound_constants(WedgeConfig(theta=PI_4, alpha=1.0))
        r2 = bound_constants(WedgeConfig(theta=PI_4, alpha=2.0))
        assert r2.capital_lambda == pytest.approx(r1.capital_lambda, rel=1e-12)
        assert r2.lambda_upper_bound == pytest.approx(4.0 * r1.lambda_upper_bound, rel=1e-12)

    @given(
        theta=st.floats(0.05, math.pi / 2 - 0.05),
        alpha=st.floats(0.2, 5.0),
    )
    @settings(max_examples=100)
    def test_consistency_with_direct_formula(self, theta, alpha):
        rep = bound_constants(WedgeConfig(theta=theta, alpha=alpha))
        assert rep.a > 0 and rep.b > 0 and rep.c > 0 and rep.n_opt > 0
        assert rep.capital_lambda == pytest.approx(lambda_upper(theta), rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            bound_constants(WedgeConfig(theta=math.pi / 2, alpha=1.0))

    @pytest.mark.xfail(
        strict=True,
        reason="bound gives -0.06308356132125761 from a^2/(4bc alpha^2),"
        " optimize and sweep -0.0630835613212576 from lambda_upper",
    )
    def test_bound_matches_thm2_from_lambda_upper(self):
        # the CLI's bound reports lambda_upper_bound, its optimize and sweep
        # _bound_thm2(alpha, lambda_upper(theta)); both are Theorem 2's bound
        theta, alpha = 0.13987057197901923, 0.5
        rep = bound_constants(WedgeConfig(theta, alpha))
        assert rep.lambda_upper_bound == _bound_thm2(alpha, lambda_upper(theta))
