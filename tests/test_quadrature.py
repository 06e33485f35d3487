import math

import numpy as np
import pytest

from wedgebound import DomainError, WedgeConfig, closed_J, closed_R, integrate, quad_J
from wedgebound import quadrature

# e^-40 = 4.2e-18: cutting an e^-|x| tail at 40 drops less than rounding
CUT = 40.0


def _antiderivative_piece(rho: float) -> float:
    # closed form of the integral of s*(2-s)**(2*rho-1) over [0, 1]
    return (2.0 ** (2 * rho) - 1.0) / rho - (2.0 ** (2 * rho + 1) - 1.0) / (2 * rho + 1)


class TestIntegrate:
    def test_two_sided_exponential(self):
        est = integrate(lambda x: np.exp(-np.abs(x)), -CUT, CUT, breakpoints=(0.0,))
        assert est.converged
        assert est.value == pytest.approx(-2.0 * math.expm1(-CUT), abs=1e-12)
        assert est.abs_error_estimate >= 0.0

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.7, 0.95])
    def test_profile_moment_against_antiderivative(self, rho):
        est = integrate(lambda s: s * (2.0 - s) ** (2 * rho - 1.0), 0.0, 1.0)
        assert est.converged
        assert est.value == pytest.approx(_antiderivative_piece(rho), rel=1e-12)

    def test_profile_moment_at_half(self):
        # integrand reduces to s, so the value is exactly 1/2
        est = integrate(lambda s: s * (2.0 - s) ** 0.0, 0.0, 1.0)
        assert est.value == pytest.approx(0.5, rel=1e-13)

    def test_left_exponential_tail(self):
        # exp((2*rho+1)*x*tan(theta)) over [-CUT/2, 0], theta=pi/4, rho=0.5
        est = integrate(lambda x: np.exp(2.0 * x), -CUT / 2.0, 0.0)
        assert est.converged
        assert est.value == pytest.approx(-0.5 * math.expm1(-CUT), rel=1e-12)

    def test_positivity(self):
        est = integrate(lambda x: x * x, -1.0, 2.0)
        assert est.value >= 0.0

    def test_linearity(self):
        f = lambda x: np.exp(-x * x)
        a = integrate(f, -10.0, 10.0).value
        b = integrate(lambda x: 3.5 * f(x), -10.0, 10.0).value
        assert b == pytest.approx(3.5 * a, rel=1e-12)

    def test_splitting(self):
        f = lambda x: np.exp(-np.abs(x)) * (1.0 + np.sin(x) ** 2)
        whole = integrate(f, -CUT, CUT, breakpoints=(0.0,))
        left = integrate(f, -CUT, 0.0)
        right = integrate(f, 0.0, CUT)
        assert whole.value == pytest.approx(
            left.value + right.value,
            abs=whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate + 1e-14,
        )

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)
        # finite panels only: a caller cuts a decaying integrand's tails itself
        for lo, hi in ((-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf)):
            with pytest.raises(DomainError):
                integrate(lambda x: np.exp(-np.abs(x)), lo, hi)

    def test_budget_exhaustion_reports_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "BUDGET", 400)
        est = integrate(lambda x: np.abs(np.sin(100.0 / (x + 1e-3))), 0.0, 1.0)
        assert not est.converged
        assert math.isfinite(est.value)
        with pytest.raises(Exception):
            est.require()


    @pytest.mark.parametrize(
        "f, g, lo, hi",
        [
            (lambda x: np.exp(-np.abs(x)), lambda x: x * x * np.exp(-np.abs(x)), -CUT, CUT),
            # exact on the first round next to a sharp peak: the shared tree
            # must refine for the peak although the polynomial has converged
            (lambda x: x * x, lambda x: 1.0 / (1.0 + 1e4 * (x - 0.3) ** 2), 0.0, 1.0),
        ],
        ids=["exponential_moments", "polynomial_and_peak"],
    )
    def test_stacked_components_match_scalar_calls(self, f, g, lo, hi):
        est = integrate(lambda x: np.stack([f(x), g(x)]), lo, hi)
        assert est.converged
        assert est.value.shape == est.abs_error_estimate.shape == (2,)
        for value, h in zip(est.value, (f, g)):
            assert abs(value - integrate(h, lo, hi).value) <= 1e-12

        # evaluations count abscissae, not component values
        seen = []

        def counting(x):
            seen.append(x.size)
            return np.stack([f(x), g(x)])

        assert integrate(counting, lo, hi).evaluations == sum(seen)

    def test_stacked_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature, "BUDGET", 400)
        est = integrate(
            lambda x: np.stack([np.exp(-x), np.abs(np.sin(100.0 / (x + 1e-3)))]),
            0.0,
            1.0,
        )
        assert est.converged is False
        assert np.all(np.isfinite(est.value))
        with pytest.raises(Exception):
            est.require()


class TestQuadJ:
    def test_reference_point(self):
        cfg = WedgeConfig(theta=math.pi / 4, alpha=1.0)
        est = quad_J(cfg, 0.5)
        assert est.converged
        assert est.value == pytest.approx(1.0, rel=1e-11)

    def test_coupling_scaling(self):
        cfg = WedgeConfig(theta=math.pi / 4, alpha=2.0)
        assert quad_J(cfg, 0.5).value == pytest.approx(0.5, rel=1e-11)

    def test_rejects_bad_rho(self):
        cfg = WedgeConfig(theta=0.5, alpha=1.0)
        with pytest.raises(DomainError):
            quad_J(cfg, 0.0)

    def test_overflow_is_domain_error(self):
        # admissible rho (cot^2 theta = 2500), but the integrand leaves float
        # range, as closed_J's 2^(2*rho) does
        cfg = WedgeConfig(theta=0.02, alpha=1.0)
        with pytest.raises(DomainError):
            quad_J(cfg, 1000.0)
        with pytest.raises(DomainError):
            closed_J(cfg, 1000.0)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = rng.uniform(0.1, 1.5)
            alpha = rng.uniform(0.3, 3.0)
            cfg = WedgeConfig(theta=theta, alpha=alpha)
            rho = rng.uniform(0.05, 0.95) * cfg.cot_sq_theta
            j = quad_J(cfg, rho).require()
            assert j == pytest.approx(closed_J(cfg, rho), rel=1e-10)

    def test_relates_to_closed_energy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = rng.uniform(0.15, 1.45)
            alpha = rng.uniform(0.4, 2.5)
            cfg = WedgeConfig(theta=theta, alpha=alpha)
            rho = rng.uniform(0.1, 0.9) * cfg.cot_sq_theta
            j = quad_J(cfg, rho).require()
            lhs = rho * cfg.tan_theta**2 * (rho - cfg.cot_sq_theta) * j
            assert lhs == pytest.approx(closed_R(cfg, rho), rel=1e-10)
