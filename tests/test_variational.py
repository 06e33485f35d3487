import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wedgebound import (
    ConvergenceError,
    DomainError,
    TrialParams,
    WedgeConfig,
    bound_constants,
    closed_R,
    g_rho,
    optimize_bound,
    profile_F,
    rayleigh,
    verify_thm1,
)
from wedgebound.trial import g_rho_slope, profile_F_slope
from wedgebound import variational
from wedgebound.variational import N_MAX_SCALE, _cut_breakpoints, golden_section

PI_4 = math.pi / 4


@pytest.fixture(scope="module")
def cfg():
    return WedgeConfig(theta=PI_4, alpha=1.0)


@pytest.fixture(scope="module")
def report(cfg):
    return bound_constants(cfg)


class TestNormSq:
    def test_positive(self, cfg):
        assert rayleigh(cfg, TrialParams(rho=0.5, n=10.0)).norm_sq > 0.0

    def test_linear_upper_bound(self, cfg, report):
        # norm^2 <= c*n at rho = cos^2(theta)
        for n in (20.0, 75.0, 300.0):
            assert rayleigh(cfg, TrialParams(rho=0.5, n=n)).norm_sq <= report.c * n

    def test_asymptotic_slope_bounded(self, cfg, report):
        ns = [50.0, 100.0, 200.0]
        vals = [rayleigh(cfg, TrialParams(rho=0.5, n=n)).norm_sq for n in ns]
        slope = np.polyfit(ns, vals, 1)[0]
        assert 0.0 < slope <= report.c


class TestRFunctional:
    def test_converges_to_closed_form(self, cfg):
        target = closed_R(cfg, 0.5)
        errs = [
            abs(rayleigh(cfg, TrialParams(rho=0.5, n=n)).r_value - target)
            for n in (50.0, 100.0, 200.0)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.025

    def test_chain_inequality_at_default(self, cfg, report):
        r = rayleigh(cfg, TrialParams(rho=0.5, n=report.n_opt)).r_value
        assert r <= -(report.a - report.b / report.n_opt)
        assert r <= -report.a / 2.0

    def test_small_n_may_be_positive(self, cfg):
        # raw value is reported without judgment
        r = rayleigh(cfg, TrialParams(rho=0.5, n=0.05)).r_value
        assert math.isfinite(r)


class TestRayleigh:
    def test_identity_exact(self, cfg):
        rep = rayleigh(cfg, TrialParams(rho=0.5, n=40.0))
        assert rep.quotient + cfg.alpha**2 / 4.0 == pytest.approx(
            rep.r_value / rep.norm_sq, rel=1e-12
        )
        assert rep.margin == -(rep.r_value / rep.norm_sq)

    def test_beats_closed_form_bound(self, cfg, report):
        rep = rayleigh(cfg, TrialParams(rho=0.5, n=report.n_opt))
        assert rep.quotient <= report.lambda_upper_bound

    def test_large_n_limit(self, cfg):
        rep = rayleigh(cfg, TrialParams(rho=0.5, n=1e4))
        assert rep.quotient == pytest.approx(-0.25, abs=1e-4)
        assert rep.quotient < -0.25

    @pytest.mark.parametrize("theta,rho,n,s", [(PI_4, 0.5, 40.0, 2.0), (0.7, 0.3, 25.0, 0.5)])
    def test_dilation_covariance(self, theta, rho, n, s):
        q1 = rayleigh(WedgeConfig(theta, 1.0), TrialParams(rho, n)).quotient
        qs = rayleigh(WedgeConfig(theta, s), TrialParams(rho, n / s)).quotient
        assert qs == pytest.approx(s**2 * q1, rel=1e-10)


def _oracle_quotient(cfg, rho, n):
    """Rayleigh quotient, energy functional and squared norm from scalar
    integrands through QUADPACK, panel by panel."""
    tan_t, alpha = cfg.tan_theta, cfg.alpha

    def chi(s):
        return min(1.0, max(0.0, 2.0 - abs(s)))

    def chi_slope(s):
        return -math.copysign(1.0, s) if 1.0 < abs(s) < 2.0 else 0.0

    def h(x):
        return g_rho(x, cfg, rho) * chi(x / n)

    def h_slope(x):
        return g_rho_slope(x, cfg, rho) * chi(x / n) + g_rho(x, cfg, rho) * chi_slope(x / n) / n

    def norm_integrand(x):
        return h(x) ** 2 * profile_F(x * tan_t, alpha)

    def r_integrand(x):
        t = x * tan_t
        hp = h_slope(x)
        return hp * (hp * profile_F(t, alpha) - h(x) * profile_F_slope(t, alpha) / tan_t)

    edges = [-2.0 * n, *_cut_breakpoints(cfg, n), 2.0 * n]

    def oracle(f):
        return sum(
            quad(f, a, b, epsabs=1e-13 / len(edges), epsrel=1e-11, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )

    r, ns = oracle(r_integrand), oracle(norm_integrand)
    return -(alpha**2) / 4.0 + r / ns, r, ns


class TestQuadratureOracle:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.6, PI_4, 1.0, 1.3, 1.45])
    def test_quotient_matches_quadpack(self, theta, alpha):
        # corners and centre of optimize_bound's search box, plus its start
        cfg = WedgeConfig(theta, alpha)
        rep = bound_constants(cfg)
        scale = 1.0 / (alpha * cfg.tan_theta)
        n_lo = max(rep.n_opt / 100.0, scale / 100.0)
        n_hi = N_MAX_SCALE * scale
        cot_sq = cfg.cot_sq_theta
        points = [(math.cos(theta) ** 2, rep.n_opt)]
        for rho in (1e-6 * cot_sq, 0.5 * cot_sq, (1.0 - 1e-6) * cot_sq):
            for n in (n_lo, math.sqrt(n_lo * n_hi), n_hi):
                points.append((rho, n))
        if theta == 1.3:
            points.append((0.5 * cot_sq, 4e3))
        for rho, n in points:
            rep = rayleigh(cfg, TrialParams(rho, n))
            q, r, ns = _oracle_quotient(cfg, rho, n)
            assert math.isfinite(rep.quotient)
            assert abs(rep.quotient - q) <= 1e-9 * alpha**2 / 4.0, (rho, n)
            assert abs(rep.r_value - r) <= 1e-9 * alpha**2 / 4.0 * ns, (rho, n)
            assert abs(rep.norm_sq - ns) <= 1e-9 * ns, (rho, n)

    @given(
        theta=st.floats(0.3, 1.45),
        alpha=st.floats(0.5, 3.0),
        rho_frac=st.floats(0.05, 0.95),
        length=st.floats(0.5, 500.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_dilation_covariance(self, theta, alpha, rho_frac, length):
        # quotient(theta, alpha, rho, n/alpha) = alpha^2 * quotient(theta, 1, rho, n)
        cfg1 = WedgeConfig(theta, 1.0)
        rho = rho_frac * cfg1.cot_sq_theta
        n = length / cfg1.tan_theta
        q1 = rayleigh(cfg1, TrialParams(rho, n)).quotient
        qa = rayleigh(WedgeConfig(theta, alpha), TrialParams(rho, n / alpha)).quotient
        assert qa == pytest.approx(alpha**2 * q1, rel=1e-12)


class TestVerifyThm1:
    def test_finds_negative_energy(self, cfg):
        n_found, rep = verify_thm1(cfg, 0.5)
        assert rep.r_value < 0.0
        assert rep.margin > 0.0

    def test_no_later_than_closed_form_scale(self, cfg, report):
        n_found, _ = verify_thm1(cfg, 0.5)
        assert n_found <= report.n_opt

    def test_rejects_rho_at_boundary(self, cfg):
        with pytest.raises(DomainError):
            verify_thm1(cfg, cfg.cot_sq_theta)


class TestGoldenSection:
    @pytest.fixture(autouse=True)
    def tight_bracket(self, monkeypatch):
        # the default 1e-6 leaves a final bracket up to 6e-6 wide here, which
        # does not guarantee abs=1e-6
        monkeypatch.setattr(variational, "OPT_REL_TOL", 1e-9)

    def test_quadratic(self):
        x, fx = golden_section(lambda x: (x - 2.0) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-6)

    def test_cosine(self):
        x, _ = golden_section(math.cos, 2.0, 4.0)
        assert x == pytest.approx(math.pi, abs=1e-6)


class TestOptimizeBound:
    def test_never_worse_than_default(self, cfg, report):
        params, rep = optimize_bound(cfg)
        default_q = rayleigh(cfg, TrialParams(rho=0.5, n=report.n_opt)).quotient
        assert rep.quotient <= default_q
        assert rep.quotient <= report.lambda_upper_bound

    def test_margin_beats_closed_form(self, cfg, report):
        _, rep = optimize_bound(cfg)
        assert rep.margin > report.capital_lambda * cfg.alpha**2

    @given(theta=st.floats(0.2, 1.45), alpha=st.floats(0.5, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_ordering_chain(self, theta, alpha):
        cfg = WedgeConfig(theta, alpha)
        report = bound_constants(cfg)
        _, optimized = optimize_bound(cfg)
        default = rayleigh(cfg, TrialParams(rho=math.cos(theta) ** 2, n=report.n_opt))
        assert optimized.quotient <= default.quotient <= report.lambda_upper_bound
        assert report.lambda_upper_bound < -(alpha**2) / 4.0

    def test_probe_out_of_float_range_is_convergence_error(self, cfg, monkeypatch):
        # the search, not the input, chose the parameters that overflowed
        def overflow(cfg, params):
            raise DomainError("the integrand overflows a float")

        monkeypatch.setattr(variational, "rayleigh", overflow)
        with pytest.raises(ConvergenceError, match="the search probed"):
            optimize_bound(cfg)

    def test_coupling_scaling_of_margin(self):
        _, r1 = optimize_bound(WedgeConfig(0.9, 1.0))
        _, r2 = optimize_bound(WedgeConfig(0.9, 2.0))
        assert r2.margin == pytest.approx(4.0 * r1.margin, rel=1e-3)
