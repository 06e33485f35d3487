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
    optimize_bound,
    rayleigh,
    verify_thm1,
)
from wedgebound import variational
from wedgebound.quadrature import QuadratureEstimate
from wedgebound.variational import N_MAX_SCALE, _brent, _panel_edges

PI_4 = math.pi / 4
# optimize_bound's quotients at alpha = 1 as first recorded in
# bench/reference.json; the optimizer may move, but not to a worse quotient
RECORDED_OPTIMUM = {
    0.6: -0.25393983576160706,
    PI_4: -0.2510544316311443,
    1.0: -0.2501647750400971,
    1.3: -0.2500021169645932,
}


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

    @pytest.mark.parametrize("r, below", [(-0.75, False), (-0.76, True)])
    def test_spectral_floor(self, cfg, monkeypatch, r, below):
        # no Rayleigh quotient of the operator lies below -alpha^2, so a
        # quadrature that reports one has failed
        def integrate(f, *edges):
            return QuadratureEstimate(np.array([r, 1.0]), np.zeros(2), np.full(2, 1e-13), 1, True)

        monkeypatch.setattr(variational, "integrate", integrate)
        params = TrialParams(rho=0.5, n=10.0)
        if below:
            with pytest.raises(ConvergenceError, match="below -alpha"):
                rayleigh(cfg, params)
        else:
            assert rayleigh(cfg, params).quotient == -1.0


# scalar profile F(t), the integral of exp(-alpha*|s|) over s < t, its
# power g = F(x*tan(theta))**rho and their slopes, from the definitions; the
# package evaluates them only through log F, on arrays


def _profile_F(t, alpha):
    return 2.0 / alpha - math.exp(-alpha * t) / alpha if t > 0.0 else math.exp(alpha * t) / alpha


def _profile_F_slope(t, alpha):
    return math.exp(-alpha * abs(t))


def _g(x, cfg, rho):
    return _profile_F(x * cfg.tan_theta, cfg.alpha) ** rho


def _g_slope(x, cfg, rho):
    t = x * cfg.tan_theta
    f = _profile_F(t, cfg.alpha)
    if f == 0.0:  # deep-tail underflow of F; the true slope is below 1e-300
        return 0.0
    # combine F**(rho-1) and F' = exp(-alpha*|t|) in log space: for rho < 1
    # either factor alone can over/underflow while the product stays tame
    lg = (rho - 1.0) * math.log(f) - cfg.alpha * abs(t)
    if lg < -745.0:
        return 0.0
    return rho * math.exp(lg) * cfg.tan_theta


def _oracle_quotient(cfg, rho, n):
    """Rayleigh quotient, energy functional and squared norm from scalar
    integrands through QUADPACK, panel by panel."""
    tan_t, alpha = cfg.tan_theta, cfg.alpha

    def chi(s):
        return min(1.0, max(0.0, 2.0 - abs(s)))

    def chi_slope(s):
        return -math.copysign(1.0, s) if 1.0 < abs(s) < 2.0 else 0.0

    def h(x):
        return _g(x, cfg, rho) * chi(x / n)

    def h_slope(x):
        return _g_slope(x, cfg, rho) * chi(x / n) + _g(x, cfg, rho) * chi_slope(x / n) / n

    def norm_integrand(x):
        return h(x) ** 2 * _profile_F(x * tan_t, alpha)

    def r_integrand(x):
        t = x * tan_t
        hp = h_slope(x)
        return hp * (hp * _profile_F(t, alpha) - h(x) * _profile_F_slope(t, alpha) / tan_t)

    edges = _panel_edges(cfg, n)

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
        n_lo = rep.n_opt / 100.0
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
        assert rep.r_value < -rep.r_tolerance < 0.0
        assert rep.margin > 0.0

    def test_no_later_than_closed_form_scale(self, cfg, report):
        n_found, _ = verify_thm1(cfg, 0.5)
        assert n_found <= report.n_opt

    def test_rejects_rho_at_boundary(self, cfg):
        with pytest.raises(DomainError):
            verify_thm1(cfg, cfg.cot_sq_theta)

    @pytest.mark.parametrize(
        "theta, rho, message",
        [(PI_4, 0.0, "rho must lie in"), (PI_4, math.nan, "rho must lie in"),
         (1e-320, 1.0, r"cot\(theta\) overflows")],
    )
    def test_refuses_rho_before_the_search(self, theta, rho, message):
        # the search's first TrialParams would refuse these too, but naming
        # a cutoff scale n that the caller never gave
        with pytest.raises(DomainError, match=message):
            verify_thm1(WedgeConfig(theta, 1.0), rho)


def counted(f):
    """f, and the list of abscissae it was called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestBrent:
    @pytest.fixture(autouse=True)
    def tight_bracket(self, monkeypatch):
        # the default 1e-6 stops within 5e-6 of the minimizer on [0, 5],
        # which does not guarantee abs=1e-6
        monkeypatch.setattr(variational, "OPT_REL_TOL", 1e-9)

    def test_quadratic(self):
        f, calls = counted(lambda x: (x - 2.0) ** 2)
        x, fx = _brent(f, 0.0, 5.0)
        assert len(calls) <= 10  # one parabola lands on the vertex
        assert x == pytest.approx(2.0, abs=1e-6)
        assert fx == f(x)

    def test_cosine(self):
        f, calls = counted(math.cos)
        x, _ = _brent(f, 2.0, 4.0)
        assert x == pytest.approx(math.pi, abs=1e-6)
        assert len(calls) <= 30

    def test_reversed_bracket(self):
        # near pi/2 optimize_bound's log n bracket comes reversed
        def f(x):
            return (x - 2.0) ** 2

        assert _brent(f, 5.0, 0.0) == _brent(f, 0.0, 5.0)

    def test_kink_falls_back_to_golden(self):
        # parabolas fit a kink badly; golden steps must still close in on it
        f, calls = counted(lambda x: abs(x - 1.3))
        x, _ = _brent(f, 0.0, 5.0)
        assert x == pytest.approx(1.3, abs=1e-6)
        assert len(calls) <= 40

    def test_minimizer_at_zero_end(self):
        # a tolerance relative to the shrinking bracket never stops here
        f, calls = counted(lambda x: x)
        x, _ = _brent(f, 0.0, 5.0)
        assert 0.0 <= x <= variational.OPT_REL_TOL * 5.0
        assert len(calls) <= 50


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

    @pytest.mark.parametrize("theta", sorted(RECORDED_OPTIMUM))
    def test_no_worse_than_recorded(self, theta):
        _, rep = optimize_bound(WedgeConfig(theta, 1.0))
        assert rep.quotient <= RECORDED_OPTIMUM[theta] + 1e-9 / 4.0

    def test_dilation_covariance(self, monkeypatch):
        # x -> alpha*x maps the trial family at alpha = 1 onto the one at
        # alpha: the quotient scales as alpha^2, the rho searches repeat and
        # the log n searches only shift, so the quotient count barely moves
        probes = []

        def counting(cfg, params, rayleigh=variational.rayleigh):
            probes.append(params)
            return rayleigh(cfg, params)

        monkeypatch.setattr(variational, "rayleigh", counting)
        _, unit = optimize_bound(WedgeConfig(PI_4, 1.0))
        assert len(probes) <= 60
        for alpha in (10.0, 26.67, 100.0):
            probes.clear()
            _, rep = optimize_bound(WedgeConfig(PI_4, alpha))
            assert rep.quotient == pytest.approx(alpha**2 * unit.quotient, rel=1e-9)
            assert len(probes) <= 60
