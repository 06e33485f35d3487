import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from wedgebound import (
    ConvergenceError,
    DomainError,
    GridSpec,
    WedgeConfig,
    assemble,
    delta_well_1d,
    lambda_upper,
    lowest_eigenvalue,
    solve,
)
from wedgebound import spectral
from wedgebound.spectral import (
    _even_isometry,
    _has_positive_off_diagonal,
    _next_shift,
    _residual,
    _solve_level,
    delta_line_matrix,
    dirichlet_laplacian,
)

PI_4 = math.pi / 4


def reflection(m: int) -> sp.csr_matrix:
    idx = np.arange(m * m).reshape(m, m)[:, ::-1].ravel()
    return sp.csr_matrix(
        (np.ones(m * m), (np.arange(m * m), idx)), shape=(m * m, m * m)
    )


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(L=8.0, h=0.125)
        assert g.n_intervals == 128
        assert g.n_interior == 127

    def test_rejects_non_divisor(self):
        with pytest.raises(DomainError):
            GridSpec(L=8.0, h=0.3)

    def test_rejects_coarse(self):
        with pytest.raises(DomainError):
            GridSpec(L=8.0, h=0.25)  # L/h = 32 < 64

    def test_refine_and_enlarge(self):
        g = GridSpec(L=8.0, h=0.125)
        assert g.refined().n_intervals == 256
        assert g.enlarged().n_intervals == g.n_intervals


class TestAssemble:
    def test_laplacian_ground_state(self):
        g = GridSpec(L=8.0, h=8.0 / 64)
        res = lowest_eigenvalue(dirichlet_laplacian(g), shift=-0.5)
        assert res.eigenvalue == pytest.approx(2.0 * (math.pi / 16.0) ** 2, rel=1e-3)
        assert res.eigenvalue > 0.0

    def test_exact_symmetry(self):
        H = assemble(WedgeConfig(0.7, 1.0), GridSpec(12.0, 12.0 / 64))
        assert abs(H - H.T).max() == 0.0

    def test_reflection_commutes(self):
        g = GridSpec(12.0, 12.0 / 64)
        H = assemble(WedgeConfig(0.7, 1.0), g)
        P = reflection(g.n_interior)
        assert abs(H @ P - P @ H).max() == 0.0

    def test_too_coarse_ray_sampling(self):
        # a ray runs at least L inside the box, so the L/h >= 64 invariant
        # already gives it 64 samples; check the small-box guard instead.
        with pytest.raises(DomainError):
            assemble(WedgeConfig(0.7, 0.1), GridSpec(12.0, 12.0 / 64))

    @given(theta=st.floats(0.2, 1.5), alpha=st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_z_matrix(self, theta, alpha):
        # the shift certificate of lowest_eigenvalue rests on this
        L = 8.0 / alpha
        g = GridSpec(L, L / 64)  # the coarsest grid GridSpec allows
        H = assemble(WedgeConfig(theta, alpha), g)
        P = _even_isometry(g.n_interior)
        assert not _has_positive_off_diagonal(H)
        assert not _has_positive_off_diagonal(P.T @ H @ P)
        # the even-subspace restriction rests on an exact reflection symmetry
        m = g.n_interior
        idx = np.arange(m * m).reshape(m, m)[:, ::-1].ravel()
        assert (H[idx][:, idx] != H).nnz == 0

    def test_delta_term_negative_semidefinite_direction(self):
        g = GridSpec(12.0, 12.0 / 64)
        D = delta_line_matrix(WedgeConfig(0.9, 1.0), g)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(D.shape[0])
            assert v @ (D @ v) >= 0.0


class TestLowestEigenvalue:
    def test_residual_small(self):
        g = GridSpec(12.0, 12.0 / 128)
        res = lowest_eigenvalue(assemble(WedgeConfig(PI_4, 1.0), g), shift=-2.0)
        assert res.residual_norm <= 1e-8 * abs(res.eigenvalue)
        assert res.eigenvalue < -0.25

    def test_mirror_symmetric_ground_state(self):
        g = GridSpec(12.0, 12.0 / 128)
        res = lowest_eigenvalue(assemble(WedgeConfig(0.8, 1.0), g), shift=-2.0)
        v = res.eigenvector
        P = reflection(g.n_interior)
        assert np.linalg.norm(v - P @ v) <= 1e-6 * np.linalg.norm(v)

    def test_deterministic(self):
        g = GridSpec(12.0, 12.0 / 64)
        H = assemble(WedgeConfig(0.8, 1.0), g)
        r1 = lowest_eigenvalue(H, shift=-2.0)
        r2 = lowest_eigenvalue(H, shift=-2.0)
        assert r1.eigenvalue == r2.eigenvalue

    @pytest.fixture(scope="class")
    def spectrum(self):
        # lambda_0 = -0.2541 and lambda_1 = -0.1905 on this grid
        g = GridSpec(12.0, 12.0 / 128)
        H = assemble(WedgeConfig(PI_4, 1.0), g)
        lams = eigsh(H, k=2, sigma=-2.0, which="LM", return_eigenvectors=False)
        return H, g, sorted(lams)

    def test_bad_shift_recovers(self, spectrum):
        # a shift above the lowest eigenvalue must be detected and lowered
        H, g, (lam0, lam1) = spectrum
        res = lowest_eigenvalue(H, shift=lam0 + 0.25 * (lam1 - lam0))
        assert res.eigenvalue == pytest.approx(lam0, rel=1e-9, abs=0.0)
        assert res.shift < lam0

    def test_shift_nearer_second_eigenvalue(self, spectrum):
        # Lanczos converges to the eigenvalue nearest the shift, lambda_1
        # here, which lies above the shift: only the certificate rejects it
        H, g, (lam0, lam1) = spectrum
        res = lowest_eigenvalue(H, shift=lam0 + 0.75 * (lam1 - lam0))
        assert res.eigenvalue == pytest.approx(lam0, rel=1e-9, abs=0.0)
        assert res.shift < lam0

    def test_rejects_positive_off_diagonal(self):
        g = GridSpec(12.0, 12.0 / 64)
        H = assemble(WedgeConfig(PI_4, 1.0), g).tolil()
        H[0, 1] = H[1, 0] = 1e-3
        with pytest.raises(DomainError):
            lowest_eigenvalue(H.tocsr(), shift=-2.0)

    def test_previous_level_shift_saves_solves(self):
        cfg = WedgeConfig(PI_4, 1.0)
        coarse = GridSpec(48.0, 0.75)
        lam = lowest_eigenvalue(assemble(cfg, coarse), shift=-2.0).eigenvalue
        H = assemble(cfg, coarse.refined())
        fixed = lowest_eigenvalue(H, shift=-2.0)
        near = lowest_eigenvalue(H, shift=_next_shift([lam]))
        assert (fixed.shift, near.shift) == (-2.0, _next_shift([lam]))
        assert near.eigenvalue == pytest.approx(fixed.eigenvalue, rel=1e-9, abs=0.0)
        assert near.solves < fixed.solves


class TestDeltaWell1D:
    def test_calibration(self):
        res = delta_well_1d(1.0)
        assert res.extrapolated == pytest.approx(-0.25, rel=2e-3)
        assert abs(res.extrapolated - -0.25) <= 0.002 * 0.25

    def test_coupling_scaling(self):
        res = delta_well_1d(2.0)
        assert res.extrapolated == pytest.approx(-1.0, rel=2e-3)


@pytest.fixture(scope="module")
def quarter():
    # small grids keep this test affordable; acceptance runs defaults
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "MAX_ENLARGEMENTS", 0)
        return solve(WedgeConfig(PI_4, 1.0), L=12.0, h=12.0 / 96)


class TestSolve:
    def test_below_essential_spectrum(self, quarter):
        assert quarter.extrapolated < -0.25

    def test_beats_closed_form_bound(self, quarter):
        bound = -(0.25 + lambda_upper(PI_4))
        assert quarter.extrapolated <= bound + quarter.error_estimate

    def test_extrapolation_monotone(self, quarter):
        e = quarter.extrapolated
        errs = [abs(lam - e) for lam in quarter.grid_eigenvalues]
        assert errs[2] < errs[1] < errs[0]

    def test_metadata(self, quarter):
        assert quarter.error_estimate >= 0.0
        assert quarter.boundary_mass is not None
        assert quarter.enlargements == 0
        assert quarter.eigenvalue == quarter.grid_eigenvalues[-1]


class TestEvenSubspace:
    def test_isometry(self):
        m = 7
        P = _even_isometry(m)
        assert P.shape == (m * m, m * (m + 1) // 2)
        assert abs(P.T @ P - sp.identity(P.shape[1])).max() <= 1e-15
        assert abs(reflection(m) @ P - P).max() == 0.0

    @pytest.fixture(scope="class")
    def reduced(self):
        cfg = WedgeConfig(PI_4, 1.0)
        g = GridSpec(12.0, 12.0 / 64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "MAX_ENLARGEMENTS", 0)
            return cfg, g, solve(cfg, L=g.L, h=g.h)

    def test_matches_full_grid(self, monkeypatch):
        # adaptive shifts on the even subspace against the fixed shift
        # -2*alpha^2 on the full grid
        monkeypatch.setattr(spectral, "MAX_ENLARGEMENTS", 0)
        for theta, alpha in itertools.product((0.3, PI_4, 1.3), (1.0, 2.0)):
            cfg = WedgeConfig(theta, alpha)
            g = GridSpec(12.0, 12.0 / 64)
            res = solve(cfg, L=g.L, h=g.h)
            for lam in res.grid_eigenvalues:
                H = assemble(cfg, g)
                full = lowest_eigenvalue(H, shift=-2.0 * alpha**2)
                assert lam == pytest.approx(full.eigenvalue, rel=1e-9, abs=0.0), (
                    theta, alpha, g
                )
                g = g.refined()

    @given(theta=st.floats(0.2, 1.5), alpha=st.floats(0.5, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_ground_state_is_even(self, theta, alpha):
        # the even subspace holds the lowest eigenvalue of the full grid
        cfg = WedgeConfig(theta, alpha)
        L = 8.0 / alpha
        g = GridSpec(L, L / 64)
        even = _solve_level(cfg, g, -2.0 * alpha**2)
        full = lowest_eigenvalue(assemble(cfg, g), -2.0 * alpha**2)
        assert even.eigenvalue == pytest.approx(full.eigenvalue, rel=1e-9, abs=0.0)

    def test_lifted_eigenvector(self, reduced):
        cfg, _, res = reduced
        v, m = res.eigenvector, res.grid.n_interior
        assert v.shape == (m * m,)
        assert np.linalg.norm(v - reflection(m) @ v) <= 1e-12 * np.linalg.norm(v)
        H = assemble(cfg, res.grid)
        assert _residual(H, res.eigenvalue, v) <= 1e-8 * abs(res.eigenvalue)
        assert res.residual_norm == _residual(H, res.eigenvalue, v)


class TestSolverFailures:
    @pytest.fixture(scope="class")
    def H(self):
        return assemble(WedgeConfig(PI_4, 1.0), GridSpec(12.0, 12.0 / 64))

    def test_arpack_failure_is_convergence_error(self, H, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        with pytest.raises(ConvergenceError):
            lowest_eigenvalue(H, shift=-2.0)

    def test_programming_error_propagates(self, H, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(spectral, "eigsh", bug)
        with pytest.raises(TypeError):
            lowest_eigenvalue(H, shift=-2.0)

    def test_inaccurate_eigenvector_is_convergence_error(self, H, monkeypatch):
        def perturbed(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            return vals, vecs + 1e-3

        monkeypatch.setattr(spectral, "eigsh", perturbed)
        with pytest.raises(ConvergenceError, match="residual"):
            lowest_eigenvalue(H, shift=-2.0)
