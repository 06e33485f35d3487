import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

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
from wedgebound.spectral import _even_isometry, _residual, delta_line_matrix, dirichlet_laplacian

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
        res = lowest_eigenvalue(dirichlet_laplacian(g), shift=-0.5, grid=g)
        assert res.eigenvalue == pytest.approx(2.0 * (math.pi / 16.0) ** 2, rel=1e-3)
        assert res.eigenvalue > 0.0

    def test_exact_symmetry(self):
        H = assemble(WedgeConfig(0.7, 1.0), GridSpec(12.0, 12.0 / 64))
        assert abs(H - H.T).max() == 0.0

    def test_reflection_commutes(self):
        g = GridSpec(12.0, 12.0 / 64)
        H = assemble(WedgeConfig(0.7, 1.0), g)
        P = reflection(g.n_interior)
        scale = abs(H).max()
        assert abs(H @ P - P @ H).max() <= 1e-12 * scale

    def test_too_coarse_ray_sampling(self):
        # 8/alpha fits, but rays get fewer than 8 samples only on absurd
        # grids, which the L/h >= 64 invariant already blocks; check the
        # small-box guard instead.
        with pytest.raises(DomainError):
            assemble(WedgeConfig(0.7, 0.1), GridSpec(12.0, 12.0 / 64))

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
        res = lowest_eigenvalue(assemble(WedgeConfig(PI_4, 1.0), g), shift=-2.0, grid=g)
        assert res.residual_norm <= 1e-8 * abs(res.eigenvalue)
        assert res.eigenvalue < -0.25

    def test_mirror_symmetric_ground_state(self):
        g = GridSpec(12.0, 12.0 / 128)
        res = lowest_eigenvalue(assemble(WedgeConfig(0.8, 1.0), g), shift=-2.0, grid=g)
        v = res.eigenvector
        P = reflection(g.n_interior)
        assert np.linalg.norm(v - P @ v) <= 1e-6 * np.linalg.norm(v)

    def test_deterministic(self):
        g = GridSpec(12.0, 12.0 / 64)
        H = assemble(WedgeConfig(0.8, 1.0), g)
        r1 = lowest_eigenvalue(H, shift=-2.0, grid=g)
        r2 = lowest_eigenvalue(H, shift=-2.0, grid=g)
        assert r1.eigenvalue == r2.eigenvalue

    def test_bad_shift_recovers(self):
        # a shift above the lowest eigenvalue must be detected and lowered
        g = GridSpec(12.0, 12.0 / 128)
        H = assemble(WedgeConfig(PI_4, 1.0), g)
        res = lowest_eigenvalue(H, shift=-0.26, grid=g)
        assert res.eigenvalue < -0.25


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
    return solve(WedgeConfig(PI_4, 1.0), L=12.0, h=12.0 / 96, max_enlargements=0)


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
        return cfg, g, solve(cfg, L=g.L, h=g.h, max_enlargements=0)

    def test_matches_full_grid(self, reduced):
        cfg, g, res = reduced
        for lam in res.grid_eigenvalues:
            full = lowest_eigenvalue(assemble(cfg, g), shift=-2.0, grid=g).eigenvalue
            assert lam == pytest.approx(full, rel=1e-9, abs=0.0)
            g = g.refined()

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
