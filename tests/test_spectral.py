import dataclasses
import gc
import itertools
import math
import tracemalloc
from unittest.mock import Mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu

from wedgebound import ConvergenceError, DomainError, GridSpec, WedgeConfig, lambda_upper, solve
from wedgebound import spectral
from wedgebound.spectral import (
    _VCycle,
    _assemble_even,
    _certified_inverse,
    _certify,
    _even_basis,
    _five_point,
    _full_product,
    _multigrid_eigenpair,
    _next_shift,
    _prolongation,
    _rayleigh_ritz,
    _residual,
    assemble,
    lowest_eigenvalue,
)
from conftest import delta_well_1d

PI_4 = math.pi / 4


def reflection(m: int) -> sp.csr_matrix:
    idx = np.arange(m * m).reshape(m, m)[:, ::-1].ravel()
    return sp.csr_matrix(
        (np.ones(m * m), (np.arange(m * m), idx)), shape=(m * m, m * m)
    )


def even_isometry(m: int) -> sp.csr_matrix:
    # the even subspace's orthonormal basis P, node by node: node (i, j) and
    # its mirror (i, m-1-j) share a column at weight 1/sqrt(2), the node on
    # the bisector has its own at weight 1
    half = (m + 1) // 2
    cols = np.arange(m * half).reshape(m, half)
    cols = np.hstack([cols, cols[:, -2::-1]])  # column of each node (x-major)
    vals = np.full((m, m), math.sqrt(0.5))
    vals[:, half - 1] = 1.0
    return sp.csr_matrix(
        (vals.ravel(), (np.arange(m * m), cols.ravel())), shape=(m * m, m * half)
    )


class TestGridSpec:
    def test_valid(self):
        g = GridSpec(L=8.0, n=64)
        assert g.h == 0.125
        assert g.n_interior == 127

    def test_rejects_non_integer(self):
        # a spacing that does not divide L cannot be written; n must be an int
        for n in (64.5, 64.0, True, np.int64(64)):
            with pytest.raises(DomainError):
                GridSpec(L=8.0, n=n)

    def test_rejects_coarse(self):
        with pytest.raises(DomainError):
            GridSpec(L=8.0, n=32)

    @pytest.mark.parametrize("L", [0.0, -8.0, math.inf, math.nan])
    def test_rejects_bad_box(self, L):
        with pytest.raises(DomainError):
            GridSpec(L=L, n=64)

    @pytest.mark.parametrize(
        "spacing, match", [(1e-300, "squares below"), (1e-100, "more unknowns")]
    )
    def test_rejects_spacing_before_allocating(self, spacing, match):
        # h^2 underflows to 0 at 1e-300; (2n - 1)^2 overflows an index at 1e-100
        with pytest.raises(DomainError, match=match):
            GridSpec(12.0, round(12.0 / spacing))

    def test_refine_and_enlarge(self):
        g = GridSpec(L=8.0, n=64)
        assert g.refined() == GridSpec(8.0, 128)
        assert g.enlarged() == GridSpec(16.0, 64)
        assert g.enlarged().n_interior == g.n_interior

    @given(L=st.floats(1e-3, 1e6), n=st.integers(64, 4096))
    @settings(max_examples=200, deadline=None)
    def test_refine_and_enlarge_spacing_exact(self, L, n):
        # solve's grid ladder h, h/2, h/4 and the doubled box rest on this
        g = GridSpec(L, n)
        assert g.refined().h == g.h / 2
        assert g.enlarged().h == 2 * g.h
        assert g.refined().refined().h == (L / n) / 4


class TestAssemble:
    def test_laplacian_ground_state(self):
        g = GridSpec(L=8.0, n=64)
        m = g.n_interior
        res = lowest_eigenvalue(_five_point(m, m, g.h * g.h, 1.0), shift=-0.5)
        assert res.eigenvalue == pytest.approx(2.0 * (math.pi / 16.0) ** 2, rel=1e-3)
        assert res.eigenvalue > 0.0

    @pytest.mark.parametrize("n", [64, 65, 128])
    def test_laplacian_is_kron_sum(self, n):
        # the stencil written directly is the Kronecker sum, bit for bit
        g = GridSpec(12.0, n)
        m, h2 = g.n_interior, g.h * g.h
        k1 = sp.diags(
            [np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)],
            offsets=[-1, 0, 1],
            format="csr",
        ) / h2
        eye = sp.identity(m, format="csr")
        expected = (sp.kron(k1, eye) + sp.kron(eye, k1)).tocsr()
        got = _five_point(m, m, h2, 1.0)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(expected, field))

    def test_exact_symmetry(self):
        H = assemble(0.7, GridSpec(12.0, 64))
        assert abs(H - H.T).max() == 0.0

    def test_reflection_commutes(self):
        g = GridSpec(12.0, 64)
        H = assemble(0.7, g)
        P = reflection(g.n_interior)
        assert abs(H @ P - P @ H).max() == 0.0

    @given(theta=st.floats(0.2, 1.5), L=st.floats(8.0, 48.0))
    @settings(max_examples=30, deadline=None)
    def test_z_matrix(self, theta, L):
        # the refined levels' LOBPCG sign check rests on this: the ground
        # state of an irreducible Z-matrix is its only eigenvector without a
        # sign change
        g = GridSpec(L, 64)  # the coarsest grid GridSpec allows
        H = assemble(theta, g)
        for M in (H.tocoo(), _assemble_even(theta, g).tocoo()):
            assert not np.any(M.data[M.row != M.col] > 0.0)
        # the even-subspace restriction rests on an exact reflection symmetry
        m = g.n_interior
        idx = np.arange(m * m).reshape(m, m)[:, ::-1].ravel()
        assert (H[idx][:, idx] != H).nnz == 0

    @pytest.mark.parametrize("L, n", [(12.0, 64), (20.0, 100), (48.0, 256)])
    @pytest.mark.parametrize("theta", [0.005, 0.05, PI_4, 1.3, 1.55])
    def test_full_product_is_the_matrix_product(self, theta, L, n):
        # the lifted residual check applies the full grid's operator without
        # assembling it; at most 3.6e-16 of max|Hv| measured
        g = GridSpec(L, n)
        v = np.random.default_rng(5).standard_normal(g.n_interior**2)
        expected = assemble(theta, g) @ v
        got = _full_product(theta, g, v)
        assert abs(got - expected).max() <= 1e-14 * abs(expected).max()

    def test_delta_term_negative_semidefinite_direction(self):
        # the line term times the coupling, which assemble subtracts
        g = GridSpec(12.0, 64)
        m = g.n_interior
        D = _five_point(m, m, g.h * g.h, 1.0) - assemble(0.9, g)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(D.shape[0])
            assert v @ (D @ v) >= 0.0


class TestLowestEigenvalue:
    def test_residual_small(self):
        g = GridSpec(12.0, 128)
        res = lowest_eigenvalue(assemble(PI_4, g), shift=-2.0)
        assert res.residual_norm <= 1e-8 * abs(res.eigenvalue)
        assert res.eigenvalue < -0.25

    def test_mirror_symmetric_ground_state(self):
        g = GridSpec(12.0, 128)
        res = lowest_eigenvalue(assemble(0.8, g), shift=-2.0)
        v = res.eigenvector
        P = reflection(g.n_interior)
        assert np.linalg.norm(v - P @ v) <= 1e-6 * np.linalg.norm(v)

    def test_deterministic(self):
        g = GridSpec(12.0, 64)
        H = assemble(0.8, g)
        r1 = lowest_eigenvalue(H, shift=-2.0)
        r2 = lowest_eigenvalue(H, shift=-2.0)
        assert r1.eigenvalue == r2.eigenvalue

    @pytest.fixture(scope="class")
    def spectrum(self):
        # lambda_0 = -0.2541 and lambda_1 = -0.1905 on this grid
        g = GridSpec(12.0, 128)
        H = assemble(PI_4, g)
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

    @pytest.mark.parametrize("case, certified", [("one_pair", -2.0), ("all_flipped", -37.0)])
    def test_matrix_with_positive_off_diagonal(self, case, certified):
        # the certificate tests the comparison matrix, so H need not be a
        # Z-matrix; with every off-diagonal sign flipped it fails at -2 and -9
        H = assemble(PI_4, GridSpec(12.0, 64))
        if case == "one_pair":
            H = H.tolil()
            H[0, 1] = H[1, 0] = 1e-3
        else:
            H = 2.0 * sp.diags(H.diagonal()) - H
        H = H.tocsr()
        lam0 = eigsh(H, k=1, sigma=-2.0, which="LM", return_eigenvectors=False)[0]
        res = lowest_eigenvalue(H, shift=-2.0)
        assert res.eigenvalue == pytest.approx(lam0, rel=1e-9, abs=0.0)
        assert res.shift == certified

    def test_one_level_inverse_is_the_factor(self):
        # with no refined level the V-cycle is the coarse factor's solve, and
        # its certificate's CG stops after one application
        R = _assemble_even(PI_4, GridSpec(12.0, 64))
        sigma = -2.0
        certified, inverse = _certified_inverse([R], [], sigma)
        assert (certified, inverse.solves) == (sigma, 1)
        A = sp.csc_matrix(R - sigma * sp.identity(R.shape[0]))
        factor = splu(A, permc_spec="MMD_AT_PLUS_A")
        b = np.random.default_rng(0).standard_normal(R.shape[0])
        assert np.array_equal(inverse @ b, factor.solve(b))

    def test_narrow_gap_needs_lanczos(self):
        # on the grid solve() dilates alpha = 8, L = 12 to, lambda_0 =
        # -0.193989 and lambda_1 = -0.193793: the ground state sits just below
        # the discretized line states, a gap that shift-invert Lanczos
        # resolves and LOBPCG from a flat start, even with the exact inverse,
        # does not within its iteration cap
        R = _assemble_even(1.55, GridSpec(96.0, 64))
        lam0 = min(eigsh(R, k=2, sigma=-2.0, which="LM", return_eigenvectors=False))
        res = lowest_eigenvalue(R, shift=-2.0)
        assert res.eigenvalue == pytest.approx(lam0, rel=1e-9, abs=0.0)
        with pytest.raises(ConvergenceError, match="did not converge"):
            _multigrid_eigenpair([R], [], -2.0, np.ones(R.shape[0]))

    def test_previous_level_shift_saves_solves(self):
        # solve() shifts a coarse re-solve in an enlarged box by _next_shift;
        # 22 solves against 52 at -2 here
        coarse = GridSpec(12.0, 64)
        lam = lowest_eigenvalue(_assemble_even(PI_4, coarse), shift=-2.0).eigenvalue
        R = _assemble_even(PI_4, coarse.enlarged())
        fixed = lowest_eigenvalue(R, shift=-2.0)
        near = lowest_eigenvalue(R, shift=_next_shift([lam]))
        assert (fixed.shift, near.shift) == (-2.0, _next_shift([lam]))
        assert near.eigenvalue == pytest.approx(fixed.eigenvalue, rel=1e-9, abs=0.0)
        assert near.solves < fixed.solves

    @pytest.mark.parametrize(
        "solved, shift",
        [
            ([-1.0, -0.875], -1.125),  # 2|delta lambda| = 0.25 binds
            ([-1.0, -0.9375], -1.171875),  # |lambda|/4 = 0.234375 binds
        ],
    )
    def test_next_shift_takes_the_larger_step(self, solved, shift):
        assert _next_shift(solved) == shift


class TestResidual:
    @pytest.fixture(scope="class")
    def pair(self):
        H = assemble(PI_4, GridSpec(12.0, 64))
        res = lowest_eigenvalue(H, shift=-2.0)
        return H, res.eigenvalue, res.eigenvector

    def test_nan_is_convergence_error(self, pair):
        # a NaN residual compares false with the limit, and must not pass
        H, lam, v = pair
        v = v.copy()
        v[0] = math.nan
        with pytest.raises(ConvergenceError, match="residual"):
            _residual(H @ v, lam, v)

    def test_tiny_scale_does_not_underflow(self, pair):
        # at 2**-600 the squares of the residual's entries underflow to 0;
        # the norm scales, so the residual scales with H
        H, lam, v = pair
        scale = 2.0**-600
        res = _residual(scale * (H @ v), scale * lam, v)
        assert res == pytest.approx(scale * _residual(H @ v, lam, v), rel=1e-12, abs=0.0)


class TestCertify:
    def test_refuses_indefinite_matrix(self):
        # eigenvalues 3 and -1, yet A x = 3 > 0 at x = 1: only the comparison
        # matrix [[1, -2], [-2, 1]] shows that sigma = 0 is not below -1
        A = sp.csr_matrix([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ConvergenceError, match="not certified"):
            _certify(A, np.ones(2), 0.0)


class TestDeltaWell1D:
    def test_calibration(self):
        lam = delta_well_1d()
        assert lam == pytest.approx(-0.25, rel=2e-3)
        assert abs(lam - -0.25) <= 0.002 * 0.25


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
        with pytest.raises(dataclasses.FrozenInstanceError):
            quarter.eigenvalue = 0.0

    def test_dilation_covariance(self, monkeypatch):
        # solve() dilates L = 8/alpha with n fixed to the box 8 (to rounding)
        # and scales by alpha^2
        monkeypatch.setattr(spectral, "MAX_ENLARGEMENTS", 0)
        lams = {}
        for alpha in (1.0, 0.1):
            L = 8.0 / alpha
            res = solve(WedgeConfig(PI_4, alpha), L=L, h=L / 64)
            lams[alpha] = np.array(res.grid_eigenvalues) / alpha**2
        assert lams[0.1] == pytest.approx(lams[1.0], rel=1e-9, abs=0.0)

    def test_default_box_follows_one_over_alpha(self):
        # the default box 12/alpha at alpha = 2 is the alpha = 1 grid dilated
        # by 1/2, on which H_2 = 4 H_1 bit for bit; both enlarge twice
        one = solve(WedgeConfig(PI_4, 1.0), h=12.0 / 64)
        two = solve(WedgeConfig(PI_4, 2.0), h=6.0 / 64)
        assert two.grid_eigenvalues == tuple(4.0 * lam for lam in one.grid_eigenvalues)
        assert (one.grid.L, two.grid.L) == (48.0, 24.0)

    @pytest.fixture(scope="class")
    def at_alpha_one(self):
        return solve(WedgeConfig(0.7, 1.0), L=12.0, h=0.1875)

    @pytest.mark.parametrize("alpha", [2.0**-400, 2.0**-330, 2.0**27])
    def test_dilation_is_exact_at_any_scale(self, at_alpha_one, alpha):
        # the grid 12/alpha, 0.1875/alpha dilates to L = 12, h = 0.1875 at every
        # alpha, and alpha^2 is a power of two; when the kernels took alpha,
        # 2**-400 gave a positive eigenvalue (the line term underflowed),
        # 2**-330 extrapolated 17% off and 2**27 raised ConvergenceError
        res = solve(WedgeConfig(0.7, alpha), L=12.0 / alpha, h=0.1875 / alpha)
        one, scale = at_alpha_one, alpha**2
        assert res.grid_eigenvalues == tuple(scale * lam for lam in one.grid_eigenvalues)
        assert res.extrapolated == scale * one.extrapolated
        assert res.error_estimate == scale * one.error_estimate
        assert res.grid.L == 48.0 / alpha

    def test_refuses_a_box_below_eight_over_alpha_before_assembling(self, monkeypatch):
        def assembled(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(spectral, "_assemble_even", assembled)
        with pytest.raises(DomainError, match="below 8/alpha"):
            solve(WedgeConfig(0.7, 0.1), L=12.0)

    def test_refuses_alpha_squared_below_the_normal_range(self):
        # alpha^2 = 1e-320 is subnormal, so a scaled result would lose digits
        with pytest.raises(DomainError, match=r"alpha\^2 = .* is not a normal float"):
            solve(WedgeConfig(0.7, 1e-160))

    def test_calls_the_benchmark_hooks(self, monkeypatch):
        # the benchmark wraps both module attributes: solve() makes one
        # Lanczos solve per box, and its lifted residual checks apply the
        # full grid's operator without assembling it
        expected = {"lowest_eigenvalue": 3, "assemble": 0}
        hooks = {name: Mock(wraps=getattr(spectral, name)) for name in expected}
        for name, hook in hooks.items():
            monkeypatch.setattr(spectral, name, hook)
        res = solve(WedgeConfig(PI_4, 1.0), L=12.0, h=0.1875)
        assert res.enlargements == 2
        assert {name: hook.call_count for name, hook in hooks.items()} == expected

    def test_refuses_grid_beyond_memory_before_assembling(self, monkeypatch):
        # L/h = 12,000 would put about 9.2e9 nodes on the finest level;
        # L/h = MAX_INTERVALS passes the check and reaches the first assembly
        def assembled(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(spectral, "_assemble_even", assembled)
        with pytest.raises(DomainError, match="at most 256"):
            solve(WedgeConfig(PI_4, 1.0), L=12.0, h=0.001)
        with pytest.raises(AssertionError, match="assembled"):
            solve(WedgeConfig(PI_4, 1.0), L=12.0, h=12.0 / spectral.MAX_INTERVALS)

    def test_peak_memory_per_finest_node(self, monkeypatch):
        # no full-grid matrix is assembled: 178 bytes per node with the lifted
        # residual check's matrix-free product, 221 when the check assembled
        # the matrix after the V-cycle was freed, 307 when it was kept
        monkeypatch.setattr(spectral, "MAX_ENLARGEMENTS", 0)
        tracemalloc.start()
        try:
            res = solve(WedgeConfig(PI_4, 1.0), L=12.0, h=12.0 / 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * res.grid.n_interior**2

    def test_leaves_no_reference_cycle(self, monkeypatch):
        # in-process callers (sweep, the benchmark) keep a flat peak RSS only
        # if each solve's matrices are freed on return, not by the cyclic GC
        monkeypatch.setattr(spectral, "MAX_ENLARGEMENTS", 0)
        gc.collect()
        gc.disable()
        try:
            solve(WedgeConfig(PI_4, 1.0), L=12.0, h=12.0 / 64)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEvenSubspace:
    def test_isometry(self):
        # P = I kron e is an isometry onto the even functions if e is
        m = 7
        e = _even_basis(m)
        assert e.shape == (m, (m + 1) // 2)
        assert abs(e.T @ e - sp.identity(e.shape[1])).max() <= 1e-15
        assert (e[::-1] != e).nnz == 0
        assert (sp.kron(sp.identity(m), e) != even_isometry(m)).nnz == 0

    @pytest.mark.parametrize("n", [64, 65, 128])
    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    @pytest.mark.parametrize("theta", [0.2, PI_4, 1.5])
    def test_assembled_from_factors(self, theta, alpha, n):
        # against the reduction of the full grid's matrix, symmetrized, on
        # the grid solve() dilates a box of 16 to: 8 at alpha = 0.5, the
        # smallest it takes, and 48 at alpha = 3
        g = GridSpec(16.0 * alpha, n)
        P = even_isometry(g.n_interior)
        expected = P.T @ assemble(theta, g) @ P
        expected = (expected + expected.T) * 0.5
        R = _assemble_even(theta, g)
        assert abs(R - expected).max() <= 1e-13 * abs(R).max()
        assert (R != R.T).nnz == 0
        C = R.tocoo()
        assert not np.any(C.data[C.row != C.col] > 0.0)

    @pytest.mark.parametrize("m", [127, 129, 255])
    def test_prolongation_is_the_reduced_product(self, m):
        i = np.arange(m)
        rows = (2 * i[:, None] + [0, 1, 2]).ravel()
        p = sp.csr_matrix(
            (np.tile([0.5, 1.0, 0.5], m), (rows, i.repeat(3))), shape=(2 * m + 1, m)
        )
        expected = (even_isometry(2 * m + 1).T @ sp.kron(p, p) @ even_isometry(m)).tocsr()
        got = _prolongation(m)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(expected, field))

    @pytest.fixture(scope="class")
    def reduced(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "MAX_ENLARGEMENTS", 0)
            return solve(WedgeConfig(PI_4, 1.0), L=12.0, h=12.0 / 64)

    def test_matches_full_grid(self, monkeypatch):
        # adaptive shifts on the even subspace against the fixed shift -2 on
        # the full grid that solve() dilates L = 12 to, scaled by alpha^2
        monkeypatch.setattr(spectral, "MAX_ENLARGEMENTS", 0)
        cases = [*itertools.product((0.3, PI_4, 1.3), (1.0, 2.0)), (1.45, 4.0)]
        for theta, alpha in cases:
            res = solve(WedgeConfig(theta, alpha), L=12.0, h=12.0 / 64)
            g = GridSpec(12.0 * alpha, 64)
            for lam in res.grid_eigenvalues:
                full = lowest_eigenvalue(assemble(theta, g), shift=-2.0)
                assert lam == pytest.approx(alpha**2 * full.eigenvalue, rel=1e-9, abs=0.0), (
                    theta, alpha, g
                )
                g = g.refined()

    @given(theta=st.floats(0.2, 1.5), L=st.floats(8.0, 48.0))
    @settings(max_examples=15, deadline=None)
    def test_ground_state_is_even(self, theta, L):
        # the even subspace holds the lowest eigenvalue of the full grid
        g = GridSpec(L, 64)
        even = lowest_eigenvalue(_assemble_even(theta, g), -2.0)
        full = lowest_eigenvalue(assemble(theta, g), -2.0)
        assert even.eigenvalue == pytest.approx(full.eigenvalue, rel=1e-9, abs=0.0)

    def test_mirror_asymmetric_operator_fails_full_residual(self, monkeypatch):
        # a symmetric Z-matrix that is not mirror symmetric: the even-subspace
        # eigenpair passes lowest_eigenvalue's check, its lift must not pass
        mirror_symmetric = spectral._full_product

        def asymmetric(theta, grid, v):
            Hv = mirror_symmetric(theta, grid, v)
            m = grid.n_interior
            a = (m // 2) * m + m // 2 + 2  # node (0, 2h), off the bisector
            Hv[a] -= 0.5 * v[a + 1]
            Hv[a + 1] -= 0.5 * v[a]
            return Hv

        monkeypatch.setattr(spectral, "_full_product", asymmetric)
        with pytest.raises(ConvergenceError, match="residual"):
            solve(WedgeConfig(PI_4, 1.0), L=12.0, h=12.0 / 64)

    def test_lifted_eigenvector(self, reduced):
        res = reduced
        v, m = res.eigenvector, res.grid.n_interior
        assert v.shape == (m * m,)
        assert np.linalg.norm(v - reflection(m) @ v) <= 1e-12 * np.linalg.norm(v)
        H = assemble(PI_4, res.grid)
        assert _residual(H @ v, res.eigenvalue, v) <= 1e-8 * abs(res.eigenvalue)
        Hv = _full_product(PI_4, res.grid, v)
        assert res.residual_norm == _residual(Hv, res.eigenvalue, v)


class TestSolverFailures:
    @pytest.fixture(scope="class")
    def H(self):
        return assemble(PI_4, GridSpec(12.0, 64))

    def test_arpack_failure_is_convergence_error(self, H, monkeypatch):
        # a lower shift cannot help Lanczos at a certified one: no retry
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs["sigma"])
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        with pytest.raises(ConvergenceError, match="certified shift -2.0"):
            lowest_eigenvalue(H, shift=-2.0)
        assert calls == [-2.0]

    def test_singular_factor_lowers_the_shift(self, H, monkeypatch):
        expected = lowest_eigenvalue(H, shift=-2.0).eigenvalue
        calls = []

        def singular_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(spectral, "splu", singular_once)
        res = lowest_eigenvalue(H, shift=-2.0)
        assert (res.shift, len(calls)) == (-9.0, 2)  # 4*sigma - 1
        assert res.eigenvalue == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_uncertified_shifts_are_convergence_error(self, H, monkeypatch):
        tried = []

        def never(A, x, sigma):
            tried.append(sigma)
            raise ConvergenceError(f"shift {sigma} is not certified below the spectrum")

        monkeypatch.setattr(spectral, "_certify", never)
        with pytest.raises(ConvergenceError, match="no shift certified"):
            lowest_eigenvalue(H, shift=-2.0)
        assert len(tried) == spectral.MAX_SHIFT_RETRIES + 1
        assert tried == [-2.0, -9.0, -37.0, -149.0, -597.0]

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


class TestRefinedLevel:
    """LOBPCG with a V-cycle onto the coarse factor, on one refined level."""

    @pytest.fixture(scope="class")
    def levels(self):
        # lambda_0 = -0.2541 and lambda_1 = -0.1539 on the refined even subspace
        g = GridSpec(12.0, 64)
        Rc, R = (_assemble_even(PI_4, grid) for grid in (g, g.refined()))
        prolong = _prolongation(g.n_interior)
        start = prolong @ lowest_eigenvalue(Rc, shift=-2.0).eigenvector
        lams, vecs = eigsh(R, k=2, sigma=-2.0, which="LM")
        order = np.argsort(lams)
        return [Rc, R], [prolong], start, lams[order], vecs[:, order[1]]

    def test_bad_shift_recovers(self, levels):
        # a shift above the lowest eigenvalue fails the certificate and is lowered
        reduced, prolongs, start, (lam0, lam1), _ = levels
        bad = lam0 + 0.25 * (lam1 - lam0)
        res = _multigrid_eigenpair(reduced, prolongs, bad, start)
        assert type(res.eigenvalue) is float  # np.float64 would print differently
        assert res.eigenvalue == pytest.approx(
            lowest_eigenvalue(reduced[-1], shift=-2.0).eigenvalue, rel=1e-9, abs=0.0
        )
        assert res.shift < lam0

    def test_iteration_cap_is_convergence_error(self, levels, monkeypatch):
        reduced, prolongs, start, (lam0, _), _ = levels
        monkeypatch.setattr(spectral, "LOBPCG_MAXITER", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            _multigrid_eigenpair(reduced, prolongs, _next_shift([lam0]), start)

    def test_excited_state_is_convergence_error(self, levels):
        # started on the second eigenvector, LOBPCG stays there; the shift
        # certificate cannot tell, the eigenvector's sign change does
        reduced, prolongs, _, (lam0, _), excited = levels
        with pytest.raises(ConvergenceError, match="ground state"):
            _multigrid_eigenpair(reduced, prolongs, _next_shift([lam0]), excited)

    def test_stops_at_a_tenth_of_the_residual_limit(self, levels):
        # the stop is 0.1 * RESIDUAL_LIMIT * |rho| at the start's Rayleigh
        # quotient rho, which the returned residual meets
        reduced, prolongs, start, (lam0, _), _ = levels
        R = reduced[-1]
        rho = start @ (R @ start) / (start @ start)
        res = _multigrid_eigenpair(reduced, prolongs, _next_shift([lam0]), start)
        assert res.residual_norm <= 0.1 * spectral.RESIDUAL_LIMIT * abs(rho)
        assert res.eigenvalue == pytest.approx(lam0, rel=1e-12, abs=0.0)

    def test_converges_when_every_step_restarts(self, levels, monkeypatch):
        # with p dropped at every step, as when its Gram matrix is never
        # positive definite, LOBPCG is preconditioned steepest descent: slower,
        # at the same eigenvalue
        reduced, prolongs, start, (lam0, _), _ = levels
        real_eigh = spectral.eigh

        def no_three(G, B):
            if G.shape == (3, 3):
                raise spectral.LinAlgError("B is not positive definite")
            return real_eigh(G, B)

        monkeypatch.setattr(spectral, "eigh", no_three)
        res = _multigrid_eigenpair(reduced, prolongs, _next_shift([lam0]), start)
        assert res.eigenvalue == pytest.approx(lam0, rel=1e-12, abs=0.0)


class TestRayleighRitz:
    """The one-vector LOBPCG's Rayleigh-Ritz step on span{x, w, p}."""

    @pytest.fixture(scope="class")
    def R(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6))
        return A + A.T

    def test_lowest_ritz_pair_with_p(self, R):
        basis = list(np.random.default_rng(2).standard_normal((3, 6)))
        c = _rayleigh_ritz(basis, [R @ v for v in basis])
        V = np.column_stack(basis)
        G, B = V.T @ R @ V, V.T @ V
        # c is B-normal and reaches the smallest generalized eigenvalue
        assert c @ B @ c == pytest.approx(1.0, rel=1e-12)
        lowest = np.min(np.linalg.eigvals(np.linalg.solve(B, G)).real)
        assert c @ G @ c == pytest.approx(lowest, rel=1e-10)

    def test_restarts_without_p(self, R):
        # p = x makes B singular, its last Cholesky pivot exactly 0: the step
        # drops p, whose coefficient is 0, and solves on span{x, w}
        x, w = np.eye(6)[0], np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0])
        c = _rayleigh_ritz([x, w, x], [R @ x, R @ w, R @ x])
        two = _rayleigh_ritz([x, w], [R @ x, R @ w])
        assert c[2] == 0.0
        assert np.array_equal(c[:2], two)

    def test_direction_along_the_iterate_is_convergence_error(self, R):
        x = np.eye(6)[0]
        with pytest.raises(ConvergenceError, match="lies along its iterate"):
            _rayleigh_ritz([x, x], [R @ x, R @ x])


def plain_cycle(levels, coarse, b):
    # the V-cycle written out by recursion, with no update in place
    if not levels:
        return coarse.solve(b)
    *below, (A, w, prolong) = levels
    x = w * b
    for _ in range(spectral.JACOBI_SWEEPS - 1):
        x = x + w * (b - A @ x)
    x = x + prolong @ plain_cycle(below, coarse, 0.25 * (prolong.T @ (b - A @ x)))
    for _ in range(spectral.JACOBI_SWEEPS):
        x = x + w * (b - A @ x)
    return x


class TestVCycle:
    @pytest.fixture(scope="class")
    def cycle(self):
        # three levels: the coarse factor under two refined grids, at a shift
        # below the spectrum
        g = GridSpec(12.0, 64)
        grids = [g, g.refined(), g.refined().refined()]
        reduced = [_assemble_even(PI_4, grid) for grid in grids]
        prolongs = [_prolongation(grid.n_interior) for grid in grids[:2]]
        return _VCycle(reduced, prolongs, -2.0)

    def test_symmetric_on_three_levels(self, cycle):
        # CG and LOBPCG both need a symmetric preconditioner
        u, v = np.random.default_rng(3).standard_normal((2, cycle.shape[0]))
        Mu, Mv = cycle @ u, cycle @ v
        # to rounding: 6e-18 of |u| |Mv| measured, 8e-6 with one sweep fewer after
        assert abs(u @ Mv - Mu @ v) <= 1e-14 * np.linalg.norm(u) * np.linalg.norm(Mv)
        assert u @ Mu > 0.0 and v @ Mv > 0.0

    def test_updates_in_place_change_no_bit(self, cycle):
        b = np.random.default_rng(4).standard_normal(cycle.shape[0])
        assert np.array_equal(cycle @ b, plain_cycle(cycle.levels, cycle.coarse, b))
