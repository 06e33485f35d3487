"""Finite-difference ground-state solver for the wedge delta-interaction.

The quadratic form (Dirichlet energy minus the line term) is discretized on
a uniform grid over [-L, L]^2 with Dirichlet boundary.  The line term is
sampled along each ray at arc-length spacing h with trapezoid weights and
bilinear interpolation, which keeps the matrix symmetric.  Because the
interpolation cells straddle the eigenfunction's normal-derivative cusp,
the eigenvalue error is first order in h with a second-order tail; solve()
removes both terms by fitting over three grids.  The wedge bisector lies along the x-axis,
rays at angles +/-theta, so the grid reflection y -> -y is an exact
symmetry of the assembled matrix.  The ground state of a reflection-symmetric
operator is positive, hence even, so solve() restricts every grid level to
the even subspace (about half the unknowns) and lifts the eigenvector back to
the full grid.  Each shift of the shift-invert Lanczos iteration is
factorized once, with a symmetric fill-reducing ordering, and the factor is
reused for the residual polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .quadrature import ConvergenceError
from .trial import DomainError, WedgeConfig

__all__ = [
    "GridSpec",
    "SpectralResult",
    "assemble",
    "dirichlet_laplacian",
    "delta_line_matrix",
    "lowest_eigenvalue",
    "solve",
    "delta_well_1d",
]

BOUNDARY_MASS_LIMIT = 1e-10
RESIDUAL_LIMIT = 1e-8
#: Lanczos convergence tolerance, and how often a shift found to sit at or
#: above the spectrum (or to fail outright) is lowered and retried.
EIG_TOL = 1e-12
MAX_SHIFT_RETRIES = 4


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over [-L, L]^2 with Dirichlet boundary."""

    L: float
    h: float

    def __post_init__(self) -> None:
        if not (self.L > 0.0 and self.h > 0.0):
            raise DomainError("L and h must be positive")
        ratio = self.L / self.h
        if abs(ratio - round(ratio)) > 1e-9 * ratio or round(ratio) < 64:
            raise DomainError(
                f"L/h must be an integer >= 64, got L/h = {ratio}"
            )

    @property
    def n_intervals(self) -> int:
        """Number of grid intervals across [-L, L]."""
        return 2 * round(self.L / self.h)

    @property
    def n_interior(self) -> int:
        return self.n_intervals - 1

    def refined(self) -> "GridSpec":
        return GridSpec(self.L, self.h / 2.0)

    def enlarged(self) -> "GridSpec":
        # doubles the box while keeping the unknown count (h doubles too)
        return GridSpec(2.0 * self.L, 2.0 * self.h)


@dataclass
class SpectralResult:
    eigenvalue: float
    residual_norm: float
    grid: GridSpec
    eigenvector: np.ndarray | None = field(default=None, repr=False)
    extrapolated: float | None = None
    error_estimate: float | None = None
    boundary_mass: float | None = None
    enlargements: int = 0
    grid_eigenvalues: tuple[float, ...] | None = None

    @property
    def best(self) -> float:
        return self.extrapolated if self.extrapolated is not None else self.eigenvalue


def dirichlet_laplacian(grid: GridSpec) -> sp.csr_matrix:
    """5-point Dirichlet Laplacian on the interior nodes (x-major ordering)."""
    m = grid.n_interior
    h2 = grid.h * grid.h
    k1 = sp.diags(
        [np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    ) / h2
    eye = sp.identity(m, format="csr")
    return (sp.kron(k1, eye) + sp.kron(eye, k1)).tocsr()


def _ray_samples(cfg: WedgeConfig, grid: GridSpec):
    """Sample matrix S (rows = bilinear stencils) and trapezoid weights."""
    L, h = grid.L, grid.h
    n = grid.n_intervals
    m = grid.n_interior
    cos_t, sin_t = math.cos(cfg.theta), math.sin(cfg.theta)
    t_max = L / max(cos_t, sin_t)
    nk = int(math.floor(t_max / h + 1e-9))
    if nk < 8:
        raise DomainError(
            f"grid too coarse: only {nk} samples per ray (need at least 8)"
        )

    rows, cols, vals, weights = [], [], [], []
    row = 0
    for sign in (1.0, -1.0):
        for k in range(nk + 1):
            t = k * h
            px, py = t * cos_t, sign * t * sin_t
            gx, gy = (px + L) / h, (py + L) / h
            ix, iy = min(int(gx), n - 1), min(int(gy), n - 1)
            fx, fy = gx - ix, gy - iy
            for di, wx in ((0, 1.0 - fx), (1, fx)):
                for dj, wy in ((0, 1.0 - fy), (1, fy)):
                    w = wx * wy
                    gi, gj = ix + di, iy + dj
                    if w != 0.0 and 1 <= gi <= n - 1 and 1 <= gj <= n - 1:
                        rows.append(row)
                        cols.append((gi - 1) * m + (gj - 1))
                        vals.append(w)
            weights.append(h / 2.0 if k in (0, nk) else h)
            row += 1

    S = sp.csr_matrix((vals, (rows, cols)), shape=(row, m * m))
    return S, np.asarray(weights)


def delta_line_matrix(cfg: WedgeConfig, grid: GridSpec) -> sp.csr_matrix:
    """Line-term matrix: trapezoid-weighted sum of interpolation outer products."""
    S, w = _ray_samples(cfg, grid)
    D = (S.T @ sp.diags(w) @ S).tocsr()
    # symmetric by construction; remove rounding asymmetry from the matmul
    return ((D + D.T) * 0.5).tocsr()


def assemble(cfg: WedgeConfig, grid: GridSpec) -> sp.csr_matrix:
    """Discretized operator: Laplacian minus the coupling times the line term."""
    if grid.L < 8.0 / cfg.alpha:
        raise DomainError(
            f"box half-width {grid.L} below 8/alpha = {8.0 / cfg.alpha}; "
            "the bound state would not fit"
        )
    A = dirichlet_laplacian(grid)
    D = delta_line_matrix(cfg, grid)
    return (A - (cfg.alpha / grid.h**2) * D).tocsr()


def _residual(H: sp.spmatrix, lam: float, v: np.ndarray) -> float:
    return float(np.linalg.norm(H @ v - lam * v) / np.linalg.norm(v))


def lowest_eigenvalue(
    H: sp.spmatrix, shift: float, grid: GridSpec | None = None
) -> SpectralResult:
    """Smallest eigenvalue by shift-and-invert Lanczos iteration.

    The shift must sit strictly below the spectrum; a returned eigenvalue at
    or below the shift proves it did not, triggering an automatic shift
    decrease and retry.  Each shift is factorized once, and the factor drives
    both the Lanczos iteration and the residual polish.  Deterministic (fixed
    start vector).
    """
    M = H.shape[0]
    v0 = np.ones(M)
    sigma = shift
    last_exc: RuntimeError | None = None
    for _ in range(MAX_SHIFT_RETRIES + 1):
        try:
            lam, v, lu = _lanczos(H, sigma, v0)
        except RuntimeError as exc:
            # ArpackError (ArpackNoConvergence included) or SuperLU's
            # "factor is exactly singular"; any other error propagates
            last_exc = exc
            sigma = 4.0 * sigma - 1.0
            continue
        if lam <= sigma:
            sigma = lam - 4.0 * abs(lam - sigma) - 1.0
            continue
        res = _residual(H, lam, v)
        if res > RESIDUAL_LIMIT * abs(lam):
            lam, v, res = _polish(H, lu, v)
        if res > RESIDUAL_LIMIT * abs(lam):
            raise ConvergenceError(
                f"eigen residual {res} exceeds {RESIDUAL_LIMIT}*|eigenvalue|"
            )
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        return SpectralResult(
            eigenvalue=lam, residual_norm=res, grid=grid, eigenvector=v
        )
    raise ConvergenceError(f"shift-invert eigensolver failed: {last_exc}")


def _lanczos(H: sp.spmatrix, sigma: float, v0: np.ndarray):
    """One shift-invert eigsh run: the eigenpair nearest sigma and the
    SuperLU factor of H - sigma*I that it used."""
    # H is symmetric, so order by minimum degree on H^T + H, not COLAMD
    lu = splu(
        sp.csc_matrix(H - sigma * sp.identity(H.shape[0])),
        permc_spec="MMD_AT_PLUS_A",
    )
    op = LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
    vals, vecs = eigsh(H, k=1, sigma=sigma, which="LM", tol=EIG_TOL, v0=v0, OPinv=op)
    return float(vals[0]), vecs[:, 0], lu


def _polish(H: sp.spmatrix, lu, v: np.ndarray):
    """A few inverse-iteration steps on the shift's factor to tighten the residual."""
    for _ in range(5):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
        lam = float(v @ (H @ v))
        res = _residual(H, lam, v)
        if res <= RESIDUAL_LIMIT * abs(lam):
            break
    return lam, v, res


def _even_isometry(m: int) -> sp.csr_matrix:
    """Orthonormal basis, as columns, of the grid functions even under y -> -y.

    m = n_interior is odd, so there are m*(m+1)/2 columns, (m+1)/2 per
    x-line.  Node (i, j) and its mirror (i, m-1-j) share a column at weight
    1/sqrt(2); the node on the bisector, j = (m-1)/2, has its own at weight 1.
    """
    half = (m + 1) // 2
    cols = np.arange(m * half).reshape(m, half)
    cols = np.hstack([cols, cols[:, -2::-1]])  # column of each node (x-major)
    vals = np.full((m, m), math.sqrt(0.5))
    vals[:, half - 1] = 1.0
    return sp.csr_matrix(
        (vals.ravel(), (np.arange(m * m), cols.ravel())), shape=(m * m, m * half)
    )


def _solve_level(cfg: WedgeConfig, grid: GridSpec, shift: float) -> SpectralResult:
    """Ground state of one grid level, solved on the even subspace.

    The eigenvector is lifted back to the full grid and its residual is
    taken against the full matrix.
    """
    H = assemble(cfg, grid)
    P = _even_isometry(grid.n_interior)
    R = P.T @ H @ P
    result = lowest_eigenvalue(((R + R.T) * 0.5).tocsr(), shift=shift, grid=grid)
    result.eigenvector = P @ result.eigenvector
    result.residual_norm = _residual(H, result.eigenvalue, result.eigenvector)
    return result


def _boundary_mass(v: np.ndarray, m: int) -> float:
    g = v.reshape(m, m)
    ring = (
        np.sum(g[0, :] ** 2)
        + np.sum(g[-1, :] ** 2)
        + np.sum(g[1:-1, 0] ** 2)
        + np.sum(g[1:-1, -1] ** 2)
    )
    return float(ring / np.sum(g**2))


def _fit_extrapolate(hs: tuple[float, float, float], lams: tuple[float, float, float]):
    """Extrapolate lam(h) = lam0 + a*h + b*h^2 to h = 0 from three grids.

    Sampling the delta line through grid cells that straddle the
    eigenfunction's normal-derivative cusp makes the leading error first
    order in h, with a second-order tail; eliminating both terms is what a
    plain h^2 Richardson step gets wrong here.  The reported error estimate
    is the spread against the two-grid first-order extrapolation on the
    finer pair, which brackets the neglected higher-order terms.
    """
    V = np.vander(np.asarray(hs), 3, increasing=True)  # columns 1, h, h^2
    lam0 = float(np.linalg.solve(V, np.asarray(lams))[0])
    first_order = 2.0 * lams[2] - lams[1]
    return lam0, abs(lam0 - first_order)


def solve(
    cfg: WedgeConfig,
    L: float | None = None,
    h: float | None = None,
    max_enlargements: int = 2,
) -> SpectralResult:
    """Extrapolated ground eigenvalue from the grid sequence h, h/2, h/4.

    Starts from L = max(8/alpha, 12), coarse spacing L/128 (so the finest
    grid is L/512, about a million nodes).  Every level is solved on the
    even subspace of the y -> -y reflection (about half a million unknowns on
    the finest grid) with one factorization per shift, and its eigenvector
    is lifted back to the full grid.  If the coarse eigenfunction
    leaves more than 1e-10 of its mass within one spacing of the boundary,
    the box is doubled (unknown count kept) and the solve repeats, at most
    ``max_enlargements`` times; near theta = pi/2 the extended state along
    the line keeps some mass at the boundary at any box size, so the cap is
    a hard stop.
    """
    if L is None:
        L = max(8.0 / cfg.alpha, 12.0)
    if h is None:
        h = L / 128.0
    shift = -2.0 * cfg.alpha**2
    grid = GridSpec(L, h)

    enlargements = 0
    while True:
        coarse = _solve_level(cfg, grid, shift)
        mass = _boundary_mass(coarse.eigenvector, grid.n_interior)
        if mass <= BOUNDARY_MASS_LIMIT or enlargements >= max_enlargements:
            break
        grid = grid.enlarged()
        enlargements += 1

    lams = [coarse.eigenvalue]
    result = coarse
    for _ in range(2):
        grid = grid.refined()
        result = _solve_level(cfg, grid, shift)
        lams.append(result.eigenvalue)

    hs = (4.0 * grid.h, 2.0 * grid.h, grid.h)
    result.extrapolated, result.error_estimate = _fit_extrapolate(hs, tuple(lams))
    result.boundary_mass = _boundary_mass(result.eigenvector, grid.n_interior)
    result.enlargements = enlargements
    result.grid_eigenvalues = tuple(lams)
    return result


def delta_well_1d(alpha: float) -> SpectralResult:
    """Calibration path: 1D well -u'' - alpha*delta(0) on [-L, L], Dirichlet.

    Discretized the same way as the 2D form (3-point stencil, -alpha/h at
    the origin node) on spacings h = L/512 and h/2 with L = 16/alpha,
    Richardson-extrapolated.  The continuum eigenvalue is -alpha^2/4.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    L = 16.0 / alpha
    h = L / 512.0

    def eig(grid: GridSpec) -> float:
        n = grid.n_intervals
        m = grid.n_interior
        hh = grid.h
        diag = np.full(m, 2.0 / hh**2)
        diag[n // 2 - 1] -= alpha / hh  # x = 0 node
        off = np.full(m - 1, -1.0 / hh**2)
        vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
        return float(vals[0])

    grid = GridSpec(L, h)
    fine_grid = grid.refined()
    lam_c = eig(grid)
    lam_f = eig(fine_grid)
    return SpectralResult(
        eigenvalue=lam_f,
        residual_norm=0.0,
        grid=fine_grid,
        extrapolated=(4.0 * lam_f - lam_c) / 3.0,
        error_estimate=abs(lam_f - lam_c) / 3.0,
    )

