"""Finite-difference ground-state solver for the wedge delta-interaction.

The quadratic form (Dirichlet energy minus the line term) is discretized on
a uniform grid over [-L, L]^2 with Dirichlet boundary.  The wedge bisector
lies along the x-axis, rays at angles +/-theta.  The line term samples the
+theta ray at arc-length spacing h with trapezoid weights and bilinear
interpolation, which keeps the matrix symmetric, and the -theta ray's part
is its mirror image, so the grid reflection y -> -y is a symmetry of the
assembled matrix bit for bit.  Because the interpolation cells straddle the
eigenfunction's normal-derivative cusp, the eigenvalue error is first order
in h with a second-order tail; solve() removes both terms by fitting over
three grids.  The ground state of a reflection-symmetric operator is
positive, hence even, so solve() restricts every grid level to the even
subspace (about half the unknowns), lifts the eigenvector back to the full
grid and takes its residual again against the full matrix.  Each shift of
the shift-invert Lanczos iteration is factorized once, with a symmetric
fill-reducing ordering.  The first level is solved at the shift
-2*alpha^2; every later level takes its shift from the eigenvalues already
solved, just below the expected one, which cuts the Lanczos solves about
threefold.  Because the matrix is a Z-matrix, each shift is certified to lie
below the spectrum (an M-matrix test on one solve with its factor) before
the iteration runs, so the eigenvalue found is the lowest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .quadrature import ConvergenceError
from .trial import DomainError, WedgeConfig, _pow

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
#: Lanczos convergence tolerance, and how often a shift that fails its
#: certificate below the spectrum (or whose solve fails) is lowered and retried.
EIG_TOL = 1e-12
MAX_SHIFT_RETRIES = 4
#: solve()'s cap on box doublings, read at each call
MAX_ENLARGEMENTS = 2


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over [-L, L]^2 with Dirichlet boundary."""

    L: float
    h: float

    def __post_init__(self) -> None:
        _check_box(self.L, self.h)
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


def _check_box(L: float, h: float | None) -> None:
    if not all(0.0 < x < math.inf for x in (L, h) if x is not None):
        raise DomainError(f"L and h must be positive and finite, got L={L}, h={h}")
    if h is not None and L / h == math.inf:
        raise DomainError(f"L/h must be finite, got L={L}, h={h}")


@dataclass
class SpectralResult:
    eigenvalue: float
    residual_norm: float
    grid: GridSpec | None  # None from lowest_eigenvalue, which sees only H
    eigenvector: np.ndarray | None = field(default=None, repr=False)
    extrapolated: float | None = None
    error_estimate: float | None = None
    boundary_mass: float | None = None
    enlargements: int = 0
    grid_eigenvalues: tuple[float, ...] | None = None
    #: the certified shift of the eigensolve, and the solves with its factor
    #: (certificate and Lanczos)
    shift: float | None = None
    solves: int = 0


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


def delta_line_matrix(cfg: WedgeConfig, grid: GridSpec) -> sp.csr_matrix:
    """Line-term matrix: trapezoid-weighted sum of interpolation outer products.

    The +theta ray is sampled at arc-length spacing h; row k of the sample
    matrix S is the bilinear stencil of sample k.  The -theta ray's part is
    the mirror image of the +theta ray's, node (i, j) to (i, n - j).
    """
    L, h, n, m = grid.L, grid.h, grid.n_intervals, grid.n_interior
    cos_t, sin_t = math.cos(cfg.theta), math.sin(cfg.theta)
    nk = int(math.floor(L / max(cos_t, sin_t) / h + 1e-9))
    t = np.arange(nk + 1) * h
    g = (np.stack([t * cos_t, t * sin_t]) + L) / h  # grid coordinates (x, y)
    cell = np.minimum(g.astype(np.int64), n - 1)
    # per axis, each sample's two cell nodes and their interpolation weights
    node = cell[:, :, None] + np.array([0, 1])
    weight = np.stack([1.0 - (g - cell), g - cell], axis=-1)
    # the cell's four corners, shaped (samples, 2, 2); the samples lie in
    # x, y >= 0, so only nodes at index n are on the boundary
    i, j = node[0][:, :, None], node[1][:, None, :]
    w = weight[0][:, :, None] * weight[1][:, None, :]
    keep = (w != 0.0) & (i < n) & (j < n)
    rows, cols = np.nonzero(keep)[0], ((i - 1) * m + (j - 1))[keep]
    S = sp.csr_matrix((w[keep], (rows, cols)), shape=(nk + 1, m * m))
    trapezoid = np.full(nk + 1, h)
    trapezoid[[0, -1]] = h / 2.0
    D = (S.T @ sp.diags(trapezoid) @ S).tocoo()
    # add the mirror image, interior column c to c + (m - 1) - 2 * (c % m);
    # each entry becomes a + b, the same float as its mirror's b + a
    rows, cols = (np.concatenate([c, c + (m - 1) - 2 * (c % m)]) for c in (D.row, D.col))
    D = sp.csr_matrix((np.tile(D.data, 2), (rows, cols)), shape=D.shape)
    # symmetric by construction; remove rounding asymmetry from the matmul
    return ((D + D.T) * 0.5).tocsr()


def assemble(cfg: WedgeConfig, grid: GridSpec) -> sp.csr_matrix:
    """Discretized operator: Laplacian minus the coupling times the line term."""
    if grid.L < 8.0 / cfg.alpha:
        raise DomainError(
            f"box half-width {grid.L} below 8/alpha = {8.0 / cfg.alpha}; "
            "the bound state would not fit"
        )
    coupling = cfg.alpha / _pow(grid.h, 2)
    return (dirichlet_laplacian(grid) - coupling * delta_line_matrix(cfg, grid)).tocsr()


def _residual(H: sp.spmatrix, lam: float, v: np.ndarray) -> float:
    return float(np.linalg.norm(H @ v - lam * v) / np.linalg.norm(v))


def lowest_eigenvalue(H: sp.spmatrix, shift: float) -> SpectralResult:
    """Smallest eigenvalue by shift-and-invert Lanczos iteration.

    H must be a symmetric Z-matrix (no positive off-diagonal entry), as
    every matrix ``assemble`` builds and its even reduction are.  Each shift
    is factorized once, and the factor certifies that the shift lies below
    the spectrum (see ``_certified_factor``) and drives the Lanczos
    iteration.  A shift that fails its certificate, or whose factorization
    or iteration fails, is lowered and retried.  A residual above
    ``RESIDUAL_LIMIT`` * |eigenvalue| raises ConvergenceError.  The result
    records the certified shift and the solves made with its factor.
    Deterministic (fixed start vector).
    """
    if _has_positive_off_diagonal(H):
        raise DomainError(
            "matrix has a positive off-diagonal entry; the shift certificate "
            "needs a Z-matrix"
        )
    v0 = np.ones(H.shape[0])
    sigma = shift
    last_exc: RuntimeError | None = None
    for _ in range(MAX_SHIFT_RETRIES + 1):
        try:
            factor = _certified_factor(H, sigma)
            op = LinearOperator(H.shape, matvec=factor.solve, dtype=H.dtype)
            vals, vecs = eigsh(
                H, k=1, sigma=sigma, which="LM", tol=EIG_TOL, v0=v0, OPinv=op
            )
        except RuntimeError as exc:
            # the shift failed its certificate (ConvergenceError), ArpackError
            # (ArpackNoConvergence included) or SuperLU's "factor is exactly
            # singular"; any other error propagates.  The new shift is
            # 4*sigma - 1 for a negative sigma, and lower than sigma for any.
            last_exc = exc
            sigma = min(4.0 * sigma - 1.0, sigma - 1.0)
            continue
        lam, v = float(vals[0]), vecs[:, 0]
        res = _residual(H, lam, v)
        if res > RESIDUAL_LIMIT * abs(lam):
            raise ConvergenceError(
                f"eigen residual {res} exceeds {RESIDUAL_LIMIT}*|eigenvalue|"
            )
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        return SpectralResult(
            eigenvalue=lam,
            residual_norm=res,
            grid=None,
            eigenvector=v,
            shift=sigma,
            solves=factor.solves,
        )
    raise ConvergenceError(f"shift-invert eigensolver failed: {last_exc}")


def _has_positive_off_diagonal(M: sp.spmatrix) -> bool:
    C = M.tocoo()
    return bool(np.any(C.data[C.row != C.col] > 0.0))


class _Factor:
    """SuperLU factor of H - sigma*I that counts the solves made with it."""

    def __init__(self, A: sp.csc_matrix):
        # A is symmetric, so order by minimum degree on A^T + A, not COLAMD
        self.lu = splu(A, permc_spec="MMD_AT_PLUS_A")
        self.solves = 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        self.solves += 1
        return self.lu.solve(b)


def _certified_factor(H: sp.spmatrix, sigma: float) -> _Factor:
    """Factor of H - sigma*I, once sigma is certified below the spectrum.

    A = H - sigma*I is a Z-matrix; if x = A^-1 * 1 is positive and A x is
    positive componentwise, A is a nonsingular M-matrix, hence (being
    symmetric) positive definite, and sigma < lambda_min (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).  A x must
    clear a margin for the rounding of forming A and of the product:
    |A| x = 2 diag(A) x - A x for a Z-matrix with x > 0.  Raises
    ConvergenceError if the test fails.
    """
    A = sp.csc_matrix(H - sigma * sp.identity(H.shape[0]))
    factor = _Factor(A)
    x = factor.solve(np.ones(H.shape[0]))
    Ax = A @ x
    k = int(np.diff(A.indptr).max()) + 1  # products per row, plus A's own rounding
    slack = 2.0 * k * np.finfo(float).eps * (2.0 * A.diagonal() * x - Ax)
    if not (np.all(x > 0.0) and np.all(Ax > slack)):
        raise ConvergenceError(f"shift {sigma} is not certified below the spectrum")
    return factor


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
    result = lowest_eigenvalue(((R + R.T) * 0.5).tocsr(), shift=shift)
    result.grid = grid
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


def _next_shift(solved: list[float]) -> float:
    """Shift for the next grid level from the eigenvalues solved so far.

    Below the last eigenvalue by twice the last change between levels, and
    by at least a quarter of its magnitude.  A shift close below the target
    makes shift-invert Lanczos converge in few solves; the certificate in
    ``_certified_factor`` catches one that lands above the spectrum.
    """
    lam = solved[-1]
    step = abs(lam) / 4.0
    if len(solved) > 1:
        step = max(step, 2.0 * abs(lam - solved[-2]))
    return lam - step


def solve(
    cfg: WedgeConfig,
    L: float | None = None,
    h: float | None = None,
) -> SpectralResult:
    """Extrapolated ground eigenvalue from the grid sequence h, h/2, h/4.

    Starts from L = max(8/alpha, 12), coarse spacing L/128 (so the finest
    grid is L/512, about a million nodes).  A given L and h must be positive
    and finite; h is snapped to L/max(64, round(L/h)), so that L/h is an
    integer >= 64 as ``GridSpec`` requires.  Every level is solved on the
    even subspace of the y -> -y reflection (about half a million unknowns
    on the finest grid) with one
    factorization per shift, and its eigenvector is lifted back to the full
    grid.  The first solve uses the shift -2*alpha^2 and every later one,
    coarse re-solves after an enlargement included, ``_next_shift`` of the
    eigenvalues solved before it; ``lowest_eigenvalue`` certifies each shift
    below the spectrum.  If the
    coarse eigenfunction leaves more than 1e-10 of its mass within one
    spacing of the boundary, the box is doubled (unknown count kept) and the
    solve repeats, at most ``MAX_ENLARGEMENTS`` times; near theta = pi/2 the
    extended state along the line keeps some mass at the boundary at any box
    size, so the cap is a hard stop.
    """
    if L is None:
        L = max(8.0 / cfg.alpha, 12.0)
    _check_box(L, h)
    h = L / (128 if h is None else max(64, round(L / h)))
    shift = -2.0 * _pow(cfg.alpha, 2)
    grid = GridSpec(L, h)
    solved: list[float] = []  # every eigenvalue so far, in solve order

    enlargements = 0
    while True:
        result = _solve_level(cfg, grid, shift)
        solved.append(result.eigenvalue)
        shift = _next_shift(solved)
        mass = _boundary_mass(result.eigenvector, grid.n_interior)
        if mass <= BOUNDARY_MASS_LIMIT or enlargements >= MAX_ENLARGEMENTS:
            break
        grid = grid.enlarged()
        enlargements += 1

    for _ in range(2):
        grid = grid.refined()
        result = _solve_level(cfg, grid, shift)
        solved.append(result.eigenvalue)
        shift = _next_shift(solved)

    lams = tuple(solved[-3:])
    hs = (4.0 * grid.h, 2.0 * grid.h, grid.h)
    result.extrapolated, result.error_estimate = _fit_extrapolate(hs, lams)
    result.boundary_mass = _boundary_mass(result.eigenvector, grid.n_interior)
    result.enlargements = enlargements
    result.grid_eigenvalues = lams
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

