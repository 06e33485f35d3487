"""Finite-difference ground-state solver for the wedge delta-interaction.

The quadratic form (Dirichlet energy minus the line term) is discretized on
a uniform grid over [-L, L]^2 with Dirichlet boundary, counted as an integer
n of intervals per half-width (spacing h = L/n); refining doubles n and
enlarging the box doubles L, so every spacing is exact.  The wedge bisector
lies along the x-axis, rays at angles +/-theta.  The line term samples the
+theta ray at arc-length spacing h with trapezoid weights and bilinear
interpolation, which keeps the matrix symmetric, and the -theta ray's part
is its mirror image, so the grid reflection y -> -y is a symmetry of the
assembled matrix bit for bit.  Because the interpolation cells straddle the
eigenfunction's normal-derivative cusp, the eigenvalue error is first order
in h with a second-order tail; solve() removes both terms by fitting over
three grids.  The ground state of a reflection-symmetric operator is
positive, hence even, so solve() restricts every grid level to the even
subspace (about half the unknowns).  It builds that level's matrix R from
1D factors, the 5-point stencil on the half grid and the +theta ray's
samples, without forming the full grid's matrix; then ``_lifted`` lifts
the eigenvector back to the full grid, checks its residual again against
``assemble``'s matrix, built only for that check, and takes its boundary
mass, from which solve() decides whether to enlarge the box.  Every level
has one certified inverse of R - sigma*I, a multigrid V-cycle (weighted
Jacobi smoothing, bilinear transfer between the levels' even subspaces, an
exact solve with a factor of the coarse grid), which on the coarse grid
alone is that factor's solve, so no finer grid is factorized.  With it,
shift-invert Lanczos solves the coarse grid and its re-solves in an
enlarged box, and the package's own LOBPCG on a block of one vector
(``_multigrid_eigenpair``) the two refined grids from the last level's
eigenvector.  LOBPCG cannot take the coarse grid too: from a flat start
it reaches its 200-iteration cap at alpha = 8, theta = 1.3 and 1.55
(L = 12, n = 64), where Lanczos converges, since only a Krylov space
resolves the small gap between the ground state and the discretized line
states.
The first level is solved at the shift -2*alpha^2; every later level takes
its shift from the eigenvalues already solved, just below the expected one:
that cuts a coarse re-solve's Lanczos solves two- to threefold and places a
refined level's V-cycle.  Each shift is certified to lie below the
spectrum before the iteration runs, once: an approximate solve x > 0 of
(R - sigma*I) x = 1 on which the comparison matrix of R - sigma*I is
positive makes it positive definite, for any symmetric R.  On the
coarse grid that makes the eigenvalue Lanczos finds the lowest one.  On a
refined grid it makes R - sigma*I positive definite, as the V-cycle needs;
there the lowest eigenvalue is reached from the warm start, and checked by
the sign of its eigenvector, since the ground state of an irreducible
Z-matrix is its only eigenvector without a sign change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, cg, eigsh, splu

from .trial import ConvergenceError, DomainError, WedgeConfig, _pow

__all__ = ["GridSpec", "SpectralResult", "solve"]

BOUNDARY_MASS_LIMIT = 1e-10
RESIDUAL_LIMIT = 1e-8
#: Lanczos convergence tolerance, and how often a shift that fails its
#: certificate below the spectrum (or whose factor is singular) is lowered.
EIG_TOL = 1e-12
MAX_SHIFT_RETRIES = 4
#: the refined levels' LOBPCG iteration cap and the share of an eigenvector's
#: squared norm its negative entries may hold (the ground state's hold none);
#: every level's certificate CG solve: its relative tolerance and iteration cap
LOBPCG_MAXITER = 200
NEGATIVE_MASS_LIMIT = 1e-6
CERTIFICATE_RTOL = 1e-3
CERTIFICATE_MAXITER = 30
#: the V-cycle's weighted Jacobi smoother: its weight, and its sweeps on each
#: refined level before the coarse correction and again after it
JACOBI_WEIGHT = 0.8
JACOBI_SWEEPS = 2
#: solve()'s cap on box doublings, read at each call
MAX_ENLARGEMENTS = 2
#: solve()'s cap on a given L/h, the coarse intervals per half-width n: the
#: finest level's (8n - 1)^2 nodes cost about 300 bytes each of peak RSS, so
#: n = 256 (4.2M nodes) needs about 1.3 GB
MAX_INTERVALS = 256


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over [-L, L]^2 with Dirichlet boundary and n intervals
    per half-width, so spacing h = L/n and 2n - 1 interior nodes per axis."""

    L: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 < self.L < math.inf:
            raise DomainError(f"L must be positive and finite, got L={self.L}")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 64:
            raise DomainError(f"n must be an integer >= 64, got n={self.n!r}")
        # before anything is allocated: assemble divides by h^2 and indexes m^2 rows
        if not self.h * self.h >= np.finfo(float).tiny:
            raise DomainError(f"spacing h={self.h} squares below the smallest normal float")
        if self.n_interior**2 > np.iinfo(np.intp).max:
            raise DomainError(f"spacing h={self.h} gives more unknowns than an index holds")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def n_interior(self) -> int:
        return 2 * self.n - 1

    def refined(self) -> "GridSpec":
        return GridSpec(self.L, 2 * self.n)

    def enlarged(self) -> "GridSpec":
        # doubles the box while keeping the unknown count (h doubles too)
        return GridSpec(2.0 * self.L, self.n)


@dataclass(frozen=True)
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
    #: the certified shift of the eigensolve, and how often its certified
    #: inverse was applied (certificate and iteration), each application one
    #: solve with the coarse grid's factor
    shift: float | None = None
    solves: int = 0


def _five_point(lines: int, k: int, h2: float, edge: float) -> sp.csr_matrix:
    """5-point Dirichlet stencil (4 u - neighbours) / h2 on ``lines``
    x-lines of k nodes each (x-major ordering), with the coupling between a
    line's last two nodes times ``edge``."""
    N = lines * k
    y = np.full(N - 1, -1.0 / h2)
    y[k - 2 :: k] = -edge / h2
    y[k - 1 :: k] = 0.0  # no coupling across x-lines; sp.diags drops zeros
    x = np.full(N - k, -1.0 / h2)
    return sp.diags([x, y, np.full(N, 4.0 / h2), y, x], [-k, -1, 0, 1, k], format="csr")


def _ray_samples(cfg: WedgeConfig, grid: GridSpec) -> tuple[sp.csr_matrix, np.ndarray]:
    """``(S, w)``: the +theta ray sampled at arc-length spacing h, row k of S
    the bilinear stencil of sample k on the interior nodes, and w the
    samples' trapezoid weights."""
    L, h, m = grid.L, grid.h, grid.n_interior
    n = 2 * grid.n  # intervals across [-L, L]
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
    return S, trapezoid


def _coupling(cfg: WedgeConfig, grid: GridSpec) -> float:
    """The line term's factor alpha/h^2; DomainError if the box is too small."""
    if grid.L < 8.0 / cfg.alpha:
        raise DomainError(
            f"box half-width {grid.L} below 8/alpha = {8.0 / cfg.alpha}; "
            "the bound state would not fit"
        )
    return cfg.alpha / _pow(grid.h, 2)


def assemble(cfg: WedgeConfig, grid: GridSpec) -> sp.csr_matrix:
    """Discretized operator on the full grid: the 5-point Dirichlet
    Laplacian (x-major ordering) minus the coupling times the line term.

    The line term is the trapezoid-weighted sum of interpolation outer
    products: S^T W S for the +theta ray's samples (``_ray_samples``), plus
    its mirror image for the -theta ray, node (i, j) to (i, n - j).
    """
    coupling = _coupling(cfg, grid)
    m = grid.n_interior
    S, w = _ray_samples(cfg, grid)
    D = (S.T @ sp.diags(w) @ S).tocoo()
    # add the mirror image, interior column c to c + (m - 1) - 2 * (c % m);
    # each entry becomes a + b, the same float as its mirror's b + a
    rows, cols = (np.concatenate([c, c + (m - 1) - 2 * (c % m)]) for c in (D.row, D.col))
    D = sp.csr_matrix((np.tile(D.data, 2), (rows, cols)), shape=D.shape)
    # symmetric by construction; remove rounding asymmetry from the matmul
    line = (D + D.T) * 0.5
    return (_five_point(m, m, grid.h * grid.h, 1.0) - coupling * line).tocsr()


def _assemble_even(cfg: WedgeConfig, grid: GridSpec) -> sp.csr_matrix:
    """``assemble``'s operator on the even subspace of y -> -y, P^T H P,
    built from its factors without H.

    The even isometry is P = I kron e (e = ``_even_basis``), so the
    Laplacian part is the 5-point stencil on the m x (m+1)/2 half grid, with
    the coupling between the bisector column and its neighbour times
    sqrt(2).  The line term's mirror image M has M P = P, so its part is
    twice the +theta ray's: with D = (S P)^T W (S P) from ``_ray_samples``,
    it is D + D^T, bitwise symmetric.
    """
    coupling = _coupling(cfg, grid)
    m = grid.n_interior
    S, w = _ray_samples(cfg, grid)
    e = _even_basis(m)
    # S P: sample k's node (i, j) moves to even column (i, e's column of j)
    i, j = np.divmod(S.indices, m)
    SP = sp.csr_matrix(
        (S.data * e.data[j], i * e.shape[1] + e.indices[j], S.indptr),
        shape=(S.shape[0], m * e.shape[1]),
    )
    D = SP.T @ sp.diags(w) @ SP
    laplacian = _five_point(m, (m + 1) // 2, grid.h * grid.h, math.sqrt(2.0))
    return (laplacian - coupling * (D + D.T)).tocsr()


def _residual(H: sp.spmatrix, lam: float, v: np.ndarray) -> float:
    """||H v - lam v|| / ||v||; ConvergenceError above RESIDUAL_LIMIT * |lam|."""
    res = float(np.linalg.norm(H @ v - lam * v) / np.linalg.norm(v))
    if res > RESIDUAL_LIMIT * abs(lam):
        raise ConvergenceError(
            f"eigen residual {res} exceeds {RESIDUAL_LIMIT}*|eigenvalue|"
        )
    return res


def lowest_eigenvalue(H: sp.spmatrix, shift: float) -> SpectralResult:
    """Smallest eigenvalue by shift-and-invert Lanczos iteration.

    H must be symmetric.  The one-level ``_certified_inverse`` factorizes
    H - sigma*I and certifies sigma below the spectrum, lowering it from
    ``shift`` until it passes; its factor then drives the Lanczos
    iteration, which runs once at that sigma and is not retried: an ARPACK
    failure raises ConvergenceError, as does a residual above
    ``RESIDUAL_LIMIT`` * |eigenvalue|.  The result records the certified
    shift and the solves made with its factor.  Deterministic (fixed start
    vector).
    """
    sigma, inverse = _certified_inverse([H], [], shift)
    v0 = np.ones(H.shape[0])
    try:
        vals, vecs = eigsh(H, k=1, sigma=sigma, which="LM", tol=EIG_TOL, v0=v0, OPinv=inverse)
    except ArpackError as exc:
        raise ConvergenceError(f"Lanczos failed at the certified shift {sigma}: {exc}") from exc
    return _eigenpair(H, vals[0], vecs[:, 0], sigma, inverse.solves)


def _eigenpair(
    H: sp.spmatrix, lam: float, v: np.ndarray, sigma: float, solves: int
) -> SpectralResult:
    """The result for an eigenpair of H found at the certified shift sigma:
    its residual checked by ``_residual``, v signed positive at its largest
    entry."""
    lam = float(lam)
    res = _residual(H, lam, v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return SpectralResult(lam, res, None, eigenvector=v, shift=sigma, solves=solves)


def _certify(A: sp.spmatrix, x: np.ndarray, sigma: float) -> None:
    """Certify that sigma lies below the spectrum of H, given A = H - sigma*I.

    A is symmetric; if x is positive and C x is positive componentwise, with
    C = diag(A) - |offdiag(A)| the comparison matrix, then D^-1 A D (D =
    diag x) is strictly diagonally dominant with a positive diagonal, so by
    Gershgorin A, similar to it and symmetric, is positive definite and
    sigma < lambda_min.  That holds for any x, so an approximate solve of
    A x = 1 serves as well as an exact one.  C x = 2 diag(A) x - |A| x must
    clear a margin for the rounding of forming A and of the product, a
    multiple of |A| x.  Raises ConvergenceError if the test fails.
    """
    abs_Ax = abs(A) @ x
    k = int(np.diff(A.indptr).max()) + 1  # products per row, plus A's own rounding
    slack = 2.0 * k * np.finfo(float).eps * abs_Ax
    if not (np.all(x > 0.0) and np.all(2.0 * A.diagonal() * x - abs_Ax > slack)):
        raise ConvergenceError(f"shift {sigma} is not certified below the spectrum")


def _even_basis(m: int) -> sp.csr_matrix:
    """The 1D factor e of the even isometry P = I kron e, whose columns are
    an orthonormal basis of the grid functions even under y -> -y.

    m = n_interior is odd, so e maps m nodes onto (m+1)/2 columns: node j
    and its mirror m-1-j share one at weight 1/sqrt(2), and the middle node
    has its own at weight 1.  Node j's column is e.indices[j], its weight
    e.data[j].
    """
    half = (m + 1) // 2
    j = np.arange(m)
    vals = np.where(j == half - 1, 1.0, math.sqrt(0.5))
    return sp.csr_matrix((vals, (j, np.minimum(j, m - 1 - j))), shape=(m, half))


def _prolongation(m: int) -> sp.csr_matrix:
    """Bilinear interpolation from the even subspace of a grid with m
    interior nodes per axis to that of its refinement, with 2m + 1.

    It is P_f^T (p kron p) P_c = p kron (e_f^T p e_c), with P = I kron e the
    even isometries and p the 1D linear interpolation: coarse node i is fine
    node 2i + 1, and the fine nodes on either side take half its value.
    """
    i = np.arange(m)
    rows = (2 * i[:, None] + [0, 1, 2]).ravel()
    p = sp.csr_matrix(
        (np.tile([0.5, 1.0, 0.5], m), (rows, i.repeat(3))), shape=(2 * m + 1, m)
    )
    return sp.kron(p, _even_basis(2 * m + 1).T @ p @ _even_basis(m), format="csr")


class _VCycle(LinearOperator):
    """One multigrid V-cycle for A = R - sigma*I, an approximate inverse.

    ``reduced`` holds the even-subspace matrices of a grid and of its
    refinements, coarse first, R the last; ``prolongs[k]`` interpolates from
    level k to level k + 1, and its transpose over 4 restricts (full
    weighting).  Each refined level smooths by weighted Jacobi,
    ``JACOBI_SWEEPS`` sweeps before the coarse correction and as many after,
    and the coarse grid solves exactly with a SuperLU factor, so the cycle is
    a symmetric operator; with no refined level it is the factor's solve.
    ``solves`` counts the cycles.
    """

    def __init__(self, reduced: list, prolongs: list, sigma: float):
        A = [(R - sigma * sp.identity(R.shape[0])).tocsr() for R in reduced]
        super().__init__(A[-1].dtype, A[-1].shape)
        self.A = A[-1]
        # A is symmetric, so order by minimum degree on A^T + A, not COLAMD
        self.coarse = splu(A[0].tocsc(), permc_spec="MMD_AT_PLUS_A")
        self.solves = 0
        # per refined level: its matrix, Jacobi weights, prolongation
        self.levels = [
            (Ak, JACOBI_WEIGHT / Ak.diagonal(), Pi) for Ak, Pi in zip(A[1:], prolongs)
        ]

    def _matvec(self, b: np.ndarray) -> np.ndarray:
        self.solves += 1
        b = np.ravel(b)
        below = []  # (smoothed x, right-hand side) of each refined level
        for A, w, prolong in reversed(self.levels):
            x = w * b
            for _ in range(JACOBI_SWEEPS - 1):
                _jacobi(A, w, b, x)
            below.append((x, b))
            t = A @ x
            np.subtract(b, t, out=t)
            b = prolong.T @ t
            b *= 0.25
        x = self.coarse.solve(b)
        for A, w, prolong in self.levels:
            fine, b = below.pop()
            x = prolong @ x
            x += fine
            for _ in range(JACOBI_SWEEPS):
                _jacobi(A, w, b, x)
        return x


def _jacobi(A: sp.csr_matrix, w: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    """One weighted Jacobi sweep x += w * (b - A x), in place."""
    t = A @ x
    np.subtract(b, t, out=t)
    t *= w
    x += t


def _certified_inverse(reduced: list, prolongs: list, shift: float) -> tuple[float, _VCycle]:
    """``(sigma, cycle)``: the ``_VCycle`` on R - sigma*I for the first
    sigma, from ``shift`` down, that ``_certify`` certifies below the
    spectrum of R = reduced[-1], with the x that CG, preconditioned by the
    cycle, finds for (R - sigma*I) x = 1.  With no refined level the cycle
    is exact and CG takes one step.

    A sigma that fails its certificate, or whose coarse factor SuperLU finds
    exactly singular, is lowered to min(4*sigma - 1, sigma - 1), which is
    4*sigma - 1 for a negative sigma and lower than sigma for any, at most
    ``MAX_SHIFT_RETRIES`` times; then ConvergenceError.  Only the
    certificate is retried, never the iteration the cycle goes on to drive.
    """
    ones = np.ones(reduced[-1].shape[0])
    sigma = shift
    for _ in range(MAX_SHIFT_RETRIES + 1):
        try:
            inverse = _VCycle(reduced, prolongs, sigma)
            x, _ = cg(
                inverse.A, ones, rtol=CERTIFICATE_RTOL, maxiter=CERTIFICATE_MAXITER, M=inverse
            )
            _certify(inverse.A, x, sigma)
            return sigma, inverse
        except RuntimeError as exc:
            # kept as text: the exception's traceback holds this frame
            failure = str(exc)
        sigma = min(4.0 * sigma - 1.0, sigma - 1.0)
    raise ConvergenceError(f"no shift certified below the spectrum: {failure}")


def _multigrid_eigenpair(
    reduced: list, prolongs: list, shift: float, start: np.ndarray
) -> SpectralResult:
    """Smallest eigenpair of R = reduced[-1] by LOBPCG from ``start``,
    preconditioned by the ``_certified_inverse`` on R - sigma*I.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on a block of one
    vector: each iteration applies one V-cycle to the residual r = R x -
    lambda x, with lambda = x.R x and |x| = 1, and takes the next x from
    ``_rayleigh_ritz`` on x, that direction w and the last step p.  It stops
    when |r| falls to a tenth of ``RESIDUAL_LIMIT`` at the start's Rayleigh
    quotient.  ``_certified_inverse`` lowers sigma from ``shift`` until the
    certificate passes; LOBPCG then runs once at that sigma and is not
    retried.  The certificate makes R - sigma*I positive definite, as the
    V-cycle needs; unlike shift-invert Lanczos, LOBPCG is not bound by sigma
    to the lowest eigenvalue.  That rests on the warm start, and is checked
    by sign: R is an irreducible Z-matrix, so its ground state is its only
    eigenvector without a sign change, and an eigenvector whose negative
    entries hold more than ``NEGATIVE_MASS_LIMIT`` of its squared norm
    raises ConvergenceError.  So does LOBPCG reaching ``LOBPCG_MAXITER``
    iterations, and a residual above ``RESIDUAL_LIMIT`` * |eigenvalue|.
    The result's solves counts the V-cycles at the certified shift.
    """
    R = reduced[-1]
    x = start / np.linalg.norm(start)
    Rx = R @ x
    # stop at a tenth of the residual limit at the start's Rayleigh quotient
    # rho: rho >= lambda_0, so for a bound state (lambda_0 <= rho < 0) that
    # lies inside the limit at any scale of R
    tol = 0.1 * RESIDUAL_LIMIT * abs(x @ Rx)

    sigma, inverse = _certified_inverse(reduced, prolongs, shift)
    p = Rp = None  # the last step, and R p
    for _ in range(LOBPCG_MAXITER):
        lam = x @ Rx
        r = Rx - lam * x
        if np.linalg.norm(r) <= tol:
            break
        w = inverse @ r
        w /= np.linalg.norm(w)
        basis, images = [x, w], [Rx, R @ w]
        if p is not None:
            # scaled to unit norm, which keeps the Gram matrix B well scaled
            scale = 1.0 / np.linalg.norm(p)
            basis.append(p * scale)
            images.append(Rp * scale)
        c = _rayleigh_ritz(basis, images)  # c^T B c = 1, so |x| stays 1
        p = sum(ck * v for ck, v in zip(c[1:], basis[1:]))
        Rp = sum(ck * v for ck, v in zip(c[1:], images[1:]))
        x, Rx = c[0] * x + p, c[0] * Rx + Rp
    else:
        raise ConvergenceError(
            f"LOBPCG did not converge in {LOBPCG_MAXITER} iterations: residual "
            f"{np.linalg.norm(r):.3e} above {tol:.3e}"
        )
    result = _eigenpair(R, lam, x, sigma, inverse.solves)
    v = result.eigenvector
    if np.sum(v[v < 0.0] ** 2) > NEGATIVE_MASS_LIMIT * np.sum(v**2):
        raise ConvergenceError(
            "LOBPCG found an eigenvector that changes sign, not the ground state"
        )
    return result


def _rayleigh_ritz(basis: list, images: list) -> np.ndarray:
    """Coefficients in ``basis`` of the lowest Ritz vector of R on its span,
    given ``images``, R times each basis vector.

    The Gram matrices G = V^T R V and B = V^T V come from dot products, and
    the vector solves G c = mu B c with c^T B c = 1.  When B is not
    numerically positive definite, as when the last step p has fallen into
    span{x, w}, the vector restarts without p, whose coefficient is then 0,
    as SciPy's lobpcg does; ConvergenceError if w too lies along x.
    """
    G = np.array([[u @ Rv for Rv in images] for u in basis])
    B = np.array([[u @ v for v in basis] for u in basis])
    for k in (len(basis), 2):
        try:
            return np.pad(eigh(G[:k, :k], B[:k, :k])[1][:, 0], (0, len(basis) - k))
        except LinAlgError:
            pass
    raise ConvergenceError("LOBPCG's preconditioned residual lies along its iterate")


def _lifted(cfg: WedgeConfig, grid: GridSpec, lam: float, w: np.ndarray) -> tuple:
    """``(v, residual, boundary mass)`` for the eigenpair (lam, w) solved
    on the grid's even subspace.

    v is w lifted back to the full grid, and its residual is taken, and
    checked like ``lowest_eigenvalue``'s, against ``assemble``'s matrix, an
    assembly independent of ``_assemble_even``'s.  The boundary mass is the
    share of v's squared norm on the nodes next to the boundary.
    """
    m = grid.n_interior
    e = _even_basis(m)
    # P w: node (i, j) takes e's weight of j times w at (i, e's column of j)
    v = (w.reshape(m, -1)[:, e.indices] * e.data).ravel()
    residual = _residual(assemble(cfg, grid), lam, v)
    g = v.reshape(m, m)
    ring = (
        np.sum(g[0, :] ** 2)
        + np.sum(g[-1, :] ** 2)
        + np.sum(g[1:-1, 0] ** 2)
        + np.sum(g[1:-1, -1] ** 2)
    )
    return v, residual, float(ring / np.sum(g**2))


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
    by at least a quarter of its magnitude.  On a coarse re-solve after an
    enlargement, so close a shift cuts the Lanczos solves two- to threefold
    against -2*alpha^2; on a refined level it is the V-cycle's sigma.  The
    certificate in ``_certify`` catches one that lands above the spectrum.
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

    Starts from L = 12/alpha with n = 128 intervals per half-width (the
    finest grid has 512, about a million nodes).  The state's length scale
    is 1/alpha, and H_alpha = alpha^2 H_1 on a grid dilated by 1/alpha, so
    the default solve at alpha is alpha^2 times the one at alpha = 1
    (bitwise when alpha is a power of two).  A given L and h must be
    positive and finite, with L/h at most ``MAX_INTERVALS``; the coarse grid
    then has n = max(64, round(L/h)) intervals per half-width.  Refining
    doubles n and enlarging doubles L.
    Every level is solved on the even subspace of the y -> -y reflection
    (about half a million unknowns on the finest grid), with its matrix
    built there by ``_assemble_even``.  ``_lifted`` lifts its eigenvector
    back to the full grid, where ``assemble``'s matrix, built after the
    level's V-cycle is freed, checks its residual, and takes its boundary
    mass; solve() touches no full-grid vector or matrix itself, and builds
    its result once, from the finest level.  The
    coarse grid is solved by ``lowest_eigenvalue``, with one factorization
    per shift; each refined grid by LOBPCG from the last level's
    eigenvector, interpolated, preconditioned by a V-cycle that descends
    through the grids solved before it to the coarse grid's factor.  The
    first solve uses the shift -2*alpha^2 and every later one, coarse
    re-solves after an enlargement included, ``_next_shift`` of the
    eigenvalues solved before it; every shift is certified below the
    spectrum before its iteration runs.  If the coarse eigenfunction's
    boundary mass is above ``BOUNDARY_MASS_LIMIT`` (1e-10), the box is
    doubled (unknown count kept) and the solve repeats, at most
    ``MAX_ENLARGEMENTS`` times; near theta = pi/2 the extended state along
    the line keeps some mass at the boundary at any box size, so the cap is
    a hard stop.
    """
    if L is None:
        L = 12.0 / cfg.alpha
    if not all(0.0 < x < math.inf for x in (L, h) if x is not None):
        raise DomainError(f"L and h must be positive and finite, got L={L}, h={h}")
    if h is not None and not L / h <= MAX_INTERVALS:
        raise DomainError(f"L/h must be at most {MAX_INTERVALS}, got L={L}, h={h}")
    grid = GridSpec(L, 128 if h is None else max(64, round(L / h)))
    shift = -2.0 * _pow(cfg.alpha, 2)
    solved: list[float] = []  # every eigenvalue so far, in solve order

    enlargements = 0
    while True:
        R = _assemble_even(cfg, grid)
        level = lowest_eigenvalue(R, shift=shift)
        v, residual, mass = _lifted(cfg, grid, level.eigenvalue, level.eigenvector)
        solved.append(level.eigenvalue)
        shift = _next_shift(solved)
        if mass <= BOUNDARY_MASS_LIMIT or enlargements >= MAX_ENLARGEMENTS:
            break
        grid = grid.enlarged()
        enlargements += 1

    reduced, prolongs = [R], []  # the V-cycle's levels, coarse first
    for _ in range(2):
        prolongs.append(_prolongation(grid.n_interior))
        start = prolongs[-1] @ level.eigenvector
        grid = grid.refined()
        reduced.append(_assemble_even(cfg, grid))
        level = _multigrid_eigenpair(reduced, prolongs, shift, start)
        v, residual, mass = _lifted(cfg, grid, level.eigenvalue, level.eigenvector)
        solved.append(level.eigenvalue)
        shift = _next_shift(solved)

    lams = tuple(solved[-3:])
    hs = (4.0 * grid.h, 2.0 * grid.h, grid.h)
    extrapolated, error_estimate = _fit_extrapolate(hs, lams)
    return SpectralResult(
        level.eigenvalue, residual, grid, eigenvector=v, extrapolated=extrapolated,
        error_estimate=error_estimate, boundary_mass=mass, enlargements=enlargements,
        grid_eigenvalues=lams, shift=level.shift, solves=level.solves,
    )
