"""Machine-speed calibration for the end-to-end time.

On a shared host the speed of the same code drifts by up to 1.6x over
minutes, in user time as much as in wall time, so a median over one run
cannot remove it.  A Calibrator runs a fixed kernel, which is the
benchmark's own code and not the package's, at sample points spread over
each pass: before every op, or, for the FD workloads, before every
``spectral.lowest_eigenvalue`` call instead, since one solve is one op; and
once more at the end of the pass.
The kernel's time is taken out of each pass time, and the mean pass time of
the run is scaled by ``reference / mean kernel time of the run``: a pass
time in seconds at the speed the kernel had when the reference was measured.

Each workload gets a kernel like its hot path: QUADPACK calling a Python
integrand for the variational grid, a sparse LU factorisation with solves
for the FD solve.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import splu


def _integrand(x: float) -> float:
    return math.exp(-0.05 * x) * math.cos(x) ** 2 / (1.0 + x)


def quadrature_kernel() -> None:
    """About 25,000 Python integrand evaluations through QUADPACK."""
    for k in range(20):
        quad(_integrand, 0.0, 100.0 + 10.0 * k, limit=400)


def _laplacian(n: int):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()


_LAPLACIAN = _laplacian(160)  # 25,600 unknowns


def sparse_lu_kernel() -> None:
    """One sparse LU of a 5-point Laplacian and 20 solves with it."""
    lu = splu(_LAPLACIAN)
    x = np.ones(_LAPLACIAN.shape[0])
    for _ in range(20):
        x = lu.solve(x)
        x /= np.linalg.norm(x)


# workload -> (kernel, its time in seconds on a quiet 2-core Xeon VM,
#              package functions to sample before each call of)
KERNELS = {
    "fd_pi4": (sparse_lu_kernel, 0.30, (("spectral", "lowest_eigenvalue"),)),
    "variational_grid": (quadrature_kernel, 0.012, ()),
    "sweep_pi_half": (sparse_lu_kernel, 0.30, (("spectral", "lowest_eigenvalue"),)),
}
WARMUP = 3  # kernel runs before timing starts


class Calibrator:
    """Runs the workload's kernel at sample points and keeps its times."""

    def __init__(self, workload: str, modules: dict):
        self.kernel, self.reference_s, hooks = KERNELS[workload]
        self.samples: list[float] = []
        # a hook whose function is gone falls back to sampling before ops
        self._hooks = [
            (modules[home], name) for home, name in hooks if hasattr(modules[home], name)
        ]
        self._installed: list[tuple] = []
        for _ in range(WARMUP):
            self.kernel()

    def at_op(self) -> None:
        """Sample point before an op, unless the hooks sample inside ops."""
        if not self._hooks:
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        self.kernel()
        self.samples.append(perf_counter() - t0)

    def install(self) -> None:
        """Sample before each call of the hooked package functions."""
        for module, name in self._hooks:
            func = getattr(module, name)

            def sampled(*args, _func=func, **kwargs):
                self.sample()
                return _func(*args, **kwargs)

            setattr(module, name, sampled)
            self._installed.append((module, name, func))

    def uninstall(self) -> None:
        while self._installed:
            module, name, func = self._installed.pop()
            setattr(module, name, func)

    def take(self) -> list[float]:
        """The kernel times sampled so far; sampling starts afresh."""
        taken = self.samples[:]
        self.samples.clear()
        return taken

    def scale(self, samples: list[float]) -> float:
        """Factor that turns a time measured over the stretch ``samples``
        were spread over into one at the reference speed."""
        return self.reference_s / statistics.fmean(samples)
