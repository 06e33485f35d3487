"""Shared test support: the acceptance ledger printed after the run, and the
1D calibration well."""

import numpy as np

CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    CRITERION_LINES[number] = f"criterion {number:2d}: {status} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_LINES):
        terminalreporter.write_line(CRITERION_LINES[number])


def delta_well_1d() -> float:
    """Calibration path: 1D well -u'' - delta(0) on [-16, 16], Dirichlet.

    Discretized the same way as the 2D form (3-point stencil, -1/h at the
    origin node) with 512, then 1024, intervals per half-width; returns the
    Richardson extrapolation of the two eigenvalues.  The continuum
    eigenvalue is -1/4.  Criterion 7 and `TestDeltaWell1D` both use it.
    """
    from scipy.linalg import eigh_tridiagonal

    def eig(n: int) -> float:
        h = 16.0 / n
        h2 = h**2
        diag = np.full(2 * n - 1, 2.0 / h2)
        diag[n - 1] -= 1.0 / h  # x = 0 node
        off = np.full(2 * n - 2, -1.0 / h2)
        return float(eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0][0])

    lam_c, lam_f = eig(512), eig(1024)
    return (4.0 * lam_f - lam_c) / 3.0
