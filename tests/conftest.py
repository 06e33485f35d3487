"""Shared test support: the acceptance ledger printed after the run, the 1D
calibration well, and the boundary-integral reference, its table and its
solves."""

import math

import numpy as np
import pytest

# (criterion number, what the line covers) -> its line in the ledger
CRITERION_LINES: dict[tuple[int, str], str] = {}

# boundary-integral (Birman-Schwinger) ground eigenvalues at alpha = 1, the
# reference table of ROADMAP.md, each to the digits it gives; near pi/2 it
# gives the binding energy mu = -1/4 - lambda_0 instead
BIE_REFERENCE = {
    0.005: "-0.9059218152584",
    0.01: "-0.8587599659",
    0.02: "-0.7927406109647",
    0.03: "-0.744183312218",
    0.05: "-0.672511715458",
    0.07: "-0.619623278069",
    0.1: "-0.559913763242",
    0.2: "-0.440537224438",
    0.3: "-0.375088584265678",
    0.5: "-0.306217907481",
    0.6: "-0.287123645128888",
    math.pi / 4: "-0.265782795628690",
    1.0: "-0.254502155268957",
}
BIE_BINDING = {
    1.1: "2.114962e-3",
    1.2: "8.259939e-4",
    1.3: "2.3807278772e-4",
    1.4: "3.80525496e-5",
    1.45: "9.5540863e-6",
}


def bie_reference(theta: float) -> float:
    """The table's ground eigenvalue at alpha = 1."""
    if theta in BIE_REFERENCE:
        return float(BIE_REFERENCE[theta])
    return -0.25 - float(BIE_BINDING[theta])


@pytest.fixture(scope="session")
def bie():
    """Boundary-integral ground states at alpha = 1, each solved once."""
    from wedgebound import WedgeConfig, ground_state

    cache = {}

    def get(theta: float):
        if theta not in cache:
            cache[theta] = ground_state(WedgeConfig(theta, 1.0))
        return cache[theta]

    return get


def record_criterion(number: int, passed: bool, detail: str, part: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    CRITERION_LINES[number, part] = f"criterion {number:2d}{part}: {status} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(CRITERION_LINES):
        terminalreporter.write_line(CRITERION_LINES[key])


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
