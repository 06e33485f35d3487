"""The benchmark's workloads, how one op runs, and the reference check.

An op is one ``wedgebound`` command line, run in-process through
``wedgebound.cli.main``.  Its outcome is ``ok``, ``refused`` (the known,
recorded refusal of ``fit`` on too few usable rows) or ``failed``: a
non-zero exit that is not that refusal, an exception, or output outside the
reference recorded from the seed (``reference.json``, written by
``record_reference.py``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

PI4 = math.pi / 4.0
# ROADMAP's config set for the variational layers
THETAS = (0.6, PI4, 1.0, 1.3)
ALPHAS = (1.0, 2.0)
VARIATIONAL_KINDS = ("bound", "rayleigh", "verify", "optimize")
# smallest admissible FD grid: L/h = 64, 261,121 unknowns on the finest level
FD_GRID = ("--box", "12", "--spacing", "0.1875")
SWEEP_ARGS = ("--theta-min", "1.1", "--theta-max", "1.3", "--theta-steps", "3")

# tolerances against the seed's outputs
GRID_REL_TOL = 1e-9  # FD grid eigenvalues (the mirror-symmetry gate)
QUAD_REL_TOL = 1e-9  # quadrature results, relative to their natural scale
FIT_REFUSAL = "need at least 3 usable rows"


@dataclass(frozen=True)
class Op:
    kind: str
    key: str  # entry in reference.json
    argv: tuple[str, ...]


@dataclass
class Outcome:
    code: int | None  # None when an exception escaped cli.main
    stdout: str
    stderr: str
    error: str | None
    solves: list = field(default_factory=list)  # SpectralResults of solve()


def workload_ops(name: str, seed: int, workdir: Path) -> list[Op]:
    """Ops of one pass.  The seed orders the variational grid; the FD
    workloads have a single fixed input each."""
    if name == "fd_pi4":
        argv = ("solve", "--theta", repr(PI4), "--alpha", "1", *FD_GRID)
        return [Op("solve", "solve/pi4", argv)]
    if name == "variational_grid":
        ops = [
            Op(kind, f"{kind}/{theta!r}/{alpha!r}",
               (kind, "--theta", repr(theta), "--alpha", repr(alpha)))
            for theta in THETAS
            for alpha in ALPHAS
            for kind in VARIATIONAL_KINDS
        ]
        random.Random(seed).shuffle(ops)
        return ops
    if name == "sweep_pi_half":
        table = str(workdir / "sweep.csv")
        return [
            Op("sweep", "sweep/pi_half",
               ("sweep", *SWEEP_ARGS, "--with-solver", *FD_GRID, "--out", table)),
            Op("fit", "fit/pi_half", ("fit", table, "--side", "pi_half")),
        ]
    raise KeyError(name)


def run_op(cli, op: Op, solves: list) -> Outcome:
    """Run one op through ``cli.main``; ``solves`` is filled by a capture of
    ``cli.solve`` installed by the caller."""
    out, err = io.StringIO(), io.StringIO()
    solves.clear()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code, error = cli.main(list(op.argv)), None
    except Exception:  # an escaped exception is a failed op, not a crash
        code, error = None, traceback.format_exc()
    return Outcome(code, out.getvalue(), err.getvalue(), error, list(solves))


def check(op: Op, outcome: Outcome, reference: dict) -> tuple[str, list[str]]:
    """Classify an outcome as ok, refused or failed, with the problems found."""
    if outcome.error is not None:
        return "failed", [outcome.error.strip().splitlines()[-1]]
    problems: list[str] = []
    try:
        status = _CHECKS[op.kind](op, outcome, reference, problems) or "ok"
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return ("failed" if problems else status), problems


def _same(problems, what, got, want):
    if repr(got) != repr(want):
        problems.append(f"{what}: {got!r} != reference {want!r}")


def _near(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} differs from reference {want!r} by more than {tol:.3g}")


def _le(problems, what, lo, hi):
    if not lo <= hi:
        problems.append(f"{what}: {lo!r} > {hi!r}")


def _report(op, outcome, reference, problems):
    """The JSON report and its reference entry, inputs checked bitwise;
    None when the op did not exit 0."""
    if outcome.code != 0:
        problems.append(f"exit {outcome.code}: {outcome.stderr.strip()}")
        return None, None
    rep = json.loads(outcome.stdout)
    want = reference["ops"][op.key]
    for k, v in want["inputs"].items():
        _same(problems, f"inputs.{k}", rep["inputs"][k], v)
    return rep, want


def _fd_floor(reference: dict, theta: float, alpha: float) -> float:
    """Seed FD value minus its budget at alpha = 1, scaled by alpha^2
    (dilation covariance); every Rayleigh quotient must lie above it."""
    fd = reference["fd"][repr(theta)]
    return alpha**2 * (fd["extrapolated"] - fd["error_estimate"])


def _check_bound(op, outcome, reference, problems):
    rep, want = _report(op, outcome, reference, problems)
    if rep is not None:
        for k, v in want["results"].items():
            _same(problems, f"results.{k}", rep["results"][k], v)


def _check_rayleigh(op, outcome, reference, problems):
    """rayleigh and verify: quadrature results near the seed's."""
    rep, want = _report(op, outcome, reference, problems)
    if rep is None:
        return
    theta, alpha = rep["inputs"]["theta"], rep["inputs"]["alpha"]
    res, ref = rep["results"], want["results"]
    energy = QUAD_REL_TOL * alpha**2 / 4.0
    _near(problems, "quotient", res["quotient"], ref["quotient"], energy)
    _near(problems, "margin", res["margin"], ref["margin"], energy)
    # R is compared on the scale norm^2 * alpha^2/4; verify reports no
    # norm, so recover it from margin = -R / norm^2
    norm_sq = ref.get("norm_sq", abs(ref["r_value"] / ref["margin"]))
    _near(problems, "r_value", res["r_value"], ref["r_value"], energy * norm_sq)
    if "norm_sq" in ref:
        _near(problems, "norm_sq", res["norm_sq"], ref["norm_sq"], QUAD_REL_TOL * norm_sq)
    if op.kind == "verify":
        _same(problems, "n_found", res["n_found"], ref["n_found"])
        if res["negative_energy"] is not True:
            problems.append("no negative energy found")
    _le(problems, "FD floor <= quotient", _fd_floor(reference, theta, alpha), res["quotient"])


def _check_optimize(op, outcome, reference, problems):
    rep, want = _report(op, outcome, reference, problems)
    if rep is None:
        return
    theta, alpha = rep["inputs"]["theta"], rep["inputs"]["alpha"]
    res, ref = rep["results"], want["results"]
    _same(problems, "bound_thm2", res["bound_thm2"], ref["bound_thm2"])
    energy = QUAD_REL_TOL * alpha**2 / 4.0
    # the optimizer may move, but not to a worse quotient than the seed's
    _le(problems, "quotient <= seed quotient", res["quotient"], ref["quotient"] + energy)
    _le(problems, "FD floor <= optimized", _fd_floor(reference, theta, alpha), res["quotient"])
    _le(problems, "optimized <= thm2", res["quotient"], res["bound_thm2"])


def _check_solve(op, outcome, reference, problems):
    rep, want = _report(op, outcome, reference, problems)
    if rep is None:
        return
    res, ref = rep["results"], want["results"]
    if len(outcome.solves) != 1:
        problems.append(f"expected one solve(), saw {len(outcome.solves)}")
        return
    grid = outcome.solves[0].grid_eigenvalues
    if len(grid) != len(want["grid_eigenvalues"]):
        problems.append(f"grid levels {len(grid)} != {len(want['grid_eigenvalues'])}")
    for k, (got, exp) in enumerate(zip(grid, want["grid_eigenvalues"])):
        _near(problems, f"grid_eigenvalues[{k}]", got, exp, GRID_REL_TOL * abs(exp))
    _near(problems, "eigenvalue", res["eigenvalue"], ref["eigenvalue"],
          GRID_REL_TOL * abs(ref["eigenvalue"]))
    # extrapolation amplifies grid errors about fivefold
    derived = 10 * GRID_REL_TOL * abs(ref["extrapolated"])
    _near(problems, "extrapolated", res["extrapolated"], ref["extrapolated"], derived)
    _near(problems, "error_estimate", res["error_estimate"], ref["error_estimate"], derived)
    _le(problems, "residual_norm <= 1e-8 |eigenvalue|",
        res["residual_norm"], 1e-8 * abs(res["eigenvalue"]))
    theta, alpha = rep["inputs"]["theta"], rep["inputs"]["alpha"]
    opt = reference["ops"][f"optimize/{theta!r}/{alpha!r}"]["results"]
    _le(problems, "FD - budget <= optimized",
        res["extrapolated"] - res["error_estimate"], opt["quotient"])
    _le(problems, "optimized <= thm2", opt["quotient"], opt["bound_thm2"])


def _read_table(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_sweep(op, outcome, reference, problems):
    if outcome.code != 0:
        problems.append(f"exit {outcome.code}: {outcome.stderr.strip()}")
        return
    rows = _read_table(op.argv[-1])
    want = reference["ops"][op.key]["rows"]
    if len(rows) != len(want):
        problems.append(f"{len(rows)} rows, reference has {len(want)}")
        return
    for i, (row, ref) in enumerate(zip(rows, want)):
        tag = f"row {i}"
        for k in ("theta", "alpha", "capital_lambda", "bound_thm2"):
            _same(problems, f"{tag} {k}", row[k], ref[k])
        if row["status"] not in ("ok", "inconclusive"):
            problems.append(f"{tag} status {row['status']!r}")
            continue
        alpha = float(row["alpha"])
        energy = QUAD_REL_TOL * alpha**2 / 4.0
        opt, thm2 = float(row["bound_optimized"]), float(row["bound_thm2"])
        lam, budget = float(row["lambda_fd"]), float(row["fd_error_budget"])
        ref_lam, ref_budget = float(ref["lambda_fd"]), float(ref["fd_error_budget"])
        _le(problems, f"{tag} optimized <= seed", opt, float(ref["bound_optimized"]) + energy)
        # another solver may stand behind --with-solver: it must land within
        # the seed's budget and claim no larger one
        _near(problems, f"{tag} lambda_fd", lam, ref_lam, ref_budget)
        _le(problems, f"{tag} fd_error_budget <= seed", budget,
            ref_budget + 10 * GRID_REL_TOL * abs(ref_lam))
        _le(problems, f"{tag} FD - budget <= optimized", lam - budget, opt)
        _le(problems, f"{tag} optimized <= thm2", opt, thm2)
        gap = -(alpha**2) / 4.0 - lam
        expected = "inconclusive" if gap <= budget else "ok"
        if row["status"] != expected:
            problems.append(f"{tag} status {row['status']!r}, budget says {expected!r}")


def _usable_rows(path: str) -> int:
    """Rows that ``fit --side pi_half`` can use (its own selection rule)."""
    n = 0
    for row in _read_table(path):
        if row.get("lambda_fd"):
            alpha = float(row["alpha"])
            if math.pi / 2 - float(row["theta"]) > 0 and -(alpha**2) / 4 - float(row["lambda_fd"]) > 0:
                n += 1
    return n


def _check_fit(op, outcome, reference, problems):
    usable = _usable_rows(op.argv[1])
    if usable < 3:
        if outcome.code == 1 and FIT_REFUSAL in outcome.stderr:
            return "refused"
        problems.append(f"{usable} usable rows, yet exit {outcome.code}: {outcome.stderr.strip()}")
        return None
    if outcome.code != 0:
        problems.append(f"exit {outcome.code}: {outcome.stderr.strip()}")
        return None
    rep = json.loads(outcome.stdout)
    if not (rep["inputs"]["rows_used"] == usable and math.isfinite(rep["results"]["slope"])):
        problems.append(f"fit used {rep['inputs']['rows_used']} of {usable} rows")
    return None


_CHECKS = {
    "bound": _check_bound,
    "rayleigh": _check_rayleigh,
    "verify": _check_rayleigh,
    "optimize": _check_optimize,
    "solve": _check_solve,
    "sweep": _check_sweep,
    "fit": _check_fit,
}
