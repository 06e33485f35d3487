"""Command-line surface: bound tables, verification runs, solver comparisons.

All outputs are deterministic for a given invocation; JSON reports carry a
pinned schema version and floats serialize via shortest round-trip decimals.
Each ``cmd_*`` returns its report's inputs and results; ``main`` wraps them
in the report and emits it, only once the command has succeeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .quadrature import ConvergenceError
from .spectral import solve
from .trial import (
    DomainError,
    TrialParams,
    WedgeConfig,
    _pow,
    bound_constants,
    lambda_upper,
)
from .variational import optimize_bound, rayleigh, verify_thm1

SCHEMA_VERSION = 1

SWEEP_COLUMNS = [
    "theta",
    "alpha",
    "capital_lambda",
    "bound_thm2",
    "bound_optimized",
    "lambda_fd",
    "fd_error_budget",
    "status",
]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1; 2 is reserved
        # for numerical failures
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return "" if x is None else str(x)


def _emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        # a sweep's CSV is its table of rows; any other report is one row
        rows = report["results"].get("rows") or [{**report["inputs"], **report["results"]}]
        keys = list(rows[0])
        lines = [",".join(keys)] + [",".join(_fmt(row[k]) for k in keys) for row in rows]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _theta(args) -> float:
    t = args.theta
    if t is None:
        raise DomainError("--theta is required")
    return math.radians(t) if args.degrees else t


def cmd_bound(args) -> tuple[dict, dict]:
    cfg = WedgeConfig(theta=_theta(args), alpha=args.alpha)
    rep = bound_constants(cfg)
    return {"theta": cfg.theta, "alpha": cfg.alpha}, {
        "a": rep.a,
        "b": rep.b,
        "c": rep.c,
        "B": rep.big_b,
        "n_opt": rep.n_opt,
        "capital_lambda": rep.capital_lambda,
        "lambda_upper_bound": rep.lambda_upper_bound,
    }


def _rho(cfg: WedgeConfig, args) -> float:
    return args.rho if args.rho is not None else math.cos(cfg.theta) ** 2


def cmd_rayleigh(args) -> tuple[dict, dict]:
    cfg = WedgeConfig(theta=_theta(args), alpha=args.alpha)
    n_opt = bound_constants(cfg).n_opt  # also refuses theta = pi/2, even with --n
    params = TrialParams(rho=_rho(cfg, args), n=args.n if args.n is not None else n_opt)
    rep = rayleigh(cfg, params)
    return {"theta": cfg.theta, "alpha": cfg.alpha, "rho": params.rho, "n": params.n}, {
        "r_value": rep.r_value,
        "norm_sq": rep.norm_sq,
        "quotient": rep.quotient,
        "margin": rep.margin,
    }


def cmd_verify(args) -> tuple[dict, dict]:
    cfg = WedgeConfig(theta=_theta(args), alpha=args.alpha)
    rho = _rho(cfg, args)
    n_found, rep = verify_thm1(cfg, rho)
    return {"theta": cfg.theta, "alpha": cfg.alpha, "rho": rho}, {
        "n_found": n_found,
        "r_value": rep.r_value,
        "quotient": rep.quotient,
        "margin": rep.margin,
        "negative_energy": rep.r_value < 0.0,
    }


def cmd_optimize(args) -> tuple[dict, dict]:
    cfg = WedgeConfig(theta=_theta(args), alpha=args.alpha)
    params, rep = optimize_bound(cfg)
    return {"theta": cfg.theta, "alpha": cfg.alpha}, {
        "rho": params.rho,
        "n": params.n,
        "quotient": rep.quotient,
        "margin": rep.margin,
        "bound_thm2": -cfg.alpha**2 * (0.25 + lambda_upper(cfg.theta)),
    }


def cmd_solve(args) -> tuple[dict, dict]:
    cfg = WedgeConfig(theta=_theta(args), alpha=args.alpha)
    res = solve(cfg, L=args.box, h=args.spacing)
    return {"theta": cfg.theta, "alpha": cfg.alpha, "box": res.grid.L, "spacing": res.grid.h}, {
        "eigenvalue": res.eigenvalue,
        "extrapolated": res.extrapolated,
        "error_estimate": res.error_estimate,
        "residual_norm": res.residual_norm,
        "boundary_mass": res.boundary_mass,
        "enlargements": res.enlargements,
    }


def _sweep_row(theta: float, args) -> dict:
    row: dict = {k: None for k in SWEEP_COLUMNS}
    row["theta"] = theta
    row["alpha"] = args.alpha
    try:
        cfg = WedgeConfig(theta=theta, alpha=args.alpha)
        lam = lambda_upper(theta)
        row["capital_lambda"] = lam
        row["bound_thm2"] = -_pow(args.alpha, 2) * (0.25 + lam)
        _, rep = optimize_bound(cfg)
        row["bound_optimized"] = rep.quotient
        status = "ok"
        if args.with_solver:
            res = solve(cfg, L=args.box, h=args.spacing)
            row["lambda_fd"] = res.extrapolated
            row["fd_error_budget"] = res.error_estimate
            gap = -args.alpha**2 / 4.0 - res.extrapolated
            if gap <= res.error_estimate:
                status = "inconclusive"
        row["status"] = status
    except (DomainError, ConvergenceError) as exc:
        # keep the status cell CSV-safe: no commas or newlines
        detail = str(exc).replace(",", ";").replace("\n", " ")
        row["status"] = f"error: {detail}"
    return row


def cmd_sweep(args) -> tuple[dict, dict]:
    if args.theta_steps is None or args.theta_steps < 2:
        raise DomainError("--theta-steps must be at least 2")
    if args.theta_min is None or args.theta_max is None:
        raise DomainError("--theta-min and --theta-max are required for sweep")
    lo, hi = args.theta_min, args.theta_max
    if args.degrees:
        lo, hi = math.radians(lo), math.radians(hi)
    if not lo < hi:
        raise DomainError("--theta-min must be below --theta-max")
    thetas = [lo + (hi - lo) * i / (args.theta_steps - 1) for i in range(args.theta_steps)]
    inputs = {
        "theta_min": lo,
        "theta_max": hi,
        "theta_steps": args.theta_steps,
        "alpha": args.alpha,
        "with_solver": bool(args.with_solver),
    }
    return inputs, {"rows": [_sweep_row(t, args) for t in thetas]}


def _load_sweep_table(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = set(SWEEP_COLUMNS) - set(rows[0] if rows else {})
    if missing:
        raise DomainError(f"table lacks sweep columns: {sorted(missing)}")
    return rows


def cmd_fit(args) -> tuple[dict, dict]:
    rows = _load_sweep_table(args.table)
    xs, ys = [], []
    for row in rows:
        if not row.get("lambda_fd"):
            continue
        theta = float(row["theta"])
        alpha = float(row["alpha"])
        lam = float(row["lambda_fd"])
        if args.side == "pi_half":
            x = math.pi / 2.0 - theta
            y = -(alpha**2) / 4.0 - lam
        else:
            x = theta
            y = 1.0 - (-lam / alpha**2)
        if x > 0.0 and y > 0.0:
            xs.append(math.log(x))
            ys.append(math.log(y))
    if len(xs) < 3:
        raise DomainError("need at least 3 usable rows with solver values")
    if max(xs) - min(xs) < 1e-12:
        raise DomainError("degenerate table: theta values coincide")
    coeffs, residuals, *_ = np.polyfit(xs, ys, 1, full=True)
    rss = float(residuals[0]) if len(residuals) else 0.0
    return {"side": args.side, "table": args.table, "rows_used": len(xs)}, {
        "slope": float(coeffs[0]),
        "intercept": float(coeffs[1]),
        "residual_rms": math.sqrt(rss / len(xs)),
        "expected_slope": 4.0 if args.side == "pi_half" else 2.0 / 3.0,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wedgebound")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta=True):
        if theta:
            p.add_argument("--theta", type=float, help="wedge half-angle (radians)")
        p.add_argument("--alpha", type=float, default=1.0, help="coupling constant")
        p.add_argument("--degrees", action="store_true", help="angles given in degrees")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH", help="write the report to a file")

    p = sub.add_parser("bound", help="closed-form bound constants")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("rayleigh", help="Rayleigh quotient of the trial family")
    common(p)
    p.add_argument("--rho", type=float)
    p.add_argument("--n", type=float)
    p.set_defaults(func=cmd_rayleigh)

    p = sub.add_parser("verify", help="search a cutoff scale with negative energy")
    common(p)
    p.add_argument("--rho", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="optimize the trial parameters")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("solve", help="finite-difference ground eigenvalue")
    common(p)
    p.add_argument("--box", type=float, help="box half-width L")
    p.add_argument("--spacing", type=float, help="coarse grid spacing h")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="tabulate bounds over a theta grid")
    common(p, theta=False)
    p.add_argument("--theta-min", type=float)
    p.add_argument("--theta-max", type=float)
    p.add_argument("--theta-steps", type=int)
    p.add_argument("--with-solver", action="store_true")
    p.add_argument("--box", type=float)
    p.add_argument("--spacing", type=float)
    p.set_defaults(func=cmd_sweep, format="csv")

    p = sub.add_parser("fit", help="log-log exponent fit of a sweep table")
    p.add_argument("table", help="CSV produced by the sweep command")
    p.add_argument("--side", choices=("zero", "pi_half"), required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs, results = args.func(args)
    except DomainError as exc:
        print(f"wedgebound: invalid input: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"wedgebound: numerical failure: {exc}", file=sys.stderr)
        return 2
    report = {"schema": SCHEMA_VERSION, "command": args.command, "inputs": inputs,
              "results": results}
    _emit(report, args.format, args.out)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
