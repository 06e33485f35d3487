"""Span tracing of wedgebound's layers, from outside the package.

A Tracer wraps the public functions of the five modules at every module
attribute that binds them, including names a calling module re-bound by
``from .x import f`` (``variational.integrate``, ``cli.solve``, ...), because
the package calls those names, not the defining module's attribute.  Each
call records a span ``[name, start, end, parent, op, attrs]`` in memory;
``layer_metrics`` turns the spans of one pass into per-layer numbers.
The package runs single-threaded here, so child spans never overlap and a
span's self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter

# span name -> (defining module, function, attributes kept from the call)
LAYERS = {
    "cli.main": ("cli", "main", lambda args, res: {"exit": res}),
    "trial.bound_constants": ("trial", "bound_constants", None),
    "quadrature.integrate": (
        "quadrature",
        "integrate",
        lambda args, res: {"evals": res.evaluations, "converged": res.converged},
    ),
    "variational.rayleigh": ("variational", "rayleigh", None),
    "variational.verify_thm1": ("variational", "verify_thm1", None),
    "variational.optimize_bound": (
        "variational",
        "optimize_bound",
        lambda args, res: {"margin": res[1].margin},
    ),
    "spectral.solve": (
        "spectral",
        "solve",
        lambda args, res: {
            "enlargements": res.enlargements,
            "levels": len(res.grid_eigenvalues),
            "error_estimate": res.error_estimate,
        },
    ),
    "spectral.assemble": (
        "spectral",
        "assemble",
        lambda args, res: {"unknowns": res.shape[0], "nnz": res.nnz},
    ),
    "spectral.lowest_eigenvalue": (
        "spectral",
        "lowest_eigenvalue",
        lambda args, res: {"unknowns": args[0].shape[0]},
    ),
}

LEVELS = 3  # FD grids per extrapolation: h, h/2, h/4

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    **{f"spectral.level{k}.eig_s": "s" for k in range(LEVELS)},
    "spectral.lowest_eigenvalue.calls": "count",
    "spectral.lowest_eigenvalue.unknowns_max": "count",
    "spectral.useful_solve_frac": "frac",
    "spectral.enlargements": "count",
    "spectral.assemble.busy_s": "s",
    "spectral.assemble.unknowns": "count",
    "spectral.assemble.nnz": "count",
    "spectral.solve.busy_s": "s",
    "spectral.solve.self_s": "s",
    "spectral.error_budget_max": "energy",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.busy_s": "s",
    "quadrature.integrate.evals": "count",
    "quadrature.integrate.unconverged": "count",
    "variational.rayleigh.calls": "count",
    "variational.rayleigh.busy_s": "s",
    "variational.optimize_bound.busy_s": "s",
    "variational.optimize_bound.quotients_per_call": "count",
    "variational.verify_thm1.busy_s": "s",
    "variational.opt_margin_min": "energy",
    "trial.bound_constants.calls": "count",
    "trial.bound_constants.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.nonzero_exit": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "wall_s": "s",  # median untraced pass, uncalibrated
}


class Tracer:
    """Records spans while installed; ``op`` tags the spans of the current op."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        # binding sites are found by identity once, before anything is patched
        self._sites = []
        for name, (home, func, keep) in LAYERS.items():
            original = getattr(modules[home], func)
            for module in modules.values():
                for attr, value in vars(module).items():
                    if value is original:
                        self._sites.append((module, attr, name, keep))

    def install(self) -> None:
        for module, attr, name, keep in self._sites:
            current = getattr(module, attr)
            setattr(module, attr, self._wrap(current, name, keep))
            self._installed.append((module, attr, current))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, current = self._installed.pop()
            setattr(module, attr, current)

    def take(self) -> list[list]:
        """The spans recorded so far; recording starts afresh."""
        taken = self.spans[:]
        self.spans.clear()
        return taken

    def _wrap(self, func, name: str, keep):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep is not None:
                span[5] = keep(args, result)
            return result

        return traced


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one pass (every UNITS name but trace.overhead_s
    and wall_s, which come from the pass times)."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, *_) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        self_s[name] += end - start - child_s[i]

    def attrs(name):
        return [s[5] or {} for s in spans if s[0] == name]

    # FD levels: unknowns relative to the coarsest grid of the same solve()
    level_s = [0.0] * LEVELS
    eig = [
        (i, s)
        for i, s in enumerate(spans)
        if s[0] == "spectral.lowest_eigenvalue" and "unknowns" in (s[5] or {})
    ]
    by_solve: dict[int, list] = defaultdict(list)
    for i, s in eig:
        by_solve[_enclosing(spans, i, "spectral.solve")].append(s)
    for group in by_solve.values():
        coarse = min(s[5]["unknowns"] for s in group)
        for s in group:
            level = round(math.log(s[5]["unknowns"] / coarse, 4))
            level_s[min(level, LEVELS - 1)] += s[2] - s[1]

    solves = [a for a in attrs("spectral.solve") if "levels" in a]
    assembled = [a for a in attrs("spectral.assemble") if "unknowns" in a]
    integrals = [a for a in attrs("quadrature.integrate") if "evals" in a]
    margins = [a["margin"] for a in attrs("variational.optimize_bound") if "margin" in a]
    eig_calls = calls["spectral.lowest_eigenvalue"]
    opt_calls = calls["variational.optimize_bound"]
    rayleigh_in_opt = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "variational.rayleigh"
        and _enclosing(spans, i, "variational.optimize_bound") >= 0
    )

    out = {f"spectral.level{k}.eig_s": level_s[k] for k in range(LEVELS)}
    out.update(
        {
            "spectral.lowest_eigenvalue.calls": eig_calls,
            "spectral.lowest_eigenvalue.unknowns_max": max(
                (s[5]["unknowns"] for _, s in eig), default=0
            ),
            "spectral.useful_solve_frac": (
                sum(a["levels"] for a in solves) / eig_calls if eig_calls else 0.0
            ),
            "spectral.enlargements": sum(a["enlargements"] for a in solves),
            "spectral.assemble.busy_s": busy["spectral.assemble"],
            "spectral.assemble.unknowns": sum(a["unknowns"] for a in assembled),
            "spectral.assemble.nnz": sum(a["nnz"] for a in assembled),
            "spectral.solve.busy_s": busy["spectral.solve"],
            "spectral.solve.self_s": self_s["spectral.solve"],
            "spectral.error_budget_max": max(
                (a["error_estimate"] for a in solves), default=0.0
            ),
            "quadrature.integrate.calls": calls["quadrature.integrate"],
            "quadrature.integrate.busy_s": busy["quadrature.integrate"],
            "quadrature.integrate.evals": sum(a["evals"] for a in integrals),
            "quadrature.integrate.unconverged": sum(
                1 for a in integrals if not a["converged"]
            ),
            "variational.rayleigh.calls": calls["variational.rayleigh"],
            "variational.rayleigh.busy_s": busy["variational.rayleigh"],
            "variational.optimize_bound.busy_s": busy["variational.optimize_bound"],
            "variational.optimize_bound.quotients_per_call": (
                rayleigh_in_opt / opt_calls if opt_calls else 0.0
            ),
            "variational.verify_thm1.busy_s": busy["variational.verify_thm1"],
            "variational.opt_margin_min": min(margins, default=0.0),
            "trial.bound_constants.calls": calls["trial.bound_constants"],
            "trial.bound_constants.busy_s": busy["trial.bound_constants"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.main.nonzero_exit": sum(
                1 for a in attrs("cli.main") if a.get("exit", 1) != 0
            ),
            "trace.spans": len(spans),
        }
    )
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def _enclosing(spans: list[list], i: int, name: str) -> int:
    """Index of the nearest ancestor of span i called ``name``, or -1."""
    parent = spans[i][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent
