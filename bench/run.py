"""wedgebound benchmark: run one workload, check its outputs, print metrics.

Run from the repository root:

    python3 bench/run.py --workload fd_pi4 --seed 1 --seconds 10 --trace 0

Workloads are ``fd_pi4``, ``variational_grid`` and ``sweep_pi_half`` (see
README.md).  The package is imported from ``src/`` next to this directory
and driven in-process through ``wedgebound.cli.main``; passes of the
workload repeat while the next one, as long as the last, still ends within
``--seconds`` (at least one pass; with ``--trace 1``, one untraced and one
traced pass).

``--trace 0`` reports the end-to-end metrics with tracing off; the pass time
is scaled to a reference machine speed by a calibration kernel run between
the package's calls (see calibrate.py).  ``--trace 1`` alternates untraced
and traced passes, without calibration, and reports the per-layer metrics of
the traced ones, the raw untraced pass time and the tracing overhead.  The
last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with machine
info, is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import Calibrator
from spans import UNITS as LAYER_UNITS
from spans import Tracer, layer_metrics, median_metrics
from workloads import check, run_op, workload_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("fd_pi4", "variational_grid", "sweep_pi_half")
SETUP_REPEATS = 5
E2E_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import ``wedgebound.cli``."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import wedgebound.cli"], cwd=ROOT, check=True
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_info(blas_threads: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(blas_threads),
    }


def import_package() -> tuple[dict, str]:
    """Import the five modules from ``src/`` with one BLAS thread; returns
    them by name, and the BLAS thread count."""
    # SuperLU and QUADPACK run on one core anyway; a second BLAS thread only
    # competes with other load on a small machine and widens the spread.
    # Set before numpy loads; the set-up interpreters inherit these too.
    blas_threads = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas_threads
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import wedgebound
    from wedgebound import cli, quadrature, spectral, trial, variational

    if not Path(wedgebound.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported wedgebound from {wedgebound.__file__}")
    modules = {"cli": cli, "trial": trial, "quadrature": quadrature,
               "variational": variational, "spectral": spectral}
    return modules, blas_threads


def capture_solves(cli) -> list:
    """Keep the SpectralResults that ``cli`` gets from ``solve`` (for the
    grid-eigenvalue check); the CLI prints only the finest one."""
    solves: list = []
    solve = cli.solve

    def capturing(*args, **kwargs):
        result = solve(*args, **kwargs)
        solves.append(result)
        return result

    cli.solve = capturing
    return solves


def main(argv=None) -> int:
    args = parse_args(argv)
    reference_path = BENCH / "reference.json"
    if not (SRC / "wedgebound" / "cli.py").is_file() or not reference_path.is_file():
        print(f"bench: need {SRC}/wedgebound and {reference_path}", file=sys.stderr)
        return 2
    modules, blas_threads = import_package()
    cli = modules["cli"]
    reference = json.loads(reference_path.read_text(encoding="utf-8"))

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        ops = workload_ops(args.workload, args.seed, workdir)
        tracer = calibrator = None
        if args.trace:
            tracer = Tracer(modules)
        else:
            calibrator = Calibrator(args.workload, modules)
        solves = capture_solves(cli)  # after the tracer has found its sites
        setup_s = None if args.trace else setup_seconds()

        walls: dict[bool, list[float]] = {False: [], True: []}
        cal_passes: list[list[float]] = []
        layer_passes, span_passes = [], []
        counts = {"ok": 0, "refused": 0, "failed": 0}
        problems: list[dict] = []
        start = time.perf_counter()
        traced = False
        while True:
            if not traced:
                round_start = time.perf_counter()  # a pass, or an untraced-traced pair
            if traced:
                tracer.install()
            if calibrator:
                calibrator.install()
            t0 = time.perf_counter()
            outcomes = []
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = i
                if calibrator:
                    calibrator.at_op()
                outcomes.append(run_op(cli, op, solves))
            if calibrator:
                calibrator.sample()
            wall = time.perf_counter() - t0
            if calibrator:
                calibrator.uninstall()
                samples = calibrator.take()
                cal_passes.append(samples)
                wall -= sum(samples)
            if traced:
                tracer.uninstall()
                spans = tracer.take()
                span_passes.append(spans)
                layer_passes.append(layer_metrics(spans))
            walls[traced].append(wall)
            for op, outcome in zip(ops, outcomes):
                status, found = check(op, outcome, reference)
                counts[status] += 1
                if found:
                    problems.append({"op": op.key, "problems": found})
            if args.trace:
                traced = not traced
                if traced:
                    continue
            now = time.perf_counter()
            if (now - start) + (now - round_start) > args.seconds:
                break  # the next round, as long as this one, would overrun
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(counts.values())
    if args.trace:
        metrics = median_metrics(layer_passes)
        metrics["wall_s"] = statistics.median(walls[False])
        # fastest against fastest: neighbours' load only ever adds time
        metrics["trace.overhead_s"] = min(walls[True]) - min(walls[False])
        units = LAYER_UNITS
    else:
        metrics = {
            # mean over mean: both average over the same stretch of time
            "norm_wall_s": statistics.fmean(walls[False])
            * calibrator.scale([x for samples in cal_passes for x in samples]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": counts["ok"] / attempted,
        }
        units = E2E_UNITS
    summary = {
        "correct": counts["failed"] == 0,
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine_info(blas_threads),
        "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "calibration_s": cal_passes,
        "outcomes": counts,
        "problems": problems,
        "summary": summary,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if span_passes:
        # spans: [name, start, end, parent index, op index, attributes]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(span_passes), encoding="utf-8")

    for entry in problems:
        print(f"bench: {entry['op']} failed: {'; '.join(entry['problems'])}", file=sys.stderr)
    for k, m in summary["metrics"].items():
        print(f"{k:48s} {m['value']:.6g} {m['unit']}")
    print(f"ops: {counts}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
