"""Record the reference outputs that bench/run.py checks every op against.

Run once, from the repository root, on the commit whose outputs are the
reference (takes about two minutes):

    python3 bench/record_reference.py

It runs one pass of every workload and an FD solve at each theta of the
variational grid (alpha = 1, the workloads' grid), whose value minus its
error budget is the floor that every Rayleigh quotient must stay above.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, RESULTS, WORKLOADS, capture_solves, import_package
from workloads import FD_GRID, THETAS, Op, run_op, workload_ops


def main() -> int:
    modules, _ = import_package()
    cli = modules["cli"]
    solves = capture_solves(cli)
    reference: dict = {"ops": {}, "fd": {}}
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        fd_ops = [
            Op("solve", f"fd/{theta!r}", ("solve", "--theta", repr(theta), "--alpha", "1", *FD_GRID))
            for theta in THETAS
        ]
        ops = [op for name in WORKLOADS for op in workload_ops(name, 0, workdir)]
        for op in ops + fd_ops:
            out = run_op(cli, op, solves)
            print(f"{op.key}: exit {out.code}", file=sys.stderr)
            if out.error is not None:
                raise SystemExit(out.error)
            if op.kind == "sweep":
                with open(op.argv[-1], newline="", encoding="utf-8") as fh:
                    entry = {"rows": list(csv.DictReader(fh))}
            elif op.kind == "fit":
                entry = {"code": out.code, "stderr": out.stderr}
            else:
                entry = json.loads(out.stdout)
                entry = {"inputs": entry["inputs"], "results": entry["results"]}
                if op.kind == "solve":
                    entry["grid_eigenvalues"] = list(out.solves[0].grid_eigenvalues)
            if op.key.startswith("fd/"):
                reference["fd"][op.key[3:]] = entry["results"] | {
                    "grid_eigenvalues": entry["grid_eigenvalues"]
                }
            else:
                reference["ops"][op.key] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
