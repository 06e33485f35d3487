import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wedgebound
from wedgebound import boundary, cli, quad_J, quadrature, spectral, trial, variational

SRC = Path(__file__).resolve().parents[1] / "src"

# every optional parameter of a public function; a new one is a new knob
# that each caller, test and benchmark must cover
OPTIONAL_PARAMETERS = {("solve", "L"), ("solve", "h")}

# every (subcommand, option) pair of the command line, for the same reason
_COMMON = "--theta --alpha --degrees --format --out"
CLI_OPTIONS = {
    (command, option)
    for command, options in {
        "bound": _COMMON,
        "rayleigh": f"{_COMMON} --rho --n",
        "verify": f"{_COMMON} --rho",
        "optimize": _COMMON,
        "solve": f"{_COMMON} --box --spacing",
        "sweep": "--alpha --degrees --format --out --theta-min --theta-max --theta-steps"
        " --with-solver --box --spacing",
        "fit": "table --side --format --out",
    }.items()
    for option in options.split()
}

# the package's public names: what the commands run, the paper's closed-form
# checks closed_J and quad_J, which criterion 3 and the tests call, and the
# boundary-integral reference that criterion 10 and the FD audit take
PUBLIC_NAMES = {
    "BoundReport", "BoundaryResult", "ConvergenceError", "DomainError", "GridSpec",
    "QuadratureEstimate", "RayleighReport", "SpectralResult", "TrialParams", "WedgeConfig",
    "bound_constants", "closed_J", "closed_R", "ground_state", "integrate", "lambda_upper",
    "optimize_bound", "quad_J", "rayleigh", "solve", "verify_thm1",
}


def test_optional_parameters_are_pinned():
    found = set()
    for module in (trial, quadrature, variational, spectral, boundary):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add((name, param.name))
    assert found == OPTIONAL_PARAMETERS


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        (command, option)
        for command, sub in commands.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings or [action.dest]
    }
    assert found == CLI_OPTIONS


def test_public_names_are_pinned():
    assert sorted(wedgebound.__all__) == sorted(PUBLIC_NAMES)
    # a stale entry would break `from wedgebound import *`; every name
    # resolves lazily, through the package's __getattr__, to the object its
    # defining module exports, and each module exports what the package does
    modules = {m.__name__: m for m in (trial, quadrature, variational, spectral, boundary)}
    for row, names in wedgebound._NAMES.items():
        assert set(modules[f"wedgebound.{row}"].__all__) == set(names)
    for name in wedgebound.__all__:
        home = modules[f"wedgebound.{wedgebound._HOME[name]}"]
        assert getattr(wedgebound, name) is getattr(home, name)


def test_quadrature_knows_only_the_error_type_of_trial():
    # every integral of the trial family lives in variational; quadrature
    # shares only trial's two error types
    from_trial = {
        name
        for name, obj in vars(quadrature).items()
        if getattr(obj, "__module__", None) == trial.__name__
    }
    assert from_trial == {"ConvergenceError", "DomainError"}
    assert quad_J.__module__ == variational.__name__


def test_import_loads_no_submodule():
    # every public name loads its module on first access, so the package
    # itself imports neither a submodule nor numpy, and the FD solver no
    # quadrature
    script = """
import json, sys
import wedgebound
first = sorted(m for m in sys.modules if m.startswith(("wedgebound.", "numpy")))
wedgebound.solve
then = sorted(m for m in sys.modules if m.startswith("wedgebound."))
print(json.dumps([first, then]))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    first, then = json.loads(proc.stdout.splitlines()[-1])
    assert first == []
    assert then == ["wedgebound.spectral", "wedgebound.trial"]


def test_closed_form_commands_load_no_solver(tmp_path):
    # the CLI starts on the standard library and trial alone: bound, a
    # usage error and a refused fit load no numpy; a command that integrates
    # loads numpy with variational, and one that does not solve never pays
    # for SciPy.  fit refuses the solver-less sweep's table, which has no
    # lambda_fd to fit
    script = """
import json, sys
from wedgebound import cli

def loaded():
    tops = {m.partition(".")[0] for m in sys.modules}
    return sorted({m for m in sys.modules if m.startswith("wedgebound.")}
                  | tops & {"numpy", "scipy"})

table = sys.argv[1]
stages = [
    ("start", []),
    ("closed_form", [
        ["bound", "--theta", "0.7"],
        ["bound"],
        ["fit", table, "--side", "zero"],
    ]),
    ("rayleigh", [["rayleigh", "--theta", "0.7"]]),
    ("integrate", [
        ["verify", "--theta", "0.7"],
        ["optimize", "--theta", "0.7"],
        ["sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2",
         "--out", table],
        ["fit", table, "--side", "zero"],
    ]),
]
seen = {name: {"codes": [cli.main(argv) for argv in runs], "loaded": loaded()}
        for name, runs in stages}
print(json.dumps(seen))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sweep.csv")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    cli_only = ["wedgebound.cli", "wedgebound.trial"]
    integrating = ["numpy", "wedgebound.cli", "wedgebound.quadrature", "wedgebound.trial",
                   "wedgebound.variational"]
    assert seen == {
        "start": {"codes": [], "loaded": cli_only},
        "closed_form": {"codes": [0, 1, 1], "loaded": cli_only},
        "rayleigh": {"codes": [0], "loaded": integrating},
        "integrate": {"codes": [0, 0, 0, 1], "loaded": integrating},
    }


def test_spectral_names_resolve_on_access():
    assert wedgebound.solve is spectral.solve
    from wedgebound import ConvergenceError, GridSpec

    assert GridSpec is spectral.GridSpec
    assert ConvergenceError is trial.ConvergenceError
    with pytest.raises(AttributeError):
        wedgebound.no_such_name
    assert set(wedgebound.__all__) <= set(dir(wedgebound))
