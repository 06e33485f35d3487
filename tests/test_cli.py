import csv
import json
import math

import pytest

from wedgebound import ConvergenceError, cli
from wedgebound.cli import SWEEP_COLUMNS, main

PI_4 = math.pi / 4


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBound:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "bound", "--theta", repr(PI_4), "--alpha", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert rep["command"] == "bound"
        res = rep["results"]
        assert res["capital_lambda"] == pytest.approx(1.376147e-4, rel=1e-5)
        assert res["lambda_upper_bound"] == pytest.approx(-0.2501376, rel=1e-6)

    def test_small_angle_coefficient(self, capsys):
        code, out, _ = run(capsys, "bound", "--theta", "1e-6")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["lambda_upper_bound"] == pytest.approx(-99.0 / 392.0, rel=1e-4)

    def test_round_trip_bit_exact(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["bound", "--theta", "0.7", "--out", str(path)])
        assert code == 0
        first = json.loads(path.read_text())
        again = json.loads(json.dumps(first))
        assert again == first
        assert isinstance(first["results"]["capital_lambda"], float)

    def test_degrees(self, capsys):
        _, rad_out, _ = run(capsys, "bound", "--theta", repr(PI_4))
        _, deg_out, _ = run(capsys, "bound", "--theta", "45", "--degrees")
        rad = json.loads(rad_out)["results"]
        deg = json.loads(deg_out)["results"]
        assert deg["capital_lambda"] == pytest.approx(rad["capital_lambda"], rel=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "bound", "--theta", "0.7", "--format", "csv")
        assert code == 0
        header, values = out.strip().split("\n")
        assert header.split(",")[:2] == ["theta", "alpha"]
        assert len(header.split(",")) == len(values.split(","))

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "bound", "--theta", "2.0")
        assert code == 1
        assert "invalid" in err

    def test_missing_theta_exit_1(self, capsys):
        code, _, _ = run(capsys, "bound")
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run(capsys, "bound", "--theta", "0.7", "--bogus")
        assert code == 1


class TestRayleigh:
    def test_defaults_beat_bound(self, capsys):
        code, out, _ = run(capsys, "rayleigh", "--theta", repr(PI_4))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["quotient"] <= -0.2501376
        assert res["margin"] > 0.0

    def test_explicit_params(self, capsys):
        code, out, _ = run(capsys, "rayleigh", "--theta", repr(PI_4), "--rho", "0.4", "--n", "30")
        assert code == 0
        rep = json.loads(out)
        assert rep["inputs"]["rho"] == 0.4
        assert rep["inputs"]["n"] == 30.0

    def test_bad_rho_exit_1(self, capsys):
        code, _, _ = run(capsys, "rayleigh", "--theta", "1.4", "--rho", "1.0")
        assert code == 1


class TestVerify:
    def test_negative_energy_found(self, capsys):
        code, out, _ = run(capsys, "verify", "--theta", "0.9")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["negative_energy"] is True
        assert res["r_value"] < 0.0


class TestOptimize:
    def test_improves_on_thm2(self, capsys):
        code, out, _ = run(capsys, "optimize", "--theta", repr(PI_4))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["quotient"] <= res["bound_thm2"]

    def test_bug_escapes(self, monkeypatch):
        def bug(cfg):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "optimize_bound", bug)
        with pytest.raises(RuntimeError, match="bug"):
            main(["optimize", "--theta", "0.7"])

    def test_convergence_failure_exit_2(self, capsys, monkeypatch):
        def fail(cfg):
            raise ConvergenceError("quadrature did not converge")

        monkeypatch.setattr(cli, "optimize_bound", fail)
        code, _, err = run(capsys, "optimize", "--theta", "0.7")
        assert code == 2
        assert "numerical failure" in err


class TestSolve:
    def test_small_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--theta", repr(PI_4),
            "--box", "12", "--spacing", "0.125",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["extrapolated"] < -0.25
        assert res["error_estimate"] >= 0.0

    def test_spacing_snaps_to_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--theta", repr(PI_4),
            "--box", "12", "--spacing", "0.121",
        )
        assert code == 0
        inputs = json.loads(out)["inputs"]
        ratio = inputs["box"] / inputs["spacing"]
        assert ratio == pytest.approx(round(ratio))

    def test_spacing_alone_snaps_to_grid(self, capsys):
        # the default box is snapped to as when --box is given
        code, out, _ = run(capsys, "solve", "--theta", repr(PI_4), "--spacing", "0.19")
        assert code == 0
        inputs = json.loads(out)["inputs"]
        ratio = inputs["box"] / inputs["spacing"]
        assert ratio == round(ratio)


class TestSweep:
    def test_csv_columns_and_ordering(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "3",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert list(rows[0]) == SWEEP_COLUMNS
        assert [float(r["theta"]) for r in rows] == pytest.approx([0.5, 0.7, 0.9])
        for r in rows:
            assert r["status"] == "ok"
            assert float(r["bound_optimized"]) <= float(r["bound_thm2"])
            assert r["lambda_fd"] == ""  # solver not requested

    def test_row_error_does_not_abort(self, capsys):
        # theta grid includes pi/2 where the optimizer is degenerate
        code, out, _ = run(
            capsys,
            "sweep", "--theta-min", "0.7",
            "--theta-max", repr(math.pi / 2), "--theta-steps", "2",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error:")
        assert "," not in rows[1]["status"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, fmt):
        argv = ["sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2",
                "--format", fmt]
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "sweep.out"
        code, silent, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert silent == ""
        assert path.read_bytes() == printed.encode("utf-8")

    def test_programming_error_escapes(self, monkeypatch):
        def bug(cfg):
            raise TypeError("bug")

        monkeypatch.setattr(cli, "optimize_bound", bug)
        with pytest.raises(TypeError):
            main(["sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2"])

    def test_empty_grid_exit_1(self, capsys):
        code, _, _ = run(capsys, "sweep", "--theta-min", "0.5", "--theta-max", "0.9",
                         "--theta-steps", "1")
        assert code == 1

    def test_inverted_range_exit_1(self, capsys):
        code, _, _ = run(capsys, "sweep", "--theta-min", "0.9", "--theta-max", "0.5",
                         "--theta-steps", "3")
        assert code == 1


class TestInvalidNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--theta", "0.7", "--box", "12", "--spacing", "0"],
            ["solve", "--theta", "0.7", "--box", "12", "--spacing", "nan"],
            ["solve", "--theta", "0.7", "--box", "12", "--spacing", "-1"],
            ["solve", "--theta", "0.7", "--box", "12", "--spacing", "inf"],
            ["solve", "--theta", "0.7", "--box", "inf"],
            ["solve", "--theta", "0.7", "--box", "inf", "--spacing", "0.1875"],
            ["bound", "--theta", "0.7", "--alpha", "inf"],
            ["rayleigh", "--theta", "0.7", "--alpha", "inf"],
            ["rayleigh", "--theta", "0.7", "--n", "inf"],
            ["bound", "--theta", "0.7", "--alpha", "1e-300"],
            ["bound", "--theta", "0.7", "--alpha", "1e200"],
            ["optimize", "--theta", "0.7", "--alpha", "1e200"],
            ["rayleigh", "--theta", "0.7", "--alpha", "1e-200"],
            ["solve", "--theta", "0.7", "--box", "1e300", "--spacing", "1e-10"],
            ["solve", "--theta", "0.7", "--spacing", "1e-320"],
            ["verify", "--theta", "0.7", "--alpha", "1e200"],
            ["verify", "--theta", "0.7", "--alpha", "1e-200"],
            ["bound", "--theta", "1e-200"],
            ["solve", "--theta", "0.7", "--alpha", "1e-200"],
            ["solve", "--theta", "0.7", "--alpha", "1e200", "--box", "1", "--spacing", "0.01"],
        ],
    )
    def test_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("wedgebound: invalid input: ")

    def test_sweep_rows_report_bad_spacing(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2",
            "--with-solver", "--box", "12", "--spacing", "0",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        assert all(r["status"].startswith("error: ") for r in rows)


    def test_sweep_rows_report_overflowing_alpha(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2",
            "--alpha", "1e200",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["status"] for r in rows] == ["error: 1e+200**2 overflows a float"] * 2


def synthetic_sweep_csv(path, thetas, mu_of_theta, alpha=1.0):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for theta in thetas:
            lam = -(alpha**2) / 4.0 - mu_of_theta(theta)
            writer.writerow({
                "theta": repr(theta),
                "alpha": repr(alpha),
                "capital_lambda": "0.0",
                "bound_thm2": "-0.25",
                "bound_optimized": "-0.25",
                "lambda_fd": repr(lam),
                "fd_error_budget": "0.0",
                "status": "ok",
            })


class TestFit:
    def test_pi_half_known_slope(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        synthetic_sweep_csv(
            path, [1.1, 1.2, 1.3], lambda t: 0.01 * (math.pi / 2.0 - t) ** 4
        )
        code, out, _ = run(capsys, "fit", str(path), "--side", "pi_half")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["slope"] == pytest.approx(4.0, abs=1e-9)
        assert res["residual_rms"] == pytest.approx(0.0, abs=1e-9)
        assert res["expected_slope"] == 4.0

    def test_zero_side_known_slope(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        # lambda = -alpha^2 + c*theta^(2/3) => y = 1 + lam/alpha^2 = c*theta^(2/3)
        synthetic_sweep_csv(
            path, [0.2, 0.3, 0.4], lambda t: 0.75 - 0.1 * t ** (2.0 / 3.0)
        )
        code, out, _ = run(capsys, "fit", str(path), "--side", "zero")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["slope"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert res["expected_slope"] == pytest.approx(2.0 / 3.0)

    def test_too_few_rows_exit_1(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        synthetic_sweep_csv(path, [1.1, 1.2], lambda t: 1e-3)
        code, _, _ = run(capsys, "fit", str(path), "--side", "pi_half")
        assert code == 1

    def test_degenerate_thetas_exit_1(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        synthetic_sweep_csv(path, [1.1, 1.1, 1.1], lambda t: 1e-3)
        code, _, _ = run(capsys, "fit", str(path), "--side", "pi_half")
        assert code == 1

    def test_missing_columns_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,alpha\n1.1,1.0\n")
        code, _, _ = run(capsys, "fit", str(path), "--side", "pi_half")
        assert code == 1


# argv after the subcommand (fit also gets a sweep table first), then the
# pinned inputs and results keys of its report
CONTRACT = {
    "bound": (
        ["--theta", "0.7"],
        ["theta", "alpha"],
        ["a", "b", "c", "B", "n_opt", "capital_lambda", "lambda_upper_bound"],
    ),
    "rayleigh": (
        ["--theta", "0.7"],
        ["theta", "alpha", "rho", "n"],
        ["r_value", "norm_sq", "quotient", "margin"],
    ),
    "verify": (
        ["--theta", "0.9"],
        ["theta", "alpha", "rho"],
        ["n_found", "r_value", "quotient", "margin", "negative_energy"],
    ),
    "optimize": (
        ["--theta", "0.7"],
        ["theta", "alpha"],
        ["rho", "n", "quotient", "margin", "bound_thm2"],
    ),
    "solve": (
        ["--theta", "0.6", "--box", "48", "--spacing", "0.75"],
        ["theta", "alpha", "box", "spacing"],
        ["eigenvalue", "extrapolated", "error_estimate", "residual_norm",
         "boundary_mass", "enlargements"],
    ),
    "sweep": (
        ["--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2"],
        ["theta_min", "theta_max", "theta_steps", "alpha", "with_solver"],
        ["rows"],
    ),
    "fit": (
        ["--side", "pi_half"],
        ["side", "table", "rows_used"],
        ["slope", "intercept", "residual_rms", "expected_slope"],
    ),
}

# recorded from the closed forms; they must stay bitwise
BOUND_PI_4_JSON = """\
{
  "schema": 1,
  "command": "bound",
  "inputs": {
    "theta": 0.7853981633974483,
    "alpha": 1.0
  },
  "results": {
    "a": 0.25000000000000017,
    "b": 9.461805555555557,
    "c": 12.0,
    "B": 170.3125,
    "n_opt": 75.6944444444444,
    "capital_lambda": 0.00013761467889908272,
    "lambda_upper_bound": -0.25013761467889906
  }
}
"""


def csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


class TestReportContract:
    @pytest.fixture(params=list(CONTRACT))
    def command(self, request, tmp_path):
        name = request.param
        args, inputs, results = CONTRACT[name]
        if name == "fit":
            table = tmp_path / "table.csv"
            synthetic_sweep_csv(table, [1.1, 1.2, 1.3], lambda t: 0.01 * (math.pi / 2.0 - t) ** 4)
            args = [str(table), *args]
        return name, [name, *args], inputs, results

    def test_json_envelope(self, capsys, command):
        name, argv, inputs, results = command
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert list(report) == ["schema", "command", "inputs", "results"]
        assert (report["schema"], report["command"]) == (1, name)
        assert list(report["inputs"]) == inputs
        assert list(report["results"]) == results

    def test_csv_is_the_report(self, capsys, command):
        name, argv, _, _ = command
        _, out, _ = run(capsys, *argv, "--format", "json")
        report = json.loads(out)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        if name == "sweep":
            rows = report["results"]["rows"]
            assert list(rows[0]) == SWEEP_COLUMNS
        else:
            rows = [{**report["inputs"], **report["results"]}]
        lines = [",".join(rows[0])] + [",".join(csv_cell(v) for v in r.values()) for r in rows]
        assert out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, command, fmt):
        _, argv, _, _ = command
        code, printed, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        path = tmp_path / "report.out"
        code, silent, err = run(capsys, *argv, "--format", fmt, "--out", str(path))
        assert (code, silent, err) == (0, "", "")
        assert path.read_bytes() == printed.encode("utf-8")

    def test_closed_form_bytes(self, capsys):
        code, out, _ = run(capsys, "bound", "--theta", "0.7853981633974483")
        assert code == 0
        assert out == BOUND_PI_4_JSON

    @pytest.mark.parametrize("argv", [["bound", "--theta", "2.0"], ["bound"]])
    def test_failure_writes_nothing(self, capsys, tmp_path, argv):
        path = tmp_path / "report.out"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("wedgebound: invalid input: ")
        assert not path.exists()
