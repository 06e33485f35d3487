import csv
import io
import json
import math
from types import SimpleNamespace

import pytest

from wedgebound import (
    ConvergenceError,
    DomainError,
    WedgeConfig,
    bound_constants,
    cli,
    variational,
)
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theta", "0.7", "--rho", "1e-300"],
            ["--theta", "1.5707963"],
            # an energy of -1.5e-16 turns up, inside its quadrature tolerance
            # of 1e-13, so its sign is not certified
            ["--theta", "0.7", "--rho", "1e-15"],
        ],
    )
    def test_exhausted_search_exit_2(self, capsys, argv):
        # the energy's O(1/n) cutoff error hides a closed_R this close to 0
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("wedgebound: numerical failure: no negative energy found")


class TestOptimize:
    def test_improves_on_thm2(self, capsys):
        code, out, _ = run(capsys, "optimize", "--theta", repr(PI_4))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["quotient"] <= res["bound_thm2"]

    def test_bug_escapes(self, monkeypatch):
        def bug(cfg):
            raise RuntimeError("bug")

        monkeypatch.setattr(variational, "optimize_bound", bug)
        with pytest.raises(RuntimeError, match="bug"):
            main(["optimize", "--theta", "0.7"])

    def test_convergence_failure_exit_2(self, capsys, monkeypatch):
        def fail(cfg):
            raise ConvergenceError("quadrature did not converge")

        monkeypatch.setattr(variational, "optimize_bound", fail)
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


STUB_SOLVE = SimpleNamespace(
    grid=SimpleNamespace(L=12.0, h=0.125),
    eigenvalue=-0.3,
    extrapolated=-0.31,
    error_estimate=0.001,
    residual_norm=1e-12,
    boundary_mass=1e-9,
    enlargements=0,
)

SWEEP_WITH_SOLVER = ["sweep", "--theta-min", "0.6", "--theta-max", "0.8", "--theta-steps", "3",
                     "--with-solver", "--box", "12", "--spacing", "0.125"]


@pytest.fixture
def solve_calls(monkeypatch):
    """Replace ``cli.solve``, the one call through which commands reach the
    FD solver, with a recorder returning a stub result."""
    calls = []

    def recorder(cfg, L, h):
        calls.append((cfg.theta, L, h))
        return STUB_SOLVE

    monkeypatch.setattr(cli, "solve", recorder)
    return calls


class TestSolverSeam:
    def test_solve_calls_cli_solve(self, capsys, solve_calls):
        code, out, _ = run(capsys, "solve", "--theta", "0.7", "--box", "12", "--spacing", "0.125")
        assert code == 0
        assert solve_calls == [(0.7, 12.0, 0.125)]
        assert json.loads(out)["results"]["extrapolated"] == STUB_SOLVE.extrapolated

    def test_sweep_with_solver_calls_cli_solve(self, capsys, solve_calls):
        code, out, _ = run(capsys, *SWEEP_WITH_SOLVER)
        assert code == 0
        assert [L for _, L, _ in solve_calls] == [12.0] * 3
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["lambda_fd"]) for r in rows] == [STUB_SOLVE.extrapolated] * 3


class TestOut:
    def test_missing_directory_refused_before_the_work(self, capsys, tmp_path, solve_calls):
        path = tmp_path / "missing" / "table.csv"
        code, out, err = run(capsys, *SWEEP_WITH_SOLVER, "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"wedgebound: invalid input: cannot write --out {path}: ")
        assert solve_calls == []
        assert not path.parent.exists()

    def test_directory_refused(self, capsys, tmp_path):
        code, _, err = run(capsys, "bound", "--theta", "0.7", "--out", str(tmp_path))
        assert code == 1
        assert err == f"wedgebound: invalid input: cannot write --out {tmp_path}: it is a directory\n"

    def test_failed_command_keeps_existing_file(self, capsys, tmp_path):
        path = tmp_path / "report.out"
        path.write_text("earlier report\n")
        code, _, _ = run(capsys, "bound", "--theta", "2.0", "--out", str(path))
        assert code == 1
        assert path.read_text() == "earlier report\n"

    def test_unwritable_path_refused(self, capsys, tmp_path, monkeypatch):
        # run as root, every write is granted, so the denial is patched in
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        path = tmp_path / "r.json"
        code, out, err = run(capsys, "bound", "--theta", "0.7", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"wedgebound: invalid input: cannot write --out {path}: permission denied\n"
        assert not path.exists()

    def test_write_error_exit_1(self, capsys, tmp_path, monkeypatch):
        # the directory vanishes between the check and the write
        monkeypatch.setattr(cli, "_check_out", lambda path: None)
        path = tmp_path / "gone" / "report.out"
        code, out, err = run(capsys, "bound", "--theta", "0.7", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"wedgebound: invalid input: cannot write --out {path}: ")
        assert not path.exists()


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

    def test_degrees(self, capsys):
        # the theta range converts like bound's --theta
        lo, hi = math.radians(30.0), math.radians(60.0)
        argv = ["sweep", "--theta-steps", "2", "--format", "json"]
        _, deg_out, _ = run(capsys, *argv, "--degrees", "--theta-min", "30", "--theta-max", "60")
        _, rad_out, _ = run(capsys, *argv, "--theta-min", repr(lo), "--theta-max", repr(hi))
        deg = json.loads(deg_out)
        assert (deg["inputs"]["theta_min"], deg["inputs"]["theta_max"]) == (lo, hi)
        assert [r["status"] for r in deg["results"]["rows"]] == ["ok", "ok"]
        assert deg == json.loads(rad_out)

    def test_row_error_does_not_abort(self, capsys):
        # theta grid ends where the optimizer is degenerate: at pi/2, and
        # 1e-9 below it, where sin^2 theta rounds to 1; the row's status is
        # the message raised there, commas included, in JSON and in CSV
        for theta_max in (repr(math.pi / 2), "1.5707963257948966"):
            argv = ["sweep", "--theta-min", "0.7", "--theta-max", theta_max,
                    "--theta-steps", "2"]
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            rows = json.loads(out)["results"]["rows"]
            with pytest.raises(DomainError) as raised:
                bound_constants(WedgeConfig(rows[1]["theta"], 1.0))
            assert "," in str(raised.value)
            assert [r["status"] for r in rows] == ["ok", f"error: {raised.value}"]
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            assert [r["status"] for r in csv.DictReader(io.StringIO(out))] == [
                r["status"] for r in rows
            ]

    def test_inconclusive_rows(self, capsys):
        # near pi/2 on a small grid the FD eigenvalue lies within its error
        # budget of -alpha^2/4 = -0.25, so its sign against it is unsettled
        argv = ["sweep", "--theta-min", "1.3", "--theta-max", "1.4", "--theta-steps", "2",
                "--with-solver", "--box", "12", "--spacing", "0.1875"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        tables = [json.loads(out)["results"]["rows"]]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        tables.append(list(csv.DictReader(io.StringIO(out))))
        for rows in tables:
            for r in rows:
                gap = -0.25 - float(r["lambda_fd"])
                inconclusive = gap <= float(r["fd_error_budget"])
                assert r["status"] == ("inconclusive" if inconclusive else "ok")
            assert [r["status"] for r in rows] == ["inconclusive"] * 2

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

        monkeypatch.setattr(variational, "optimize_bound", bug)
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

    @pytest.mark.parametrize(
        "lo, hi", [("0.1", "inf"), ("-inf", "0.9"), ("-1e308", "1e308")]
    )
    def test_infinite_range_exit_1(self, capsys, lo, hi):
        # lo + (hi - lo) * 0 would put a nan theta in the first row
        code, out, err = run(capsys, "sweep", f"--theta-min={lo}", f"--theta-max={hi}",
                             "--theta-steps", "2")
        assert (code, out) == (1, "")
        assert err.startswith("wedgebound: invalid input: the theta range must be finite")


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
            # cot(theta) is inf at a subnormal theta
            ["bound", "--theta", "1e-320"],
            ["rayleigh", "--theta", "1e-320"],
            ["optimize", "--theta", "1e-320"],
            ["verify", "--theta", "1e-320"],
            # sin^2 theta rounds to 1, so the bound's a is 0
            ["bound", "--theta", "1.5707963257948966"],
            ["rayleigh", "--theta", "1.5707963257948966"],
            ["optimize", "--theta", "1.5707963257948966"],
            # L/h above MAX_INTERVALS: refused by solve before GridSpec's h^2
            # and index checks, which only a direct GridSpec(...) reaches
            ["solve", "--theta", "0.7", "--box", "12", "--spacing", "1e-300"],
            ["solve", "--theta", "0.7", "--box", "12", "--spacing", "1e-100"],
            # refused before any row runs, as every other subcommand refuses it
            *(["sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2",
                "--alpha", alpha] for alpha in ("nan", "inf", "0", "-1")),
            # alpha**(-2 cos^2 theta) underflows, so the bound's a is 0
            ["bound", "--theta", "0.7", "--alpha", "1e300"],
            ["rayleigh", "--theta", "0.7", "--alpha", "1e300"],
            ["optimize", "--theta", "0.7", "--alpha", "1e300"],
            ["optimize", "--theta", "0.7", "--alpha", "1e278"],
        ],
    )
    def test_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("wedgebound: invalid input: ")

    def test_underflowing_a_is_not_blamed_on_pi_half(self, capsys):
        _, _, err = run(capsys, "bound", "--theta", "0.7", "--alpha", "1e300")
        assert err == (
            "wedgebound: invalid input: the bound is degenerate at theta = 0.7,"
            " alpha = 1e+300: a = 0, so n_opt is undefined\n"
        )

    def test_overflowing_support_names_n(self, capsys):
        # n is finite, but the trial support (-2n, 2n) is not
        code, _, err = run(capsys, "rayleigh", "--theta", "0.7", "--n", "1e308")
        assert code == 1
        assert err.startswith("wedgebound: invalid input: rho and n must be positive")
        assert "support (-2n, 2n)" in err and "n=1e+308" in err

    def test_sweep_rows_report_bad_spacing(self, capsys):
        for spacing in ("0", "1e-300", "1e-100", "0.001"):
            code, out, _ = run(
                capsys,
                "sweep", "--theta-min", "0.5", "--theta-max", "0.9", "--theta-steps", "2",
                "--with-solver", "--box", "12", "--spacing", spacing,
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


def edit_row(path, index, **cells):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[index].update(cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


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

    @pytest.mark.parametrize(
        "side, column, value",
        [
            ("zero", "theta", "abc"),
            ("pi_half", "alpha", "1e200"),  # alpha**2 overflows
            ("zero", "lambda_fd", "inf"),
            ("pi_half", "lambda_fd", "nan"),
            ("zero", "alpha", "0.0"),  # lambda_fd / alpha**2
            ("zero", "alpha", "1e-160"),  # lambda_fd / alpha**2 overflows
        ],
    )
    def test_bad_cell_exit_1(self, capsys, tmp_path, side, column, value):
        path = tmp_path / "sweep.csv"
        synthetic_sweep_csv(path, [0.2, 0.3, 0.4], lambda t: 0.75 - 0.1 * t ** (2.0 / 3.0))
        edit_row(path, 1, **{column: value})
        code, out, err = run(capsys, "fit", str(path), "--side", side)
        assert (code, out) == (1, "")
        assert err.startswith("wedgebound: invalid input: ")

    def test_rows_without_solver_value_skipped(self, capsys, tmp_path):
        # an unused row's cells are not read, however bad
        path = tmp_path / "sweep.csv"
        synthetic_sweep_csv(path, [1.1, 1.2, 1.3, 1.4], lambda t: 1e-3 * t)
        edit_row(path, 3, theta="abc", lambda_fd="")
        code, out, _ = run(capsys, "fit", str(path), "--side", "pi_half")
        assert code == 0
        assert json.loads(out)["inputs"]["rows_used"] == 3

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00", b"theta\n" + b"x" * 200_000])
    def test_unreadable_table_exit_1(self, capsys, tmp_path, content):
        # missing file (OSError), not UTF-8, a field over csv's size limit
        path = tmp_path / "sweep.csv"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "fit", str(path), "--side", "zero")
        assert (code, out) == (1, "")
        assert err.startswith("wedgebound: invalid input: cannot read table ")

    def test_missing_columns_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,alpha\n1.1,1.0\n")
        code, _, _ = run(capsys, "fit", str(path), "--side", "pi_half")
        assert code == 1

    def test_comma_in_table_path_stays_one_field(self, capsys, tmp_path):
        path = tmp_path / "sweep, alpha 1.csv"
        synthetic_sweep_csv(path, [1.1, 1.2, 1.3], lambda t: 0.01 * (math.pi / 2.0 - t) ** 4)
        code, out, _ = run(capsys, "fit", str(path), "--side", "pi_half", "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row) == 7
        (parsed,) = csv.DictReader(io.StringIO(out))
        assert parsed["table"] == str(path)


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
        assert list(csv.DictReader(io.StringIO(out))) == [
            {k: csv_cell(v) for k, v in r.items()} for r in rows
        ]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--theta", "2.0"],
            ["bound"],
            ["sweep", "--theta-min", "0.5"],
            ["bound", "--theta", "0.7", "--bogus"],
        ],
    )
    def test_failure_writes_nothing(self, capsys, tmp_path, argv):
        path = tmp_path / "report.out"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("wedgebound: invalid input: ")
        assert not path.exists()

    def test_parser_is_reused_across_calls(self, capsys):
        # main builds its parser once per process; a usage error in between
        # must leave nothing in it that changes the next report
        argv = ["rayleigh", "--theta", "0.7", "--rho", "0.4", "--n", "50"]
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, "rayleigh", "--theta", "0.7", "--rho")[0] == 1
        assert run(capsys, *argv) == first
        assert cli.build_parser() is cli.build_parser()
