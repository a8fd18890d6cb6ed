import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantocds.cli import _build_subparsers, _solver_cfg, main, read_snapshots
from quantocds.calibration import CalibrationConfig, MarketSnapshot, _SpreadModel
from quantocds.pde import SolverConfig

FAST_MODEL = ["--sigma-y", "0.2", "--grid-x", "41", "--grid-y", "61", "--grid-t", "60"]


def run(args):
    return main(args)


def make_snapshot_csv(path: Path, rows):
    header = ("date,spread_usd_5y_bp,spread_usd_10y_bp,spread_eur_5y_bp,"
              "spread_eur_10y_bp,fx_atm_vol,index_option_vol_1m,rate")
    path.write_text("\n".join([header] + rows) + ("\n" if rows else "\n"))


def synthetic_row(date="2012-05-07", b=-120.0, y0=-4.4, rho=0.2, gamma=-0.2):
    cfg = CalibrationConfig()
    probe = MarketSnapshot(date, 0.01, 0.01, 0.01, 0.01, 0.1, 0.5, 0.0)
    model = _SpreadModel(probe, cfg)
    usd5, usd10 = model.spreads(b, y0, 0.5)
    eur5, eur10 = model.spreads(b, y0, 0.5, rho, gamma)
    return (f"{date},{usd5 * 1e4:.4f},{usd10 * 1e4:.4f},{eur5 * 1e4:.4f},"
            f"{eur10 * 1e4:.4f},0.1,0.5,0.0")


class TestPrice:
    def test_no_quanto_prints_identical_spreads(self, capsys):
        rc = run(["price", "--tenor", "2", "--gamma", "0", "--rho", "0",
                  "--sigma-z", "0", *FAST_MODEL])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith("par spread")]
        usd = lines[0].split()[-2]
        eur = lines[1].split()[-2]
        assert usd == eur

    @pytest.mark.parametrize("argv", [["price"], ["survival-curve"], ["sweep", "--axis", "rho=0:0:1"]])
    def test_grid_flags_default_to_the_solver_config(self, argv):
        args = _build_subparsers()[0].parse_args(argv)
        assert _solver_cfg(args) == SolverConfig()

    def test_writes_csvs(self, tmp_path, capsys):
        rc = run(["price", "--tenor", "1", "--out-dir", str(tmp_path), *FAST_MODEL])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "price_curve.csv").exists()
        assert (tmp_path / "price_summary.csv").exists()

    def test_env_out_dir_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QCDS_OUT_DIR", str(tmp_path / "envout"))
        rc = run(["price", "--tenor", "1", *FAST_MODEL])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "envout" / "price_curve.csv").exists()

    def test_invalid_param_exits_one(self, capsys):
        rc = run(["price", "--tenor", "1", "--rho", "2.0", *FAST_MODEL])
        err = capsys.readouterr().err
        assert rc == 1
        assert "rho" in err

    @pytest.mark.parametrize("argv,field", [
        (["price", "--tenor", "inf"], "tenor"),
        (["price", "--tenor", "nan"], "tenor"),
        (["price", "--notional", "nan"], "notional"),
        (["sweep", "--axis", "rho=0:0:1", "--tenor", "inf"], "tenor"),
        (["survival-curve", "--tenor", "inf"], "tenor"),
        (["survival-curve", "--tenor", "nan"], "tenor"),
        (["survival-curve", "--tenors", "1,inf"], "tenors"),
        (["survival-curve", "--tenors", "1,nan"], "tenors"),
        (["survival-curve", "--engine", "reduced", "--tenors", "1,nan"], "tenors"),
        (["price", "--sigma-z", "nan"], "sigma_z"),
        (["price", "--sigma-z", "inf"], "sigma_z"),
        (["price", "--gamma", "nan"], "gamma_z"),
        (["price", "--rho", "nan"], "rho"),
        (["price", "--notional", "0"], "notional"),
    ])
    def test_non_finite_input_is_named(self, capsys, argv, field):
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("argv,named", [
        (["price", "--engine", "adi", "--b", "1e300"], "ADI y-sweep"),
        (["survival-curve", "--engine", "adi", "--b", "1e300", "--tenors", "1"], "ADI y-sweep"),
        (["price", "--engine", "reduced", "--tenor", "1e308"], "tenor"),
        (["survival-curve", "--engine", "reduced", "--tenors", "1e308"], "'1e308': tenor"),
        (["survival-curve", "--engine", "reduced", "--tenor", "1e308"], "got 1e+308"),
    ])
    def test_overflowing_input_is_one_error_line(self, capsys, argv, named):
        # e^b overflowed in the log-FX grid's width, the tenor's payment count in
        # the contract's schedule, a curve's time-step count and its list of quarters
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and named in err and err.count("\n") == 1


class TestUsageErrors:
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        # `quantocds price | head -2`, with the reader gone before the first write
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quantocds.cli", "price", "--engine", "reduced",
                 "--tenor", "5"], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["calibrate"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["price", "--mc-paths", "5"],
        ["survival-curve", "--sigma-y-mode", "implied"],
        ["sweep", "--axis", "rho=0:0:1", "--tolerance-bp", "1"],
        ["validate", "--grid-x", "3"],
        ["calibrate", "--snapshots", "quotes.csv", "--mc-steps", "5"],
        ["backtest", "--snapshots", "quotes.csv", "--grid-x", "3"],
    ], ids=lambda argv: argv[0])
    def test_flag_the_command_does_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_unwritable_out_dir_is_one_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = run(["price", "--engine", "reduced", "--tenor", "1",
                  "--out-dir", str(blocker / "out"), *FAST_MODEL])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_invalid_sweep_axis(self, capsys):
        rc = run(["sweep", "--axis", "nonsense=0:1:3", *FAST_MODEL])
        assert rc == 2
        assert "unknown sweep axis" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code,err", [
        (["survival-curve", "--tenors", "1,,2"], 1, "error: --tenors '1,,2': '' is not a number"),
        (["sweep", "--axis", "rho=0:1:x"], 2, "error: --axis 'rho=0:1:x': 'x' is not an integer"),
        (["sweep", "--axis", "rho=a:1:3"], 2, "error: --axis 'rho=a:1:3': 'a' is not a number"),
    ], ids=["tenors", "axis count", "axis bound"])
    def test_bad_number_in_a_list_flag_is_named(self, capsys, argv, code, err):
        assert run([*argv, *FAST_MODEL]) == code
        assert capsys.readouterr().err == err + "\n"

    def test_bad_bracket_step_count_is_named(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["validate", "--bracket-steps", "3,x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --bracket-steps: '3,x': 'x' is not an integer\n")


class TestSweep:
    def test_single_point_axis(self, tmp_path, capsys):
        rc = run(["sweep", "--axis", "gamma=-0.2:-0.2:1", "--tenor", "1",
                  "--out-dir", str(tmp_path), *FAST_MODEL])
        capsys.readouterr()
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "gamma,spread_liquid_bp,spread_contractual_bp,basis_bp,rel_basis"
        assert len(rows) == 2

    def test_two_axis_grid(self, tmp_path, capsys):
        rc = run(["sweep", "--axis", "gamma=-0.4:0:3", "--axis", "rho=-0.5:0.5:2",
                  "--tenor", "1", "--out-dir", str(tmp_path), *FAST_MODEL])
        capsys.readouterr()
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 2


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tenor = 1\ngamma = -0.5\nsigma-z = 0 # comment\n")
        rc = run(["price", "--config", str(cfg), "--gamma", "0", *FAST_MODEL])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith("par spread")]
        assert lines[0].split()[-2] == lines[1].split()[-2]  # flag gamma=0 won

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n")
        with pytest.raises(SystemExit) as exc:
            run(["price", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_key_the_command_does_not_read_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tenor = 1\nmc_paths = 5\n")
        with pytest.raises(SystemExit) as exc:
            run(["price", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config line 2: unknown key 'mc_paths'" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tenor 5\n")
        with pytest.raises(SystemExit) as exc:
            run(["price", "--config", str(cfg)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("line, flag", [("grid_y = abc", "--grid-y"),
                                            ("sigma-y-mode = exact", "--sigma-y-mode")])
    def test_bad_value_is_named_by_its_flag(self, tmp_path, capsys, line, flag):
        # calibrate takes both flags; the value is rejected before --snapshots is missed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            run(["calibrate", "--config", str(cfg)])
        assert exc.value.code == 2
        assert (f"quantocds calibrate: error: argument {flag}: invalid"
                in capsys.readouterr().err)

    def test_missing_config_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["price", "--config"])
        assert exc.value.code == 2
        assert ("quantocds price: error: argument --config: expected one argument"
                in capsys.readouterr().err)

    def test_config_supplies_required_snapshots(self, tmp_path, capsys):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [synthetic_row()])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snapshots = {snap_file}\nsigma_y_mode = implied\n")
        grid = ["--grid-y", "81", "--grid-t", "100"]
        assert run(["calibrate", "--config", str(cfg), *grid,
                    "--out-dir", str(tmp_path / "cfg")]) == 0
        assert run(["calibrate", "--snapshots", str(snap_file), "--sigma-y-mode", "implied",
                    *grid, "--out-dir", str(tmp_path / "flags")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1] == "calibrated 1 dates: 1 converged, 0 unconverged, 0 failed"
        for name in ("calibration_results.csv", "calibration_diagnostics.csv"):
            assert (tmp_path / "cfg" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()

    def test_config_axis_adds_to_the_command_line_axes(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("axis = rho=-0.5:0.5:2\n")
        rc = run(["sweep", "--config", str(cfg), "--axis", "gamma=-0.4:0:3", "--tenor", "1",
                  "--out-dir", str(tmp_path), *FAST_MODEL])
        capsys.readouterr()
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("rho,gamma,") and len(rows) == 1 + 2 * 3


class TestSurvivalCurveCmd:
    def test_runs_and_writes(self, tmp_path, capsys):
        rc = run(["survival-curve", "--tenors", "0.5,1,2", "--out-dir", str(tmp_path),
                  *FAST_MODEL])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "tenor_years,p_liquid,p_contractual,default_ratio"
        body = (tmp_path / "survival_curve.csv").read_text().splitlines()
        assert len(body) == 4

    @pytest.mark.parametrize("flag", ["--tenor", "--tenors"])
    def test_tenor_beyond_a_contract_is_named(self, capsys, flag):
        # --tenor sizes a list of its quarters: the contract's limit applies first
        rc = run(["survival-curve", flag, "1000.25", *FAST_MODEL])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "at most 1000 years, got 1000.25" in err
        assert err.count("\n") == 1

    def test_tenor_below_one_quarterly_node_is_named(self, capsys):
        rc = run(["survival-curve", "--tenor", "0.1", *FAST_MODEL])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: tenor ") and "0.1" in err


class TestValidateCmd:
    def test_symmetry_study_passes_and_is_deterministic(self, tmp_path, capsys):
        args = ["validate", "--study", "symmetry", "--mc-paths", "20000",
                "--seed", "5", "--out-dir"]
        rc1 = run(args + [str(tmp_path / "a")])
        out1 = capsys.readouterr().out
        rc2 = run(args + [str(tmp_path / "b")])
        capsys.readouterr()
        assert rc1 == 0 and rc2 == 0
        assert "[PASS]" in out1 and "[FAIL]" not in out1
        f1 = (tmp_path / "a" / "validate_symmetry.csv").read_bytes()
        f2 = (tmp_path / "b" / "validate_symmetry.csv").read_bytes()
        assert f1 == f2

    def test_negative_seed_is_named(self, tmp_path, capsys):
        rc = run(["validate", "--study", "symmetry", "--seed", "-1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("paths", ["1", "0"])
    def test_too_few_paths_are_named(self, tmp_path, capsys, paths):
        # one path has no standard error: its checks would pass on z = inf
        rc = run(["validate", "--study", "symmetry", "--mc-paths", paths,
                  "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert (out, err) == ("", f"error: --mc-paths must be at least 2, got {paths}\n")
        assert not (tmp_path / "out").exists()

    def test_bracketing_quick(self, tmp_path, capsys):
        rc = run(["validate", "--study", "bracketing", "--bracket-steps", "300",
                  "--mc-paths", "20000", "--mc-steps", "300", "--grid-y", "201",
                  "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FAIL]" not in out

    def test_grid_y_runs_as_given(self, tmp_path, capsys):
        # below 201 the flag used to be raised to 201 silently; no point reaches
        # 300 steps, so each run writes its points and then fails for checking nothing
        pde = {}
        for n_y in ("51", "201"):
            rc = run(["validate", "--study", "bracketing", "--mc-paths", "2000",
                      "--bracket-steps", "50", "--mc-steps", "50", "--grid-y", n_y,
                      "--out-dir", str(tmp_path / n_y)])
            capsys.readouterr()
            assert rc == 1
            rows = csv.DictReader(open(tmp_path / n_y / "validate_bracketing.csv"))
            pde[n_y] = [row["pde"] for row in rows]
        assert len(pde["51"]) == len(pde["201"]) > 0
        assert pde["51"] != pde["201"]

    def test_bracketing_that_checks_nothing_fails(self, tmp_path, capsys):
        # every point below 300 steps is only reported: "0/0 checks passed" is no pass
        rc = run(["validate", "--study", "bracketing", "--mc-paths", "10",
                  "--bracket-steps", "1", "--mc-steps", "1", "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "checks passed" not in out
        assert err == ("error: the bracketing study checked nothing: every point has fewer "
                       "than 300 steps (--bracket-steps, --mc-steps)\n")

    @pytest.mark.parametrize("scenario,passed", [("low", "30/30"), ("high", "28/28")])
    def test_deviation_study(self, tmp_path, capsys, scenario, passed):
        rc = run(["validate", "--study", "deviation", "--sweep-scenario", scenario,
                  "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.endswith(f"{passed} checks passed\n")
        # the table's 1-year anchors belong to the low-hazard sweep only
        assert ("deviation 1y" in out) == (scenario == "low")
        # the maturity curves: 2 scenarios x 7 gammas x 4 tenors, whatever the sweep
        rows = list(csv.DictReader(open(tmp_path / "validate_ratio_curves.csv")))
        assert len(rows) == 56
        for row in rows:
            gamma, ratio = float(row["gamma"]), float(row["default_ratio"])
            assert row["short_tenor_limit"] == f"{1 + gamma:.6g}"
            # the deviation is printed to four decimals from the unrounded ratio, which
            # the file gives to six significant digits (relative error <= 5e-6)
            dev = 100 * ((1 + gamma) / ratio - 1)
            tol = 5e-5 + 100 * (1 + gamma) / ratio * 5e-6
            assert abs(float(row["deviation_pct"]) - dev) <= tol
            if gamma == 0.0:
                # p_hat and p are the same expectation
                assert (row["default_ratio"], row["deviation_pct"]) == ("1", "0.0000")


class TestCalibrateCmd:
    def test_round_trip_file(self, tmp_path, capsys):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [synthetic_row()])
        rc = run(["calibrate", "--snapshots", str(snap_file), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 converged" in out
        results = list(csv.DictReader(open(tmp_path / "calibration_results.csv")))
        assert len(results) == 1
        assert results[0]["converged"] == "true"
        assert abs(float(results[0]["gamma"]) + 0.2) < 0.01
        diags = list(csv.DictReader(open(tmp_path / "calibration_diagnostics.csv")))
        assert len(diags) == 1

    def test_corrupt_row_names_line(self, tmp_path, capsys):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [synthetic_row(), "2012-05-08,not_a_number,1,2,3,4,5,6"])
        rc = run(["calibrate", "--snapshots", str(snap_file), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "line 3" in err

    @pytest.mark.parametrize("row, field", [
        ("2012-05-07,440,460,350,370,0.10,0.50,nan", "rate"),
        ("2012-05-07,inf,460,350,370,0.10,0.50,0.0", "spread_usd_5y"),
        ("2012-05-07,440,460,350,370,0.10,nan,0.0", "index_option_vol_1m"),
        ("2012-05-07,440,460,350,370,nan,0.50,0.0", "fx_atm_vol"),
    ])
    def test_non_finite_field_names_field_and_line(self, tmp_path, capsys, row, field):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [row])
        rc = run(["calibrate", "--snapshots", str(snap_file), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and f"line 2: {field} must be" in err

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("-1", "-1.0"), ("inf", "inf")])
    def test_bad_tolerance_is_named(self, tmp_path, capsys, value, shown):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [synthetic_row()])
        rc = run(["calibrate", "--snapshots", str(snap_file), "--tolerance-bp", value,
                  "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: tolerance_bp must be > 0 and finite, got {shown}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--grid-y", "2"], "n_y must be an integer >= 3, got 2"),
        (["--sigma-y-mode", "implied", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ], ids=["grid-y", "seed"])
    def test_bad_config_is_named_once(self, tmp_path, capsys, flags, message):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [synthetic_row(), synthetic_row(date="2012-05-08")])
        rc = run(["calibrate", "--snapshots", str(snap_file), *flags,
                  "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert (out, err) == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_ten_date_fixture_all_converge(self, tmp_path, capsys):
        snap_file = tmp_path / "snaps.csv"
        rows = [synthetic_row(date=f"2012-05-{7 + i:02d}", b=-120.0 - 3 * i,
                              y0=-4.4 + 0.01 * i, rho=0.05 * i - 0.2,
                              gamma=-0.3 + 0.03 * i)
                for i in range(10)]
        make_snapshot_csv(snap_file, rows)
        rc = run(["calibrate", "--snapshots", str(snap_file), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "10 converged" in out
        results = list(csv.DictReader(open(tmp_path / "calibration_results.csv")))
        assert len(results) == 10
        assert all(r["converged"] == "true" for r in results)

    def test_header_only_file(self, tmp_path, capsys):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [])
        rc = run(["calibrate", "--snapshots", str(snap_file), "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        lines = (tmp_path / "calibration_results.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_wrong_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,foo\n2012-01-01,1\n")
        rc = run(["calibrate", "--snapshots", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "header" in capsys.readouterr().err

    def test_byte_determinism(self, tmp_path, capsys):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [synthetic_row()])
        for sub in ("x", "y"):
            rc = run(["calibrate", "--snapshots", str(snap_file), "--seed", "3",
                      "--out-dir", str(tmp_path / sub)])
            capsys.readouterr()
            assert rc == 0
        a = (tmp_path / "x" / "calibration_results.csv").read_bytes()
        b = (tmp_path / "y" / "calibration_results.csv").read_bytes()
        assert a == b


class TestBacktestCmd:
    def test_with_history(self, tmp_path, capsys):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, [synthetic_row()])
        hist = tmp_path / "hist.csv"
        rows = ["date,fx,spread"]
        import math

        for i in range(80):
            rows.append(f"d{i},{1.3 + 0.001 * math.sin(i)},{0.01 + 0.0001 * math.cos(i)}")
        hist.write_text("\n".join(rows) + "\n")
        rc = run(["backtest", "--snapshots", str(snap_file), "--history", str(hist),
                  "--window", "20", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "historical_correlation.csv").exists()


class TestCsvRoundTrip:
    def test_reemitting_is_byte_identical(self, tmp_path, capsys):
        rc = run(["sweep", "--axis", "rho=-0.5:0.5:3", "--tenor", "1",
                  "--out-dir", str(tmp_path), *FAST_MODEL])
        capsys.readouterr()
        assert rc == 0
        path = tmp_path / "sweep.csv"
        original = path.read_bytes()
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerows(rows)
        assert buf.getvalue().encode() == original


class TestSnapshotReader:
    def test_reads_bp_to_decimal(self, tmp_path):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, ["2012-05-07,440,460,350,370,0.1,0.5,0.01"])
        snaps = read_snapshots(snap_file)
        assert snaps[0].spread_usd_5y == pytest.approx(0.0440)
        assert snaps[0].rate == 0.01

    def test_empty_index_vol_is_none(self, tmp_path):
        snap_file = tmp_path / "snaps.csv"
        make_snapshot_csv(snap_file, ["2012-05-07,440,460,350,370,0.1,,0.01"])
        assert read_snapshots(snap_file)[0].index_option_vol_1m is None
