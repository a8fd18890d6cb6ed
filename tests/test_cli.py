import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quantocds import calibration
from quantocds.cli import SWEEP_AXES, _build_subparsers, _solver_cfg, main, read_snapshots
from quantocds.calibration import CalibrationConfig, MarketSnapshot, _SpreadModel
from quantocds.pde import SolverConfig

FAST_MODEL = ["--sigma-y", "0.2", "--grid-y", "61", "--grid-t", "60"]


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


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,named", [
        (["price", "--engine", "adi", "--b", "1e300"], "ADI y-sweep"),
        (["survival-curve", "--engine", "adi", "--b", "1e300", "--tenors", "1"], "ADI y-sweep"),
        (["price", "--engine", "reduced", "--tenor", "1e308"], "tenor"),
        (["survival-curve", "--engine", "reduced", "--tenors", "1e308"], "'1e308': tenor"),
        (["survival-curve", "--engine", "reduced", "--tenor", "1e308"], "got 1e+308"),
    ])
    def test_overflowing_input_is_one_error_line(self, capsys, argv, named):
        # e^y overflowed at the top of the log-hazard grid, the tenor's payment count
        # in the contract's schedule, a curve's time-step count and its list of quarters
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and named in err and err.count("\n") == 1


# each numeric flag of ``price``: its valid range, or 0, negatives, nan, +-inf and +-1e300;
# ``survival-curve`` shares all but the rates and the contract's recovery and notional
_EXTREMES = st.sampled_from([0.0, -0.0, -1.0, -0.5, math.nan, math.inf, -math.inf,
                             1e300, -1e300, 1e-300])
_SHARED_RANGES = {
    "a": (0.0, 2.0), "b": (-300.0, 5.0), "sigma-y": (0.0, 1.5), "y0": (-8.0, 1.0),
    "sigma-z": (0.0, 0.6), "gamma": (-1.0, 1.5), "rho": (-1.0, 1.0), "tenor": (0.25, 10.0)}


def _flags(ranges):
    """Each flag absent, or drawn from its range or from the extremes."""
    return st.fixed_dictionaries({}, optional={
        flag: st.one_of(st.floats(lo, hi), _EXTREMES) for flag, (lo, hi) in ranges.items()})


_PRICE_FLAGS = _flags({**_SHARED_RANGES, "r": (-0.05, 0.1), "r-hat": (-0.05, 0.1),
                       "recovery": (0.0, 0.99), "notional": (-1e6, 1e6)})
# ``SurvivalCurve``'s own checks name no solve: the solves' stop check comes first
_UNNAMED_CURVE_ERRORS = ("error: survival probabilities must lie in [0, 1]\n",
                         "error: survival probabilities must be non-increasing\n")
# ragged lists: whole quarters, any tenor up to 12 years, and the extremes
_TENOR_LISTS = st.lists(st.one_of(st.integers(1, 40).map(lambda q: q / 4.0),
                                  st.floats(0.01, 12.0), _EXTREMES),
                        min_size=1, max_size=4).map(lambda ts: ",".join(map(repr, ts)))


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _run_strict(argv):
    """``main(argv)``'s exit code, stdout and stderr, with every warning an
    error: stderr holds nothing but the CLI's own output, numpy's warnings
    counted.  (The hypothesis plugin warns on its own, so the fuzzers set the
    filter here, around the run, rather than with a pytest mark.)"""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    return rc, out, err


class TestPriceFuzz:
    """``price`` on both engines with each numeric flag drawn from its valid
    range or from 0, negatives, nan, +-inf and +-1e300: it prints and exits
    0, or exits non-zero with one ``error:`` line, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["adi", "reduced"]), _PRICE_FLAGS)
    def test_prints_or_names_one_error(self, engine, flags):
        argv = ["price", "--engine", engine, "--grid-y", "11", "--grid-t", "20",
                *(f"--{flag}={value!r}" for flag, value in flags.items())]
        rc, out, err = _run_strict(argv)
        if rc == 0:
            assert out.getvalue().startswith("par spread") and err.getvalue() == ""
            # every number printed, "nan" and "inf" included, is finite: "nan bp"
            # and "inf y" exited 0
            numbers = [float(word) for word in re.split(r"[\s,]+", out.getvalue())
                       if _is_number(word)]
            assert numbers and all(map(math.isfinite, numbers))
        else:
            assert rc == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert err.getvalue() not in _UNNAMED_CURVE_ERRORS

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    @pytest.mark.parametrize("flags,named", [
        (["--sigma-y=1e300"], "sigma_y = 1e+300 is too large: its square overflows"),
        (["--b=1e300", "--y0=1e300"], "the log-hazard grid around y0 = 1e+300 has no width"),
        (["--a=1", "--y0=0", "--gamma=1e300"],
         "the intensity scale 1e+300 times e^y overflows at the top node y = 21.0729"),
    ], ids=["sigma_y squared overflows", "log-hazard grid without width", "kill overflows"])
    def test_hazard_leak_is_one_error_line(self, capsys, engine, flags, named):
        # these raised OverflowError and ZeroDivisionError while the grids were
        # sized, and numpy's overflow warning where gamma scaled e^y
        rc = run(["price", "--engine", engine, "--grid-y", "11", "--grid-t", "20", *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and named in err and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_fx_vol_without_correlation_prices_on_both_engines(self, capsys):
        # at rho = 0 the FX vol moves no survival; the ADI engine's log-FX grid
        # refused 1e300, since e^x overflowed at its top node
        outs = []
        for engine in ("adi", "reduced"):
            assert run(["price", "--engine", engine, "--grid-y", "11", "--grid-t", "20",
                        "--sigma-z=1e300"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].err == ""
        assert "par spread EUR (contractual): 100.14 bp" in outs[0].out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    @pytest.mark.parametrize("flags,named", [
        (["--r-hat=-1e300"], "the discount e^(-r t) overflows at r = -1e+300, t = 5 years"),
        (["--r=-1e300", "--r-hat=-1e300"], "the discount e^(-r t) overflows at r = -1e+300, "),
    ], ids=["contractual rate", "both rates"])
    def test_overflowing_rate_is_one_error_line(self, capsys, engine, flags, named):
        # the rates printed nan bp and inf y after numpy's overflow warnings on
        # the reduced engine; the ADI engine refused them through its log-FX grid
        rc = run(["price", "--engine", engine, "--grid-y", "11", "--grid-t", "20", *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and named in err and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine,named", [
        ("adi", "in the explicit mixed term at rho = 0.5, sigma_z = 1e+300, sigma_y = 0.2\n"),
        ("reduced", "the log-hazard grid would reach y = 4.49888e+299, where e^y overflows: "
                    "y0 = -4.089, b = -210.45 or sigma_y = 0.2 is too large over 5 years\n"),
    ], ids=["adi", "reduced"])
    def test_correlated_fx_vol_is_one_error_line(self, capsys, engine, named):
        # the ADI march blows up in its mixed term, and the reduced engine's
        # log-hazard grid, tilted by rho sigma_z sigma_y = 1e299, overflows e^y
        rc = run(["price", "--engine", engine, "--grid-y", "11", "--grid-t", "20",
                  "--sigma-z=1e300", "--rho=0.5"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.endswith(named) and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_large_fx_hazard_tilt_is_one_error_line(self, capsys):
        # the ADI march leaves the unit interval at a tilt rho sigma_z sigma_y of 9 a
        # year, and the curve's check named no input; the reduced engine prices it
        flags = ["--sigma-z", "20", "--rho", "0.9", "--sigma-y", "0.5"]
        rc = run(["price", "--engine", "adi", *flags])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: survival ") and err.count("\n") == 1
        assert err.endswith("in the explicit mixed term at rho = 0.9, sigma_z = 20, "
                            "sigma_y = 0.5\n")
        assert run(["price", "--engine", "reduced", *flags]) == 0
        assert "par spread EUR (contractual): 11358.78 bp" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    def test_stiff_upwinded_drift_prices_on_both_engines(self, capsys, engine):
        # rounding left the downwind coupling of the upwinded rows at -6e284, not 0,
        # and the pivoted implicit solve overflowed to -inf after numpy's warnings
        assert run(["price", "--engine", engine, "--grid-y", "11", "--grid-t", "20",
                    "--a=1e300", "--b=0.03655460637509099"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "par spread EUR (contractual): 4398.93 bp" in out

    def test_underflowing_spread_denominator_is_one_error_line(self, capsys):
        # the least subnormal notional times a quarter's annuity, about 0.25,
        # underflowed to 0, and the par spread divided by zero
        rc = run(["price", "--engine", "reduced", "--grid-y", "11", "--grid-t", "20",
                  "--tenor=0.25", "--notional=5e-324"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: notional 4.94066e-324 times the risky annuity ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    @pytest.mark.parametrize("flags", [["--y0=700", "--sigma-y=2"], ["--sigma-y=55"]],
                             ids=["y0", "sigma_y"])
    def test_log_hazard_overflow_is_one_error_line(self, capsys, engine, flags):
        # e^y overflowed at the top of the log-hazard grid: numpy's overflow and
        # invalid-value warnings came before a blow-up or non-finite error
        rc = run(["price", "--engine", engine, "--grid-y", "11", "--grid-t", "20", *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "the log-hazard grid would reach y = " in err and "where e^y overflows" in err


# small, stiff grids: the spectral solve leaves [0, 1] on the first, and the liquid
# curve's march rises with the tenor on the second
_SPECTRAL_LEAK = ["--grid-y=5", "--grid-t=10", "--sigma-y=0.03", "--b=0", "--a=0.0003",
                  "--y0=2", "--tenors=5,10"]
_RISING_LEAK = ["--grid-y=16", "--grid-t=10", "--sigma-y=1.5", "--y0=1.7", "--tenors=7,14"]


class TestSurvivalCurveFuzz:
    """``survival-curve`` on both engines with each numeric model flag drawn
    as ``TestPriceFuzz`` draws them and ragged ``--tenors`` lists: it prints
    its CSV and exits 0, or exits 1 with one ``error:`` line."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["adi", "reduced"]), _flags(_SHARED_RANGES),
           st.one_of(st.none(), _TENOR_LISTS))
    def test_prints_or_names_one_error(self, engine, flags, tenors):
        argv = ["survival-curve", "--engine", engine, "--grid-y", "11", "--grid-t", "20",
                *(f"--{flag}={value!r}" for flag, value in flags.items()),
                *([] if tenors is None else [f"--tenors={tenors}"])]
        rc, out, err = _run_strict(argv)
        if rc == 0:
            header, *rows = out.getvalue().splitlines()
            assert header == "tenor_years,p_liquid,p_contractual,default_ratio" and rows
            assert err.getvalue() == ""
            for row in rows:
                t, p, p_hat, ratio = map(float, row.split(","))
                # the ratio of default probabilities is nan only where p = 1
                assert all(0.0 <= q <= 1.0 for q in (p, p_hat)) and 0.0 < t < math.inf
                assert math.isfinite(ratio) or (math.isnan(ratio) and p == 1.0)
        else:
            assert rc == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert err.getvalue() not in _UNNAMED_CURVE_ERRORS

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags,named", [
        (["--engine=reduced", *_SPECTRAL_LEAK],
         "survival -2.686e-03 outside [0, 1] at time node 5 (5 y-nodes, dt = 1.000e+00) "
         "in the one-factor solve on 5 nodes"),
        (["--engine=adi", *_SPECTRAL_LEAK],
         "survival -2.686e-03 outside [0, 1] at time node 5 (5 y-nodes, dt = 1.000e+00) "
         "in the explicit mixed term at rho = 0, sigma_z = 0.1, sigma_y = 0.03"),
        (["--engine=reduced", *_RISING_LEAK],
         "survival 3.981e-03 at time node 0 rises above the previous tenor's 3.018e-03 "
         "(16 y-nodes, dt = 1.400e+00) in the one-factor solve on 16 nodes"),
        (["--engine=adi", *_RISING_LEAK],
         "survival 3.981e-03 at time node 0 rises above the previous tenor's 3.018e-03 "
         "(16 y-nodes, dt = 1.400e+00) in the explicit mixed term at rho = 0, sigma_z = 0.1, "
         "sigma_y = 1.5"),
    ], ids=["spectral curve below 0", "adi curve below 0", "one-factor curve rises",
            "adi curve rises"])
    def test_leaving_or_rising_curve_is_one_named_error_line(self, capsys, flags, named):
        # the reduced engine's spectral solve handed back -2.686e-03 unchecked, and
        # both engines' rising curves met only the curve's check, which named no
        # solve: the error lines read "survival probabilities must lie in [0, 1]"
        # and "survival probabilities must be non-increasing"
        assert run(["survival-curve", *flags]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"


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

    @pytest.mark.parametrize("argv", [["price"], ["survival-curve"],
                                      ["sweep", "--axis", "rho=0:0:1"]], ids=lambda argv: argv[0])
    def test_log_fx_grid_flag_is_gone(self, capsys, argv):
        # the ADI engine has no log-FX axis, so no command takes --grid-x
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--grid-x", "11"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid-x 11" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["price", "--z0", "0.8"], ["survival-curve", "--r", "0.05"],
                                      ["survival-curve", "--r-hat", "0.05"]],
                             ids=["price z0", "survival-curve r", "survival-curve r_hat"])
    def test_flag_that_changes_no_output_is_gone(self, capsys, argv):
        # no par spread depends on the spot FX, and no survival on a rate
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_spot_fx_is_no_sweep_axis(self, capsys):
        assert run(["sweep", "--axis", "z0=0.5:1:2", *FAST_MODEL]) == 2
        assert capsys.readouterr().err == ("error: unknown sweep axis 'z0'; choose from gamma, rho, "
                                           "sigma_z, sigma_y, y0, b, a, r, r_hat\n")

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


_SWEEP_RANGES = {**_SHARED_RANGES, "r": (-0.05, 0.1), "r-hat": (-0.05, 0.1)}
# the liquid spread is exactly 0 at a log-hazard this low and where a mean
# reversion this fast pins the hazard at e^b
_ZERO_SPREAD_SWEEPS = (["--axis=y0=-800:-700:2"], ["--axis=a=1e300:1e300:1"])


@st.composite
def _axis_spec(draw):
    """``--axis=name=lo:hi:n``: a sweep axis, end points from its range or the
    extremes, and 0 to 3 points (a repeated axis has its own test)."""
    name = draw(st.sampled_from(SWEEP_AXES))
    lo, hi = _SWEEP_RANGES[name.replace("_", "-")]
    end = st.one_of(st.floats(lo, hi), _EXTREMES)
    return f"--axis={name}={draw(end)!r}:{draw(end)!r}:{draw(st.integers(0, 3))}"


class TestSweepFuzz:
    """``sweep`` on both engines over one or two axes drawn from
    ``SWEEP_AXES``, their end points from the axis's range or from 0,
    negatives, nan, +-inf and +-1e300 and 0 to 3 points each: it prints
    finite rows and exits 0, exits 1 with one ``error:`` line or exits 2
    for a bad axis spec."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["adi", "reduced"]),
           st.lists(_axis_spec(), min_size=1, max_size=2, unique_by=lambda a: a.split("=")[1]))
    @example("reduced", _ZERO_SPREAD_SWEEPS[0])
    @example("adi", _ZERO_SPREAD_SWEEPS[0])
    @example("reduced", _ZERO_SPREAD_SWEEPS[1])
    @example("adi", _ZERO_SPREAD_SWEEPS[1])
    def test_prints_or_names_one_error(self, engine, axes):
        argv = ["sweep", "--engine", engine, "--tenor", "1", "--grid-y", "21", "--grid-t", "20",
                *axes]
        rc, out, err = _run_strict(argv)
        ends = [spec.split("=", 2)[2].split(":") for spec in axes]
        # no points, or a range of points without finite ends
        bad_spec = any(n == "0" or (n != "1" and not all(map(math.isfinite, map(float, (lo, hi)))))
                       for lo, hi, n in ends)
        assert (rc == 2) == bad_spec
        if rc == 0:
            assert err.getvalue() == ""
            header, *rows = out.getvalue().splitlines()
            assert header.endswith(",spread_liquid_bp,spread_contractual_bp,basis_bp,rel_basis")
            assert rows
            for row in rows:
                *fields, rel_basis = row.split(",")
                assert all(map(math.isfinite, map(float, fields)))
                # nan only where there is no liquid spread to compare with
                assert math.isfinite(float(rel_basis)) or (
                    rel_basis == "nan" and fields[-3] == "0.00")
        else:
            assert rc in (1, 2)
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert err.getvalue() not in _UNNAMED_CURVE_ERRORS

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    @pytest.mark.parametrize("axis", _ZERO_SPREAD_SWEEPS, ids=["y0", "a"])
    def test_zero_liquid_spread_reads_nan_rel_basis(self, capsys, engine, axis):
        # the relative basis divided by the liquid spread, 0 here, and the run
        # ended in a ZeroDivisionError traceback
        assert run(["sweep", "--engine", engine, "--tenor", "1", "--grid-y", "21",
                    "--grid-t", "20", *axis]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        first = out.splitlines()[1].split(",")
        assert first[1:] == ["0.00", "0.00", "0.00", "nan"]

    @pytest.mark.parametrize("axes,named", [
        (["--axis=gamma=0:inf:2"], "axis 'gamma' of 2 points needs finite end points, "
                                   "got '0:inf:2'"),
        (["--axis=rho=nan:0.5:3"], "axis 'rho' of 3 points needs finite end points, "
                                   "got 'nan:0.5:3'"),
        (["--axis=gamma=0:0.1:2", "--axis=gamma=0.2:0.3:2"], "sweep axis 'gamma' is given twice"),
    ], ids=["infinite end", "nan end", "repeated axis"])
    def test_bad_axis_is_one_usage_error(self, capsys, axes, named):
        # an infinite end filled the axis with nan after numpy's invalid-value
        # warning, and a repeated axis printed the second's values in both columns
        assert run(["sweep", "--tenor", "1", "--grid-y", "21", "--grid-t", "20", *axes]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    def test_fast_mean_reversion_prints_without_warnings(self, capsys, engine):
        # the spectral gate's coupling product overflowed before its stiffness
        # check turned the curve over to the march, which prints p = 1
        rc = run(["survival-curve", "--engine", engine, "--a=1e300", "--grid-y", "11",
                  "--grid-t", "20"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert out.splitlines()[1] == "0.25,1,1,nan"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_y", [11, 401], ids=["powered march", "vector march"])
    def test_overflowing_mixed_term_is_one_error_line(self, capsys, n_y):
        # at gamma = -1 the Rannacher steps keep w = 1, and the Crank-Nicolson
        # steps' explicit mixed term, 1e300 large, overflowed in numpy before the
        # blow-up check at the next stop named the march
        rc = run(["survival-curve", "--engine", "adi", "--grid-y", str(n_y), "--grid-t", "20",
                  "--tenor=1", "--a=0", "--y0=0", "--sigma-y=1.5", "--rho=1", "--sigma-z=1e300",
                  "--gamma=-1"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: value blow-up at time node ")
        assert err.endswith("in the explicit mixed term at rho = 1, sigma_z = 1e+300, "
                            "sigma_y = 1.5\n") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    def test_far_log_hazard_is_one_error_line(self, capsys, engine):
        # the y-step's square overflowed in the y-operator, and the error line
        # named a singular march, not the input
        rc = run(["survival-curve", "--engine", engine, "--y0=-1e300", "--grid-y", "11",
                  "--grid-t", "20"])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        assert err.startswith("error: the log-hazard operator overflows on the grid from y = ")
        assert "y0 = -1e+300" in err


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


# CI's three snapshots (.github/workflows/tests.yml), quotes in bp
CI_QUOTES = (
    "date,spread_usd_5y_bp,spread_usd_10y_bp,spread_eur_5y_bp,spread_eur_10y_bp,fx_atm_vol,index_option_vol_1m,rate\n"
    "2012-05-07,440,460,350,370,0.10,0.50,0.0\n"
    "2013-06-03,250,300,215,265,0.08,0.35,0.0\n"
    "2012-05-07,440,300,350,240,0.10,0.20,0.0\n"
)

# `calibrate` and `backtest` on CI_QUOTES: both write the same two files in a vol mode
GOLDEN_FILES = {
    "passthrough": {
        "calibration_results.csv": (
            "date,b,y0,sigma_y,rho,gamma,ab,res_usd_5y_bp,res_usd_10y_bp,res_eur_5y_bp,res_eur_10y_bp,max_residual_bp,iterations,converged,error\n"
            "2012-05-07,211.222,-2.88432,0.5,-0.26724,-0.193317,0.0211222,0.0000,0.0000,0.0000,0.0000,0.0000,7,true,\n"
            "2013-06-03,567.622,-3.45672,0.35,0.177955,-0.154897,0.0567622,0.0000,0.0000,0.0000,0.0000,0.0000,6,true,\n"
            "2012-05-07,-2533.11,-2.11999,0.2,0.60264,-0.217251,-0.253311,0.0000,0.0000,0.0000,0.0000,0.0000,7,true,\n"
        ),
        "calibration_diagnostics.csv": (
            "date,gamma,rho,rel_basis_1y,rel_basis_10y,basis_gap_observed,basis_gap_diffusive,spread_usd_1y_bp,spread_eur_1y_bp,spread_usd_5y_bp,spread_eur_5y_bp,spread_usd_10y_bp,spread_eur_10y_bp\n"
            "2012-05-07,-0.193317,-0.26724,-0.199443,-0.195652,0.00379119,-0.0807175,362.73,290.38,440.00,350.00,460.00,370.00\n"
            "2013-06-03,-0.154897,0.177955,-0.153146,-0.116667,0.0364793,0.0350885,201.53,170.66,250.00,215.00,300.00,265.00\n"
            "2012-05-07,-0.217251,0.60264,-0.215206,-0.2,0.0152057,0.0771483,651.65,511.41,440.00,350.00,300.00,240.00\n"
        ),
    },
    "implied": {
        "calibration_results.csv": (
            "date,b,y0,sigma_y,rho,gamma,ab,res_usd_5y_bp,res_usd_10y_bp,res_eur_5y_bp,res_eur_10y_bp,max_residual_bp,iterations,converged,error\n"
            "2012-05-07,210.311,-2.88288,0.498448,-0.266213,-0.193392,0.0210311,0.0000,0.0000,0.0000,0.0000,0.0000,7,true,\n"
            "2013-06-03,567.532,-3.4568,0.350141,0.17777,-0.154893,0.0567532,0.0000,0.0000,0.0000,0.0000,0.0000,6,true,\n"
            "2012-05-07,-2530.46,-2.11987,0.197866,0.610387,-0.21726,-0.253046,0.0000,0.0000,0.0000,0.0000,0.0000,7,true,\n"
        ),
        "calibration_diagnostics.csv": (
            "date,gamma,rho,rel_basis_1y,rel_basis_10y,basis_gap_observed,basis_gap_diffusive,spread_usd_1y_bp,spread_eur_1y_bp,spread_usd_5y_bp,spread_eur_5y_bp,spread_usd_10y_bp,spread_eur_10y_bp\n"
            "2012-05-07,-0.193392,-0.266213,-0.199483,-0.195652,0.00383103,-0.0801576,363.10,290.66,440.00,350.00,460.00,370.00\n"
            "2013-06-03,-0.154893,0.17777,-0.153144,-0.116667,0.0364769,0.0350661,201.51,170.65,250.00,215.00,300.00,265.00\n"
            "2012-05-07,-0.21726,0.610387,-0.215209,-0.2,0.0152086,0.0773064,651.69,511.44,440.00,350.00,300.00,240.00\n"
        ),
    },
}
GOLDEN_STDOUT = {
    ("calibrate", "passthrough"): (
        "calibrated 3 dates: 3 converged, 0 unconverged, 0 failed\n"
    ),
    ("calibrate", "implied"): (
        "calibrated 3 dates: 3 converged, 0 unconverged, 0 failed\n"
    ),
    ("backtest", "passthrough"): (
        "gamma vs 1y relative basis: slope=0.9651 intercept=-0.0058\n"
        "backtested 3 dates (0 failures)\n"
    ),
    ("backtest", "implied"): (
        "gamma vs 1y relative basis: slope=0.9653 intercept=-0.0058\n"
        "backtested 3 dates (0 failures)\n"
    ),
}


class TestGoldenOutputs:
    """``calibrate`` and ``backtest`` on CI's three snapshots, byte for byte:
    both CSV files and stdout, in both vol modes.  A change that moves these
    bytes updates them here and lists the before and after in CHANGES.md."""

    @pytest.mark.parametrize("mode", ["passthrough", "implied"])
    @pytest.mark.parametrize("command", ["calibrate", "backtest"])
    def test_outputs_match_byte_for_byte(self, tmp_path, capsys, command, mode):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(CI_QUOTES)
        calibration._spread_model.cache_clear()  # a cold model, as in a fresh process
        rc = run([command, "--snapshots", str(quotes), "--sigma-y-mode", mode,
                  "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (0, GOLDEN_STDOUT[command, mode], "")
        for name, text in GOLDEN_FILES[mode].items():
            assert (tmp_path / "out" / name).read_bytes() == text.encode()


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
