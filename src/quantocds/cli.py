"""Command-line interface.

Subcommands: price, survival-curve, validate, calibrate, backtest, sweep.
Each takes --config, --seed and --out-dir and, besides these, only the
flags that change its output: none takes the spot FX, on which no par spread
and no survival depends, and survival-curve takes no rate.  A --config file
may name only flags its command takes.  Values cross the CLI boundary in
basis points (printed with two decimals); everything internal is annualized
decimals.  Every command writes byte-identical outputs for identical inputs.
Exit codes: 0 success, 1 compute/validation failure (an unwritable --out-dir
included), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import validation
from .calibration import (
    NO_INDEX_VOL,
    CalibrationConfig,
    CalibrationError,
    MarketSnapshot,
    backtest,
    historical_correlation,
)
from .cds import CdsContract, quanto_par_spread
from .model import HazardParams, QuantoFxParams, RatePair
from .pde import PdeInstabilityError, SolverConfig, checked_tenor, quanto_survival_curve

_OUT_DIR_ENV = "QCDS_OUT_DIR"

SWEEP_AXES = ("gamma", "rho", "sigma_z", "sigma_y", "y0", "b", "a", "r", "r_hat")


def _fbp(x: float) -> str:
    """decimal -> basis points, two decimals (the CLI quoting convention)."""
    return f"{x * 1e4:.2f}"


def _fpar(x: float) -> str:
    return f"{x:.6g}"


def _fres(x: float) -> str:
    """Residual in bp, four decimals; one that rounds to zero is unsigned."""
    text = f"{x:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _hazard(args) -> HazardParams:
    return HazardParams(a=args.a, b=args.b, sigma_y=args.sigma_y, y0=args.y0)


def _fx(args) -> QuantoFxParams:
    # one spot FX for every command, as in calibration: no output depends on it
    return QuantoFxParams(z0=1.0, sigma_z=args.sigma_z, gamma_z=args.gamma, rho=args.rho)


def _rates(args) -> RatePair:
    return RatePair(r=args.r, r_hat=args.r_hat)


def _at_least(args, flag: str, least: int) -> int:
    """The value of ``flag``, or a ValueError naming the flag where it is below ``least``."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")
    return value


def _solver_cfg(args) -> SolverConfig:
    return SolverConfig(n_y=_at_least(args, "--grid-y", 3), n_t=args.grid_t)


def _out_dir(args) -> Path | None:
    if args.out_dir is not None:
        return args.out_dir
    env = os.environ.get(_OUT_DIR_ENV)
    return Path(env) if env else None


def _write_csv(out: Path | None, name: str, header: list[str], rows: list[list[str]]) -> None:
    """Write ``out/name``; without an output directory, write nothing."""
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _emit(args, name: str, header: list[str], rows: list[list[str]]) -> None:
    """Print ``rows`` as CSV under ``header`` and write them as ``name`` in
    the output directory."""
    for row in [header, *rows]:
        print(",".join(row))
    _write_csv(_out_dir(args), name, header, rows)


def _number(kind, token: str, where: str):
    """``kind(token)``, or a ValueError that names ``token`` and ``where`` it was read."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: {token!r} is not {what}") from None


def _step_counts(text: str) -> tuple[int, ...]:
    """``--bracket-steps``: comma-separated MC step counts, each at least 1."""
    try:
        counts = tuple(_number(int, t, repr(text)) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if min(counts) < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: a step count must be at least 1, "
                                         f"got {min(counts)}")
    return counts


def _config_tokens(sub: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """The ``key = value`` lines of the ``--config`` file in ``argv`` as
    ``--key=value`` flags of the subcommand parser ``sub``."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config", type=Path)
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return []  # the full parse reports the missing value
    if path is None:
        return []
    try:
        text = path.read_text()
    except OSError as exc:
        sub.error(f"cannot read config file: {exc}")
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            sub.error(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag not in sub._option_string_actions:
            sub.error(f"config line {lineno}: unknown key {key!r}")
        tokens.append(f"{flag}={value}")
    return tokens


# --------------------------------------------------------------------------
# price / survival-curve
# --------------------------------------------------------------------------


def _cmd_price(args) -> int:
    contract = CdsContract(tenor=args.tenor, recovery=args.recovery, notional=args.notional)
    res = quanto_par_spread(_hazard(args), _fx(args), _rates(args), contract,
                            _solver_cfg(args), engine=args.engine)
    liq, con = res.liquid, res.contractual
    print(f"par spread {args.liquid_ccy} (liquid):       {_fbp(liq.par_spread)} bp")
    print(f"par spread {args.contractual_ccy} (contractual): {_fbp(con.par_spread)} bp")
    print(f"risky annuity {args.liquid_ccy}: {_fpar(liq.premium_pv01)} y   "
          f"{args.contractual_ccy}: {_fpar(con.premium_pv01)} y")
    print(f"protection pv {args.liquid_ccy}: {_fpar(liq.protection_pv)}   "
          f"{args.contractual_ccy}: {_fpar(con.protection_pv)}")
    _emit(args, "price_curve.csv", ["tenor_years", "p_liquid", "p_contractual"],
          [[f"{t:g}", _fpar(p), _fpar(ph)] for t, p, ph in
           zip(res.curve_liquid.tenors, res.curve_liquid.probs, res.curve_contractual.probs)])
    _write_csv(_out_dir(args), "price_summary.csv",
               ["currency", "par_spread_bp", "risky_annuity_years", "protection_pv"],
               [[args.liquid_ccy, _fbp(liq.par_spread), _fpar(liq.premium_pv01),
                 _fpar(liq.protection_pv)],
                [args.contractual_ccy, _fbp(con.par_spread), _fpar(con.premium_pv01),
                 _fpar(con.protection_pv)]])
    return 0


def _cmd_survival_curve(args) -> int:
    # every tenor within a contract's before a grid or a list is sized by it
    if args.tenors:
        where = f"--tenors {args.tenors!r}"
        tenors = sorted(_number(float, t, where) for t in args.tenors.split(","))
        try:
            for t in tenors:
                checked_tenor(t)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    else:
        n = int(round(checked_tenor(args.tenor) * 4))
        if n < 1:
            raise ValueError(f"tenor must be above 0.125 (one quarterly node), got {args.tenor}")
        tenors = [0.25 * k for k in range(1, n + 1)]
    curve_hat, curve_p = quanto_survival_curve(
        _hazard(args), _fx(args), tenors, _solver_cfg(args), engine=args.engine
    )
    header = ["tenor_years", "p_liquid", "p_contractual", "default_ratio"]
    rows = []
    for t, p, ph in zip(curve_p.tenors, curve_p.probs, curve_hat.probs):
        # nan on purpose where p = 1: no liquid default to compare with
        ratio = (1.0 - ph) / (1.0 - p) if p < 1.0 else math.nan
        rows.append([f"{t:g}", _fpar(p), _fpar(ph), _fpar(ratio)])
    _emit(args, "survival_curve.csv", header, rows)
    return 0


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    _at_least(args, "--mc-paths", 2)  # one path has no standard error: z would read inf
    _at_least(args, "--mc-steps", 1)
    out = _out_dir(args)
    checks: list[validation.Check] = []

    if args.study in ("all", "bracketing"):
        points = validation.bracketing_study(
            step_counts=args.bracket_steps,
            n_paths=args.mc_paths,
            fixed_steps=args.mc_steps,
            seed=args.seed,
            n_y=_at_least(args, "--grid-y", 3),
        )
        rows = [[str(pt.n_steps), str(pt.n_paths), _fpar(pt.pde_value), _fpar(pt.mc.mean),
                 _fpar(pt.mc.ci95_low), _fpar(pt.mc.ci95_high), str(pt.inside).lower()]
                for pt in points]
        _write_csv(out, "validate_bracketing.csv",
                   ["n_steps", "n_paths", "pde", "mc_mean", "ci_low", "ci_high", "inside"], rows)
        required, info = validation.bracketing_checks(points)
        for name, inside, detail in info:
            print(f"[info] {name}: inside={inside} {detail}")
        if not required:
            raise ValueError(
                "the bracketing study checked nothing: every point has fewer than "
                f"{validation.BRACKETING_MIN_STEPS} steps (--bracket-steps, --mc-steps)")
        checks.extend(required)

    if args.study in ("all", "deviation"):
        h = validation.SWEEP_HAZARDS[args.sweep_scenario]
        cells = validation.deviation_sweep(h=h)
        rows = [[_fpar(c.gamma), _fpar(c.rho), _fpar(c.tenor), f"{c.deviation_pct:.4f}",
                 "" if c.reference_pct is None else f"{c.reference_pct:.2f}"]
                for c in cells]
        _write_csv(out, "validate_deviation.csv",
                   ["gamma", "rho", "tenor_years", "deviation_pct", "reference_pct"], rows)
        checks.extend(validation.anchor_checks(cells))
        checks.extend(validation.long_tenor_checks(cells, h, seed=args.seed))

        curves = validation.ratio_maturity_study()
        rows = [[scenario, _fpar(c.tenor), _fpar(c.gamma), _fpar(c.ratio),
                 _fpar(1.0 + c.gamma), f"{c.deviation_pct:.4f}"]
                for scenario, cells in curves.items() for c in cells]
        _write_csv(out, "validate_ratio_curves.csv",
                   ["scenario", "tenor_years", "gamma", "default_ratio",
                    "short_tenor_limit", "deviation_pct"], rows)
        checks.extend(validation.ratio_checks(curves))

    if args.study in ("all", "symmetry"):
        points = validation.fx_symmetry_study(n_paths=args.mc_paths, seed=args.seed)
        rows = [[_fpar(pt.gamma),
                 _fpar(pt.report.p_hat_liquid.mean), _fpar(pt.report.p_hat_contractual.mean),
                 _fpar(pt.report.p_liquid.mean), _fpar(pt.report.p_contractual.mean),
                 _fpar(pt.martingale.mean),
                 "" if pt.martingale_biased is None else _fpar(pt.martingale_biased.mean)]
                for pt in points]
        checks.extend(validation.symmetry_checks(points))
        _write_csv(out, "validate_symmetry.csv",
                   ["gamma", "p_hat_liquid", "p_hat_contractual", "p_liquid",
                    "p_contractual", "density_mean", "density_mean_uncompensated"], rows)

    failed = 0
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def _parse_axis(spec: str) -> tuple[str, np.ndarray]:
    name, _, rng = spec.partition("=")
    name = name.strip().replace("-", "_")
    if name not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {name!r}; choose from {', '.join(SWEEP_AXES)}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis {name!r} needs lo:hi:n, got {rng!r}")
    lo, hi, n = (_number(kind, t, f"--axis {spec!r}")
                 for kind, t in zip((float, float, int), parts))
    if n < 1:
        raise ValueError("axis point count must be >= 1")
    if n == 1:
        return name, np.array([lo])  # a nan or inf point is the model's to name
    if not (math.isfinite(lo) and math.isfinite(hi)):
        # linspace would fill the axis with nan after an invalid-value warning
        raise ValueError(f"axis {name!r} of {n} points needs finite end points, got {rng!r}")
    return name, np.linspace(lo, hi, n)


def _cmd_sweep(args) -> int:
    try:
        axes = [_parse_axis(spec) for spec in args.axis]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 1 <= len(axes) <= 2:
        print("error: provide one or two --axis specs", file=sys.stderr)
        return 2
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        # one value a row could not fill both columns
        print(f"error: sweep axis {axes[0][0]!r} is given twice", file=sys.stderr)
        return 2
    contract = CdsContract(tenor=args.tenor, recovery=args.recovery)
    grids = [ax[1] for ax in axes]
    names = [ax[0] for ax in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    header = names + ["spread_liquid_bp", "spread_contractual_bp", "basis_bp", "rel_basis"]
    rows = []
    for idx in np.ndindex(*mesh[0].shape):
        point = {name: float(grid[idx]) for name, grid in zip(names, mesh)}
        at = argparse.Namespace(**{**vars(args), **point})
        res = quanto_par_spread(_hazard(at), _fx(at), _rates(at), contract,
                                _solver_cfg(args), engine=args.engine)
        s_l = res.liquid.par_spread
        s_c = res.contractual.par_spread
        # nan on purpose where the liquid spread is 0, as survival-curve's
        # default_ratio where p = 1: no liquid spread to compare with
        rel = (s_c - s_l) / s_l if s_l != 0.0 else math.nan
        rows.append([_fpar(point[n]) for n in names]
                    + [_fbp(s_l), _fbp(s_c), _fbp(s_c - s_l), _fpar(rel)])
    _emit(args, "sweep.csv", header, rows)
    return 0


# --------------------------------------------------------------------------
# calibrate / backtest
# --------------------------------------------------------------------------

_SNAPSHOT_HEADER = ["date", "spread_usd_5y_bp", "spread_usd_10y_bp", "spread_eur_5y_bp",
                    "spread_eur_10y_bp", "fx_atm_vol", "index_option_vol_1m", "rate"]


def read_snapshots(path: Path) -> list[MarketSnapshot]:
    """Parse the snapshot CSV; raises ValueError naming the offending line."""
    snaps: list[MarketSnapshot] = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != _SNAPSHOT_HEADER:
            raise ValueError(
                f"{path}: header must be exactly {','.join(_SNAPSHOT_HEADER)}"
            )
        for row in reader:
            line = reader.line_num
            try:
                if None in row or any(row[k] is None for k in _SNAPSHOT_HEADER):
                    raise ValueError("wrong number of fields")
                vol_raw = row["index_option_vol_1m"].strip()
                snaps.append(MarketSnapshot(
                    date=row["date"].strip(),
                    spread_usd_5y=float(row["spread_usd_5y_bp"]) / 1e4,
                    spread_usd_10y=float(row["spread_usd_10y_bp"]) / 1e4,
                    spread_eur_5y=float(row["spread_eur_5y_bp"]) / 1e4,
                    spread_eur_10y=float(row["spread_eur_10y_bp"]) / 1e4,
                    fx_atm_vol=float(row["fx_atm_vol"]),
                    index_option_vol_1m=float(vol_raw) if vol_raw else None,
                    rate=float(row["rate"]),
                ))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row at line {line}: {exc}") from exc
    return snaps


def _calibration_config(args) -> CalibrationConfig:
    return CalibrationConfig(
        tolerance_bp=args.tolerance_bp,
        sigma_y_mode=args.sigma_y_mode,
        seed=args.seed,
        n_y=_at_least(args, "--grid-y", 3),
        n_t_per_year=max(1, args.grid_t // 10),
    )


_RESULT_HEADER = ["date", "b", "y0", "sigma_y", "rho", "gamma", "ab",
                  "res_usd_5y_bp", "res_usd_10y_bp", "res_eur_5y_bp", "res_eur_10y_bp",
                  "max_residual_bp", "iterations", "converged", "error"]

_DIAG_HEADER = ["date", "gamma", "rho", "rel_basis_1y", "rel_basis_10y",
                "basis_gap_observed", "basis_gap_diffusive",
                "spread_usd_1y_bp", "spread_eur_1y_bp",
                "spread_usd_5y_bp", "spread_eur_5y_bp",
                "spread_usd_10y_bp", "spread_eur_10y_bp"]


def _run_calibration(args) -> tuple[list, Path]:
    """Calibrate every snapshot and write the results and diagnostics CSVs;
    returns the backtest rows and the output directory."""
    with warnings.catch_warnings():
        # a date without an index vol takes sigma_y_default, which its row prints
        warnings.filterwarnings("ignore", message=NO_INDEX_VOL)
        rows = backtest(read_snapshots(args.snapshots), _calibration_config(args))
    result_rows, diag_rows = [], []
    for row in rows:
        if row.result is None:
            result_rows.append([row.date] + [""] * 12 + ["false", row.error or "failed"])
            continue
        r = row.result
        result_rows.append([
            r.date, _fpar(r.b), _fpar(r.y0), _fpar(r.sigma_y), _fpar(r.rho), _fpar(r.gamma),
            _fpar(r.ab),
            *(_fres(r.residuals_bp[k]) for k in ("usd_5y", "usd_10y", "eur_5y", "eur_10y")),
            _fres(r.max_residual_bp()), str(r.iterations),
            str(r.converged).lower(), "",
        ])
        diag_rows.append([
            row.date, _fpar(r.gamma), _fpar(r.rho),
            _fpar(row.rel_basis_1y), _fpar(row.rel_basis_10y),
            _fpar(row.basis_gap_observed), _fpar(row.basis_gap_diffusive),
            _fbp(row.model_spread_1y["usd"]), _fbp(row.model_spread_1y["eur"]),
            _fbp(row.model_spread_5y["usd"]), _fbp(row.model_spread_5y["eur"]),
            _fbp(row.model_spread_10y["usd"]), _fbp(row.model_spread_10y["eur"]),
        ])
    out = _out_dir(args) or Path(".")
    _write_csv(out, "calibration_results.csv", _RESULT_HEADER, result_rows)
    _write_csv(out, "calibration_diagnostics.csv", _DIAG_HEADER, diag_rows)
    return rows, out


def _cmd_calibrate(args) -> int:
    rows, _ = _run_calibration(args)
    n_fail = sum(1 for r in rows if r.result is None)
    n_conv = sum(1 for r in rows if r.result is not None and r.result.converged)
    print(f"calibrated {len(rows)} dates: {n_conv} converged, "
          f"{len(rows) - n_conv - n_fail} unconverged, {n_fail} failed")
    for r in rows:
        if r.result is None:
            print(f"  {r.date}: FAILED ({r.error})")
    return 0


def _cmd_backtest(args) -> int:
    if args.history is not None:  # read before the calibration, which it does not need
        history = _rolling_correlation_rows(args.history, args.window)
    rows, out = _run_calibration(args)
    good = [r for r in rows if r.result is not None]
    if len(good) >= 3:
        gammas = np.array([r.result.gamma for r in good])
        basis = np.array([r.rel_basis_1y for r in good])
        if float(np.ptp(basis)) > 0:
            slope, intercept = np.polyfit(basis, gammas, 1)
            print(f"gamma vs 1y relative basis: slope={slope:.4f} intercept={intercept:.4f}")
    if args.history is not None:
        _write_csv(out, "historical_correlation.csv", ["date", "rolling_correlation"], history)
    n_fail = sum(1 for r in rows if r.result is None)
    print(f"backtested {len(rows)} dates ({n_fail} failures)")
    return 0


def _rolling_correlation_rows(path: Path, window: int) -> list[list[str]]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if not {"date", "fx", "spread"} <= set(reader.fieldnames or ()):
            raise ValueError(f"{path}: header must contain date,fx,spread")
        for row in reader:
            try:
                if None in (row["date"], row["fx"], row["spread"]):
                    raise ValueError("wrong number of fields")
                fx, spread = float(row["fx"]), float(row["spread"])
                for name, x in (("fx", fx), ("spread", spread)):
                    if not math.isfinite(x):
                        raise ValueError(f"{name} must be finite, got {x}")
                rows.append((row["date"].strip(), fx, spread))
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row at line {reader.line_num}: {exc}")
    dates, fx, spread = zip(*rows) if rows else ((), (), ())
    corr = historical_correlation(fx, spread, window)
    return [[d, _fpar(c)] for d, c in zip(dates[window:], corr)]


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------


_ENGINES = ("adi", "reduced")

_GRID_FLAGS = {"y": (SolverConfig.n_y, "PDE nodes on the log-hazard axis"),
               "t": (SolverConfig.n_t, "PDE time steps over the horizon")}

# the model flags of a survival curve; a price also takes the rates that discount its legs
_CURVE_FLAGS = (
    ("a", 1e-4, "hazard mean-reversion speed"),
    ("b", -210.45, "hazard long-term log level"),
    ("sigma-y", 0.2, "log-hazard volatility"),
    ("y0", -4.089, "initial log-hazard"),
    ("sigma-z", 0.1, "FX volatility"),
    ("gamma", 0.0, "FX devaluation rate at default"),
    ("rho", 0.0, "hazard/FX Brownian correlation"),
)
_PRICE_FLAGS = _CURVE_FLAGS + (
    ("r", 0.0, "liquid-currency flat rate"),
    ("r-hat", 0.0, "contractual-currency flat rate"),
)


def _build_subparsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    top = argparse.ArgumentParser(
        prog="quantocds",
        description="Multi-currency CDS pricing with an FX devaluation jump at default",
    )
    subs = top.add_subparsers(dest="command", required=True)

    def command(name, handler, help, grid, model=()) -> argparse.ArgumentParser:
        """Subcommand ``name`` with --config, --seed, --out-dir, a --grid-<axis>
        flag per axis in ``grid`` and the model flags ``model``."""
        # no abbreviations: survival-curve, which takes no rate, would read --r as --rho
        p = subs.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("--config", type=Path, help="INI-style key=value file; flags override it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", type=Path, default=None,
                       help=f"output directory (fallback: ${_OUT_DIR_ENV})")
        for axis in grid:
            default, text = _GRID_FLAGS[axis]
            p.add_argument(f"--grid-{axis}", type=int, default=default, help=text)
        if model:
            g = p.add_argument_group("model parameters (annualized decimals)")
            for flag, default, text in model:
                g.add_argument(f"--{flag}", type=float, default=default, help=text)
        return p

    p = command("price", _cmd_price, "quanto par spreads for one contract", "yt", _PRICE_FLAGS)
    p.add_argument("--tenor", type=float, default=5.0)
    p.add_argument("--recovery", type=float, default=0.4)
    p.add_argument("--notional", type=float, default=1.0)
    p.add_argument("--liquid-ccy", default="USD")
    p.add_argument("--contractual-ccy", default="EUR")
    p.add_argument("--engine", choices=_ENGINES, default="adi")

    p = command("survival-curve", _cmd_survival_curve, "liquid and contractual survival curves",
                "yt", _CURVE_FLAGS)
    p.add_argument("--tenor", type=float, default=10.0, help="horizon for a quarterly grid")
    p.add_argument("--tenors", default=None, help="comma-separated override")
    p.add_argument("--engine", choices=_ENGINES, default="adi")

    p = command("validate", _cmd_validate, "cross-engine validation studies", "")
    # 201 nodes resolve the bracketing study's million-path interval, about 1e-4 wide
    p.add_argument("--grid-y", type=int, default=201,
                   help="the bracketing study's PDE nodes on the log-hazard axis")
    p.add_argument("--mc-paths", type=int, default=100_000)
    p.add_argument("--mc-steps", type=int, default=500,
                   help="the bracketing study's fixed MC and PDE step count, at --mc-paths "
                   "and ten times as many paths")
    p.add_argument("--study", choices=("all", "bracketing", "deviation", "symmetry"),
                   default="all")
    p.add_argument("--bracket-steps", type=_step_counts, default=(50, 100, 200, 300, 500))
    p.add_argument("--sweep-scenario", choices=tuple(validation.SWEEP_HAZARDS), default="low")

    p = command("sweep", _cmd_sweep, "par-spread sensitivity sweeps", "yt", _PRICE_FLAGS)
    p.add_argument("--tenor", type=float, default=5.0)
    p.add_argument("--recovery", type=float, default=0.4)
    p.add_argument("--axis", action="append", default=None, required=True,
                   help="axis spec name=lo:hi:n (repeat for a 2-d grid)", metavar="SPEC")
    p.add_argument("--engine", choices=_ENGINES, default="reduced")

    for name, handler in (("calibrate", _cmd_calibrate), ("backtest", _cmd_backtest)):
        p = command(name, handler, f"{name} against a snapshot file", "y")
        p.add_argument("--grid-t", type=int, default=300, help="PDE time steps over the "
                       "10-year horizon, rounded down to a multiple of 10 and at least 10")
        p.add_argument("--tolerance-bp", type=float, default=0.5)
        p.add_argument("--sigma-y-mode", choices=("passthrough", "implied"),
                       default="passthrough")
        p.add_argument("--snapshots", type=Path, required=True,
                       help=f"CSV with header {','.join(_SNAPSHOT_HEADER)}")
        if name == "backtest":
            p.add_argument("--history", type=Path, default=None,
                           help="CSV date,fx,spread for rolling correlation")
            p.add_argument("--window", type=int, default=50)

    return top, subs.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top, subs = _build_subparsers()
    if argv and argv[0] in subs:
        # config values go ahead of the command line's flags, which override them
        argv[1:1] = _config_tokens(subs[argv[0]], argv[1:])
    args = top.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`quantocds price | head`): keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError, PdeInstabilityError, CalibrationError) as exc:
        # BrokenPipeError is an OSError: its handler above must come first
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
