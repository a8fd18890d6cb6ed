"""Inputs, operations and correctness checks of the three benchmark workloads.

Each workload turns the benchmark seed into one round of cases; a run
repeats that round.  An operation sends one case through the public API of
quantocds.  The checks compare results with truth parameters, quotes the
benchmark computes itself, a second engine or exact properties of the
method, never with stored output of the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quantocds import calibration, cds, mc, pde, validation
from quantocds.calibration import CalibrationConfig, MarketSnapshot
from quantocds.cds import CdsContract
from quantocds.curves import SurvivalCurve
from quantocds.mc import McEstimate, SimConfig
from quantocds.model import HazardParams, QuantoFxParams, RatePair

BP = 1e-4
RECOVERY = 0.4


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled.

    Every round then spans the whole box, which keeps the cost of a round
    close to the same from seed to seed.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def flat_hazard_spread(lam: float, tenor: float) -> float:
    """Par spread of a quarterly CDS under a flat hazard and zero rates:
    S = LGD (1 - e^{-lam T}) / (1/4 sum_i e^{-lam T_i})."""
    times = 0.25 * np.arange(1, int(round(4 * tenor)) + 1)
    annuity = 0.25 * float(np.exp(-lam * times).sum())
    return (1.0 - RECOVERY) * -math.expm1(-lam * tenor) / annuity


def gap_z(e1: McEstimate, e2: McEstimate) -> float:
    """Distance of two estimates in combined standard errors."""
    return abs(e1.mean - e2.mean) / math.hypot(e1.std_error, e2.std_error)


def within_mc(value: float, est: McEstimate, floor: float) -> bool:
    """True if value lies within 3 standard errors plus a floor of est."""
    return abs(value - est.mean) <= 3.0 * est.std_error + floor


# --------------------------------------------------------------------------
# calibrate: backtest on one dual-currency snapshot
# --------------------------------------------------------------------------

CAL_CFG = CalibrationConfig()
CAL_ROUND_TRIP = 6
CAL_CLOSED_FORM = 6
# criterion 7's box and bounds
RT_BOX = {"b": (-215.0, -120.0), "y0": (-4.5, -4.12), "rho": (-0.6, 0.6), "gamma": (-0.4, 0.0)}
RT_SIGMA_Y = 0.5
FX_VOL = 0.1
GAMMA_TOL = 0.01
RHO_TOL = 0.1
RESIDUAL_TOL_BP = 0.5
# near-deterministic hazard: the 1M index vol passes through as sigma_y
CF_INDEX_VOL = 1e-3
CF_LAMBDA = (0.01, 0.10)
# USD 5Y near 440 bp beside EUR near 350 bp
ITALY_LAMBDA = 0.0733
ITALY_GAMMA = 350.0 / 440.0 - 1.0


@dataclass(frozen=True)
class SnapshotCase:
    snapshot: MarketSnapshot
    gamma: float
    rho: float | None  # None where the quotes do not identify rho


def _round_trip_case(name: str, b: float, y0: float, rho: float, gamma: float) -> SnapshotCase:
    """Quotes priced from a known truth on the calibration's own grid."""
    cfg = CAL_CFG
    times = CdsContract(tenor=cfg.tenors[1]).payment_times()
    grid = dict(n_y=cfg.n_y, n_t=int(round(cfg.n_t_per_year * cfg.tenors[1])),
                width_sigmas=cfg.width_sigmas)
    h = HazardParams(a=cfg.a_fixed, b=b, sigma_y=RT_SIGMA_Y, y0=y0)
    fx = QuantoFxParams(z0=cfg.z0, sigma_z=FX_VOL, gamma_z=gamma, rho=rho)
    curves = (SurvivalCurve(times, pde.survival_curve_1f(h, times, **grid)),
              SurvivalCurve(times, pde.quanto_survival_curve_1f(h, fx, times, **grid)))
    quotes = [cds.par_spread(c, 0.0, CdsContract(tenor=t, recovery=cfg.recovery)).par_spread
              for c in curves for t in cfg.tenors]
    return SnapshotCase(MarketSnapshot(name, *quotes, FX_VOL, RT_SIGMA_Y, 0.0), gamma, rho)


def _closed_form_case(name: str, lam: float, gamma: float) -> SnapshotCase:
    usd = [flat_hazard_spread(lam, t) for t in CAL_CFG.tenors]
    eur = [flat_hazard_spread((1.0 + gamma) * lam, t) for t in CAL_CFG.tenors]
    return SnapshotCase(MarketSnapshot(name, *usd, *eur, FX_VOL, CF_INDEX_VOL, 0.0), gamma, None)


def calibrate_cases(seed: int) -> list[SnapshotCase]:
    rng = np.random.default_rng([seed, 0])
    n = CAL_ROUND_TRIP
    draws = {k: _strata(rng, n, *box) for k, box in RT_BOX.items()}
    cases = [_round_trip_case(f"rt{i}", *(float(draws[k][i]) for k in RT_BOX))
             for i in range(n)]
    m = CAL_CLOSED_FORM - 1
    lams = _strata(rng, m, *CF_LAMBDA)
    gammas = _strata(rng, m, *RT_BOX["gamma"])
    cases.append(_closed_form_case("cf-italy", ITALY_LAMBDA, ITALY_GAMMA))
    cases += [_closed_form_case(f"cf{i}", float(lams[i]), float(gammas[i])) for i in range(m)]
    return cases


def calibrate_op(case: SnapshotCase) -> calibration.BacktestRow:
    row = calibration.backtest([case.snapshot], CAL_CFG)[0]
    if row.error is not None:
        raise RuntimeError(row.error)
    return row


def calibrate_warm_up(cases: list[SnapshotCase]) -> None:
    coarse = CalibrationConfig(n_y=21, n_t_per_year=2, max_iterations=4,
                               single_ccy_tolerance_bp=1e6)
    calibration.calibrate_single_ccy(cases[0].snapshot, coarse)


def calibrate_check(case: SnapshotCase, row: calibration.BacktestRow, ref: None) -> list[str]:
    res, snap = row.result, case.snapshot
    out = []
    if not res.converged:
        out.append("not converged")
    if not res.max_residual_bp() < RESIDUAL_TOL_BP:
        out.append(f"residual {res.max_residual_bp():.3g} bp >= {RESIDUAL_TOL_BP}")
    if not abs(res.gamma - case.gamma) < GAMMA_TOL:
        out.append(f"gamma {res.gamma:.5f} vs truth {case.gamma:.5f}")
    if case.rho is not None and not abs(res.rho - case.rho) < RHO_TOL:
        out.append(f"rho {res.rho:.4f} vs truth {case.rho:.4f}")
    # the diagnostics row reprices the 5Y and 10Y quotes it was fitted to
    for tenor_key, usd, eur in (("model_spread_5y", snap.spread_usd_5y, snap.spread_eur_5y),
                                ("model_spread_10y", snap.spread_usd_10y, snap.spread_eur_10y)):
        model = getattr(row, tenor_key)
        for ccy, quote in (("usd", usd), ("eur", eur)):
            if not abs(model[ccy] - quote) < RESIDUAL_TOL_BP * BP:
                out.append(f"diagnostics {tenor_key} {ccy} {model[ccy] / BP:.3f} bp "
                           f"vs quote {quote / BP:.3f} bp")
    return out


# --------------------------------------------------------------------------
# price-adi: quanto par spread on the two-factor ADI engine
# --------------------------------------------------------------------------

ADI_GRID = pde.SolverConfig()  # 101 x 101 x 300, the CLI default
ADI_TRADES = 7
# the CLI's default hazard drift, FX spot and rates
CLI_A, CLI_B, CLI_Z0, CLI_SIGMA_Y, CLI_Y0 = 1e-4, -210.45, 0.8, 0.2, -4.089
CLI_RATES = RatePair(0.0, 0.0)
ADI_BOX = {"tenor": (1.0, 10.0), "gamma": (-0.5, 0.25), "rho": (-0.9, 0.9),
           "sigma_y": (0.2, 0.5), "y0": (-5.0, -3.5)}
ADI_TOL_BP = 0.03  # ADI against the exact one-factor reduction, same grid
MC_CHECK_PATHS = 20_000
MC_CHECK_STEPS_PER_YEAR = 50
MC_FLOOR = 2e-3  # allowance for the Monte Carlo time step
TOTAL_DEVALUATION_BP = 1.0


@dataclass(frozen=True)
class Trade:
    h: HazardParams
    fx: QuantoFxParams
    tenor: float
    mc_seed: int
    # priced with gamma = -1, which the ADI engine rejects today
    known_fault: bool = False


def price_adi_cases(seed: int) -> list[Trade]:
    rng = np.random.default_rng([seed, 1])
    n = ADI_TRADES
    d = {k: _strata(rng, n, *box) for k, box in ADI_BOX.items()}
    # whole quarters: a ragged tenor joins the payment dates by a tiny gcd
    # and blows up the ADI time grid
    tenors = np.round(4.0 * d["tenor"]) / 4.0
    trades = [
        Trade(HazardParams(a=CLI_A, b=CLI_B, sigma_y=float(d["sigma_y"][i]), y0=float(d["y0"][i])),
              QuantoFxParams(z0=CLI_Z0, sigma_z=FX_VOL, gamma_z=float(d["gamma"][i]),
                             rho=float(d["rho"][i])),
              float(tenors[i]), seed)
        for i in range(n)
    ]
    trades.append(Trade(HazardParams(a=CLI_A, b=CLI_B, sigma_y=CLI_SIGMA_Y, y0=CLI_Y0),
                        QuantoFxParams(z0=CLI_Z0, sigma_z=FX_VOL, gamma_z=-1.0, rho=0.0),
                        5.0, seed, known_fault=True))
    return trades


def price_adi_op(t: Trade) -> cds.QuantoParSpreads:
    return cds.quanto_par_spread(t.h, t.fx, CLI_RATES, CdsContract(tenor=t.tenor), ADI_GRID,
                                 engine="adi")


def price_adi_warm_up(trades: list[Trade]) -> None:
    t = trades[0]
    cds.quanto_par_spread(t.h, t.fx, CLI_RATES, CdsContract(tenor=t.tenor),
                          pde.SolverConfig(n_x=11, n_y=11, n_t=20), engine="adi")


@dataclass(frozen=True)
class TradeReference:
    reduced: cds.QuantoParSpreads
    p: McEstimate
    p_hat: McEstimate


def price_adi_reference(t: Trade) -> TradeReference:
    """Second engine and Monte Carlo estimates for one trade."""
    reduced = cds.quanto_par_spread(t.h, t.fx, CLI_RATES, CdsContract(tenor=t.tenor), ADI_GRID,
                                    engine="reduced")
    steps = max(20, int(round(MC_CHECK_STEPS_PER_YEAR * t.tenor)))
    sim = SimConfig(MC_CHECK_PATHS, steps, t.tenor, t.mc_seed)
    p = mc.survival_probability_mc(t.h, t.tenor, sim)
    p_hat = mc.quanto_bond_mc(t.h, t.fx, CLI_RATES, t.tenor, sim).p_hat
    return TradeReference(reduced, p, p_hat)


def price_adi_check(t: Trade, res: cds.QuantoParSpreads, ref: TradeReference) -> list[str]:
    out = []
    for leg in ("liquid", "contractual"):
        adi = getattr(res, leg).par_spread
        red = getattr(ref.reduced, leg).par_spread
        if not abs(adi - red) <= ADI_TOL_BP * BP:
            out.append(f"{leg} spread ADI {adi / BP:.4f} bp vs reduced {red / BP:.4f} bp")
    for name, curve, est in (("p", res.curve_liquid, ref.p),
                             ("p_hat", res.curve_contractual, ref.p_hat)):
        value = float(curve(t.tenor))
        if not within_mc(value, est, MC_FLOOR):
            out.append(f"{name}({t.tenor:g}) {value:.5f} outside MC {est.mean:.5f} "
                       f"+- 3 x {est.std_error:.1e} + {MC_FLOOR}")
    if t.fx.gamma_z == -1.0 and not res.contractual.par_spread < TOTAL_DEVALUATION_BP * BP:
        out.append(f"total devaluation leaves {res.contractual.par_spread / BP:.4f} bp")
    return out


# --------------------------------------------------------------------------
# mc-symmetry: the FX symmetry study for one devaluation rate
# --------------------------------------------------------------------------

SYM_GAMMAS = (-0.5, -0.2, 0.0, 1.0)  # the study's own set
SYM_PATHS = 100_000  # the CLI's --mc-paths default
SYM_STEPS = 250
SYM_T = 5.0
SYM_RHO = 0.3
SYM_RATES = RatePair(0.01, 0.02)
SYM_HAZARD = validation.SWEEP_HAZARD_LOW
DUAL_Z = 3.0
# |z| of an unbiased mean is N(0, 1); 4 keeps a false alarm below 1e-4 per
# statistic, so the many seeds a benchmark campaign runs stay clean
MARTINGALE_Z = 4.0
CONTROL_Z = 5.0
SYM_FLOOR = 2e-3  # allowance for the Monte Carlo time step


@dataclass(frozen=True)
class SymmetryCase:
    gamma: float
    mc_seed: int

    @property
    def fx(self) -> QuantoFxParams:
        return QuantoFxParams(z0=validation.SWEEP_Z0, sigma_z=FX_VOL, gamma_z=self.gamma,
                              rho=SYM_RHO)


def mc_symmetry_cases(seed: int) -> list[SymmetryCase]:
    return [SymmetryCase(g, seed) for g in SYM_GAMMAS]


def _study(case: SymmetryCase, n_paths: int, n_steps: int) -> validation.SymmetryPoint:
    return validation.fx_symmetry_study(
        gammas=(case.gamma,), rho=SYM_RHO, sigma_z=FX_VOL, T=SYM_T, n_paths=n_paths,
        n_steps=n_steps, seed=case.mc_seed, h=SYM_HAZARD, rates=SYM_RATES)[0]


def mc_symmetry_op(case: SymmetryCase) -> validation.SymmetryPoint:
    return _study(case, SYM_PATHS, SYM_STEPS)


def mc_symmetry_warm_up(cases: list[SymmetryCase]) -> None:
    _study(cases[0], 1_000, 10)


def mc_symmetry_reference(case: SymmetryCase) -> tuple[float, float]:
    """Survivals (p_hat, p) at the horizon from the one-factor reduction."""
    p_hat = pde.quanto_survival_curve_1f(SYM_HAZARD, case.fx, [SYM_T])[0]
    p = pde.survival_curve_1f(SYM_HAZARD, [SYM_T])[0]
    return float(p_hat), float(p)


def mc_symmetry_check(case: SymmetryCase, pt: validation.SymmetryPoint,
                      ref: tuple[float, float]) -> list[str]:
    rep = pt.report
    out = []
    for name, a, b in (("p_hat", rep.p_hat_liquid, rep.p_hat_contractual),
                       ("p", rep.p_liquid, rep.p_contractual)):
        if not gap_z(a, b) < DUAL_Z:
            out.append(f"dual {name}: liquid {a.mean:.5f} vs contractual {b.mean:.5f}, "
                       f"z = {gap_z(a, b):.2f}")
    z_mart = (pt.martingale.mean - 1.0) / pt.martingale.std_error
    if not abs(z_mart) < MARTINGALE_Z:
        out.append(f"density martingale mean {pt.martingale.mean:.5f}, z = {z_mart:+.2f}")
    if case.gamma != 0.0:
        biased = pt.martingale_biased
        z_ctl = 0.0 if biased is None else (biased.mean - 1.0) / biased.std_error
        if not abs(z_ctl) > CONTROL_Z:
            out.append(f"uncompensated control not detected, z = {z_ctl:+.2f}")
    for name, est, exact in (("p_hat", rep.p_hat_liquid, ref[0]), ("p", rep.p_liquid, ref[1])):
        if not within_mc(exact, est, SYM_FLOOR):
            out.append(f"{name} MC {est.mean:.5f} +- {est.std_error:.1e} vs one-factor "
                       f"{exact:.5f}")
    return out


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_cases: Callable[[int], list]
    warm_up: Callable[[list], None]
    op: Callable
    reference: Callable  # case -> data the check needs, computed once per case
    check: Callable  # (case, result, reference) -> list of problems


WORKLOADS = {
    "calibrate": Workload(calibrate_cases, calibrate_warm_up, calibrate_op,
                          lambda case: None, calibrate_check),
    "price-adi": Workload(price_adi_cases, price_adi_warm_up, price_adi_op,
                          price_adi_reference, price_adi_check),
    "mc-symmetry": Workload(mc_symmetry_cases, mc_symmetry_warm_up, mc_symmetry_op,
                            mc_symmetry_reference, mc_symmetry_check),
}
