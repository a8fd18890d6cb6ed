"""Validation studies wiring the engines against each other and against
externally tabulated reference numbers.

The studies: the MC-vs-PDE bracketing of the survival probability
(confidence-interval containment as resolution grows), the deviation sweep
of the short-tenor devaluation approximation (1 - p_hat)/(1 - p) ~ 1 + gamma
over (gamma, rho, tenor) with its reference table and long-tenor check
against the Monte Carlo kernel, whose rho = 0 slices in both spread
scenarios are the approximation's maturity curves, and the FX symmetry
study.  Each study has its checks here, as (name, ok, detail) tuples;
``quantocds validate`` and the acceptance suite both read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mc import (
    FxSymmetryReport,
    McEstimate,
    SimConfig,
    _fx_symmetry_pass,
    _Leg,
    _TerminalKernel,
    survival_probability_mc,
)
from .model import HazardParams, QuantoFxParams, RatePair
from .pde import SolverConfig, quanto_survival_curve_1f, solve_quanto_pde, survival_curve_1f

Check = tuple[str, bool, str]

BRACKETING_HAZARD = HazardParams(a=0.08, b=3.7, sigma_y=0.2, y0=-5.0)
# fewest steps at which a bracketing point's PDE value must lie inside the MC interval
BRACKETING_MIN_STEPS = 300
SWEEP_HAZARD_LOW = HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-4.089)
SWEEP_HAZARD_HIGH = HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-2.089)
SWEEP_HAZARDS = {"low": SWEEP_HAZARD_LOW, "high": SWEEP_HAZARD_HIGH}

SWEEP_GAMMAS = (-0.99, -0.50, -0.25, 0.00, 0.25, 0.50)
SWEEP_RHOS = (-0.9, 0.0, 0.9)
SWEEP_TENORS = (1.0, 4.0, 10.0)
SWEEP_SIGMA_Z = 0.1
SWEEP_Z0 = 0.8
# the approximation's maturity curves (rho = 0): one month to ten years
CURVE_GAMMAS = (-0.99, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5)
CURVE_TENORS = (1.0 / 12.0, 1.0, 4.0, 10.0)

# Externally tabulated deviations (percent) of the survival-ratio
# approximation over the (gamma, rho, tenor) sweep; rows follow SWEEP_GAMMAS,
# inner order SWEEP_RHOS.  The table came with the library and its source
# cannot be checked until the paper's text is in the repository.  Parts of it
# contradict the model exactly: at gamma = rho = 0 the quanto and plain
# survivals are the same expectation, so the deviation is exactly 0, yet the
# table gives 0.47 / 1.65 / -1.26 % at 1 / 4 / 10 years; and for gamma > -1
# the drift tilt rho sigma_y sigma_z makes the deviation fall strictly as rho
# rises, yet the 10-year rows for gamma = -0.5, -0.25, +0.25, +0.5 rise.  Only
# the two 1-year rho = 0 cells serve as anchors (low-hazard sweep, 0.5 pp),
# and the gamma = 0 one passes only because 0.47 < 0.5.  The 10-year cells
# are checked against the Monte Carlo kernel instead (long_tenor_checks).
REFERENCE_DEVIATIONS_PCT: dict[float, list[list[float]]] = {
    1.0: [
        [0.24, 0.08, -0.07],
        [0.43, 0.28, 0.12],
        [0.53, 0.37, 0.22],
        [0.63, 0.47, 0.31],
        [0.73, 0.57, 0.41],
        [0.83, 0.67, 0.51],
    ],
    4.0: [
        [-2.60, -3.33, -4.05],
        [-0.15, -0.89, -1.62],
        [1.11, 0.37, -0.36],
        [2.38, 1.65, 0.91],
        [3.67, 2.93, 2.20],
        [4.96, 4.23, 3.50],
    ],
    10.0: [
        [-31.74, -34.93, -35.58],
        [-30.33, -26.68, -25.72],
        [-15.84, -15.01, -14.87],
        [-1.16, -1.26, -1.37],
        [13.47, 13.71, 14.60],
        [28.04, 29.82, 35.40],
    ],
}


def _sweep_fx(gamma: float, rho: float, sigma_z: float = SWEEP_SIGMA_Z) -> QuantoFxParams:
    return QuantoFxParams(z0=SWEEP_Z0, sigma_z=sigma_z, gamma_z=gamma, rho=rho)


def reference_deviation_pct(gamma: float, rho: float, tenor: float) -> float:
    ig = SWEEP_GAMMAS.index(gamma)
    ir = SWEEP_RHOS.index(rho)
    return REFERENCE_DEVIATIONS_PCT[tenor][ig][ir]


@dataclass(frozen=True)
class BracketingPoint:
    n_steps: int
    n_paths: int
    pde_value: float
    mc: McEstimate

    @property
    def inside(self) -> bool:
        return self.mc.contains(self.pde_value)


def bracketing_study(
    step_counts=(50, 100, 200, 300, 500),
    n_paths: int = 100_000,
    fixed_steps: int = 500,
    seed: int = 20120507,
    n_y: int = 201,
) -> list[BracketingPoint]:
    """Survival MC-vs-PDE containment at 5 years on `BRACKETING_HAZARD`, as
    steps grow at ``n_paths`` paths, then as paths grow from ``n_paths`` to
    ten times as many at ``fixed_steps`` steps; a (steps, paths) pair that
    both legs reach is one point.

    Each point shares the step count between the MC grid and the PDE time
    grid; the PDE value comes from the ADI solver without FX volatility or
    jump, so the study exercises the production ADI path.
    """
    T, h = 5.0, BRACKETING_HAZARD
    fx = QuantoFxParams(z0=1.0, sigma_z=0.0, gamma_z=0.0, rho=0.0)
    rates = RatePair(0.0, 0.0)
    pairs = [(n, n_paths) for n in step_counts] + [(fixed_steps, n_paths),
                                                   (fixed_steps, 10 * n_paths)]
    pde: dict[int, float] = {}  # one solve per step count
    points: list[BracketingPoint] = []
    for n_steps, paths in dict.fromkeys(pairs):
        if n_steps not in pde:
            cfg = SolverConfig(n_y=n_y, n_t=n_steps)
            pde[n_steps] = solve_quanto_pde(h, fx, rates, T, cfg).spot_value
        mc = survival_probability_mc(h, T, SimConfig(paths, n_steps, T, seed))
        points.append(BracketingPoint(n_steps, paths, pde[n_steps], mc))
    return points


def bracketing_checks(points: list[BracketingPoint]) -> tuple[list[Check], list[Check]]:
    """(required, informational) containment checks of a bracketing study.

    From ``BRACKETING_MIN_STEPS`` steps on, the PDE value must lie inside the
    95 % interval; coarser points carry a time-discretisation bias and are
    only reported.
    """
    required, info = [], []
    for pt in points:
        check = (f"bracketing steps={pt.n_steps} paths={pt.n_paths}", pt.inside,
                 f"pde={pt.pde_value:.6f} ci=({pt.mc.ci95_low:.6f},{pt.mc.ci95_high:.6f})")
        (required if pt.n_steps >= BRACKETING_MIN_STEPS else info).append(check)
    return required, info


def deviation_from_ratio(gamma: float, ratio: float) -> float:
    """(1 + gamma) / ratio - 1, as a fraction, for ratio = (1 - p_hat) / (1 - p)."""
    return (1.0 + gamma) / ratio - 1.0


@dataclass(frozen=True)
class DeviationCell:
    gamma: float
    rho: float
    tenor: float
    ratio: float        # (1 - p_hat) / (1 - p)
    reference_pct: float | None

    @property
    def deviation_pct(self) -> float:
        return 100.0 * deviation_from_ratio(self.gamma, self.ratio)


def deviation_sweep(
    h: HazardParams = SWEEP_HAZARD_LOW,
    gammas=SWEEP_GAMMAS,
    rhos=SWEEP_RHOS,
    tenors=SWEEP_TENORS,
    n_y: int = 801,
    n_t_per_year: int = 100,
) -> list[DeviationCell]:
    """Deviation of the survival-ratio approximation across the grid, at
    the sweep's FX vol (the anchor and long-tenor checks' cells by default).

    Survivals come from the exact one-factor reduction; at tenor 1 the
    signal is a fraction of a percent of a percent-sized default leg, which
    the two-factor grid cannot resolve but the reduction can.  The
    tabulated reference belongs to the low-hazard sweep, so it is attached
    only when ``h`` is ``SWEEP_HAZARD_LOW``.
    """
    with_reference = h == SWEEP_HAZARD_LOW
    n_t = max(50, int(n_t_per_year * tenors[-1]))
    cells: list[DeviationCell] = []
    p_plain = survival_curve_1f(h, tenors, n_y=n_y, n_t=n_t)
    for gamma in gammas:
        for rho in rhos:
            p_hat = quanto_survival_curve_1f(h, _sweep_fx(gamma, rho), tenors, n_y=n_y, n_t=n_t)
            for i, T in enumerate(tenors):
                ratio = float((1.0 - p_hat[i]) / (1.0 - p_plain[i]))
                try:
                    ref = reference_deviation_pct(gamma, rho, T) if with_reference else None
                except (ValueError, KeyError):  # a cell outside the table
                    ref = None
                cells.append(DeviationCell(gamma, rho, T, ratio, ref))
    return cells


def anchor_checks(cells: list[DeviationCell]) -> list[Check]:
    """The 1-year rho = 0 cells at gamma = 0 and 0.5 against the tabulated
    reference, within 0.5 pp; a sweep without the table has no anchors."""
    return [(f"deviation 1y gamma={c.gamma:+.2f}",
             abs(c.deviation_pct - c.reference_pct) <= 0.5,
             f"model={c.deviation_pct:.3f}% ref={c.reference_pct:.2f}% tol=0.5pp")
            for c in cells
            if c.tenor == 1.0 and c.rho == 0.0 and c.gamma in (0.0, 0.5)
            and c.reference_pct is not None]


def _mc_deviation_pct(
    h: HazardParams, keys, tenor: float, seed: int
) -> dict[tuple[float, float], float]:
    """Deviation (percent) at ``tenor`` per (gamma, rho) from the MC kernel.

    p comes from the liquid-measure leg and p_hat from the
    contractual-measure legs, whose drift tilt and intensity scale are the
    kernel's own code, independent of the one-factor reduction.  Both use the
    conditional estimator exp(-scale * int lambda) on common random numbers
    (one pass, 20k paths, 200 exact OU steps).  The integrated intensity
    depends only on the drift tilt, so one leg per tilt serves every gamma,
    and the liquid leg serves the zero tilt.
    """
    cfg = SimConfig(20_000, 200, tenor, seed)
    rates = RatePair(0.0, 0.0)
    legs = {(gamma, rho): _Leg.of(h, _sweep_fx(gamma, rho), rates, "contractual")
            for gamma, rho in keys}
    by_tilt = {0.0: _Leg.of(h, _sweep_fx(0.0, 0.0), rates)}
    for leg in legs.values():
        by_tilt.setdefault(leg.drift_shift, leg)
    (int_lam,) = _TerminalKernel(h, list(by_tilt.values())).run(cfg, want_fx=False)
    int_lam = dict(zip(by_tilt, int_lam))
    p = McEstimate.from_samples(np.exp(-int_lam[0.0])).mean
    out: dict[tuple[float, float], float] = {}
    for (gamma, rho), leg in legs.items():
        p_hat = float(np.mean(np.exp(-leg.intensity_scale * int_lam[leg.drift_shift])))
        out[(gamma, rho)] = 100.0 * deviation_from_ratio(gamma, (1.0 - p_hat) / (1.0 - p))
    return out


def long_tenor_checks(cells: list[DeviationCell], h: HazardParams, seed: int = 9
                      ) -> list[Check]:
    """(name, ok, detail) checks on the 10-year cells of a deviation sweep.

    ``cells`` must come from ``deviation_sweep(h)``.  Each 10-year cell must
    lie within 1 pp of the Monte Carlo deviation, and two exact properties
    of the model must hold: the deviation is exactly 0 at gamma = rho = 0,
    where p_hat and p are the same expectation, and for gamma > -1 it falls
    strictly as rho rises, because the drift tilt rho sigma_y sigma_z raises
    Y pathwise.
    """
    tenor = 10.0
    at_tenor = [c for c in cells if c.tenor == tenor]
    if not at_tenor:
        raise ValueError(f"no sweep cells at tenor {tenor}")
    mc = _mc_deviation_pct(h, [(c.gamma, c.rho) for c in at_tenor], tenor, seed)
    checks: list[Check] = []
    for c in at_tenor:
        ref = mc[(c.gamma, c.rho)]
        checks.append((f"deviation 10y vs mc gamma={c.gamma:+.2f} rho={c.rho:+.1f}",
                       abs(c.deviation_pct - ref) <= 1.0,
                       f"model={c.deviation_pct:+.3f}% mc={ref:+.3f}% tol=1pp"))
    for c in at_tenor:
        if c.gamma == 0.0 and c.rho == 0.0:
            checks.append(("deviation 10y exact zero gamma=+0.00 rho=+0.0",
                           c.deviation_pct == 0.0, f"model={c.deviation_pct:+.3g}%"))
    for gamma in sorted({c.gamma for c in at_tenor if c.gamma > -1.0}):
        row = sorted((c.rho, c.deviation_pct) for c in at_tenor if c.gamma == gamma)
        checks.append((f"deviation 10y falls with rho gamma={gamma:+.2f}",
                       all(d1 > d2 for (_, d1), (_, d2) in zip(row, row[1:])),
                       " ".join(f"rho={r:+.1f}:{d:+.3f}%" for r, d in row)))
    return checks


@dataclass(frozen=True)
class SymmetryPoint:
    """One devaluation rate's worth of cross-measure checks.

    ``martingale`` estimates the measure-change density expectation (must
    be 1); ``martingale_biased`` repeats it with the jump compensator
    dropped from the FX drift and is None at gamma = 0, where dropping a
    zero term cannot bias anything.
    """

    gamma: float
    report: FxSymmetryReport
    martingale: McEstimate
    martingale_biased: McEstimate | None


def fx_symmetry_study(
    gammas=(-0.5, -0.2, 0.0, 1.0),
    rho: float = 0.3,
    sigma_z: float = 0.1,
    T: float = 5.0,
    n_paths: int = 200_000,
    n_steps: int = 250,
    seed: int = 17,
    h: HazardParams = SWEEP_HAZARD_LOW,
    rates: RatePair = RatePair(0.01, 0.02),
) -> list[SymmetryPoint]:
    """Dual-construction, martingale and negative-control checks per gamma.

    Each gamma is one Monte Carlo pass whose liquid, contractual and (for
    gamma != 0) uncompensated legs share their draws; every estimate equals
    the one ``verify_fx_symmetry`` or ``verify_rn_martingale`` returns alone.
    """
    points: list[SymmetryPoint] = []
    for gamma in gammas:
        fx = _sweep_fx(gamma, rho, sigma_z)
        cfg = SimConfig(n_paths, n_steps, T, seed)
        report, mart, biased = _fx_symmetry_pass(h, fx, rates, T, cfg, control=gamma != 0.0)
        points.append(SymmetryPoint(gamma, report, mart, biased))
    return points


def symmetry_checks(points: list[SymmetryPoint]) -> list[Check]:
    """Per gamma: both measures agree and the density is a martingale
    (|z| < 3), and the uncompensated control is caught (|z| > 5)."""
    checks: list[Check] = []
    for pt in points:
        z_dual = pt.report.max_z_score()
        z_mart = pt.martingale.z_score(1.0)
        checks.append((f"fx symmetry dual gamma={pt.gamma:+.2f}", z_dual < 3.0,
                       f"max z={z_dual:.2f}"))
        checks.append((f"density martingale gamma={pt.gamma:+.2f}", abs(z_mart) < 3.0,
                       f"E[L]={pt.martingale.mean:.5f} z={z_mart:+.2f}"))
        if pt.martingale_biased is not None:
            z_ctl = pt.martingale_biased.z_score(1.0)
            checks.append((f"negative control gamma={pt.gamma:+.2f}", abs(z_ctl) > 5.0,
                           f"E[L]={pt.martingale_biased.mean:.5f} z={z_ctl:+.2f}"))
    return checks


def ratio_maturity_study() -> dict[str, list[DeviationCell]]:
    """The approximation's maturity curves in each spread scenario: the
    deviation sweep at rho = 0 over ``CURVE_GAMMAS`` and ``CURVE_TENORS``,
    where the FX vol drops out (the reduction's tilt is rho sigma_y sigma_z)."""
    return {scenario: deviation_sweep(h, CURVE_GAMMAS, (0.0,), CURVE_TENORS)
            for scenario, h in SWEEP_HAZARDS.items()}


def ratio_checks(curves: dict[str, list[DeviationCell]]) -> list[Check]:
    """|deviation| grows from the shortest to the longest tenor (gamma = -0.5),
    and from the low- to the high-spread scenario (4 and 10 y, gamma = +-0.5)."""
    by_key = {(scenario, c.tenor, c.gamma): c for scenario, cells in curves.items()
              for c in cells}
    shortest = min(t for _, t, _ in by_key)
    longest = max(t for _, t, _ in by_key)
    checks: list[Check] = []
    for scenario in ("low", "high"):
        p_short = by_key[(scenario, shortest, -0.5)]
        p_long = by_key[(scenario, longest, -0.5)]
        ok = abs(p_short.deviation_pct) < abs(p_long.deviation_pct)
        checks.append((f"ratio approximation degrades with tenor ({scenario})", ok,
                       f"|dev| {abs(p_short.deviation_pct):.3f}% at {shortest:.3g}y vs "
                       f"{abs(p_long.deviation_pct):.3f}% at {longest:.3g}y"))
    ok = all(
        abs(by_key[("high", t, g)].deviation_pct) >= abs(by_key[("low", t, g)].deviation_pct)
        for t in (4.0, 10.0) for g in (-0.5, 0.5)
    )
    checks.append(("ratio approximation degrades with spread level", ok,
                   "high-spread scenario deviates at least as much as low"))
    return checks
