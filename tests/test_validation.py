import numpy as np
import pytest

from quantocds import validation
from quantocds.mc import (
    FxSymmetryReport,
    McEstimate,
    SimConfig,
    _Leg,
    _TerminalKernel,
    survival_probability_mc,
    verify_fx_symmetry,
    verify_rn_martingale,
)
from quantocds.model import HazardParams, QuantoFxParams, RatePair
from quantocds.validation import (
    SWEEP_HAZARD_HIGH,
    SWEEP_HAZARD_LOW,
    SWEEP_SIGMA_Z,
    SWEEP_Z0,
    BracketingPoint,
    DeviationCell,
    SymmetryPoint,
    _mc_deviation_pct,
    anchor_checks,
    bracketing_checks,
    bracketing_study,
    deviation_from_ratio,
    deviation_sweep,
    fx_symmetry_study,
    ratio_checks,
    reference_deviation_pct,
    symmetry_checks,
)

COARSE = dict(gammas=(-0.5, 0.0, 0.5), rhos=(-0.9, 0.9), n_y=41, n_t_per_year=10)


class TestDeviationSweepReference:
    def test_low_hazard_cells_carry_the_table(self):
        cells = deviation_sweep(h=SWEEP_HAZARD_LOW, **COARSE)
        assert len(cells) == 18
        for c in cells:
            assert c.reference_pct == reference_deviation_pct(c.gamma, c.rho, c.tenor)

    def test_other_hazard_gets_no_reference(self):
        cells = deviation_sweep(h=SWEEP_HAZARD_HIGH, **COARSE)
        assert len(cells) == 18
        assert all(c.reference_pct is None for c in cells)


class TestBracketingStudy:
    def test_points_are_distinct(self, monkeypatch):
        solves = []
        solve = validation.solve_quanto_pde

        def counting(h, fx, rates, T, cfg):
            solves.append(cfg.n_t)
            return solve(h, fx, rates, T, cfg)

        monkeypatch.setattr(validation, "solve_quanto_pde", counting)
        # the step leg ends where the path leg starts, at (100, 2000)
        points = bracketing_study(step_counts=(50, 100), n_paths=2_000, fixed_steps=100,
                                  n_y=21)
        assert [(pt.n_steps, pt.n_paths) for pt in points] == [
            (50, 2_000), (100, 2_000), (100, 20_000)]
        assert solves == [50, 100]  # one PDE solve per step count
        assert points[1].pde_value == points[2].pde_value


def _estimate(mean: float, se: float) -> McEstimate:
    return McEstimate(mean, se, mean - 1.96 * se, mean + 1.96 * se, 100_000)


def _oks(checks) -> list[bool]:
    return [bool(ok) for _, ok, _ in checks]


def _cell(gamma: float, tenor: float, dev_pct: float, reference_pct=None) -> DeviationCell:
    """A rho = 0 cell whose ratio (1 - p_hat)/(1 - p) deviates by ``dev_pct``."""
    return DeviationCell(gamma, 0.0, tenor, (1 + gamma) / (1 + dev_pct / 100), reference_pct)


class TestCheckTable:
    """Each check passes on a good input and fails on a perturbed one."""

    def test_bracketing_pde_outside_interval(self):
        mc = _estimate(0.9, 1e-4)
        points = [BracketingPoint(100, 10_000, 0.95, mc),
                  BracketingPoint(300, 10_000, 0.9, mc),
                  BracketingPoint(500, 10_000, mc.ci95_high + 1e-6, mc)]
        required, info = bracketing_checks(points)
        assert _oks(required) == [True, False]
        assert _oks(info) == [False]  # coarse points are reported, never required

    def test_anchor_shifted_by_0_6pp(self):
        ref0 = reference_deviation_pct(0.0, 0.0, 1.0)
        ref5 = reference_deviation_pct(0.5, 0.0, 1.0)
        cells = [_cell(0.0, 1.0, ref0 + 0.4, ref0),
                 _cell(0.25, 1.0, 9.0, reference_deviation_pct(0.25, 0.0, 1.0)),
                 _cell(0.5, 1.0, ref5 + 0.6, ref5)]
        assert _oks(anchor_checks(cells)) == [True, False]
        # a sweep without the table has no anchors
        assert anchor_checks([_cell(0.0, 1.0, 9.0)]) == []

    @staticmethod
    def _ratio_points(dev_pct):
        return {sc: [_cell(g, t, dev_pct(sc, t)) for g in (-0.5, 0.5)
                     for t in (1 / 12, 1.0, 4.0, 10.0)]
                for sc in ("low", "high")}

    def test_ratio_long_tenor_below_short_tenor(self):
        level = {"low": 1.0, "high": 2.0}
        assert _oks(ratio_checks(self._ratio_points(lambda sc, t: level[sc] * t))) == [
            True, True, True]
        assert _oks(ratio_checks(self._ratio_points(lambda sc, t: level[sc] / t))) == [
            False, False, True]
        swapped = {"low": 2.0, "high": 1.0}
        assert _oks(ratio_checks(self._ratio_points(lambda sc, t: swapped[sc] * t))) == [
            True, True, False]

    def test_symmetry_martingale_and_control_at_z4(self):
        est = _estimate(0.5, 1e-3)
        report = FxSymmetryReport(est, est, est, est)
        unit, z4, z6 = (_estimate(1.0 + k * 1e-3, 1e-3) for k in (0, 4, 6))
        good = [SymmetryPoint(0.0, report, unit, None), SymmetryPoint(-0.5, report, unit, z6)]
        assert _oks(symmetry_checks(good)) == [True, True, True, True, True]
        assert _oks(symmetry_checks([SymmetryPoint(-0.5, report, z4, z4)])) == [
            True, False, False]
        gap = FxSymmetryReport(est, _estimate(0.5 + 6e-3, 1e-3), est, est)
        assert _oks(symmetry_checks([SymmetryPoint(0.0, gap, unit, None)])) == [False, True]


class TestSharedDrawPasses:
    def test_symmetry_study_equals_separate_estimators(self):
        h = HazardParams(a=0.08, b=3.7, sigma_y=0.2, y0=-5.0)
        rates = RatePair(0.01, 0.02)
        points = fx_symmetry_study(gammas=(-0.5, 0.0, 1.0), rho=0.3, sigma_z=0.1, T=4.0,
                                   n_paths=20_001, n_steps=30, seed=3, h=h, rates=rates)
        cfg = SimConfig(20_001, 30, 4.0, 3)
        for pt in points:
            fx = QuantoFxParams(z0=SWEEP_Z0, sigma_z=0.1, gamma_z=pt.gamma, rho=0.3)
            assert pt.report == verify_fx_symmetry(h, fx, rates, 4.0, cfg)
            assert pt.martingale == verify_rn_martingale(h, fx, rates, 4.0, cfg)
            if pt.gamma == 0.0:
                assert pt.martingale_biased is None
            else:
                assert pt.martingale_biased == verify_rn_martingale(
                    h, fx, rates, 4.0, cfg, drop_compensator=True)

    @pytest.mark.parametrize("h", [SWEEP_HAZARD_LOW, SWEEP_HAZARD_HIGH])
    def test_mc_deviation_equals_one_run_per_tilt(self, h):
        # the liquid estimate and one contractual run per (gamma, rho), each alone
        keys = [(0.25, -0.9), (-0.5, 0.9), (0.5, 0.9), (0.0, 0.0), (-0.99, 0.0)]
        got = _mc_deviation_pct(h, keys, 4.0, seed=2)
        cfg = SimConfig(20_000, 200, 4.0, 2)
        p = survival_probability_mc(h, 4.0, cfg).mean
        for gamma, rho in keys:
            fx = QuantoFxParams(z0=SWEEP_Z0, sigma_z=SWEEP_SIGMA_Z, gamma_z=gamma, rho=rho)
            leg = _Leg.of(h, fx, RatePair(0.0, 0.0), "contractual")
            (int_lam,) = _TerminalKernel(h, [leg]).run(cfg, want_fx=False)
            p_hat = float(np.mean(np.exp(-leg.intensity_scale * int_lam[0])))
            ratio = (1.0 - p_hat) / (1.0 - p)
            assert got[(gamma, rho)] == 100.0 * deviation_from_ratio(gamma, ratio)
