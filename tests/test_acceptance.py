"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 4 uses the reference deviation table in
`quantocds.validation` (REFERENCE_DEVIATIONS_PCT), an externally tabulated
(gamma, rho, tenor) grid of the survival-ratio deviation that came with the
library; its source cannot be checked until the paper's text is in the
repository.  Parts of it contradict the model exactly: its gamma = rho = 0
cells are 0.47 / 1.65 / -1.26 % at 1 / 4 / 10 years, where p_hat and p are
the same expectation and the model gives exactly 0, and its 10-year rows
rise with rho, where the drift tilt makes the model's deviation fall.  Only
the two 1-year rho = 0 cells are asserted against it, and the gamma = 0 one
passes only because 0.47 < 0.5.  The 10-year magnitudes are checked against
the Monte Carlo kernel, computed when the test runs, together with those two
exact properties.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from quantocds.calibration import CalibrationConfig, MarketSnapshot, _SpreadModel, backtest
from quantocds.cds import CdsContract, quanto_par_spread
from quantocds.model import HazardParams, QuantoFxParams, RatePair
from quantocds.pde import SolverConfig, quanto_survival_curve
from quantocds.validation import (
    SWEEP_GAMMAS,
    SWEEP_HAZARD_LOW,
    SWEEP_RHOS,
    anchor_checks,
    bracketing_checks,
    bracketing_study,
    deviation_sweep,
    fx_symmetry_study,
    long_tenor_checks,
    symmetry_checks,
)

RATES0 = RatePair(0.0, 0.0)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _assert_checks(label: str, checks, count: int) -> None:
    """Every (name, ok, detail) check passes, and there are ``count`` of them."""
    failures = [name for name, ok, detail in checks if not _report(f"{label} {name}", ok, detail)]
    assert len(checks) == count
    assert not failures, f"{len(failures)}/{len(checks)} checks failed"


class TestCriterion1McPdeBracketing:
    def test_pde_inside_mc_confidence_interval(self):
        points = bracketing_study(
            step_counts=(50, 100, 200, 300, 500),
            n_paths=100_000,
            fixed_steps=500,
            seed=20120507,
            n_y=201,
        )
        required, info = bracketing_checks(points)
        for name, inside, detail in info:
            print(f"[info] {name}: inside={inside} {detail}")
        # one check per distinct (steps, paths) point from 300 steps on
        assert [name for name, _, _ in required] == [
            f"bracketing steps={n} paths={paths}"
            for n, paths in ((300, 100_000), (500, 100_000), (500, 1_000_000))]
        _assert_checks("criterion 1", required, 3)


class TestCriterion2DeterministicClosedForm:
    def test_pipeline_recovers_flat_hazard_survival(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=0.0)
        curve_hat, curve_p = quanto_survival_curve(
            h, fx, RATES0, [5.0], SolverConfig(n_x=81, n_y=81, n_t=200)
        )
        exact = math.exp(-math.exp(-4.089) * 5.0)
        ok = abs(curve_p.probs[0] - exact) < 1e-3 and abs(curve_hat.probs[0] - exact) < 1e-3
        ok &= abs(curve_p.probs[0] - 0.91968) < 1e-3
        assert _report(
            "criterion 2 deterministic hazard",
            ok,
            f"p={curve_p.probs[0]:.6f} p_hat={curve_hat.probs[0]:.6f} exact={exact:.6f}",
        )


class TestCriterion3SpreadRescaling:
    GAMMA = -0.2045

    def test_one_month_ratio(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=self.GAMMA, rho=0.0)
        res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=1.0 / 12.0),
                                SolverConfig(n_x=81, n_y=81, n_t=40))
        ratio = res.contractual.par_spread / res.liquid.par_spread
        ok = abs(ratio / (1.0 + self.GAMMA) - 1.0) < 0.005
        assert _report("criterion 3 one-month spread ratio", ok,
                       f"ratio={ratio:.6f} target={1 + self.GAMMA:.4f}")

    def test_abstract_quote_anchor(self):
        # flat hazard chosen so the liquid 1Y par spread is exactly 440 bp
        def one_year_spread(lam):
            times = np.arange(0.25, 1.0 + 1e-9, 0.25)
            annuity = float(np.sum(0.25 * np.exp(-lam * times)))
            return 0.6 * (1.0 - math.exp(-lam)) / annuity

        lam_440 = brentq(lambda l: one_year_spread(l) - 0.0440, 1e-4, 0.5, xtol=1e-14)
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=math.log(lam_440))
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=self.GAMMA, rho=0.0)
        res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=1.0),
                                SolverConfig(n_x=81, n_y=81, n_t=60))
        usd_bp = res.liquid.par_spread * 1e4
        eur_bp = res.contractual.par_spread * 1e4
        ok = abs(usd_bp - 440.0) < 0.5 and abs(eur_bp - 350.0) < 2.0
        assert _report("criterion 3 quote anchor", ok,
                       f"USD={usd_bp:.2f} bp -> EUR={eur_bp:.2f} bp (target 350 +- 2)")


class TestCriterion4DeviationTable:
    @classmethod
    def cells(cls):
        if not hasattr(cls, "_cells"):
            cls._cells = deviation_sweep(h=SWEEP_HAZARD_LOW)
        return cls._cells

    def test_short_tenor_anchor_cells(self):
        _assert_checks("criterion 4", anchor_checks(self.cells()), 2)

    def test_long_tenor_magnitudes(self):
        # Each 10-year cell of the one-factor reduction must lie within 1 pp
        # of the contractual-measure Monte Carlo kernel (own drift tilt and
        # intensity scale, exact OU steps), and the exact zero at
        # gamma = rho = 0 and the strict fall in rho must hold.
        checks = long_tenor_checks(self.cells(), SWEEP_HAZARD_LOW)
        n_cells = sum(1 for c in self.cells() if c.tenor == 10.0)
        assert n_cells == len(SWEEP_GAMMAS) * len(SWEEP_RHOS)
        # one Monte Carlo check per cell, one exact zero, one rho row per gamma
        _assert_checks("criterion 4", checks, n_cells + 1 + len(SWEEP_GAMMAS))


class TestCriterion5FxSymmetry:
    def test_dual_construction_martingale_and_control(self):
        points = fx_symmetry_study(
            gammas=(-0.5, -0.2, 0.0, 1.0), rho=0.3, sigma_z=0.1,
            T=5.0, n_paths=200_000, n_steps=250, seed=17,
        )
        # per gamma a dual and a martingale check, and a control where gamma != 0
        _assert_checks("criterion 5", symmetry_checks(points), 11)


class TestCriterion6SensitivityMagnitudes:
    CFG = SolverConfig(n_x=81, n_y=161, n_t=200)

    def rho_impact(self, sigma_y: float) -> float:
        h = HazardParams(a=1e-4, b=204.0, sigma_y=sigma_y, y0=-4.089)
        spreads = []
        for rho in (-1.0, 1.0):
            fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=rho)
            res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=5.0),
                                    self.CFG, engine="reduced")
            spreads.append(res.contractual.par_spread)
        return abs(spreads[1] - spreads[0]) * 1e4

    def test_correlation_impact_modest_at_low_hazard_vol(self):
        impact = self.rho_impact(0.2)
        assert _report("criterion 6 rho impact at sigma_y=0.2", impact <= 15.0,
                       f"{impact:.2f} bp (<= 15)")

    def test_correlation_impact_grows_with_hazard_vol(self):
        impact = self.rho_impact(0.6)
        assert _report("criterion 6 rho impact at sigma_y=0.6", impact >= 20.0,
                       f"{impact:.2f} bp (>= 20)")

    def test_total_devaluation_kills_contractual_spread(self):
        h = HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.0)
        res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=5.0),
                                self.CFG, engine="reduced")
        bp = res.contractual.par_spread * 1e4
        assert _report("criterion 6 total devaluation", bp < 1.0,
                       f"contractual 5Y spread = {bp:.4f} bp (< 1)")


class TestCriterion7CalibrationRoundTrip:
    def test_twenty_synthetic_snapshots(self):
        cfg = CalibrationConfig()
        gammas = (-0.4, -0.3, -0.2, -0.1, 0.0)
        rhos = (-0.6, -0.2, 0.2, 0.6)
        sigma_y_true = 0.5
        snaps, truth = [], []
        probe = MarketSnapshot("probe", 0.01, 0.01, 0.01, 0.01, 0.1, sigma_y_true, 0.0)
        model = _SpreadModel(probe, cfg)
        i = 0
        for g in gammas:
            for rho in rhos:
                b_true = -120.0 - 5.0 * i
                y0_true = -4.5 + 0.02 * i
                usd5, usd10 = model.spreads(b_true, y0_true, sigma_y_true)
                eur5, eur10 = model.spreads(b_true, y0_true, sigma_y_true, rho, g)
                snaps.append(MarketSnapshot(f"d{i:02d}", usd5, usd10, eur5, eur10,
                                            0.1, sigma_y_true, 0.0))
                truth.append((g, rho))
                i += 1
        rows = backtest(snaps, cfg)

        ok_all = True
        gamma_errs, rho_errs, residuals = [], [], []
        for row, (g_true, rho_true) in zip(rows, truth):
            assert row.result is not None, row.error
            gamma_errs.append(abs(row.result.gamma - g_true))
            rho_errs.append(abs(row.result.rho - rho_true))
            residuals.append(row.result.max_residual_bp())
        ok_all &= _report("criterion 7 gamma recovery", max(gamma_errs) < 0.01,
                          f"max |gamma error| = {max(gamma_errs):.4f} (< 0.01)")
        ok_all &= _report("criterion 7 repricing residuals", max(residuals) < 0.5,
                          f"max residual = {max(residuals):.4f} bp (< 0.5)")
        ok_all &= _report("criterion 7 rho recovery", max(rho_errs) < 0.1,
                          f"max |rho error| = {max(rho_errs):.4f} (< 0.1)")

        basis = np.array([row.rel_basis_1y for row in rows])
        fitted = np.array([row.result.gamma for row in rows])
        slope, intercept = np.polyfit(basis, fitted, 1)
        ok_all &= _report("criterion 7 one-year diagnostic slope",
                          abs(slope - 1.0) < 0.05 and abs(intercept) < 0.01,
                          f"slope={slope:.4f} intercept={intercept:.5f}")
        assert ok_all


class TestCriterion8Determinism:
    def _run(self, out_dir: Path, extra: list[str]) -> None:
        cmd = [sys.executable, "-m", "quantocds.cli", *extra, "--out-dir", str(out_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode in (0, 1), proc.stderr

    @pytest.mark.parametrize("label,extra", [
        ("sweep", ["sweep", "--axis", "rho=-0.5:0.5:3", "--tenor", "1", "--seed", "7",
                   "--grid-x", "41", "--grid-y", "61", "--grid-t", "60"]),
        ("validate", ["validate", "--study", "symmetry", "--mc-paths", "20000",
                      "--seed", "7"]),
    ])
    def test_repeated_runs_byte_identical(self, tmp_path, label, extra):
        a, b = tmp_path / "a", tmp_path / "b"
        self._run(a, extra)
        self._run(b, extra)
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        same = all((a / n).read_bytes() == (b / n).read_bytes() for n in files_a)
        assert _report(f"criterion 8 determinism ({label})", same,
                       f"{len(files_a)} file(s) byte-identical")
