import numpy as np
import pytest

from quantocds.mc import (
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
    _mc_deviation_pct,
    deviation_from_curves,
    deviation_sweep,
    fx_symmetry_study,
    reference_deviation_pct,
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
            _, int_lam, _ = _TerminalKernel(h, [leg]).run(cfg, want_fx=False)
            p_hat = float(np.mean(np.exp(-leg.intensity_scale * int_lam[0])))
            assert got[(gamma, rho)] == 100.0 * deviation_from_curves(gamma, p, p_hat)
