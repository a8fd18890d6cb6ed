import math

import numpy as np
import pytest

from quantocds.cds import (
    CdsContract,
    par_spread,
    protection_leg_pv,
    quanto_par_spread,
)
from quantocds.curves import SurvivalCurve
from quantocds.model import HazardParams, QuantoFxParams, RatePair
from quantocds.pde import SolverConfig, quanto_survival_curve_1f, survival_curve_1f

RATES0 = RatePair(0.0, 0.0)


def flat_curve(lam: float, horizon: float = 12.0) -> SurvivalCurve:
    tenors = np.arange(0.25, horizon + 1e-9, 0.25)
    return SurvivalCurve.from_flat_hazard(lam, tenors)


def closed_form_legs(lam: float, lgd: float, r: float, tenor: float):
    """Independent flat-hazard oracle: exact annuity sum and protection
    integral LGD * lam/(lam+r) * (1 - exp(-(lam+r)T))."""
    times = np.arange(0.25, tenor + 1e-9, 0.25)
    annuity = float(np.sum(0.25 * np.exp(-(r + lam) * times)))
    if lam + r > 0:
        protection = lgd * lam / (lam + r) * (1.0 - math.exp(-(lam + r) * tenor))
    else:
        protection = 0.0
    return annuity, protection


class TestContract:
    def test_quarterly_schedule(self):
        c = CdsContract(tenor=1.0)
        assert np.allclose(c.payment_times(), [0.25, 0.5, 0.75, 1.0])
        assert np.allclose(c.accruals(), 0.25)

    def test_stub_schedule(self):
        c = CdsContract(tenor=1.0 / 12.0)
        assert np.allclose(c.payment_times(), [1.0 / 12.0])
        c2 = CdsContract(tenor=0.3)
        assert np.allclose(c2.payment_times(), [0.25, 0.3])
        assert np.allclose(c2.accruals(), [0.25, 0.05])

    def test_validation(self):
        with pytest.raises(ValueError):
            CdsContract(tenor=0.0)
        with pytest.raises(ValueError):
            CdsContract(tenor=5.0, recovery=1.0)

    def test_zero_notional_is_named(self):
        # zero would divide the par spread by zero; a negative notional flips
        # the sign of the protection leg and leaves the par spread unchanged
        with pytest.raises(ValueError, match="notional"):
            CdsContract(tenor=5.0, notional=0.0)
        neg, pos = (par_spread(flat_curve(0.03), 0.02, CdsContract(tenor=5.0, notional=n))
                    for n in (-2.0, 2.0))
        assert neg.protection_pv == -pos.protection_pv
        assert neg.par_spread == pos.par_spread


class TestPremiumLeg:
    """The premium leg's PV01, the risky annuity ``par_spread`` reports."""

    def test_riskless_unit_year(self):
        curve = SurvivalCurve([0.25, 0.5, 0.75, 1.0], [1.0] * 4)
        assert par_spread(curve, 0.0, CdsContract(tenor=1.0)).premium_pv01 == pytest.approx(1.0)

    def test_zero_spread(self):
        # a riskless name pays no protection, so its par spread is exactly 0
        curve = SurvivalCurve([0.25, 0.5, 0.75, 1.0], [1.0] * 4)
        res = par_spread(curve, 0.03, CdsContract(tenor=1.0))
        assert res.par_spread == 0.0
        assert res.premium_pv01 > 0.0

    def test_flat_hazard_matches_direct_sum(self):
        lam, r = 0.016746, 0.01
        annuity = par_spread(flat_curve(lam), r, CdsContract(tenor=5.0)).premium_pv01
        times = np.arange(0.25, 5.0 + 1e-9, 0.25)
        direct = float(np.sum(0.25 * np.exp(-r * times) * np.exp(-lam * times)))
        assert annuity == pytest.approx(direct, rel=1e-12)

    def test_curve_too_short(self):
        with pytest.raises(ValueError, match="survival curve ends at 2y, contract needs 5y"):
            par_spread(flat_curve(0.02, horizon=2.0), 0.0, CdsContract(tenor=5.0))


class TestProtectionLeg:
    def test_riskless_is_zero(self):
        curve = SurvivalCurve([1.0, 5.0], [1.0, 1.0])
        assert protection_leg_pv(curve, 0.05, CdsContract(tenor=5.0)) == pytest.approx(0.0)

    def test_flat_hazard_closed_form_at_zero_rate(self):
        # at r = 0 the discretized integral telescopes exactly
        lam = 0.016746
        pv = protection_leg_pv(flat_curve(lam), 0.0, CdsContract(tenor=5.0))
        assert pv == pytest.approx(0.6 * (1.0 - math.exp(-lam * 5.0)), rel=1e-12)

    def test_flat_hazard_with_rate_within_refinement_tolerance(self):
        lam, r = 0.03, 0.04
        pv = protection_leg_pv(flat_curve(lam), r, CdsContract(tenor=5.0))
        _, ref = closed_form_legs(lam, 0.6, r, 5.0)
        assert pv == pytest.approx(ref, abs=1e-6)

    def test_large_rate_kills_value(self):
        # value decays like lam/r as the discount rate grows
        c = CdsContract(tenor=5.0)
        pvs = [protection_leg_pv(flat_curve(0.05), r, c) for r in (0.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(pvs, pvs[1:]))
        assert pvs[-1] < 1e-4


class TestParSpread:
    def test_low_spread_anchor(self):
        lam = 0.016746
        res = par_spread(flat_curve(lam), 0.0, CdsContract(tenor=5.0))
        annuity, protection = closed_form_legs(lam, 0.6, 0.0, 5.0)
        assert res.premium_pv01 == pytest.approx(annuity, rel=1e-12)
        assert res.par_spread == pytest.approx(protection / annuity, rel=1e-9)
        # the ~100 bp regime
        assert abs(res.par_spread - 0.01005) < 2e-4

    def test_high_spread_anchor(self):
        lam = math.exp(-2.089)
        res = par_spread(flat_curve(lam), 0.0, CdsContract(tenor=5.0))
        annuity, protection = closed_form_legs(lam, 0.6, 0.0, 5.0)
        assert res.par_spread == pytest.approx(protection / annuity, rel=1e-9)
        assert abs(res.par_spread - 0.0740) < 2e-3

    def test_vanishing_hazard(self):
        res = par_spread(flat_curve(1e-9), 0.0, CdsContract(tenor=5.0))
        assert res.par_spread < 1e-9 * 0.6 * 1.01

    def test_triangle_consistency_short_tenor(self):
        lam = 0.02
        res = par_spread(flat_curve(lam), 0.0, CdsContract(tenor=1.0))
        assert abs(res.par_spread - lam * 0.6) / res.par_spread < 0.01

    def test_invariant_definition(self):
        res = par_spread(flat_curve(0.03), 0.02, CdsContract(tenor=5.0, notional=2.0))
        assert res.par_spread == pytest.approx(
            res.protection_pv / (2.0 * res.premium_pv01), rel=1e-12
        )

    def test_monotone_in_hazard_level(self):
        c = CdsContract(tenor=5.0)
        spreads = [par_spread(flat_curve(lam), 0.01, c).par_spread
                   for lam in (0.005, 0.01, 0.03, 0.08)]
        assert all(a < b for a, b in zip(spreads, spreads[1:]))

    def test_annuity_increasing_in_tenor(self):
        curve = flat_curve(0.03)
        rpvs = [par_spread(curve, 0.01, CdsContract(tenor=t)).premium_pv01
                for t in (1.0, 3.0, 5.0, 10.0)]
        assert all(a < b for a, b in zip(rpvs, rpvs[1:]))

    def test_zero_annuity_rejected(self):
        dead = SurvivalCurve([0.25, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError):
            par_spread(dead, 0.0, CdsContract(tenor=0.5))


class TestDeterministicSurvival:
    """The one-factor survival solve at a = sigma_y = 0, where the hazard
    stays at e^y0 and survival is exp(-e^y0 t)."""

    def test_zero_hazard(self):
        # total devaluation (gamma = -1) zeroes the contractual intensity
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(0.02))
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.3)
        assert np.all(quanto_survival_curve_1f(h, fx, [1.0, 5.0, 7.0]) == 1.0)

    def test_flat(self):
        # within the Crank-Nicolson time error (8e-8 here)
        lam = 0.016746
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(lam))
        tenors = np.array([1.0, 5.0, 7.0])
        p = survival_curve_1f(h, tenors)
        assert p == pytest.approx(np.exp(-lam * tenors), rel=1e-6)

    def test_validation(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(0.02))
        for tenors in ([], [0.0, 1.0], [-1.0], [1.0, math.inf]):
            with pytest.raises(ValueError, match="tenors must be positive and finite"):
                survival_curve_1f(h, tenors)


class TestQuantoParSpread:
    H = HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-4.089)

    def test_no_quanto_effect(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.0, gamma_z=0.0, rho=0.0)
        res = quanto_par_spread(self.H, fx, RATES0, CdsContract(tenor=5.0),
                                SolverConfig(n_x=41, n_y=101, n_t=120))
        assert abs(res.contractual.par_spread - res.liquid.par_spread) * 1e4 < 0.1

    def test_constant_hazard_spread_rescaling(self):
        gamma = -0.2045
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.0)
        res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=1.0),
                                SolverConfig(n_x=61, n_y=61, n_t=80))
        ratio = res.contractual.par_spread / res.liquid.par_spread
        assert ratio == pytest.approx(1.0 + gamma, rel=0.005)

    def test_ratio_tightens_as_tenor_shrinks(self):
        gamma = -0.2045
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.0)
        errs = []
        for tenor, n_t in ((1.0, 60), (1.0 / 12.0, 30)):
            res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=tenor),
                                    SolverConfig(n_x=61, n_y=61, n_t=n_t))
            errs.append(abs(res.contractual.par_spread / res.liquid.par_spread
                            - (1.0 + gamma)))
        assert errs[1] <= errs[0]
        assert errs[1] / abs(1.0 + gamma) < 0.005

    def test_total_devaluation_zeroes_contractual_spread(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.0)
        res = quanto_par_spread(self.H, fx, RATES0, CdsContract(tenor=5.0),
                                SolverConfig(n_x=41, n_y=101, n_t=120), engine="reduced")
        assert res.contractual.par_spread * 1e4 < 1.0
        assert res.liquid.par_spread * 1e4 > 50.0

    @pytest.mark.parametrize("n_y, n_t", [(21, 50), (41, 100), (101, 300)])
    def test_total_devaluation_is_exact_on_the_reduced_engine(self, n_y, n_t):
        # with no kill, w = 1 solves the discrete one-factor equation
        # exactly; a solve landing a few ulp below 1 priced protection at 1e-15
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.0)
        contract = CdsContract(tenor=5.0)
        p_hat = quanto_survival_curve_1f(self.H, fx, contract.payment_times(), n_y=n_y, n_t=n_t)
        assert np.all(p_hat == 1.0)
        res = quanto_par_spread(self.H, fx, RATES0, contract,
                                SolverConfig(n_x=41, n_y=n_y, n_t=n_t), engine="reduced")
        assert res.contractual.protection_pv == 0.0

    def test_separate_discounting_per_currency(self):
        rates = RatePair(0.03, 0.0)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.0, gamma_z=0.0, rho=0.0)
        res = quanto_par_spread(self.H, fx, rates, CdsContract(tenor=5.0),
                                SolverConfig(n_x=41, n_y=101, n_t=120))
        # same survival either side, but the liquid annuity discounts at 3%
        assert res.liquid.premium_pv01 < res.contractual.premium_pv01
