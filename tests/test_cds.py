import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantocds.cds import (
    CdsContract,
    ParSpreadResult,
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [-1e300, -1e3])
    def test_overflowing_discount_is_named(self, r):
        # e^(-r t) overflowed in numpy's exp, and the legs came out inf and nan
        named = re.escape(f"the discount e^(-r t) overflows at r = {r:g}, t = 5 years")
        for price in (protection_leg_pv, par_spread):
            with pytest.raises(ValueError, match=named):
                price(flat_curve(0.02), r, CdsContract(tenor=5.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("engine", ["adi", "reduced"])
    @pytest.mark.parametrize("rates", [RatePair(-1e300, -1e300), RatePair(0.0, -1e300)],
                             ids=["both rates", "contractual rate"])
    def test_overflowing_discount_is_named_on_both_engines(self, engine, rates):
        h = HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.2, rho=0.3)
        with pytest.raises(ValueError, match=r"overflows at r = -1e\+300, t = 5 years"):
            quanto_par_spread(h, fx, rates, CdsContract(tenor=5.0), SolverConfig(n_y=11, n_t=20),
                              engine=engine)


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


def two_call_par_spread(curve: SurvivalCurve, r: float, contract: CdsContract) -> ParSpreadResult:
    """``par_spread`` as two leg calls: the annuity and the protection leg each
    check the curve's coverage and evaluate it on their own nodes.  The
    reference that the one-pass ``par_spread`` equals."""
    times = contract.payment_times()
    T = times[-1]
    if curve.horizon < T * (1 - 1e-12):
        raise ValueError(f"survival curve ends at {curve.horizon:g}y, contract needs {T:g}y")
    annuity = float(np.sum(contract.accruals() * np.exp(-r * times) * curve(times)))
    if annuity <= 0.0:
        raise ValueError("risky annuity is not positive; cannot quote a par spread")
    ts = np.linspace(0.0, T, max(1, int(math.ceil(T / (1.0 / 52.0)))) + 1)
    df_mid = np.exp(-r * 0.5 * (ts[:-1] + ts[1:]))
    p = curve(ts)
    protection = contract.notional * contract.lgd * float(np.sum(df_mid * (p[:-1] - p[1:])))
    return ParSpreadResult(protection / (contract.notional * annuity), annuity, protection)


@st.composite
def log_linear_curves(draw) -> SurvivalCurve:
    """A survival curve with a piecewise-flat hazard between 1 to 12 knots in
    (0, 12] years; it may end before a contract's last payment."""
    knots = sorted(draw(st.lists(st.floats(0.01, 12.0), min_size=1, max_size=12, unique=True)))
    hazards = draw(st.lists(st.floats(0.0, 2.0), min_size=len(knots), max_size=len(knots)))
    steps = np.diff(knots, prepend=0.0)
    return SurvivalCurve(knots, np.exp(-np.cumsum(np.array(hazards) * steps)))


# whole quarters and a stub of 1 or 2 months, or whole quarters alone
stub_tenors = st.builds(lambda q, m: q / 4.0 + m / 12.0, st.integers(0, 39),
                        st.integers(0, 2)).filter(lambda t: t > 0.0)
nonzero_rates = st.floats(-0.05, 0.15).filter(lambda r: r != 0.0)
notionals = st.one_of(st.floats(-1e7, -1e-3), st.floats(1e-3, 1e7)).filter(lambda n: n != 1.0)


class TestOnePassParSpread:
    """``par_spread`` checks coverage once and evaluates the curve once, on the
    payment dates and the protection nodes together; the curve is evaluated
    node by node, so it equals the two-call formula exactly."""

    @settings(max_examples=200, deadline=None)
    @given(log_linear_curves(), stub_tenors, nonzero_rates, notionals, st.floats(0.0, 0.9))
    @example(SurvivalCurve.from_flat_hazard(0.02, [1.0, 2.0]), 5.0 + 1.0 / 12.0, 0.03, 2.5, 0.4)
    def test_equals_the_two_call_formula(self, curve, tenor, r, notional, recovery):
        contract = CdsContract(tenor=tenor, recovery=recovery, notional=notional)
        try:
            expected = two_call_par_spread(curve, r, contract)
        except ValueError as exc:
            # the coverage and annuity errors keep their text
            with pytest.raises(ValueError) as got:
                par_spread(curve, r, contract)
            assert str(got.value) == str(exc)
            return
        assert par_spread(curve, r, contract) == expected

    @settings(max_examples=20, deadline=None)
    @given(stub_tenors, nonzero_rates, nonzero_rates, notionals, st.floats(-0.9, 0.5),
           st.floats(-0.9, 0.9), st.floats(0.1, 0.8), st.sampled_from(["adi", "reduced"]))
    def test_quanto_par_spread_equals_the_two_call_formula(self, tenor, r, r_hat, notional,
                                                            gamma, rho, sigma_y, engine):
        h = HazardParams(a=1e-4, b=-210.45, sigma_y=sigma_y, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=rho)
        rates = RatePair(r, r_hat)
        contract = CdsContract(tenor=tenor, notional=notional)
        res = quanto_par_spread(h, fx, rates, contract, SolverConfig(n_y=21, n_t=40),
                                engine=engine)
        assert res.liquid == two_call_par_spread(res.curve_liquid, r, contract)
        assert res.contractual == two_call_par_spread(res.curve_contractual, r_hat, contract)

    def test_coverage_error_text(self):
        contract = CdsContract(tenor=5.0 + 1.0 / 12.0)
        with pytest.raises(ValueError) as got:
            par_spread(flat_curve(0.02, horizon=2.0), 0.01, contract)
        assert str(got.value) == "survival curve ends at 2y, contract needs 5.08333y"

    def test_notional_times_annuity_underflow_is_named(self):
        # a notional of 1e-300 on an annuity below 1e-24 underflowed the par
        # spread's denominator to 0 and divided by zero
        curve = SurvivalCurve([0.25, 0.5], [1e-30, 1e-31])
        with pytest.raises(ValueError, match="underflows to 0; cannot quote a par spread"):
            par_spread(curve, 0.0, CdsContract(tenor=0.5, notional=1e-300))


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
                                SolverConfig(n_y=101, n_t=120))
        assert abs(res.contractual.par_spread - res.liquid.par_spread) * 1e4 < 0.1

    def test_constant_hazard_spread_rescaling(self):
        gamma = -0.2045
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.0)
        res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=1.0),
                                SolverConfig(n_y=61, n_t=80))
        ratio = res.contractual.par_spread / res.liquid.par_spread
        assert ratio == pytest.approx(1.0 + gamma, rel=0.005)

    def test_ratio_tightens_as_tenor_shrinks(self):
        gamma = -0.2045
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.0)
        errs = []
        for tenor, n_t in ((1.0, 60), (1.0 / 12.0, 30)):
            res = quanto_par_spread(h, fx, RATES0, CdsContract(tenor=tenor),
                                    SolverConfig(n_y=61, n_t=n_t))
            errs.append(abs(res.contractual.par_spread / res.liquid.par_spread
                            - (1.0 + gamma)))
        assert errs[1] <= errs[0]
        assert errs[1] / abs(1.0 + gamma) < 0.005

    def test_total_devaluation_zeroes_contractual_spread(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.0)
        res = quanto_par_spread(self.H, fx, RATES0, CdsContract(tenor=5.0),
                                SolverConfig(n_y=101, n_t=120), engine="reduced")
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
                                SolverConfig(n_y=n_y, n_t=n_t), engine="reduced")
        assert res.contractual.protection_pv == 0.0

    def test_separate_discounting_per_currency(self):
        rates = RatePair(0.03, 0.0)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.0, gamma_z=0.0, rho=0.0)
        res = quanto_par_spread(self.H, fx, rates, CdsContract(tenor=5.0),
                                SolverConfig(n_y=101, n_t=120))
        # same survival either side, but the liquid annuity discounts at 3%
        assert res.liquid.premium_pv01 < res.contractual.premium_pv01
