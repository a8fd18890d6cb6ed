import math

import pytest
from hypothesis import given, strategies as st

from quantocds.mc import SimConfig, _Leg, _TerminalKernel
from quantocds.model import (
    HazardParams,
    QuantoFxParams,
    RatePair,
    correlation_basis_gap,
    devaluation_estimate,
    fx_jump_inverse,
    no_arb_drift_z,
)

RATES0 = RatePair(0.0, 0.0)


class TestTypes:
    def test_hazard_params_validate(self):
        HazardParams(a=0.08, b=3.7, sigma_y=0.2, y0=-5.0)
        with pytest.raises(ValueError):
            HazardParams(a=-0.1, b=0.0, sigma_y=0.2, y0=-5.0)
        with pytest.raises(ValueError):
            HazardParams(a=0.1, b=0.0, sigma_y=-0.2, y0=-5.0)
        with pytest.raises(ValueError):
            HazardParams(a=0.1, b=math.inf, sigma_y=0.2, y0=-5.0)

    def test_fx_params_validate(self):
        QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.0)  # total devaluation ok
        with pytest.raises(ValueError):
            QuantoFxParams(z0=0.0, sigma_z=0.1, gamma_z=0.0, rho=0.0)
        with pytest.raises(ValueError):
            QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.5, rho=0.0)
        with pytest.raises(ValueError):
            QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=1.5)


class TestFxJumpInverse:
    def test_values(self):
        assert fx_jump_inverse(0.0) == 0.0
        assert fx_jump_inverse(1.0) == -0.5
        assert fx_jump_inverse(-0.5) == pytest.approx(1.0, rel=1e-15)

    def test_singularity(self):
        with pytest.raises(ValueError):
            fx_jump_inverse(-1.0)

    @given(st.floats(-0.999, 50.0))
    def test_involution(self, gamma):
        assert fx_jump_inverse(fx_jump_inverse(gamma)) == pytest.approx(
            gamma, rel=1e-12, abs=1e-12
        )


class TestNoArbDrifts:
    def test_drift_z(self):
        assert no_arb_drift_z(RATES0, 0.0, 0.02, 0) == 0.0
        assert no_arb_drift_z(RatePair(0.01, 0.02), -0.2, 0.05, 0) == pytest.approx(0.0)
        # post-default the compensator vanishes
        assert no_arb_drift_z(RatePair(0.01, 0.02), -0.2, 0.05, 1) == pytest.approx(-0.01)

    def test_drift_x(self):
        # X = 1/Z is simulated only by the contractual-measure MC kernel; with
        # no diffusion a path that survives grows at r_hat - r - gamma_x lam_hat
        for rates, gamma, lam, drift in (
            (RatePair(0.01, 0.03), 0.0, 0.07, 0.02),
            (RATES0, -0.2, 0.05, -0.01),  # gamma_x = 0.25, lam_hat = 0.04
        ):
            h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(lam))
            fx = QuantoFxParams(z0=0.8, sigma_z=0.0, gamma_z=gamma, rho=0.0)
            kern = _TerminalKernel(h, [_Leg.of(h, fx, rates, "contractual")])
            (alive,), (x,) = kern.run(SimConfig(n_paths=2_000, n_steps=20, horizon=2.0, seed=1))
            assert alive.any()
            assert x[alive] == pytest.approx(math.exp(drift * 2.0) / 0.8, rel=1e-12)

    def test_no_jump_reduces_to_rate_differential(self):
        assert no_arb_drift_z(RatePair(0.03, 0.01), 0.0, 0.5, 0) == pytest.approx(0.02)

    @given(st.floats(-0.99, 3.0), st.floats(1e-6, 0.5))
    def test_cross_measure_consistency(self, gamma, lam):
        # the contractual-measure kernel compensates the jump of X with
        # gamma_x * lam_hat, which must equal -gamma_z * lam
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.2, y0=math.log(lam))
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.0)
        product = _Leg.of(h, fx, RATES0, "contractual").compensator * lam
        assert product == pytest.approx(-gamma * lam, rel=1e-12, abs=1e-15)


class TestTriangle:
    @given(st.floats(1e-6, 1.0), st.floats(0, 0.99), st.floats(-0.99, 3.0))
    def test_devaluation_exact_for_flat_hazard(self, lam, recovery, gamma):
        # continuous-premium limit: relative basis of triangle spreads
        # S = lambda (1 - R) is gamma
        s_liquid = lam * (1.0 - recovery)
        s_contractual = (1.0 + gamma) * lam * (1.0 - recovery)
        assert devaluation_estimate(s_contractual, s_liquid) == pytest.approx(
            gamma, rel=1e-9, abs=1e-9
        )


class TestDevaluationEstimate:
    def test_abstract_quotes(self):
        assert devaluation_estimate(0.0350, 0.0440) == pytest.approx(-0.20455, abs=1e-5)

    def test_edges(self):
        assert devaluation_estimate(0.02, 0.02) == 0.0
        assert devaluation_estimate(0.0060, 0.0040) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            devaluation_estimate(0.01, 0.0)


class TestCorrelationBasisGap:
    def test_zero_correlation(self):
        assert correlation_basis_gap(0.5, 0.1, 0.0, 0.98, 7.5) == 0.0

    def test_magnitude_and_sign(self):
        up = correlation_basis_gap(0.5, 0.1, 0.4, 0.98, 7.5)
        dn = correlation_basis_gap(0.5, 0.1, -0.4, 0.98, 7.5)
        assert up == pytest.approx(0.1304, abs=1e-6)
        assert dn == -up

    def test_rejects_bad_annuities(self):
        with pytest.raises(ValueError):
            correlation_basis_gap(0.5, 0.1, 0.4, 7.5, 0.98)
