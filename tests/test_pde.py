import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
import scipy.linalg
import scipy.linalg.lapack
from scipy.integrate import quad
from scipy.linalg import LinAlgError

from quantocds import calibration, pde
from quantocds.cds import CdsContract, quanto_par_spread
from quantocds.mc import McEstimate, SimConfig, _quanto_bond_pass, survival_probability_mc
from quantocds.model import HazardParams, QuantoFxParams, RatePair
from quantocds.pde import (
    Grid2D,
    _ProfileStep,
    _Step,
    _apply,
    _factor,
    _march,
    _spectral_1f,
    _time_grid,
    _y_axis,
    _y_diags,
    PdeInstabilityError,
    SolverConfig,
    build_grid,
    quanto_survival_curve,
    quanto_survival_curve_1f,
    solve_foreign_measure_pde,
    solve_quanto_pde,
    survival_curve_1f,
)
from quantocds.validation import (
    SWEEP_GAMMAS,
    SWEEP_HAZARD_LOW,
    SWEEP_RHOS,
    SWEEP_TENORS,
    _sweep_fx,
)

RATES0 = RatePair(0.0, 0.0)
H_SWEEP = HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-4.089)
H_REVERTING = HazardParams(a=0.08, b=3.7, sigma_y=0.2, y0=-5.0)


class TestDeterministicHazard:
    def test_one_factor_matches_closed_form(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        p = survival_curve_1f(h, [5.0], n_y=101, n_t=100)[0]
        assert p == pytest.approx(math.exp(-math.exp(-4.089) * 5.0), abs=1e-6)

    def test_one_factor_follows_a_moving_deterministic_hazard(self):
        # at sigma_y = 0 every interior row has a cell Peclet number above 1, and
        # the y-operator upwinds: the curve is exp(-int e^y(t) dt) along the OU mean
        h = HazardParams(a=0.5, b=-3.5, sigma_y=0.0, y0=-4.6)
        tenors = [1.0, 2.0, 5.0]
        exact = [math.exp(-quad(lambda t: math.exp(h.b + (h.y0 - h.b) * math.exp(-h.a * t)),
                                0.0, T)[0]) for T in tenors]
        assert np.max(np.abs(survival_curve_1f(h, tenors, n_y=401) - exact)) <= 2e-5

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.2, 1.0), st.floats(-4.0, -3.0), st.floats(-5.0, -4.0),
           st.one_of(st.just(0.0), st.floats(0.0, 0.05)), st.integers(1, 5))
    def test_one_factor_matches_mc_at_small_hazard_vol(self, a, b, y0, sigma_y, T):
        # drift-dominated rows, where the central scheme's off-diagonals turned
        # negative (an error of 0.05 at sigma_y = 0 and 1.6e-3 at 0.005)
        h = HazardParams(a=a, b=b, sigma_y=sigma_y, y0=y0)
        mc = survival_probability_mc(h, T, SimConfig(20_000, 50 * T, T, seed=T))
        p = survival_curve_1f(h, [T])[0]
        assert abs(p - mc.mean) <= 4.0 * mc.std_error + 1e-4

    def test_two_factor_matches_closed_form(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=0.0)
        sol = solve_quanto_pde(h, fx, RATES0, 5.0, SolverConfig(n_y=81, n_t=150))
        assert sol.spot_value / 0.8 == pytest.approx(
            math.exp(-math.exp(-4.089) * 5.0), abs=1e-3
        )

    def test_flat_rates_discount_through(self):
        # gamma=0 and independent FX: U = z0 * exp(-(r_hat + lambda) T)
        h = HazardParams(a=0.0, b=0.0, sigma_y=1e-6, y0=-4.089)
        fx = QuantoFxParams(z0=1.3, sigma_z=0.2, gamma_z=0.0, rho=0.0)
        rates = RatePair(0.03, 0.015)
        sol = solve_quanto_pde(h, fx, rates, 2.0, SolverConfig(n_y=81, n_t=100))
        target = 1.3 * math.exp(-(0.015 + math.exp(-4.089)) * 2.0)
        assert sol.spot_value == pytest.approx(target, rel=5e-5)


class TestFactorization:
    def test_adi_matches_reduction(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.5, rho=0.5)
        rates = RatePair(0.01, 0.02)
        ref = quanto_survival_curve_1f(H_SWEEP, fx, [5.0], n_y=1201, n_t=1200)[0]
        sol = solve_quanto_pde(H_SWEEP, fx, rates, 5.0, SolverConfig(n_y=61, n_t=100))
        p_hat = sol.spot_value * math.exp(rates.r_hat * 5.0) / fx.z0
        assert p_hat == pytest.approx(ref, abs=5e-5)

    def test_z0_homogeneity(self):
        rates = RatePair(0.01, 0.02)
        cfgs = SolverConfig(n_y=61, n_t=80)
        fx1 = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.3, rho=0.4)
        fx2 = QuantoFxParams(z0=1.6, sigma_z=0.1, gamma_z=-0.3, rho=0.4)
        v1 = solve_quanto_pde(H_SWEEP, fx1, rates, 3.0, cfgs).spot_value
        v2 = solve_quanto_pde(H_SWEEP, fx2, rates, 3.0, cfgs).spot_value
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


class TestForeignMeasureRoute:
    def test_matches_quanto_solver_at_gamma_zero(self):
        # at every y-node of the spot FX level
        fx = QuantoFxParams(z0=0.8, sigma_z=0.15, gamma_z=0.0, rho=0.6)
        rates = RatePair(0.01, 0.02)
        cfg = SolverConfig(n_y=81, n_t=150)
        s1 = solve_quanto_pde(H_SWEEP, fx, rates, 5.0, cfg)
        s2 = solve_foreign_measure_pde(H_SWEEP, fx, rates, 5.0, cfg)
        assert abs(s1.spot_value - s2.spot_value) / s2.spot_value < 1e-4
        assert s1.values.shape == s2.values.shape == (81,)
        assert np.max(np.abs(s1.values - s2.values) / np.abs(s2.values)) < 1e-4

    @pytest.mark.parametrize("r_hat", [0.02, -1.0])
    def test_equals_quanto_solver_bit_for_bit_without_correlation(self, r_hat):
        # at gamma = rho = 0 both solves step one operator, killing at e^y, on a grid
        # where the ADI march too steps w (n_y^2 > 300 n_steps), and apply one
        # discount e^(-r_hat T); the route killed at e^y + r_hat, whose max |w|
        # reached 148 at r_hat = -1
        fx = QuantoFxParams(z0=0.8, sigma_z=0.15, gamma_z=0.0, rho=0.0)
        rates = RatePair(0.01, r_hat)
        cfg = SolverConfig(n_y=201, n_t=100)
        s1 = solve_quanto_pde(H_SWEEP, fx, rates, 5.0, cfg)
        s2 = solve_foreign_measure_pde(H_SWEEP, fx, rates, 5.0, cfg)
        assert s1.values.tobytes() == s2.values.tobytes()

    def test_rejects_devaluation(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.2, rho=0.0)
        with pytest.raises(ValueError):
            solve_foreign_measure_pde(H_SWEEP, fx, RATES0, 1.0)

    def test_reduces_to_survival_and_matches_mc(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.0, gamma_z=0.0, rho=0.0)
        sol = solve_foreign_measure_pde(H_REVERTING, fx, RATES0, 5.0,
                                        SolverConfig(n_y=161, n_t=200))
        p_pde = sol.spot_value / 0.8
        mc = survival_probability_mc(H_REVERTING, 5.0, SimConfig(100_000, 200, 5.0, seed=31))
        assert abs(mc.z_score(p_pde)) < 3.0

    def test_stable_and_monotone_across_rho(self):
        rates = RatePair(0.01, 0.02)
        cfg = SolverConfig(n_y=61, n_t=100)
        spots = []
        for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
            fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=rho)
            sol = solve_foreign_measure_pde(H_SWEEP, fx, rates, 5.0, cfg)
            assert np.isfinite(sol.values).all()
            spots.append(sol.spot_value)
        assert all(a > b for a, b in zip(spots, spots[1:]))

    def test_zero_correlation_drops_drift_shift(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.3, gamma_z=0.0, rho=0.0)
        p_shifted = quanto_survival_curve_1f(H_SWEEP, fx, [4.0], n_y=201, n_t=200)[0]
        p_plain = survival_curve_1f(H_SWEEP, [4.0], n_y=201, n_t=200)[0]
        assert p_shifted == p_plain


class TestSurvivalCurves:
    def test_short_tenor_limits(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.3, rho=0.2)
        curve_hat, curve_p = quanto_survival_curve(
            H_SWEEP, fx, [0.25, 1.0], SolverConfig(n_y=61, n_t=60)
        )
        assert curve_hat(0.0) == 1.0 and curve_p(0.0) == 1.0
        assert 0.9 < curve_hat.probs[0] <= 1.0

    def test_no_quanto_effect(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.0, gamma_z=0.0, rho=0.0)
        curve_hat, curve_p = quanto_survival_curve(
            H_SWEEP, fx, [1.0, 3.0, 5.0], SolverConfig(n_y=81, n_t=100)
        )
        assert np.max(np.abs(curve_hat.probs - curve_p.probs)) < 1e-4

    @pytest.mark.parametrize("sigma_y", [0.0, 0.1])
    def test_adi_p_hat_is_the_liquid_curve_without_quanto_effect(self, sigma_y):
        # at gamma = rho = 0 the ADI step is the liquid curve's one-factor step; where
        # that curve marches (2 n_y > n_t, or an upwinded row at sigma_y = 0) and the
        # ADI march too steps w (n_y^2 > 300 n_steps) the two march alike, and p_hat,
        # read without a round trip through z0, is p
        h = replace(H_SWEEP, sigma_y=sigma_y)
        tenors = CdsContract(tenor=3.0).payment_times()
        for z0 in (0.8, 1.3, 123.4):
            fx = QuantoFxParams(z0=z0, sigma_z=0.1, gamma_z=0.0, rho=0.0)
            hat, p = quanto_survival_curve(h, fx, tenors, SolverConfig(n_y=201, n_t=100))
            assert hat.probs.tobytes() == p.probs.tobytes()

    def test_small_tenor_default_ratio(self):
        gamma = -0.2045
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.0)
        curve_hat, curve_p = quanto_survival_curve(
            H_SWEEP, fx, [1.0 / 12.0], SolverConfig(n_y=101, n_t=40)
        )
        ratio = (1.0 - curve_hat.probs[0]) / (1.0 - curve_p.probs[0])
        assert ratio == pytest.approx(1.0 + gamma, rel=0.01)

    def test_engines_agree(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.4, rho=0.5)
        tenors = [1.0, 2.0, 5.0]
        cfg = SolverConfig(n_y=101, n_t=150)
        hat_adi, _ = quanto_survival_curve(H_SWEEP, fx, tenors, cfg, engine="adi")
        hat_red, _ = quanto_survival_curve(H_SWEEP, fx, tenors, cfg, engine="reduced")
        assert np.max(np.abs(hat_adi.probs - hat_red.probs)) < 2e-4

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_total_devaluation_on_the_adi_grid(self, rho):
        # at gamma = -1 the jump compensator cancels the kill in the x-drift,
        # so v = z exactly and p_hat = 1; the fitted x-differences are exact
        # on e^x, and the solve meets it at the CLI's default grid
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=rho)
        tenors = CdsContract(tenor=5.0).payment_times()
        sol = solve_quanto_pde(H_SWEEP, fx, RATES0, 5.0, SolverConfig(), snapshot_tenors=tenors)
        _, us = sol.spot_curve
        assert np.max(np.abs(us / fx.z0 - 1.0)) <= 1e-10

    @pytest.mark.parametrize("r, r_hat", [(0.0, 0.05), (0.05, 0.05), (0.03, 0.01)])
    def test_total_devaluation_on_the_adi_grid_at_nonzero_rates(self, r, r_hat):
        # the march discounts at r - r_hat and the solve applies e^(-r_hat t)
        # exactly, so v = z e^(-r_hat t) and p_hat = 1 hold at any rates
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.3)
        rates = RatePair(r, r_hat)
        tenors = CdsContract(tenor=5.0).payment_times()
        ts, us = solve_quanto_pde(H_SWEEP, fx, rates, 5.0, SolverConfig(n_t=100),
                                  snapshot_tenors=tenors).spot_curve
        assert np.max(np.abs(us * np.exp(r_hat * ts) / fx.z0 - 1.0)) <= 1e-10
        hat, _ = quanto_survival_curve(H_SWEEP, fx, tenors, SolverConfig(n_t=100))
        assert np.max(np.abs(hat.probs - 1.0)) <= 1e-10

    def test_rejects_bad_tenors(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=0.0)
        with pytest.raises(ValueError):
            quanto_survival_curve(H_SWEEP, fx, [], SolverConfig())
        with pytest.raises(ValueError):
            quanto_survival_curve(H_SWEEP, fx, [-1.0, 2.0], SolverConfig())

    @pytest.mark.parametrize("tenor", [1000.25, 1e308])
    def test_tenor_beyond_a_contract_is_named(self, tenor):
        # 1e308 overflowed the time grid's step count (an OverflowError from math.ceil)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.2, rho=0.3)
        named = re.escape(f"at most 1000 years, got {tenor:g}")
        with pytest.raises(ValueError, match=named):
            survival_curve_1f(H_SWEEP, [tenor], n_y=21, n_t=20)
        for engine in ("adi", "reduced"):
            with pytest.raises(ValueError, match=named):
                quanto_survival_curve(H_SWEEP, fx, [1.0, tenor],
                                      SolverConfig(n_y=21, n_t=20), engine=engine)

    def test_longest_tenor_prices(self):
        assert 0.0 < survival_curve_1f(H_SWEEP, [pde.MAX_TENOR], n_y=21, n_t=20)[0] < 1.0


def _observed_order(cfgs):
    """Empirical order and successive differences of the ADI spot value on three
    grids, each halving its neighbour's mesh."""
    fx = QuantoFxParams(z0=0.8, sigma_z=0.15, gamma_z=-0.3, rho=0.5)
    v = [solve_quanto_pde(H_REVERTING, fx, RatePair(0.01, 0.02), 2.0, c).spot_value for c in cfgs]
    d1, d2 = v[1] - v[0], v[2] - v[1]
    return math.log2(abs(d1 / d2)), abs(d1), abs(d2)


class TestSchemeQuality:
    def test_spatial_order(self):
        order, d1, d2 = _observed_order([SolverConfig(n_y=n, n_t=600) for n in (31, 61, 121)])
        assert order >= 1.8 and d2 <= d1

    def test_temporal_order(self):
        order, d1, d2 = _observed_order([SolverConfig(n_y=81, n_t=n) for n in (8, 16, 32)])
        assert order >= 1.8 and d2 <= d1

    def test_degenerate_diffusion_is_grid_invariant(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.0, gamma_z=0.0, rho=0.0)
        v1 = solve_quanto_pde(h, fx, RATES0, 5.0, SolverConfig(n_y=11, n_t=64)).spot_value
        v2 = solve_quanto_pde(h, fx, RATES0, 5.0, SolverConfig(n_y=41, n_t=64)).spot_value
        assert v1 == pytest.approx(v2, abs=1e-13)

    def test_positivity_on_validation_params(self):
        for gamma, rho in ((-0.99, -0.9), (0.5, 0.9), (0.0, 0.0)):
            fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=rho)
            sol = solve_quanto_pde(H_SWEEP, fx, RATES0, 10.0,
                                   SolverConfig(n_y=61, n_t=150))
            assert sol.values.min() >= -1e-8

    def test_instability_raises(self, monkeypatch):
        # fully explicit steps far beyond their stability limit
        monkeypatch.setattr(pde, "_THETA", 0.0)
        monkeypatch.setattr(pde, "_RANNACHER_STEPS", 0)
        h = HazardParams(a=0.0, b=0.0, sigma_y=1.0, y0=-4.0)
        fx = QuantoFxParams(z0=0.8, sigma_z=1.0, gamma_z=0.0, rho=0.0)
        cfg = SolverConfig(n_y=201, n_t=3)
        with pytest.raises(PdeInstabilityError, match="value blow-up"):
            solve_quanto_pde(h, fx, RATES0, 5.0, cfg)

    def test_dense_march_names_the_first_blown_stop(self, monkeypatch):
        # the dense march (the test above runs the vector one) names the first stop,
        # in march order, whose max |w| passes 50: explicit steps beyond their
        # stability limit grow w over several stops
        monkeypatch.setattr(pde, "_THETA", 0.0)
        monkeypatch.setattr(pde, "_RANNACHER_STEPS", 0)
        monkeypatch.setattr(pde, "_marches_vector", lambda step, n_steps: False)
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.5, y0=-4.0)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=0.5)
        cfg = SolverConfig(n_y=71, n_t=40)
        tenors = CdsContract(tenor=5.0).payment_times()
        grid, snap = build_grid(h, 5.0, cfg, tenors)
        step = _ProfileStep(grid, h, fx)
        w = np.ones(71)
        for node in range(39, -1, -1):
            w = step.apply(w, 0.0, 5.0 / 40)
            if (node in snap or node == 0) and not np.max(np.abs(w)) <= 50:
                break
        assert 0 < node < max(snap)  # neither the first stop nor the last
        named = (rf"value blow-up at time node {node}: max \|w\| = .* \(71 y-nodes, dt = "
                 r"1\.250e-01\) in the explicit mixed term at rho = 0\.5, sigma_z = 0\.1, "
                 r"sigma_y = 0\.5$")
        with pytest.raises(PdeInstabilityError, match=named):
            solve_quanto_pde(h, fx, RATES0, 5.0, cfg, snapshot_tenors=tenors)


    @pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
    def test_high_vol_adi_converges_to_the_reduction(self, gamma):
        # e^y ~ 1e11 at the top of the y-grid: the x-sweep divides by
        # 1 + theta dt gamma e^y, which no hazard level makes singular, and the
        # ADI engine's gap to the reduced engine falls at second order
        # (5.8, 1.3 and 0.3 bp at gamma = 0.5)
        h = HazardParams(a=1e-4, b=-210.45, sigma_y=2.0, y0=0.5)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.9)
        rates = RatePair(0.05, 0.05)
        gaps = []
        for n_y, n_t in ((101, 300), (201, 600), (401, 1200)):
            spreads = [quanto_par_spread(h, fx, rates, CdsContract(tenor=5.0),
                                         SolverConfig(n_y=n_y, n_t=n_t), engine=e)
                       .contractual.par_spread for e in ("adi", "reduced")]
            gaps.append(abs(spreads[0] - spreads[1]))
        assert gaps[1] < gaps[0] / 3.0 and gaps[2] < gaps[1] / 3.0

    def test_high_vol_devaluation_prices_on_adi(self):
        # with gamma < 0 the x-sweep carries -gamma e^y of the kill, which
        # keeps it regular where the plain split left a row singular
        h = HazardParams(a=1e-4, b=-210.45, sigma_y=2.0, y0=0.5)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.2, rho=0.9)
        curves = [quanto_survival_curve(h, fx, [1.0, 5.0], SolverConfig(), engine=e)[0]
                  for e in ("adi", "reduced")]
        assert np.max(np.abs(curves[0].probs - curves[1].probs)) < 1e-4


def _dominant_rows(rng, shape):
    """Diagonals of rows of strictly diagonally dominant tridiagonal systems."""
    lo = rng.uniform(-1.0, 1.0, shape)
    up = rng.uniform(-1.0, 1.0, shape)
    sign = rng.choice([-1.0, 1.0], shape)
    di = sign * (np.abs(lo) + np.abs(up) + rng.uniform(0.1, 2.0, shape))
    return lo, di, up


def _dense(lo, di, up):
    return np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)


def _banded(lo, di, up, theta_dt):
    """I - theta_dt * A in ``scipy.linalg.solve_banded``'s (1, 1) layout."""
    ab = np.zeros((3, di.size))
    ab[0, 1:] = -theta_dt * up[:-1]
    ab[1, :] = 1.0 - theta_dt * di
    ab[2, :-1] = -theta_dt * lo[1:]
    return ab


class TestTridiag:
    """The LAPACK layer solves I - theta_dt * A; with theta_dt = 1 and
    A = I - M it solves M x = rhs."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 2**32 - 1))
    def test_single_system_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        lo, di, up = _dominant_rows(rng, n)
        rhs = rng.standard_normal(n)
        x = pde.solve_banded(_factor(-lo, 1.0 - di, -up, 1.0, "test"), rhs)
        lo[0] = up[-1] = 0.0
        assert np.allclose(x, np.linalg.solve(_dense(lo, di, up), rhs), rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(3, 15), st.integers(0, 2**32 - 1))
    def test_row_blocks_have_zero_seams(self, k, n, seed):
        # shaped like the two-factor reference's x-sweep (``_Ops2D``): k rows of
        # n unknowns; the entries at lo[:, 0] and up[:, -1] would couple
        # neighbouring rows and must be ignored
        rng = np.random.default_rng(seed)
        lo, di, up = _dominant_rows(rng, (k, n))
        rhs = rng.standard_normal((k, n))
        x = pde.solve_banded(_factor(-lo, 1.0 - di, -up, 1.0, "test"), rhs)
        assert x.shape == (k, n)
        for j in range(k):
            m = _dense(lo[j], di[j], up[j])
            assert np.allclose(x[j], np.linalg.solve(m, rhs[j]), rtol=1e-10, atol=1e-12)

    def test_singular_system_names_sweep(self):
        zeros = np.zeros(4)
        with pytest.raises(PdeInstabilityError, match=r"probe: .*theta\*dt = 0.5"):
            _factor(zeros, np.full(4, 2.0), zeros, 0.5, "probe")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_shared_matrix_columns_match_banded_solve(self, n, m, seed):
        # shaped like the ADI y-sweep: one n-node matrix, m columns as
        # right-hand sides
        rng = np.random.default_rng(seed)
        lo, di, up = _dominant_rows(rng, n)
        rhs = rng.standard_normal((n, m))
        x = pde.solve_banded(_factor(-lo, 1.0 - di, -up, 1.0, "test"), rhs)
        assert x.shape == (n, m)
        ab = _banded(-lo, 1.0 - di, -up, 1.0)
        for j in range(m):
            assert np.array_equal(x[:, j], scipy.linalg.solve_banded((1, 1), ab, rhs[:, j]))

    def _step(self, gamma=-0.2, rho=0.3):
        h = HazardParams(a=0.08, b=-4.0, sigma_y=0.6, y0=-4.2)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=rho)
        grid, _ = build_grid(h, 5.0, SolverConfig())
        return _ProfileStep(grid, h, fx)

    def test_adi_y_sweep_bit_equal_to_banded_solve(self):
        # the dense step matrix solves its n_y columns as the trailing columns of one
        # dgttrs call: column j is the step applied to e_j, bit for bit, with and
        # without the x-sweep's division (gamma > 0) and the corrector (rho != 0)
        for gamma in (-0.2, 0.0, 0.4):
            for rho in (0.3, 0.0):
                step = self._step(gamma, rho)
                for theta in (1.0, 0.5):
                    matrix = step.apply(np.eye(101), theta, 5.0 / 300)
                    for j in (0, 1, 50, 99, 100):
                        column = step.apply(np.eye(101)[j], theta, 5.0 / 300)
                        assert matrix[:, j].tobytes() == column.tobytes()

    def test_step_on_a_stack_is_the_step_on_each_column(self):
        # a stack of profiles, one a column, steps as its columns do, bit for bit
        stack = np.random.default_rng(7).uniform(0.0, 1.0, (101, 3))
        for step in (self._step(), self._step(0.4, 0.0), _Step(self._step().y_diags, "1f")):
            for theta in (1.0, 0.5):
                stepped = step.apply(stack, theta, 5.0 / 300)
                for j in range(3):
                    column = step.apply(stack[:, j].copy(), theta, 5.0 / 300)
                    assert stepped[:, j].tobytes() == column.tobytes()

    def test_singular_y_sweep_names_sweep(self):
        step = self._step()
        zeros = np.zeros(101)
        step.y_diags = (zeros, np.full(101, 2.0), zeros)
        with pytest.raises(PdeInstabilityError, match=r"ADI y-sweep on 101 y-nodes: "):
            step.apply(np.ones(101), 1.0, 0.5)

    def test_every_sweep_solves_through_solve_banded(self, monkeypatch):
        # a wrapper set in place of the module's solve_banded sees every solve:
        # one a step of the one-factor march; in an ADI solve one a Rannacher
        # step (theta = 1 has no corrector), and two, the sweep and its
        # corrector, in building the Crank-Nicolson step matrix from the identity
        calls = []
        solve = pde.solve_banded
        monkeypatch.setattr(pde, "solve_banded", lambda lu, rhs: calls.append(1) or solve(lu, rhs))
        survival_curve_1f(H_SWEEP, [1.0], n_y=21, n_t=40)  # 2 n_y > n_t: the march
        assert len(calls) == 40
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.2, rho=0.3)
        solve_quanto_pde(H_SWEEP, fx, RATES0, 1.0, SolverConfig(n_y=21, n_t=40))
        assert len(calls) == 40 + pde._RANNACHER_STEPS + 2


    @settings(max_examples=40, deadline=None)
    @given(a=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)), y0=st.floats(-8.0, 0.5),
           sigma_y=st.floats(0.0, 1.5), drift_shift=st.floats(-0.3, 0.3),
           kill_scale=st.floats(0.0, 3.0), n_y=st.integers(3, 60), n_t=st.integers(1, 60))
    def test_one_factor_march_is_the_plain_recursion(self, a, y0, sigma_y, drift_shift,
                                                     kill_scale, n_y, n_t):
        # the one-factor step (``pde._Step`` without x-direction or mixed term) is
        # w <- L (w + (1 - theta) dt A w), L = (I - theta dt A)^-1, theta = 1 on the
        # Rannacher steps; ``pde._march`` applies it step by step within 1e-14, and
        # its powered side, which the ADI step takes, crosses the gaps between
        # stops by squared step matrices within 1e-12
        h = HazardParams(a=a, b=-4.0, sigma_y=sigma_y, y0=y0)
        ops, _, grid = _one_factor_args(h, n_y, n_t, drift_shift, kill_scale, T=2.0)
        dt, w, snapshots = grid["dt"], np.ones(n_y), {}
        for k in range(grid["n_t"]):
            theta = 1.0 if k < pde._RANNACHER_STEPS else pde._THETA
            lu = _factor(*ops, theta * dt, "reference")
            w = pde.solve_banded(lu, w + (1.0 - theta) * dt * _apply(*ops, w))
            if grid["n_t"] - 1 - k in grid["snap"]:
                snapshots[grid["snap"][grid["n_t"] - 1 - k]] = w[grid["iy0"]]
        for vector, bound in ((True, 1e-14), (False, 1e-12)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pde, "_marches_vector", lambda step, n_steps: vector)
                marched, marched_snapshots = _march(_Step(ops, "test"), **grid)
            assert np.max(np.abs(marched - w)) <= bound
            assert marched_snapshots.keys() == snapshots.keys()
            assert max(abs(marched_snapshots[t] - snapshots[t]) for t in snapshots) <= bound

    @pytest.mark.filterwarnings("error")
    def test_unstable_one_factor_march_names_the_blow_up(self, monkeypatch):
        # fully explicit steps far beyond their stability limit grow w past the
        # cap; numpy's overflow warnings do not come first
        monkeypatch.setattr(pde, "_THETA", 0.0)
        monkeypatch.setattr(pde, "_RANNACHER_STEPS", 0)
        h = HazardParams(a=0.0, b=0.0, sigma_y=1.0, y0=-4.0)
        named = (r"^value blow-up at time node \d+: max \|w\| = .* \(61 y-nodes, dt = 2\.500e-01\) "
                 r"in the one-factor solve on 61 nodes$")
        with pytest.raises(PdeInstabilityError, match=named):
            survival_curve_1f(h, [1.0, 5.0], n_y=61, n_t=20)


def _one_factor_args(h, n_y, n_t, drift_shift, kill_scale, T=5.0):
    """The operator, its kill and the grid keywords that ``survival_curve_1f``
    hands to ``_spectral_1f`` and ``_march`` for a quarterly curve."""
    tenors = tuple(CdsContract(tenor=T).payment_times())
    y, iy0 = _y_axis(h, T, n_y, 6.0, drift_shift)
    dt, n_total, snap = _time_grid(T, n_t, tenors)
    kill = kill_scale * np.exp(y)
    return _y_diags(h, y, drift_shift, kill), kill, dict(dt=dt, n_t=n_total, snap=snap, iy0=iy0)


def _marched(ops, grid):
    _, snapshots = _march(_Step(ops, "test"), **grid)
    return np.array([snapshots[t] for t in sorted(snapshots)])


class TestSpectralSolve:
    """The eigendecomposition path computes the march's discrete scheme;
    wherever its gate says no, ``survival_curve_1f`` marches."""

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.one_of(st.just(0.0), st.floats(1e-4, 0.3)),
        y0=st.floats(-12.0, 1.0),
        sigma_y=st.floats(0.05, 2.0),
        drift=st.floats(-0.3, 0.3),
        tilt=st.floats(-0.3, 0.3),
        kill_scale=st.floats(0.01, 6.0),
        n_y=st.integers(21, 100),
    )
    def test_matches_the_march_inside_the_gate(self, a, y0, sigma_y, drift, tilt, kill_scale,
                                               n_y):
        # the drift a (b - y0) and the tilt in units of sigma_y; the
        # calibration box has a = 1e-4, |a b| <= 0.3 and sigma_y = 0.5 in
        # the criterion-7 round trips
        h = HazardParams(a=a, b=y0 + drift * sigma_y / a if a > 0 else 0.0,
                         sigma_y=sigma_y, y0=y0)
        ops, kill, grid = _one_factor_args(h, n_y, 200, tilt * sigma_y, kill_scale)
        spectrum = _spectral_1f(ops, kill, **grid)
        assume(spectrum is not None)
        spectral = spectrum.snapshots
        got = np.array([spectral[t] for t in sorted(spectral)])
        assert np.max(np.abs(got - _marched(ops, grid))) <= 1e-12

    def test_calibration_curve_takes_the_spectral_path(self):
        h = HazardParams(a=1e-4, b=-150.0, sigma_y=0.5, y0=-4.3)
        ops, kill, grid = _one_factor_args(h, 161, 400, 0.015, 0.8, T=10.0)
        spectral = _spectral_1f(ops, kill, **grid).snapshots
        p = quanto_survival_curve_1f(
            h, QuantoFxParams(z0=1.0, sigma_z=0.1, gamma_z=-0.2, rho=0.3),
            sorted(spectral), n_y=161, n_t=400)
        assert np.array_equal(p, [spectral[t] for t in sorted(spectral)])
        assert np.max(np.abs(p - _marched(ops, grid))) <= 1e-12

    @pytest.mark.parametrize("n_y, n_t, T, h, drift_shift, kill_scale", [
        (101, 300, 5.0, HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-4.089), 0.0, 1.0),
        (161, 400, 10.0, HazardParams(a=1e-4, b=-150.0, sigma_y=0.5, y0=-4.3), 0.015, 0.8),
    ], ids=["CLI", "calibration"])
    def test_eigensolver_is_scipys(self, n_y, n_t, T, h, drift_shift, kill_scale):
        # one direct dstevd call gives scipy.linalg.eigh_tridiagonal's eigenpairs, bit for bit
        (lo, di, up), _, _ = _one_factor_args(h, n_y, n_t, drift_shift, kill_scale, T=T)
        e = np.sqrt(lo[1:] * up[:-1])
        for got, want in zip(pde.eigh_tridiagonal(di, e), scipy.linalg.eigh_tridiagonal(di, e)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["no kill", "no diffusion", "n_y > n_t / 2",
                                      "eigensolver fails", "dstevd does not converge",
                                      "stiff spectrum"])
    def test_outside_the_gate_marches(self, case, monkeypatch):
        h = HazardParams(a=1e-4, b=-150.0, sigma_y=0.5, y0=-4.3)
        n_y, kill_scale = 41, 1.0
        if case == "no kill":
            kill_scale = 0.0
        elif case == "no diffusion":
            h = HazardParams(a=1e-4, b=-150.0, sigma_y=0.0, y0=-4.3)
        elif case == "n_y > n_t / 2":
            n_y = 101
        elif case == "stiff spectrum":
            # max |diag| dt = 7.8e3: the spectral path was 5.3e-12 off the march
            h, n_y, kill_scale = HazardParams(a=0.0, b=0.0, sigma_y=1.625, y0=-9.25), 48, 1.75
        elif case == "dstevd does not converge":
            dstevd = scipy.linalg.lapack.dstevd
            monkeypatch.setattr(scipy.linalg.lapack, "dstevd",
                                lambda d, e: (*dstevd(d, e)[:2], 3))  # info > 0
        else:
            def fail(*args, **kwargs):
                raise LinAlgError("eigenvalues did not converge")
            monkeypatch.setattr(pde, "eigh_tridiagonal", fail)
        ops, kill, grid = _one_factor_args(h, n_y, 200, 0.0, kill_scale)
        assert _spectral_1f(ops, kill, **grid) is None
        p = survival_curve_1f(h, sorted(grid["snap"].values()), n_y=n_y, n_t=200,
                              kill_scale=kill_scale)
        marched = _marched(ops, grid)
        if case == "no kill":
            # w = 1 solves the unkilled equation exactly; the march's
            # round-off lies above it
            assert np.all(p == 1.0)
            assert np.all((marched >= 1.0) & (marched < 1.0 + 1e-14))
        else:
            assert np.array_equal(p, marched)

    def test_non_finite_spectrum_raises(self, monkeypatch):
        def nan_spectrum(d, e):
            return np.full(d.size, np.nan), np.eye(d.size)
        monkeypatch.setattr(pde, "eigh_tridiagonal", nan_spectrum)
        h = HazardParams(a=1e-4, b=-150.0, sigma_y=0.5, y0=-4.3)
        named = (r"^value blow-up at time node \d+: max \|w\| = nan \(41 y-nodes, dt = "
                 r"2\.500e-02\) in the one-factor solve on 41 nodes$")
        with pytest.raises(PdeInstabilityError, match=named):
            survival_curve_1f(h, [1.0, 5.0], n_y=41, n_t=200)


class TestNearbySolve:
    """``_nearby_1f`` prices a point within ``pde._REACH`` of the spectral
    solve it steps from, within 1e-12 of a fresh solve at every node, or
    hands it back (None) where the point lies beyond the reach or on another
    y-grid, or the move shifts the spot node or leaves the spectral gate,
    and the caller solves afresh."""

    TENORS = tuple(CdsContract(tenor=10.0).payment_times())  # the calibration's curve
    N_T = {41: 100, 161: 400}  # the calibration's 10-year grids, 2 n_y <= n_t
    BOX = dict(n_y=st.sampled_from([41, 161]), b=st.floats(-215.0, -120.0),
               y0=st.floats(-5.0, -3.5), sigma_y=st.floats(0.2, 0.6), tilt=st.floats(-0.05, 0.05),
               kill_scale=st.floats(0.5, 2.0))

    @classmethod
    def _args(cls, point, n_y):
        b, y0, sigma_y, drift_shift, kill_scale = point
        return ((HazardParams(a=1e-4, b=b, sigma_y=sigma_y, y0=y0), cls.TENORS),
                dict(n_y=n_y, n_t=cls.N_T[n_y], drift_shift=drift_shift, kill_scale=kill_scale))

    @classmethod
    def _step(cls, point, moved, n_y):
        """(spectral solve at ``point``, the nearby and the fresh survivals at
        ``moved`` and whether the spot node moved)."""
        args, kwargs = cls._args(point, n_y)
        _, base = survival_curve_1f(*args, **kwargs, with_spectrum=True)
        args, kwargs = cls._args(moved, n_y)
        h = args[0]
        iy0 = _y_axis(h, cls.TENORS[-1], n_y, 6.0, kwargs["drift_shift"])[1]
        nearby = None if base is None else pde._nearby_1f(base, *args, **kwargs)
        fresh, spectrum = survival_curve_1f(*args, **kwargs, with_spectrum=True)
        return base, nearby, (fresh, spectrum), base is not None and iy0 != base.iy0

    @classmethod
    def _check(cls, point, moved, n_y):
        base, nearby, (fresh, spectrum), node_moved = cls._step(point, moved, n_y)
        assume(base is not None)
        if node_moved or spectrum is None:
            assert nearby is None
        else:
            assert np.max(np.abs(nearby - fresh)) <= 1e-12

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(**BOX, which=st.integers(0, 4), inward=st.booleans())
    def test_forward_step_matches_a_fresh_solve(self, n_y, b, y0, sigma_y, tilt, kill_scale,
                                                which, inward):
        # b, y0, sigma_y, the drift tilt and the kill scale, each stepped as
        # `calibration._forward_jacobian` steps, or inward as at an upper bound
        point = (b, y0, sigma_y, tilt, kill_scale)
        step = calibration._FD_STEP * max(1.0, abs(point[which]))
        moved = list(point)
        moved[which] += -step if inward else step
        self._check(point, moved, n_y)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(**BOX, reach=st.tuples(*[st.floats(-1.0, 1.0)] * 5))
    # the update misses a fresh solve here by 3.3e-13; at a reach of 1e-7 it
    # missed by 1.3e-12, the drift tilt's move of 1e-7 taking most of it
    @example(n_y=161, b=-148.8, y0=-4.99, sigma_y=0.22, tilt=-0.035, kill_scale=0.82,
             reach=(1.0, 1.0, 1.0, 1.0, 1.0))
    def test_a_point_within_reach_matches_a_fresh_solve(self, n_y, b, y0, sigma_y, tilt,
                                                        kill_scale, reach):
        # all five coordinates moved at once, each by up to the reach either
        # way, as a fit's closing trust-region steps move them; a millionth
        # short of it, so that rounding leaves the whole move inside
        point = (b, y0, sigma_y, tilt, kill_scale)
        moved = [x + u * (1.0 - 1e-6) * pde._REACH * max(1.0, abs(x))
                 for x, u in zip(point, reach)]
        self._check(point, moved, n_y)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**BOX, which=st.integers(0, 4), sign=st.sampled_from([-1.0, 1.0]))
    def test_a_point_just_beyond_reach_is_handed_back(self, n_y, b, y0, sigma_y, tilt,
                                                      kill_scale, which, sign):
        # one coordinate moved by 1.01 reaches, the others not at all
        point = (b, y0, sigma_y, tilt, kill_scale)
        moved = list(point)
        moved[which] += sign * 1.01 * pde._REACH * max(1.0, abs(point[which]))
        base, nearby, _, _ = self._step(point, moved, n_y)
        assume(base is not None)
        assert nearby is None

    @pytest.mark.parametrize("grid", [dict(n_y=43), dict(width_sigmas=6.5)], ids=["n_y", "width"])
    def test_a_point_on_another_y_grid_is_handed_back(self, grid):
        args, kwargs = self._args((-150.0, -4.3, 0.5, 0.0, 1.0), 41)
        _, base = survival_curve_1f(*args, **kwargs, with_spectrum=True)
        assert base is not None
        # the same operator coordinates, on a grid that is itself spectral
        other = {**kwargs, **grid}
        assert survival_curve_1f(*args, **other, with_spectrum=True)[1] is not None
        assert pde._nearby_1f(base, *args, **other) is None
        assert pde._nearby_1f(base, *args, **kwargs) is not None

    @staticmethod
    def _edge(flips, lo: float, hi: float) -> float:
        """A point within a quarter of a forward step below where ``flips``,
        False at ``lo`` and True at ``hi``, turns True (bisection)."""
        assert not flips(lo) and flips(hi)
        while hi - lo > 0.25 * calibration._FD_STEP * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if flips(mid) else (mid, hi)
        return lo

    def test_a_step_that_moves_the_spot_node_is_handed_back(self):
        point = [-150.0, -4.3, 0.5, 0.0, 1.0]

        def iy0(b):
            h = HazardParams(a=1e-4, b=b, sigma_y=0.5, y0=-4.3)
            return _y_axis(h, self.TENORS[-1], 41, 6.0)[1]

        # the spot node moves as b falls: step down from just above the edge
        point[0] = -self._edge(lambda minus_b: iy0(-minus_b) != iy0(-150.0), 150.0, 3000.0)
        moved = [point[0] - calibration._FD_STEP * abs(point[0]), *point[1:]]
        base, nearby, (fresh, spectrum), node_moved = self._step(point, moved, 41)
        assert base is not None and spectrum is not None and node_moved
        assert nearby is None

    def test_a_step_that_leaves_the_gate_is_handed_back(self):
        point = [-150.0, -4.3, 0.5, 0.0, 1.0]

        def marches(tilt):
            args, kwargs = self._args((*point[:3], tilt, 1.0), 41)
            return survival_curve_1f(*args, **kwargs, with_spectrum=True)[1] is None

        point[3] = self._edge(marches, 0.0, 1.0)
        moved = [*point[:3], point[3] + calibration._FD_STEP, 1.0]
        base, nearby, (fresh, spectrum), node_moved = self._step(point, moved, 41)
        assert base is not None and spectrum is None and not node_moved
        assert nearby is None


class TestStopCheck:
    """Every one-factor curve, spectral or marched, passes the solves' one stop
    check: on small, stiff grids it is a survival curve, or its error names
    the solve."""

    @settings(max_examples=150, deadline=None)
    @given(
        grid=st.integers(3, 40).flatmap(
            lambda n_y: st.tuples(st.just(n_y), st.integers(2 * n_y, 8 * n_y))),
        a=st.floats(0.0, 1.0),
        b=st.floats(-10.0, 3.0),
        y0=st.floats(-8.0, 3.0),
        sigma_y=st.floats(0.01, 3.0),
        kill_scale=st.floats(0.0, 5.0),
        quarters=st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True),
    )
    # the spectral solve left [0, 1], -2.686e-03 at 5 years, and the march rose
    # from 3.018e-03 at 7 years to 3.981e-03 at 14, both unchecked
    @example(grid=(5, 10), a=3e-4, b=0.0, y0=2.0, sigma_y=0.03, kill_scale=1.0,
             quarters=[20, 40])
    @example(grid=(16, 10), a=1e-4, b=-210.45, y0=1.7, sigma_y=1.5, kill_scale=1.0,
             quarters=[28, 56])
    def test_curve_is_a_survival_or_names_its_solve(self, grid, a, b, y0, sigma_y,
                                                    kill_scale, quarters):
        n_y, n_t = grid
        h = HazardParams(a=a, b=b, sigma_y=sigma_y, y0=y0)
        # the hypothesis plugin warns on its own, so the filter is set around the solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                p = survival_curve_1f(h, [q / 4.0 for q in quarters], n_y=n_y, n_t=n_t,
                                      kill_scale=kill_scale)
            except PdeInstabilityError as exc:
                assert f"one-factor solve on {n_y} nodes" in str(exc)
                return
        assert np.all((p >= -1e-6) & (p <= 1.0 + 1e-6)) and np.all(np.diff(p) <= 1e-6)


def _x_nodes(h, fx, rates, T, n_x):
    """A log-FX grid of n_x nodes, odd, symmetric around ln z0 and wide enough
    for the FX diffusion, the rate gap and the jump compensator's drift, with
    the spot on the middle node; the fitted x-differences are exact on e^x on
    any such grid."""
    m_end, _ = pde.ou_mean_std(h, T)
    half = 6.0 * fx.sigma_z * math.sqrt(T) + abs(rates.r - rates.r_hat) * T
    half += min(abs(fx.gamma_z) * math.exp(min(max(h.y0, m_end), 709.0)) * T * 3.0, 2.0)
    return np.linspace(-max(half, 0.25), max(half, 0.25), n_x | 1) + math.log(fx.z0)


class _Ops2D:
    """The two-factor Craig-Sneyd operators on the log-FX nodes ``x`` and a
    grid's y-nodes, the reference that ``pde._ProfileStep`` is held to: the
    ADI scheme as it marched the whole (n_y, n_x) surface, x along the
    contiguous last axis.

    The x-direction rows vary with y (the jump compensator makes their
    convection y-dependent) and are solved as one block-diagonal system; the
    y-direction operator is shared by all x columns.  Every x-difference is
    fitted to be exact on e^x, in which the solution z * w(t, y) is linear.
    Boundary conditions: zero second derivative in x at both ends, where the
    rows drop the diffusion and convect at cx + hx, and zero first
    derivative in y.  The operators discount at r - r_hat.
    """

    def __init__(self, x, grid, h, fx, rates):
        y = grid.y_nodes
        dx, dy = x[1] - x[0], y[1] - y[0]
        ey = np.exp(y)
        cx = rates.r - rates.r_hat - 0.5 * fx.sigma_z**2 - fx.gamma_z * ey  # (ny,)
        hx = 0.5 * fx.sigma_z**2
        d2 = hx / (2.0 * math.sinh(0.5 * dx)) ** 2  # hx / dx^2 * (dx/2)^2 / sinh^2(dx/2)
        d1 = cx / (2.0 * math.sinh(dx))             # cx / (2 dx) * dx / sinh(dx)
        kill_x = -min(fx.gamma_z, 0.0) * ey
        r_fwd = rates.r - rates.r_hat

        lo1 = np.repeat((d2 - d1)[:, None], x.size, axis=1)
        di1 = np.repeat((-2 * d2 - r_fwd - kill_x)[:, None], x.size, axis=1)
        up1 = np.repeat((d2 + d1)[:, None], x.size, axis=1)
        left, right = (cx + hx) / math.expm1(dx), -(cx + hx) / math.expm1(-dx)
        lo1[:, 0] = up1[:, -1] = 0.0
        di1[:, 0] = -left - r_fwd - kill_x
        up1[:, 0] = left
        di1[:, -1] = right - r_fwd - kill_x
        lo1[:, -1] = -right
        self.diags = {1: (lo1, di1, up1), 2: _y_diags(h, y, 0.0, ey - kill_x)}
        self._x_stencil = tuple(d.ravel() for d in self.diags[1])
        self._y_stencil = tuple(np.repeat(d[:, None], x.size, axis=1) for d in self.diags[2])
        # rho sigma_z sigma_y times the fitted v_xy's weight on the four-point cross difference
        self.mixed_coef = fx.rho * fx.sigma_z * h.sigma_y * dx / math.sinh(dx) / (4.0 * dx * dy)
        # at the x-edges a central y-difference of the one-sided fitted x-differences
        edge = fx.rho * fx.sigma_z * h.sigma_y / (2.0 * dy)
        self._edge_coefs = (edge / math.expm1(dx), -edge / math.expm1(-dx))

    def f1(self, v):
        return _apply(*self._x_stencil, v.ravel()).reshape(v.shape)

    def f2(self, v):
        return _apply(*self._y_stencil, v)

    def mixed(self, v):
        out = np.zeros_like(v)  # the y-edge rows, where v_y = 0, stay zero
        if self.mixed_coef != 0.0:
            dxv = v[:, 2:] - v[:, :-2]
            out[1:-1, 1:-1] = self.mixed_coef * (dxv[2:] - dxv[:-2])
            left, right = self._edge_coefs
            out[1:-1, 0] = left * ((v[2:, 1] - v[2:, 0]) - (v[:-2, 1] - v[:-2, 0]))
            out[1:-1, -1] = right * ((v[2:, -1] - v[2:, -2]) - (v[:-2, -1] - v[:-2, -2]))
        return out

    def sweeps(self, rhs, theta_dt, f1v, f2v):
        """The implicit x-sweep, then the y-sweep, of one splitting stage."""
        y1 = pde.solve_banded(_factor(*self.diags[1], theta_dt, "x"), rhs - theta_dt * f1v)
        return pde.solve_banded(_factor(*self.diags[2], theta_dt, "y"), y1 - theta_dt * f2v)


def _p_hat_2d(h, fx, rates, T, cfg, tenors, n_x=11):
    """p_hat at the snapshot ``tenors`` (None for none), the final surface,
    shape (n_y, n_x), and its log-FX nodes, from the two-factor march of the
    surface v = e^x, one step at a time; it carries e^(r_hat tau) v."""
    grid, snap = build_grid(h, T, cfg, tenors)
    dt, n_t = grid.t_nodes[1] - grid.t_nodes[0], grid.t_nodes.size - 1
    x = _x_nodes(h, fx, rates, T, n_x)
    ix0 = x.size // 2
    ops = _Ops2D(x, grid, h, fx, rates)
    v = np.tile(np.exp(x), (grid.y_nodes.size, 1))
    snapshots = {}
    for step in range(n_t):
        theta = 1.0 if step < pde._RANNACHER_STEPS else pde._THETA
        f1v, f2v, f0v = ops.f1(v), ops.f2(v), ops.mixed(v)
        rhs0 = v + dt * (f0v + f1v + f2v)
        v = ops.sweeps(rhs0, theta * dt, f1v, f2v)
        if theta != 1.0 and ops.mixed_coef != 0.0:
            v = ops.sweeps(rhs0 + 0.5 * dt * (ops.mixed(v) - f0v), theta * dt, f1v, f2v)
        if n_t - 1 - step in snap:
            snapshots[snap[n_t - 1 - step]] = v[grid.iy0, ix0]
    return np.array([snapshots[t] for t in sorted(snapshots)]) / fx.z0, v, x


class TestAdiProperties:
    """Exact properties of the two-factor solve over a box of inputs, on a
    small grid; p_hat is read before ``SurvivalCurve`` clips it.  The hazard
    keeps calibration's mean reversion (``CalibrationConfig.a_fixed``), so
    its drift a (b - y) stays within a few percent a year."""

    GRID = SolverConfig(n_y=21, n_t=40)
    hazards = st.builds(HazardParams, a=st.just(1e-4), b=st.floats(-500.0, 100.0),
                        sigma_y=st.floats(0.1, 0.8), y0=st.floats(-5.5, -2.5))
    rates = st.builds(RatePair, st.floats(-0.02, 0.08), st.floats(-0.02, 0.08))
    tenors = st.integers(4, 40).map(lambda quarters: quarters / 4.0)
    gammas = st.floats(-0.95, 0.6)
    rhos = st.floats(-0.9, 0.9)
    fx_vols = st.floats(0.02, 0.3)

    def _p_hat(self, h, fx, rates, T):
        tenors = CdsContract(tenor=T).payment_times()
        ts, us = solve_quanto_pde(h, fx, rates, T, self.GRID, snapshot_tenors=tenors).spot_curve
        return us * np.exp(rates.r_hat * ts) / fx.z0

    @settings(max_examples=25, deadline=None)
    @given(hazards, rates, tenors, gammas, rhos, fx_vols)
    def test_survival_lies_in_the_unit_interval_and_falls(self, h, rates, T, gamma, rho, sigma_z):
        fx = QuantoFxParams(z0=0.8, sigma_z=sigma_z, gamma_z=gamma, rho=rho)
        p_hat = self._p_hat(h, fx, rates, T)
        p = survival_curve_1f(h, CdsContract(tenor=T).payment_times(), n_y=21, n_t=40)
        for probs in (p_hat, p):
            assert np.all((0.0 <= probs) & (probs <= 1.0))
            assert np.all(np.diff(probs) <= 0.0)

    @settings(max_examples=25, deadline=None)
    @given(hazards, rates, tenors, gammas, rhos, fx_vols, st.floats(0.1, 10.0))
    def test_p_hat_does_not_depend_on_spot_fx(self, h, rates, T, gamma, rho, sigma_z, z0):
        fx = QuantoFxParams(z0=0.8, sigma_z=sigma_z, gamma_z=gamma, rho=rho)
        moved = self._p_hat(h, replace(fx, z0=z0), rates, T)
        assert np.max(np.abs(self._p_hat(h, fx, rates, T) - moved)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(hazards, rates, tenors, gammas, gammas, rhos, fx_vols)
    def test_contractual_spread_rises_with_gamma(self, h, rates, T, g1, g2, rho, sigma_z):
        assume(abs(g1 - g2) >= 0.05)
        spreads = [quanto_par_spread(h, QuantoFxParams(0.8, sigma_z, g, rho), rates,
                                     CdsContract(tenor=T), self.GRID).contractual.par_spread
                   for g in (min(g1, g2), max(g1, g2))]
        assert spreads[0] < spreads[1]

    @settings(max_examples=25, deadline=None)
    @given(hazards, rates, tenors, rhos, fx_vols)
    def test_total_devaluation_keeps_p_hat_at_one(self, h, rates, T, rho, sigma_z):
        # at gamma = -1, v = z e^(-r_hat t) exactly, and every x-row, the
        # boundary rows included, is exact on e^x
        fx = QuantoFxParams(z0=0.8, sigma_z=sigma_z, gamma_z=-1.0, rho=rho)
        assert np.max(np.abs(self._p_hat(h, fx, rates, T) - 1.0)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(hazards, rates, tenors, st.one_of(st.just(-1.0), gammas), rhos, fx_vols)
    def test_p_hat_depends_on_the_rates_only_through_their_difference(
            self, h, rates, T, gamma, rho, sigma_z):
        # the contractual measure sees the rates only in the FX drift r - r_hat;
        # a march that discounted at r alone would differ by its own
        # discounting error (about 1e-6 here at gamma = -1, r_hat = 0.05)
        assume(rates.r != 0.0 and rates.r_hat != 0.0)
        fx = QuantoFxParams(z0=0.8, sigma_z=sigma_z, gamma_z=gamma, rho=rho)
        p_hat = self._p_hat(h, fx, rates, T)
        at_zero_r_hat = self._p_hat(h, fx, RatePair(rates.r - rates.r_hat, 0.0), T)
        assert np.max(np.abs(p_hat - at_zero_r_hat)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(hazards, rates, tenors, st.floats(-1.0, 1.0), rhos, fx_vols, st.integers(5, 11))
    def test_profile_march_is_the_two_factor_scheme(self, h, rates, T, gamma, rho, sigma_z,
                                                    n_x):
        # the march of the y-profile w is the Craig-Sneyd march of the surface e^x w
        # on a log-FX grid of n_x nodes
        assume(rates.r != rates.r_hat)
        fx = QuantoFxParams(z0=0.8, sigma_z=sigma_z, gamma_z=gamma, rho=rho)
        reference, _, _ = _p_hat_2d(h, fx, rates, T, self.GRID,
                                    CdsContract(tenor=T).payment_times(), n_x)
        assert np.max(np.abs(self._p_hat(h, fx, rates, T) - reference)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(hazards, rates, tenors, st.floats(-1.0, 1.0), rhos, fx_vols,
           st.sampled_from([1, 2, 3, 40]),
           st.one_of(st.none(), st.sampled_from([4, 5, 7]).flatmap(
               lambda m: st.lists(st.integers(1, m), min_size=1, unique=True)
               .map(lambda js: [j / m for j in js]))))
    def test_powered_march_is_the_step_by_step_march(self, h, rates, T, gamma, rho, sigma_z,
                                                     n_t, fractions):
        # one to three steps put snapshots inside and right after the Rannacher
        # steps; tenors at fractions j / m of the horizon leave ragged gaps between
        # the stops, and a solve without snapshot tenors stops only at its end.
        # p_hat is held to the two-factor march; the final profile to the profile
        # march one step at a time, since at the top y-nodes, where gamma e^y
        # dominates the x-drift, the two-factor march's x-sweep loses up to 1e-8
        fx = QuantoFxParams(z0=0.8, sigma_z=sigma_z, gamma_z=gamma, rho=rho)
        tenors = None if fractions is None else [T * f for f in fractions]
        cfg = SolverConfig(n_y=21, n_t=n_t)
        sol = solve_quanto_pde(h, fx, rates, T, cfg, snapshot_tenors=tenors)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "_marches_vector", lambda step, n_steps: True)
            stepped = solve_quanto_pde(h, fx, rates, T, cfg, snapshot_tenors=tenors)
        assert np.max(np.abs(sol.values - stepped.values) / fx.z0
                      * math.exp(rates.r_hat * T)) <= 1e-12
        if tenors is not None:
            p_hat, _, _ = _p_hat_2d(h, fx, rates, T, cfg, tenors)
            ts, us = sol.spot_curve
            assert ts.size == p_hat.size == len(tenors)
            assert np.max(np.abs(us * np.exp(rates.r_hat * ts) / fx.z0 - p_hat)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(hazards, tenors, gammas, st.one_of(st.just(0.0), rhos), fx_vols,
           st.sampled_from([5, 21, 101]))
    @example(H_SWEEP, 5.0, -0.3, 0.5, 0.1, 101)
    @example(H_SWEEP, 5.0, 0.4, -0.6, 0.1, 101)
    @example(H_SWEEP, 5.0, -0.3, 0.0, 0.1, 101)
    def test_step_matrix_is_the_step_on_each_unit_vector(self, h, T, gamma, rho, sigma_z, n_y):
        # the step applied to the identity holds apply(e_j) in
        # column j, bit for bit (signed zeros included), at gamma <= 0, where the
        # x-sweep's X is 1, at gamma > 0 and at rho = 0, where C is zero and there
        # is no corrector
        fx = QuantoFxParams(z0=0.8, sigma_z=sigma_z, gamma_z=gamma, rho=rho)
        grid, _ = build_grid(h, T, SolverConfig(n_y=n_y, n_t=40))
        step = _ProfileStep(grid, h, fx)
        for theta in (0.5, 1.0):
            matrix = step.apply(np.eye(n_y), theta, T / 40)
            for j, e_j in enumerate(np.eye(n_y)):
                assert matrix[:, j].tobytes() == step.apply(e_j, theta, T / 40).tobytes()


class TestAdiMarch:
    """The march on each side of ``pde._marches_vector``'s cost rule: below it
    the march squares the step matrix, above it it applies each step to the
    profile and holds no n_y x n_y matrix."""

    H = HazardParams(a=1e-4, b=-210.45, sigma_y=0.4, y0=-4.0)
    FX = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.3, rho=0.5)
    RATES = RatePair(0.03, 0.01)
    TENORS = CdsContract(tenor=1.0).payment_times()

    def _solve(self, monkeypatch, cfg, vector=None):
        """p_hat, the spot profile and how many matrices the march squared or built."""
        powers = []
        flush = pde._flush_tiny
        monkeypatch.setattr(pde, "_flush_tiny", lambda m: powers.append(1) or flush(m))
        if vector is not None:
            monkeypatch.setattr(pde, "_marches_vector", lambda step, n_steps: vector)
        sol = solve_quanto_pde(self.H, self.FX, self.RATES, 1.0, cfg, snapshot_tenors=self.TENORS)
        ts, us = sol.spot_curve
        p_hat = us * np.exp(self.RATES.r_hat * ts) / self.FX.z0
        profile = sol.values * math.exp(self.RATES.r_hat) / self.FX.z0
        monkeypatch.undo()
        return p_hat, profile, len(powers)

    def test_below_the_rule_the_powered_march_is_the_step_by_step_march(self, monkeypatch):
        cfg = SolverConfig(n_y=101, n_t=40)  # 101^2 <= 300 * 38
        p_hat, profile, powers = self._solve(monkeypatch, cfg)
        assert powers == 4  # M, M^2, M^4 and M^8 for the gaps of 8 and 10 steps
        reference, surface, _ = _p_hat_2d(self.H, self.FX, self.RATES, 1.0, cfg, self.TENORS, 5)
        assert np.max(np.abs(p_hat - reference)) <= 1e-12
        assert np.max(np.abs(profile - surface[:, 2] / self.FX.z0)) <= 1e-12

    @pytest.mark.parametrize("n_x", [3, 5, 11, 41])
    def test_two_factor_surface_is_e_x_times_the_profile(self, monkeypatch, n_x):
        # v = z w(t, y): at every log-FX node the reference's surface divided by
        # e^x is the solve's values / z0, rescaled by the discount
        cfg = SolverConfig(n_y=101, n_t=40)
        _, profile, _ = self._solve(monkeypatch, cfg)
        _, surface, x = _p_hat_2d(self.H, self.FX, self.RATES, 1.0, cfg, self.TENORS, n_x)
        assert surface.shape == (101, n_x)
        assert np.max(np.abs(surface / np.exp(x) - profile[:, None])) <= 1e-12

    def test_above_the_rule_the_vector_march_is_the_powered_march(self, monkeypatch):
        cfg = SolverConfig(n_y=121, n_t=40)  # 121^2 > 300 * 38
        p_hat, profile, powers = self._solve(monkeypatch, cfg)
        assert powers == 0
        dense_p_hat, dense_profile, dense_powers = self._solve(monkeypatch, cfg, vector=False)
        assert dense_powers == 4
        assert np.max(np.abs(p_hat - dense_p_hat)) <= 1e-12
        assert np.max(np.abs(profile - dense_profile)) <= 1e-12
        reference, _, _ = _p_hat_2d(self.H, self.FX, self.RATES, 1.0, cfg, self.TENORS, 5)
        assert np.max(np.abs(p_hat - reference)) <= 1e-12

    def test_large_y_grid_allocates_less_than_one_step_matrix(self):
        # a dense 4001-node step matrix would take 8 * 4001^2 bytes (128 MB) alone
        tracemalloc.start()
        try:
            solve_quanto_pde(self.H, self.FX, self.RATES, 1.0, SolverConfig(n_y=4001, n_t=40))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4001**2


class TestGrid:
    def test_spot_on_node(self):
        grid, _ = build_grid(H_SWEEP, 5.0, SolverConfig())
        assert grid.y_nodes[grid.iy0] == pytest.approx(-4.089, abs=1e-12)

    def test_snapshot_tenors_on_time_nodes(self):
        grid, snap = build_grid(H_SWEEP, 5.0, SolverConfig(n_t=60),
                                snapshot_tenors=[0.25, 1.0 / 12.0, 5.0])
        t = grid.t_nodes
        for k, tenor in snap.items():
            assert t[-1] - t[k] == pytest.approx(tenor, abs=1e-12)

    def test_ragged_tenor_rejected_not_exploded(self):
        # joined by an exact gcd these ask for 10,000,000 and 100,000 steps
        with pytest.raises(ValueError, match=r"0\.123457, 10\].*10000000 time steps"):
            survival_curve_1f(H_SWEEP, [0.123457, 10.0], n_y=41, n_t=300)

    def test_near_ragged_tenor_rejected(self):
        with pytest.raises(ValueError, match=r"0\.3333, 10\].*100000 time steps"):
            survival_curve_1f(H_SWEEP, [0.3333, 10.0], n_y=41, n_t=300)

    def test_tenors_on_one_node_rejected(self):
        # both rounded to the node of 0.01, which held the snapshot of one:
        # the other's lookup raised KeyError
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=0.0)
        for engine in ("reduced", "adi"):
            with pytest.raises(ValueError, match=r"tenors \[0\.01, 0\.010000000000000002\] put "
                                                 r"two on one node of the 1e-6 time grid"):
                quanto_survival_curve(H_SWEEP, fx, [0.010000000000000002, 0.01],
                                      SolverConfig(n_y=21, n_t=40), engine=engine)

    def test_tenor_rounding_to_zero_rejected(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=0.0, rho=0.0)
        for engine in ("reduced", "adi"):
            with pytest.raises(ValueError, match="tenor 1e-07 rounds to zero"):
                quanto_survival_curve(H_SWEEP, fx, [1e-7, 1.0],
                                      SolverConfig(n_y=21, n_t=40), engine=engine)

    def test_quarterly_monthly_and_stub_tenors_price(self):
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.2, rho=0.3)
        cfg = SolverConfig(n_y=41, n_t=60)
        for tenors in (CdsContract(tenor=5.0).payment_times(),
                       np.arange(1, 61) / 12.0,
                       CdsContract(tenor=5.1).payment_times()):
            for engine in ("reduced", "adi"):
                hat, p = quanto_survival_curve(H_SWEEP, fx, tenors, cfg, engine=engine)
                assert hat.tenors.size == len(tenors)
                assert np.all(np.diff(p.probs) <= 0.0) and 0.9 < p.probs[-1] < 1.0

    @pytest.mark.parametrize("tenors,named", [([0.5, 2.0], "2"), ([-1.0, 0.5, 3.0], "-1")])
    def test_snapshot_tenor_outside_the_horizon_is_named(self, tenors, named):
        # the error read "snapshot tenors must lie in (0, T]", naming neither the tenor nor T
        with pytest.raises(ValueError, match=rf"^snapshot tenors must lie in \(0, T\], "
                                             rf"got {named} with T = 1$"):
            solve_quanto_pde(H_SWEEP, QuantoFxParams(0.8, 0.1, 0.0, 0.0), RATES0, 1.0,
                             SolverConfig(n_y=11, n_t=20), snapshot_tenors=tenors)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [0, -1, math.nan, math.inf, 1e308, 1000.5])
    def test_horizon_outside_a_tenor_is_named(self, T):
        # the horizon takes the tenor rule, ``pde.checked_tenor``: at inf both solves
        # warned twice and then named a blow-up at dt = nan, at 1e308 a blow-up at
        # dt = 5e306, and above 1000 years they priced
        fx = QuantoFxParams(0.8, 0.1, 0.0, 0.0)
        for solve in (solve_quanto_pde, solve_foreign_measure_pde):
            with pytest.raises(ValueError, match=rf"^tenor must be .*, got {re.escape(str(T))}$"):
                solve(H_SWEEP, fx, RATES0, T, SolverConfig(n_y=11, n_t=20))

    @pytest.mark.parametrize("n_t, tenors, steps", [
        (pde.MAX_STEPS + 1, None, pde.MAX_STEPS + 1),
        (99999999999, None, 99999999999),
        (99999999999, tuple(CdsContract(tenor=5.0).payment_times()), 100000000000),
        # 999,991 steps asked for, 1,000,005 once a third of a year falls on a node
        (999_991, (1 / 3, 5.0), 1_000_005),
    ], ids=["one above", "unbounded", "quarterly", "rounded above"])
    def test_time_grid_above_the_step_maximum_is_named(self, n_t, tenors, steps):
        # the t-nodes were dt * arange(n_t + 1): 745 GiB at 99999999999 steps; the
        # one-factor solve marched every step at sigma_y = 0 and priced any count
        # in its spectral gate
        cfg = SolverConfig(n_y=11, n_t=n_t)
        named = (rf"^a PDE time grid holds at most {pde.MAX_STEPS} steps, got {steps} over 5 "
                 rf"years from a step count of {n_t}$")
        marched = replace(H_SWEEP, sigma_y=0.0)
        assert survival_curve_1f(marched, [5.0], 11, 40, with_spectrum=True)[1] is None
        assert survival_curve_1f(H_SWEEP, [5.0], 11, 40, with_spectrum=True)[1] is not None
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=named):
                build_grid(H_SWEEP, 5.0, cfg, tenors)
            with pytest.raises(ValueError, match=named):
                solve_quanto_pde(H_SWEEP, QuantoFxParams(0.8, 0.1, 0.0, 0.0), RATES0, 5.0, cfg,
                                 tenors)
            for h in (marched, H_SWEEP):
                with pytest.raises(ValueError, match=named):
                    survival_curve_1f(h, tenors or [5.0], 11, n_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("n_y", [pde.MAX_NODES + 1, 999999999])
    def test_y_grid_above_the_node_maximum_is_named(self, n_y):
        # _y_axis made lo + dy * arange(n_y): 7.45 GiB at 999999999 nodes
        fx = QuantoFxParams(0.8, 0.1, 0.0, 0.0)
        named = rf"^a PDE log-hazard grid holds at most {pde.MAX_NODES} nodes, got {n_y}$"
        tracemalloc.start()
        try:
            for solve in (lambda: _y_axis(H_SWEEP, 5.0, n_y, 6.0),
                          lambda: solve_quanto_pde(H_SWEEP, fx, RATES0, 5.0,
                                                   SolverConfig(n_y=n_y, n_t=20)),
                          lambda: survival_curve_1f(H_SWEEP, [5.0], n_y, 20)):
                with pytest.raises(ValueError, match=named):
                    solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_y_grid_at_the_node_maximum_is_built(self):
        y, iy0 = _y_axis(H_SWEEP, 5.0, pde.MAX_NODES, 6.0)
        assert y.size == pde.MAX_NODES and y[iy0] == pytest.approx(H_SWEEP.y0, abs=1e-12)

    def test_time_grid_at_the_step_maximum_is_built(self):
        grid, _ = build_grid(H_SWEEP, 5.0, SolverConfig(n_y=11, n_t=pde.MAX_STEPS))
        assert grid.t_nodes.size == pde.MAX_STEPS + 1 and grid.t_nodes[-1] == 5.0

    def test_unknown_engine_is_named(self):
        fx = QuantoFxParams(0.8, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError, match="^unknown engine 'bogus'$"):
            quanto_survival_curve(H_SWEEP, fx, [1.0], SolverConfig(n_y=11, n_t=20),
                                  engine="bogus")

    def test_memoised_snapshot_map_is_read_only(self):
        _, snap = build_grid(H_SWEEP, 5.0, SolverConfig(n_t=60), [1.0, 5.0])
        _, again = build_grid(H_SWEEP, 5.0, SolverConfig(n_t=60), [1.0, 5.0])
        assert snap is again
        with pytest.raises(TypeError):
            snap[0] = 5.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="y_nodes must be strictly increasing"):
            Grid2D(np.array([0.0, 1.0, 1.0]), np.linspace(0, 1, 5), 1)
        with pytest.raises(ValueError, match="t_nodes must be strictly increasing"):
            Grid2D(np.linspace(0, 1, 5), np.array([0.0]), 1)
        with pytest.raises(ValueError, match="interior node"):
            Grid2D(np.linspace(0, 1, 5), np.linspace(0, 1, 5), 0)

    def test_overflowing_discount_is_named(self):
        # math.exp(-r_hat T) raised OverflowError for a large negative contractual rate
        with pytest.raises(ValueError, match=r"e\^\(-r_hat T\) overflows at r_hat = -1000, T = 5 "):
            solve_quanto_pde(HazardParams(1e-4, -210.45, 0.2, -4.089),
                             QuantoFxParams(0.8, 0.1, 0.0, 0.0), RatePair(-1e3, -1e3), 5.0,
                             SolverConfig(n_y=11, n_t=20))

    def test_bad_solver_config(self):
        with pytest.raises(ValueError, match=r"n_x must be an integer >= 3, got 2"):
            SolverConfig(n_x=2)
        with pytest.raises(ValueError, match=r"n_x must be an integer >= 3, got 41.0"):
            SolverConfig(n_x=41.0)
        with pytest.raises(ValueError, match=r"n_y must be an integer >= 3, got 41.5"):
            SolverConfig(n_y=41.5)
        with pytest.raises(ValueError, match=r"n_t must be an integer >= 1, got 0"):
            SolverConfig(n_t=0)


@dataclass(frozen=True)
class EquivalencePoint:
    gamma: float
    rho: float
    tenor: float
    p_hat_pde: float
    p_hat_mc: McEstimate

    @property
    def abs_gap(self) -> float:
        return abs(self.p_hat_pde - self.p_hat_mc.mean)

    def within(self, se_mult: float = 3.0, floor: float = 2e-3) -> bool:
        return self.abs_gap < max(se_mult * self.p_hat_mc.std_error, floor)


def mc_pde_equivalence_sweep(n_paths: int = 50_000, seed: int = 9) -> list[EquivalencePoint]:
    """|p_hat_PDE - p_hat_MC| over the low-hazard sweep, using the ADI solver
    on a 101 x 200 grid and 50 MC steps a year, in one Monte Carlo pass per
    tenor for all 18 (gamma, rho) legs, each as ``quanto_bond_mc`` prices it."""
    h, rates, tenors = SWEEP_HAZARD_LOW, RatePair(0.0, 0.0), SWEEP_TENORS
    pde_cfg = SolverConfig(n_y=101, n_t=200)
    fxs = [_sweep_fx(gamma, rho) for gamma in SWEEP_GAMMAS for rho in SWEEP_RHOS]
    mc = [_quanto_bond_pass(h, fxs, rates, T, SimConfig(n_paths, max(20, int(50 * T)), T, seed))
          for T in tenors]
    points: list[EquivalencePoint] = []
    for i, fx in enumerate(fxs):
        sol = solve_quanto_pde(h, fx, rates, tenors[-1], pde_cfg, snapshot_tenors=tenors)
        for j, (T, u) in enumerate(zip(*sol.spot_curve)):
            points.append(EquivalencePoint(fx.gamma_z, fx.rho, float(T), float(u) / fx.z0,
                                           mc[j][i].p_hat))
    return points


class TestMcPdeEquivalence:
    def test_full_sweep_within_tolerance(self):
        points = mc_pde_equivalence_sweep(n_paths=50_000, seed=9)
        assert len(points) == 6 * 3 * 3
        worst = max(points, key=lambda p: p.abs_gap)
        assert all(p.within(3.0, 2e-3) for p in points), (
            f"worst cell gamma={worst.gamma} rho={worst.rho} T={worst.tenor}: "
            f"gap={worst.abs_gap:.2e}"
        )
