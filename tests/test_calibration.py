import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantocds import calibration, pde
from quantocds.cds import CdsContract, par_spread
from quantocds.calibration import (
    CalibrationConfig,
    CalibrationError,
    MarketSnapshot,
    _SpreadModel,
    backtest,
    calibrate_quanto,
    calibrate_sigma_y,
    calibrate_single_ccy,
    calibrate_snapshot,
    historical_correlation,
)
from quantocds.calibration import _log_spread_vol_1m
from quantocds.model import HazardParams

CFG = CalibrationConfig()
COARSE = CalibrationConfig(n_y=81, n_t_per_year=10)


def synthetic_snapshot(date, b, y0, sigma_y, rho, gamma, cfg=CFG,
                       fx_vol=0.1, rate=0.0, index_vol=None):
    """Quotes generated by the same pricing stack the calibration inverts."""
    probe = MarketSnapshot(date, 0.01, 0.01, 0.01, 0.01, fx_vol, index_vol, rate)
    model = _SpreadModel(probe, cfg)
    usd5, usd10 = model.spreads(b, y0, sigma_y)
    eur5, eur10 = model.spreads(b, y0, sigma_y, rho, gamma)
    return MarketSnapshot(date, usd5, usd10, eur5, eur10, fx_vol,
                          index_vol if index_vol is not None else sigma_y, rate)


class TestSnapshotValidation:
    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError):
            MarketSnapshot("d", 0.0, 0.01, 0.01, 0.01, 0.1, 0.5, 0.0)

    def test_rejects_negative_vol(self):
        with pytest.raises(ValueError):
            MarketSnapshot("d", 0.01, 0.01, 0.01, 0.01, -0.1, 0.5, 0.0)

    def test_optional_index_vol(self):
        MarketSnapshot("d", 0.01, 0.011, 0.009, 0.01, 0.1, None, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "spread_usd_5y", "spread_usd_10y", "spread_eur_5y", "spread_eur_10y",
        "fx_atm_vol", "index_option_vol_1m", "rate",
    ])
    def test_non_finite_field_is_named(self, field, value):
        good = dict(date="d", spread_usd_5y=0.01, spread_usd_10y=0.011, spread_eur_5y=0.009,
                    spread_eur_10y=0.01, fx_atm_vol=0.1, index_option_vol_1m=0.5, rate=0.0)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MarketSnapshot(**{**good, field: value})


FIXED_SETTINGS = {"a_fixed": 1e-4, "sigma_y_default": 0.5, "recovery": 0.4, "z0": 1.0,
                  "tenors": (5.0, 10.0), "width_sigmas": 6.0}


def _rejected_as_fixed(field, value):
    """A fixed setting is no constructor argument: any value is a TypeError
    that names it."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'$"):
        CalibrationConfig(**{field: value})


class TestConfigValidation:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["a_fixed", "tolerance_bp", "single_ccy_tolerance_bp",
                                       "sigma_y_default", "width_sigmas"])
    def test_bad_positive_field_is_named(self, field, value):
        if field in FIXED_SETTINGS:
            _rejected_as_fixed(field, value)
        else:
            with pytest.raises(ValueError, match=f"^{field} must be > 0 and finite, got {value}$"):
                CalibrationConfig(**{field: value})

    @pytest.mark.parametrize("field, value, least", [
        ("n_y", 2, 3), ("n_y", 101.0, 3), ("n_t_per_year", 0, 1), ("n_t_per_year", 1.5, 1),
    ])
    def test_bad_grid_field_is_named(self, field, value, least):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}, got"):
            CalibrationConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1, 0.5])
    def test_bad_seed_is_named(self, value):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {value}$"):
            CalibrationConfig(seed=value)

    @pytest.mark.parametrize("value", [1.5, 1.0, -0.1, math.nan])
    def test_bad_recovery_is_named(self, value):
        _rejected_as_fixed("recovery", value)

    @pytest.mark.parametrize("value", [
        (10.0, 5.0), (5.0, 5.0), (0.0, 10.0), (-5.0, 10.0), (5.0, math.inf), (5.0, math.nan),
        (5.0,), (1.0, 5.0, 10.0),
    ])
    def test_bad_tenors_are_named(self, value):
        _rejected_as_fixed("tenors", value)

    def test_fixed_settings_read_on_an_instance(self):
        cfg = CalibrationConfig(n_y=81, seed=3)
        assert {name: getattr(cfg, name) for name in FIXED_SETTINGS} == FIXED_SETTINGS
        assert CalibrationConfig.width_sigmas == pde._WIDTH_SIGMAS
        assert [f.name for f in fields(CalibrationConfig)] == [
            "sigma_y_mode", "tolerance_bp", "single_ccy_tolerance_bp", "max_iterations",
            "n_y", "n_t_per_year", "seed"]
        for name, value in FIXED_SETTINGS.items():
            _rejected_as_fixed(name, value)

    def test_numpy_grid_and_seed_are_accepted(self):
        cfg = CalibrationConfig(n_y=np.int64(81), n_t_per_year=np.int32(10), seed=np.int64(3))
        assert (cfg.n_y, cfg.n_t_per_year, cfg.seed) == (81, 10, 3)

    @pytest.mark.parametrize("value", [0, -3, 1.5])
    def test_bad_iteration_budget_is_named(self, value):
        with pytest.raises(ValueError, match="^max_iterations must be an integer >= 1"):
            CalibrationConfig(max_iterations=value)

    def test_numpy_iteration_budget_is_accepted(self):
        assert CalibrationConfig(max_iterations=np.int64(8)).max_iterations == 8

    def test_unknown_vol_mode_is_named(self):
        with pytest.raises(ValueError, match="^unknown sigma_y_mode 'x'$"):
            CalibrationConfig(sigma_y_mode="x")


class TestSingleCurrency:
    def test_round_trip(self):
        snap = synthetic_snapshot("d", b=-150.0, y0=-4.3, sigma_y=CFG.sigma_y_default,
                                  rho=0.0, gamma=0.0)
        b, y0 = calibrate_single_ccy(snap, CFG)
        model = _SpreadModel(snap, CFG)
        s5, s10 = model.spreads(b, y0, CFG.sigma_y_default)
        assert abs(s5 - snap.spread_usd_5y) * 1e4 < 0.1
        assert abs(s10 - snap.spread_usd_10y) * 1e4 < 0.1

    def test_flat_curve_seed_structure(self):
        snap = MarketSnapshot("d", 0.01, 0.01, 0.01, 0.01, 0.1, 0.5, 0.0)
        b, y0 = calibrate_single_ccy(snap, CFG)
        # the triangle puts the level near ln(S / (1 - R)) up to the
        # vol-convexity correction
        assert abs(y0 - math.log(0.01 / 0.6)) < 0.5

    def test_unreachable_quotes_raise(self):
        # a 50x upward-sloping pair cannot be matched under the bounded drift
        snap = MarketSnapshot("d", 0.001, 0.05, 0.001, 0.05, 0.1, 0.5, 0.0)
        with pytest.raises(CalibrationError, match=r" at sigma_y = 0\.5 on d$"):
            calibrate_single_ccy(snap, CFG)


class TestSigmaY:
    def test_passthrough(self):
        snap = MarketSnapshot("d", 0.01, 0.011, 0.009, 0.0105, 0.1, 0.47, 0.0)
        assert calibrate_sigma_y(snap, (0.0, -4.5), CFG) == 0.47
        assert calibrate_sigma_y(snap, None, CFG) == 0.47

    def test_zero_quote_accepted(self):
        snap = MarketSnapshot("d", 0.01, 0.011, 0.009, 0.0105, 0.1, 0.0, 0.0)
        assert calibrate_sigma_y(snap, (0.0, -4.5), CFG) == 0.0

    def test_missing_quote_falls_back_with_warning(self):
        snap = MarketSnapshot("d", 0.01, 0.011, 0.009, 0.0105, 0.1, None, 0.0)
        with pytest.warns(UserWarning):
            out = calibrate_sigma_y(snap, (0.0, -4.5), CFG)
        assert out == CFG.sigma_y_default

    def test_implied_mode_round_trip(self):
        sigma_true = 0.5
        b, y0 = -4.3, -4.3  # a*b ~ 0: near-flat hazard
        gen_cfg = CalibrationConfig(sigma_y_mode="implied", seed=123)
        quote = _log_spread_vol_1m(b, y0, sigma_true, 0.0, gen_cfg)
        snap = MarketSnapshot("d", 0.01, 0.011, 0.009, 0.0105, 0.1, quote, 0.0)
        cal_cfg = CalibrationConfig(sigma_y_mode="implied", seed=321)
        implied = calibrate_sigma_y(snap, (b, y0), cal_cfg)
        assert implied == pytest.approx(sigma_true, rel=0.05)

    @pytest.mark.parametrize("quote", [0.001, 0.05, 0.35, 0.8, 2.5])
    def test_implied_vol_reprices_its_quote(self, quote):
        # the root is exact to the fit's floor, 1e-10 in vol units: on the 2013-06-03
        # snapshot's 0.35 quote scipy's brentq at xtol = 1e-6 left 9.1e-08
        snap = MarketSnapshot("2013-06-03", 0.0250, 0.0300, 0.0215, 0.0265, 0.08, quote, 0.0)
        cfg = CalibrationConfig(sigma_y_mode="implied")
        p_y = calibrate_single_ccy(snap, cfg)
        sigma = calibrate_sigma_y(snap, p_y, cfg)
        assert 1e-4 <= sigma <= 3.0
        assert abs(_log_spread_vol_1m(*p_y, sigma, snap.rate, cfg) - quote) <= 1e-10

    def test_one_month_moments_are_the_ou_moments(self, monkeypatch):
        # the vol's one-month mean and deviation are pde.ou_mean_std's, at a = a_fixed
        calls = []
        moments = pde.ou_mean_std
        monkeypatch.setattr(pde, "ou_mean_std",
                            lambda h, t: calls.append((h, t)) or moments(h, t))
        _log_spread_vol_1m(-150.0, -4.3, 0.4, 0.0, CFG)
        assert calls == [(HazardParams(a=CFG.a_fixed, b=-150.0, sigma_y=0.4, y0=-4.3),
                          1.0 / 12.0)]

    def test_implied_quote_below_bracket_returns_lower_bound(self):
        snap = MarketSnapshot("d", 0.01, 0.011, 0.009, 0.0105, 0.1, 5e-5, 0.0)
        cfg = CalibrationConfig(sigma_y_mode="implied")
        assert calibrate_sigma_y(snap, (-150.0, -4.3), cfg) == 1e-4

    def test_implied_mode_needs_the_hazard(self):
        snap = MarketSnapshot("d", 0.01, 0.011, 0.009, 0.0105, 0.1, 0.3, 0.0)
        with pytest.raises(ValueError, match="p_y"):
            calibrate_sigma_y(snap, None, CalibrationConfig(sigma_y_mode="implied"))


class TestQuantoCalibration:
    def test_round_trip_recovers_devaluation_rate(self):
        true = dict(b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3, gamma=-0.2)
        snap = synthetic_snapshot("2012-05-07", **true)
        res = calibrate_snapshot(snap, CFG)
        assert res.converged
        assert abs(res.gamma - true["gamma"]) < 0.01
        assert abs(res.rho - true["rho"]) < 0.1
        assert res.max_residual_bp() < 0.5

    def test_null_quanto_round_trip(self):
        snap = synthetic_snapshot("d", b=-100.0, y0=-4.6, sigma_y=0.5, rho=0.0, gamma=0.0)
        res = calibrate_snapshot(snap, CFG)
        assert res.converged
        assert abs(res.gamma) < 0.01

    def test_revaluation_round_trip(self):
        snap = synthetic_snapshot("d", b=-110.0, y0=-4.5, sigma_y=0.5, rho=-0.2, gamma=0.25)
        res = calibrate_snapshot(snap, CFG)
        assert res.converged
        assert abs(res.gamma - 0.25) < 0.01
        assert abs(res.rho + 0.2) < 0.1

    def test_abstract_scale_snapshot(self):
        # USD 5Y at 440 bp vs EUR at 350 bp puts gamma near the relative basis
        snap = MarketSnapshot("2012-05-07", 0.0440, 0.0460, 0.0350, 0.0370, 0.1, 0.5, 0.0)
        res = calibrate_snapshot(snap, CFG)
        assert res.converged
        assert abs(res.gamma - (-0.20)) < 0.03

    def test_determinism(self):
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3, gamma=-0.2)
        r1 = calibrate_snapshot(snap, CFG)
        r2 = calibrate_snapshot(snap, CFG)
        assert r1 == r2

    def test_unconverged_flag_instead_of_raise(self):
        # inconsistent quotes: EUR above USD at 5Y but far below at 10Y with
        # a tight iteration budget
        snap = MarketSnapshot("d", 0.0100, 0.0101, 0.0200, 0.0020, 0.1, 0.5, 0.0)
        cfg = CalibrationConfig(max_iterations=8)
        res = calibrate_quanto(snap, calibrate_single_ccy(snap, cfg, sigma_y=0.5), 0.5, cfg)
        assert not res.converged

    def test_eur_misfit_stays_on_eur(self):
        # the EUR pair cannot be fitted within the (rho, gamma) bounds; the
        # liquid hazard fits USD alone, so the misfit must not move it
        snap = MarketSnapshot("d", 0.0100, 0.0101, 0.0200, 0.0020, 0.1, 0.5, 0.0)
        p_y = calibrate_single_ccy(snap, CFG, sigma_y=0.5)
        res = calibrate_quanto(snap, p_y, 0.5, CFG)
        assert (res.b, res.y0) == p_y
        assert abs(res.residuals_bp["usd_5y"]) < CFG.single_ccy_tolerance_bp
        assert abs(res.residuals_bp["usd_10y"]) < CFG.single_ccy_tolerance_bp
        assert not res.converged

    @staticmethod
    def _record_marches(monkeypatch) -> list:
        calibration._spread_model.cache_clear()
        marches = []
        march = pde.survival_curve_1f

        def counting(h, tenors, *, drift_shift, kill_scale, **kwargs):
            marches.append((h.b, h.y0, h.sigma_y, drift_shift, kill_scale))
            return march(h, tenors, drift_shift=drift_shift, kill_scale=kill_scale, **kwargs)

        monkeypatch.setattr(pde, "survival_curve_1f", counting)
        return marches

    def test_no_usd_curve_marched_twice(self, monkeypatch):
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=COARSE)
        marches = self._record_marches(monkeypatch)
        p_y = calibrate_single_ccy(snap, COARSE, sigma_y=0.5)
        n_hazard = len(marches)
        calibrate_quanto(snap, p_y, 0.5, COARSE)
        # no curve of either currency is marched twice: the USD residuals
        # at p_y reprice the hazard fit's last curve
        assert len(marches) == len(set(marches)) > n_hazard > 0
        # USD is the untilted, unscaled march; the (rho, gamma) fit
        # marches only EUR curves
        assert all(m[3:] != (0.0, 1.0) for m in marches[n_hazard:])
        # the whole pipeline and its diagnostics share one model: the hazard
        # fit, the joint fit and the diagnostics march no curve twice
        marches.clear()
        calibration._spread_model.cache_clear()
        (row,) = backtest([snap], COARSE)
        assert row.error is None
        assert len(marches) == len(set(marches)) > 0

    def test_passthrough_fits_the_hazard_once_at_the_quoted_vol(self, monkeypatch):
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.3, rho=0.3,
                                  gamma=-0.2, cfg=COARSE)
        calls = []
        single = calibration.calibrate_single_ccy

        def counting(snapshot, cfg=None, sigma_y=None):
            calls.append(sigma_y)
            return single(snapshot, cfg, sigma_y)

        monkeypatch.setattr(calibration, "calibrate_single_ccy", counting)
        res = calibrate_snapshot(snap, COARSE)
        assert calls == [0.3]
        assert res.converged and res.sigma_y == 0.3

    def test_placeholder_fit_failure_does_not_stop_the_quoted_vol(self):
        # USD 440/300 and EUR 350/240 cannot be fitted at the 0.5
        # placeholder vol but can at the quoted 0.2
        snap = MarketSnapshot("d", 0.0440, 0.0300, 0.0350, 0.0240, 0.1, 0.2, 0.0)
        with pytest.raises(CalibrationError, match="at sigma_y = 0.5 "):
            calibrate_single_ccy(snap, COARSE)
        res = calibrate_snapshot(snap, COARSE)
        assert res.converged and res.sigma_y == 0.2
        # implied mode matches its vol at a hazard fitted with the quoted vol
        implied = calibrate_snapshot(snap, replace(COARSE, sigma_y_mode="implied"))
        assert implied.converged and implied.sigma_y == pytest.approx(0.2, abs=0.01)

    def test_implied_pipeline_is_the_chain_of_stages(self):
        cfg = CalibrationConfig(sigma_y_mode="implied", n_y=81, n_t_per_year=10)
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=cfg, index_vol=0.4)
        p_placeholder = calibrate_single_ccy(snap, cfg)
        sigma_y = calibrate_sigma_y(snap, p_placeholder, cfg)
        assert sigma_y != cfg.sigma_y_default
        p_y = calibrate_single_ccy(snap, cfg, sigma_y=sigma_y)
        assert calibrate_snapshot(snap, cfg) == calibrate_quanto(snap, p_y, sigma_y, cfg)

    def test_warm_model_gives_equal_results(self):
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=COARSE)
        calibration._spread_model.cache_clear()
        fresh = calibrate_snapshot(snap, COARSE)
        model = calibration._spread_model(snap, COARSE)
        assert model._memo
        warm = calibrate_snapshot(snap, COARSE)
        assert calibration._spread_model(snap, COARSE) is model
        # another snapshot evicts the model: nothing outlives its snapshot
        calibrate_single_ccy(synthetic_snapshot("e", b=-100.0, y0=-4.6, sigma_y=0.5, rho=0.0,
                                                gamma=0.0, cfg=COARSE), COARSE)
        assert calibration._spread_model(snap, COARSE) is not model
        assert fresh == warm

    def test_one_snapshot_marches_at_most_20_curves(self, monkeypatch):
        # secant Jacobians price no curve for most steps, and each fit stops
        # at round-off: 20 curves here, where running on to xtol took 22 and
        # two-point Jacobians at every step took 45
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=COARSE)
        marches = self._record_marches(monkeypatch)
        assert calibrate_snapshot(snap, COARSE).converged
        assert len(marches) <= 20

    def test_spreads_are_the_direct_par_spreads(self):
        probe = MarketSnapshot("d", 0.01, 0.01, 0.01, 0.01, 0.1, 0.5, 0.02)
        model = _SpreadModel(probe, COARSE)
        for point in ((-120.0, -4.4, 0.5), (-120.0, -4.4, 0.5, 0.3, -0.2)):
            curve = model.curve(*point)
            direct = tuple(par_spread(curve, 0.02, CdsContract(tenor=t)).par_spread
                           for t in COARSE.tenors)
            assert model.spreads(*point) == direct
            assert model.spreads(*point) == direct  # on the memoised curve

    @pytest.mark.parametrize("mode", ["passthrough", "implied"])
    def test_each_curve_is_priced_once_per_tenor(self, monkeypatch, mode):
        cfg = replace(COARSE, sigma_y_mode=mode)
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=cfg, index_vol=0.4)
        calibration._spread_model.cache_clear()
        priced = []
        direct = calibration.par_spread

        def counting(curve, r, contract):
            priced.append((id(curve), contract.tenor))
            return direct(curve, r, contract)

        monkeypatch.setattr(calibration, "par_spread", counting)
        result = calibrate_snapshot(snap, cfg)
        # the Jacobians reread no priced pair; the USD residuals of the result
        # reprice the liquid fit's last pair, the one pair priced twice
        model = calibration._spread_model(snap, cfg)
        usd = id(model.curve(result.b, result.y0, result.sigma_y))
        twice = sorted(key for key in set(priced) if priced.count(key) > 1)
        assert twice == [(usd, 5.0), (usd, 10.0)] and len(priced) == len(set(priced)) + 2
        assert len(set(priced)) <= 2 * len(model._memo)
        # a warm calibration marches nothing and reprices the same pairs on the
        # memoised curves; the diagnostics price 1Y, 5Y and 10Y on the two
        # fitted curves
        n_fit, n_curves = len(priced), len(model._memo)
        (row,) = backtest([snap], cfg)
        assert row.error is None and len(model._memo) == n_curves
        assert priced[n_fit:2 * n_fit] == priced[:n_fit] and len(priced) == 2 * n_fit + 6

    def test_ab_diagnostic(self):
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.0, gamma=0.0)
        res = calibrate_snapshot(snap, CFG)
        assert res.ab == pytest.approx(res.a * res.b)


class TestSecantFit:
    @pytest.mark.parametrize("mode", ["passthrough", "implied"])
    def test_stalling_quote_converges(self, mode):
        # USD 440/300, EUR 350/240 at index vol 0.2: with secant updates
        # kept through a retried step, the hazard fit stalled at 0.47 bp
        snap = MarketSnapshot("d", 0.0440, 0.0300, 0.0350, 0.0240, 0.1, 0.2, 0.0)
        res = calibrate_snapshot(snap, replace(CFG, sigma_y_mode=mode))
        assert res.converged and res.max_residual_bp() < 1e-6

    def test_seed_at_the_floor_returns_after_one_evaluation(self):
        seed = np.array([-120.0, -4.4])
        seen = []

        def residual(v):
            seen.append(v.copy())
            return np.array([[2.0, -1.0], [0.5, 3.0]]) @ (v - seed)

        x, f, nfev = calibration._fit(residual, seed, ([-3000.0, -12.0], [3000.0, 1.0]),
                                      [100.0, 0.5], 200)
        assert nfev == 1 and len(seen) == 1
        np.testing.assert_array_equal(x, seed)
        np.testing.assert_array_equal(f, 0.0)

    def test_fits_end_at_the_first_point_at_the_floor(self, monkeypatch):
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=COARSE)
        calibration._spread_model.cache_clear()
        # per fit, each point it evaluates: (largest |residual| in bp, forward difference?)
        fits = []
        fit, jacobian = calibration._fit, calibration._forward_jacobian
        differencing = []

        def recording_fit(residual, *args):
            points = []
            fits.append(points)

            def traced(x):
                f = residual(x)
                points.append((np.max(np.abs(f)), bool(differencing)))
                return f

            return fit(traced, *args)

        def recording_jacobian(*args):
            differencing.append(True)
            try:
                return jacobian(*args)
            finally:
                differencing.pop()

        monkeypatch.setattr(calibration, "_fit", recording_fit)
        monkeypatch.setattr(calibration, "_forward_jacobian", recording_jacobian)
        res = calibrate_snapshot(snap, COARSE)
        assert len(fits) == 2  # the hazard fit, then the (rho, gamma) fit
        for points in fits:
            steps = [worst for worst, fd in points if not fd]
            assert not points[0][1] and points[1][1]  # the seed, then its forward difference
            assert not points[-1][1]
            assert steps[-1] <= calibration._FLOOR_BP < min(steps[:-1])
        assert res.iterations == sum(not fd for _, fd in fits[-1])

    def test_root_outside_the_box_ends_on_the_bound(self):
        # the root's b lies above its bound; on the bound, y0 = -4 - 100 * (-0.5) / 10
        # minimises the residual of this linear model
        root = np.array([3100.0, -4.0])
        slope = np.array([[2.0, -1.0], [0.5, 3.0]])
        seen = []

        def residual(v):
            seen.append(v.copy())
            return slope @ (v - root)

        x, f, nfev = calibration._fit(residual, np.array([-120.0, -4.4]),
                                      ([-3000.0, -12.0], [3000.0, 1.0]), [100.0, 0.5], 20)
        assert x[0] == 3000.0 and x[1] == pytest.approx(-9.0, abs=1e-9)
        np.testing.assert_array_equal(f, slope @ (x - root))
        # a linear model needs only the first forward difference
        assert nfev <= 20 and len(seen) == nfev + 2

    @pytest.mark.parametrize("x", [[3000.0, -4.0], [2999.99999, 1.0], [0.0, 1.0 - 1e-12]])
    def test_forward_step_at_an_upper_bound_stays_inside(self, x):
        upper = np.array([3000.0, 1.0])
        slope = np.array([[2.0, -1.0], [0.5, 3.0]])
        seen = []

        def residual(v):
            seen.append(v.copy())
            return slope @ v

        x = np.array(x)
        J = calibration._forward_jacobian(residual, x, slope @ x, upper)
        assert all(np.all(v <= upper) for v in seen) and len(seen) == 2
        np.testing.assert_allclose(J, slope, rtol=1e-6)



class TestPointsWithinReachOfAHeldSpectrum:
    """The model holds at most one spectrum, that of the last point it solved
    afresh.  A point whose operator lies within ``pde._REACH`` of it, in
    every coordinate, is priced from that eigendecomposition
    (``pde._nearby_1f``): no eigensolve of its own.  The fits'
    forward-difference points are such points.  A point beyond reach is
    solved afresh, and its spectrum replaces the held one."""

    SPECTRAL = CalibrationConfig(n_y=41, n_t_per_year=10)  # 2 n_y <= n_t = 100
    PROBE = MarketSnapshot("d", 0.01, 0.01, 0.01, 0.01, 0.1, 0.5, 0.0)

    @staticmethod
    def _calibrate(snap, cfg, monkeypatch):
        """``calibrate_snapshot`` on a cold model, with its eigensolves, its
        updates (the non-None ``_nearby_1f`` returns) and, for each point the
        fits evaluated, (whether it was a forward difference, the eigensolves
        and the updates that priced it)."""
        calibration._spread_model.cache_clear()
        eigensolves, updates, points, differencing = [], [], [], []
        eigh, nearby = pde.eigh_tridiagonal, pde._nearby_1f
        fit, jacobian = calibration._fit, calibration._forward_jacobian

        def counting_eigh(d, e):
            eigensolves.append(d.size)
            return eigh(d, e)

        def counting_nearby(*args, **kwargs):
            p = nearby(*args, **kwargs)
            if p is not None:
                updates.append(p)
            return p

        def recording_fit(residual, *args):
            def traced(x):
                solved, updated = len(eigensolves), len(updates)
                f = residual(x)
                points.append((bool(differencing), len(eigensolves) - solved,
                               len(updates) - updated))
                return f

            return fit(traced, *args)

        def recording_jacobian(*args):
            differencing.append(True)
            try:
                return jacobian(*args)
            finally:
                differencing.pop()

        with monkeypatch.context() as patch:
            patch.setattr(pde, "eigh_tridiagonal", counting_eigh)
            patch.setattr(pde, "_nearby_1f", counting_nearby)
            patch.setattr(calibration, "_fit", recording_fit)
            patch.setattr(calibration, "_forward_jacobian", recording_jacobian)
            result = calibrate_snapshot(snap, cfg)
        return result, eigensolves, updates, points

    def test_one_eigensolve_or_update_per_point_the_fits_price(self, monkeypatch):
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=self.SPECTRAL)
        result, eigensolves, updates, points = self._calibrate(snap, self.SPECTRAL, monkeypatch)
        assert result.converged
        # the hazard fit and the (rho, gamma) fit each difference their seed at least
        assert sum(fd for fd, _, _ in points) >= 4
        assert len(eigensolves) + len(updates) == len(points)
        assert all(solves + updated == 1 for _, solves, updated in points)
        # every forward difference is an update, and so are some trust-region steps
        assert all(updated for fd, _, updated in points if fd)
        assert any(updated for fd, _, updated in points if not fd)
        # the model keeps the spectrum of the last point it solved, no more
        held = calibration._spread_model(snap, self.SPECTRAL)._spectrum
        assert type(held) is pde._Spectrum and len(eigensolves) > 1
        # every point solved afresh, as before the update, fits the same point to round-off
        monkeypatch.setattr(pde, "_nearby_1f", lambda *args, **kwargs: None)
        fresh, eigensolves, updates, points = self._calibrate(snap, self.SPECTRAL, monkeypatch)
        assert len(eigensolves) == len(points) and updates == []
        for name in ("b", "y0", "rho", "gamma"):
            assert getattr(result, name) == pytest.approx(getattr(fresh, name), rel=1e-6, abs=1e-9)

    def test_outside_the_gate_every_point_is_solved_afresh(self, monkeypatch):
        cfg = CalibrationConfig(n_y=41, n_t_per_year=4)  # 2 n_y > n_t = 40: the march
        snap = synthetic_snapshot("d", b=-120.0, y0=-4.4, sigma_y=0.5, rho=0.3,
                                  gamma=-0.2, cfg=cfg)
        with monkeypatch.context() as patch:  # every point solved afresh, as before the update
            patch.setattr(pde, "_nearby_1f", lambda *args, **kwargs: None)
            fresh, eigensolves, _, _ = self._calibrate(snap, cfg, monkeypatch)
        assert eigensolves == []
        marches = TestQuantoCalibration._record_marches(monkeypatch)
        result, eigensolves, updates, points = self._calibrate(snap, cfg, monkeypatch)
        assert eigensolves == updates == [] and sum(fd for fd, _, _ in points) >= 4
        assert len(marches) == len(points)  # the forward differences included
        assert result == fresh

    def test_a_point_the_update_hands_back_is_solved_afresh(self, monkeypatch):
        model, fresh = _SpreadModel(self.PROBE, self.SPECTRAL), _SpreadModel(self.PROBE, self.SPECTRAL)
        base = (-120.0, -4.4, 0.5, 0.3, -0.2)
        model.curve(*base)
        held = model._spectrum
        up, down = ((base[0] + sign * calibration._FD_STEP * 120.0, *base[1:]) for sign in (1, -1))
        nearby = model.curve(*up)
        assert model._spectrum is held  # a nearby point keeps no spectrum
        monkeypatch.setattr(pde, "_nearby_1f", lambda *args, **kwargs: None)
        handed_back = model.curve(*down)
        assert type(model._spectrum) is pde._Spectrum and model._spectrum is not held
        np.testing.assert_array_equal(handed_back.probs, fresh.curve(*down).probs)
        np.testing.assert_allclose(nearby.probs, fresh.curve(*up).probs, rtol=0, atol=1e-12)

    @staticmethod
    def _recording_bases(monkeypatch) -> list:
        """The spectra that ``_nearby_1f`` is handed, in order."""
        bases, nearby = [], pde._nearby_1f

        def recording(base, *args, **kwargs):
            bases.append(base)
            return nearby(base, *args, **kwargs)

        monkeypatch.setattr(pde, "_nearby_1f", recording)
        return bases

    @staticmethod
    def _in_y0(r):
        """The test point, y0 = -4.4 moved by r reaches relative to |y0|."""
        return (-120.0, -4.4 - r * pde._REACH * 4.4, 0.5, 0.3, -0.2)

    def test_a_point_two_reaches_away_is_solved_afresh(self, monkeypatch):
        model, fresh = _SpreadModel(self.PROBE, self.SPECTRAL), _SpreadModel(self.PROBE, self.SPECTRAL)
        bases = self._recording_bases(monkeypatch)
        model.curve(*self._in_y0(0.0))
        held = model._spectrum
        beyond = model.curve(*self._in_y0(2.0))
        # the update is tried on every point, the first with no spectrum held; it
        # hands this one back, and the fresh solve's spectrum replaces the held one
        assert bases == [None, held] and model._spectrum is not held
        assert type(model._spectrum) is pde._Spectrum
        np.testing.assert_array_equal(beyond.probs, fresh.curve(*self._in_y0(2.0)).probs)

    def test_a_point_in_reach_is_an_update_from_the_held_spectrum(self, monkeypatch):
        model, fresh = _SpreadModel(self.PROBE, self.SPECTRAL), _SpreadModel(self.PROBE, self.SPECTRAL)
        bases = self._recording_bases(monkeypatch)
        model.curve(*self._in_y0(0.0))
        held = model._spectrum
        model.curve(*self._in_y0(1.5))  # beyond reach: solved afresh, and held in its place
        assert bases == [None, held] and model._spectrum is not held
        held = model._spectrum
        nearby = model.curve(*self._in_y0(0.6))  # 0.9 reaches from the held point
        assert bases[2:] == [held] and model._spectrum is held
        np.testing.assert_allclose(nearby.probs, fresh.curve(*self._in_y0(0.6)).probs,
                                   rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(b=st.floats(-215.0, -120.0), y0=st.floats(-4.5, -4.12),
       rho=st.floats(-0.6, 0.6), gamma=st.floats(-0.4, 0.0))
def test_round_trip_in_the_criterion_7_box(b, y0, rho, gamma):
    snap = synthetic_snapshot("d", b, y0, 0.5, rho, gamma)
    try:
        res = calibrate_snapshot(snap, CFG)
    except (ValueError, CalibrationError) as exc:
        pytest.fail(f"round-trip snapshot failed to calibrate: {exc}")
    assert res.converged
    assert abs(res.gamma - gamma) < 0.01
    assert abs(res.rho - rho) < 0.1


quotes = st.floats(1e-4, 0.3)
NO_INDEX_VOL = "no index-option vol quoted; falling back to sigma_y_default"


@settings(max_examples=30, deadline=None)
@given(usd_5y=quotes, usd_10y=quotes, eur_5y=quotes, eur_10y=quotes,
       fx_vol=st.floats(0.0, 0.5), index_vol=st.none() | st.floats(0.0, 2.0),
       rate=st.floats(-0.02, 0.1), mode=st.sampled_from(["passthrough", "implied"]))
def test_calibration_raises_only_domain_errors(usd_5y, usd_10y, eur_5y, eur_10y, fx_vol,
                                               index_vol, rate, mode):
    snap = MarketSnapshot("d", usd_5y, usd_10y, eur_5y, eur_10y, fx_vol, index_vol, rate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = calibrate_snapshot(snap, replace(COARSE, sigma_y_mode=mode))
        except (CalibrationError, ValueError):
            res = None
    others = [w for w in caught if str(w.message) != NO_INDEX_VOL]
    for w in others:  # for pytest to report
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    fallbacks = len(caught) - len(others)
    if index_vol is not None:
        assert fallbacks == 0
    elif mode == "passthrough" or res is not None:
        # the vol stage ran and fell back to sigma_y_default, once
        assert fallbacks == 1
    else:
        # in implied mode a first hazard fit that fails ends the run before the vol stage
        assert fallbacks <= 1
    if res is not None:
        assert isinstance(res, calibration.CalibrationResult)


class TestBacktest:
    def test_single_date_diagnostics(self):
        snap = synthetic_snapshot("2012-05-07", b=-120.0, y0=-4.4, sigma_y=0.5,
                                  rho=0.2, gamma=-0.25)
        rows = backtest([snap], CFG)
        assert len(rows) == 1
        row = rows[0]
        assert row.error is None
        # at one year the relative basis is a direct gamma estimate
        assert abs(row.rel_basis_1y - row.result.gamma) < 0.02
        assert row.model_spread_5y["usd"] == pytest.approx(snap.spread_usd_5y, abs=1e-4)

    def test_empty_series(self):
        assert backtest([], CFG) == []

    def test_failures_recorded_and_run_continues(self):
        bad = MarketSnapshot("bad", 0.001, 0.05, 0.001, 0.05, 0.1, 0.5, 0.0)
        good = synthetic_snapshot("good", b=-120.0, y0=-4.4, sigma_y=0.5,
                                  rho=0.0, gamma=-0.1)
        rows = backtest([bad, good], CFG)
        assert rows[0].result is None and rows[0].error
        assert rows[1].result is not None and rows[1].error is None


class TestHistoricalCorrelation:
    def test_identical_series(self):
        rng = np.random.default_rng(0)
        x = np.exp(np.cumsum(rng.normal(0, 0.01, 300)))
        out = historical_correlation(x, x, window=50)
        assert np.allclose(out, 1.0)

    def test_antithetic_series(self):
        rng = np.random.default_rng(1)
        logs = np.cumsum(rng.normal(0, 0.01, 300))
        out = historical_correlation(np.exp(logs), np.exp(-logs), window=50)
        assert np.allclose(out, -1.0)

    def test_correlated_gbm_pair(self):
        rho = 0.6
        rng = np.random.default_rng(7)
        n = 1500
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
        x = np.exp(np.cumsum(0.01 * z1))
        y = np.exp(np.cumsum(0.01 * z2))
        out = historical_correlation(x, y, window=250)
        assert abs(np.mean(out) - rho) < 0.1
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_window_and_overlap_validation(self):
        x = np.linspace(1, 2, 40)
        with pytest.raises(ValueError):
            historical_correlation(x, x, window=5)
        with pytest.raises(ValueError):
            historical_correlation(x[:20], x[:20], window=30)

    def test_misaligned_series_rejected(self):
        x = np.linspace(1, 2, 40)
        with pytest.raises(ValueError, match="^series must be 1-d and aligned$"):
            historical_correlation(x, x[:-1], window=10)
        with pytest.raises(ValueError, match="^series must be 1-d and aligned$"):
            historical_correlation(x.reshape(4, 10), x.reshape(4, 10), window=10)

    @pytest.mark.parametrize("series", ["fx_series", "spread_series"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_series_rejected(self, series, bad):
        x = np.linspace(1, 2, 40)
        y = x.copy()
        y[17] = bad
        pair = {"fx_series": x, "spread_series": x, series: y}
        with pytest.raises(ValueError, match="^log-returns need positive series$"):
            historical_correlation(**pair, window=10)

    def test_non_integer_window_is_named(self):
        x = np.linspace(1, 2, 40)
        with pytest.raises(ValueError, match="^window must be an integer, got 12.5$"):
            historical_correlation(x, x, window=12.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("series", ["fx_series", "spread_series"])
    def test_non_finite_series_is_named(self, series, bad):
        x = np.linspace(1, 2, 40)
        y = x.copy()
        y[17] = bad
        pair = {"fx_series": x, "spread_series": x, series: y}
        with pytest.raises(ValueError, match=f"^{series} must be finite, got {bad}$"):
            historical_correlation(**pair, window=10)
