"""Tests of the benchmark itself: each correctness check passes on a real
result and fails on a perturbed one, inputs follow the seed, and the tracer
counts what it wraps.

    python3 -m pytest perfbench/test_perfbench.py -q

The repository's own test run does not collect this file (pyproject's
testpaths names only tests/).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads as w  # noqa: E402
from quantocds import cds, pde  # noqa: E402
from quantocds.cds import CdsContract  # noqa: E402
from quantocds.curves import SurvivalCurve  # noqa: E402
from quantocds.mc import McEstimate  # noqa: E402


def _shift(est: McEstimate, delta: float) -> McEstimate:
    return McEstimate(est.mean + delta, est.std_error, est.ci95_low + delta,
                      est.ci95_high + delta, est.n_paths)


# ---- inputs ---------------------------------------------------------------


def test_closed_form_quote_matches_flat_curve_pricing():
    lam = w.ITALY_LAMBDA
    curve = SurvivalCurve.from_flat_hazard(lam, 0.25 * np.arange(1, 41))
    engine = cds.par_spread(curve, 0.0, CdsContract(tenor=5.0)).par_spread
    assert w.flat_hazard_spread(lam, 5.0) == pytest.approx(engine, rel=1e-12)
    assert 440.0 < w.flat_hazard_spread(lam, 5.0) / w.BP < 450.0


@pytest.mark.parametrize("make", [w.calibrate_cases, w.price_adi_cases, w.mc_symmetry_cases])
def test_inputs_follow_the_seed(make):
    assert make(3) == make(3)
    if make is not w.mc_symmetry_cases:
        assert make(3) != make(4)


def test_every_round_spans_the_box():
    trades = w.price_adi_cases(5)[:w.ADI_TRADES]
    gammas = sorted(t.fx.gamma_z for t in trades)
    lo, hi = w.ADI_BOX["gamma"]
    width = (hi - lo) / w.ADI_TRADES
    assert all(lo + i * width <= g <= lo + (i + 1) * width for i, g in enumerate(gammas))
    assert all(4 * t.tenor == int(4 * t.tenor) for t in trades)


# ---- calibrate ------------------------------------------------------------


@pytest.fixture(scope="module")
def calibrated():
    case = w.calibrate_cases(0)[0]
    return case, w.calibrate_op(case)


def test_calibrate_check_passes(calibrated):
    case, row = calibrated
    assert w.calibrate_check(case, row, None) == []


@pytest.mark.parametrize("field,delta", [("gamma", 0.02), ("rho", 0.2)])
def test_calibrate_check_catches_parameter_shift(calibrated, field, delta):
    case, row = calibrated
    moved = replace(row, result=replace(row.result, **{field: getattr(row.result, field) + delta}))
    assert w.calibrate_check(case, moved, None)


def test_calibrate_check_catches_residual_and_diagnostics(calibrated):
    case, row = calibrated
    res = replace(row.result, residuals_bp={**row.result.residuals_bp, "eur_10y": 0.6})
    assert w.calibrate_check(case, replace(row, result=res), None)
    diag = {k: v + 1.0 * w.BP for k, v in row.model_spread_5y.items()}
    assert w.calibrate_check(case, replace(row, model_spread_5y=diag), None)


# ---- price-adi ------------------------------------------------------------


@pytest.fixture(scope="module")
def priced():
    trade = min(w.price_adi_cases(0)[:w.ADI_TRADES], key=lambda t: t.tenor)
    return trade, w.price_adi_op(trade), w.price_adi_reference(trade)


def test_price_adi_check_passes(priced):
    assert w.price_adi_check(*priced) == []


def test_price_adi_check_catches_spread_shift(priced):
    trade, res, ref = priced
    leg = replace(res.contractual, par_spread=res.contractual.par_spread + 0.1 * w.BP)
    assert w.price_adi_check(trade, replace(res, contractual=leg), ref)


@pytest.mark.parametrize("curve", ["curve_liquid", "curve_contractual"])
def test_price_adi_check_catches_survival_shift(priced, curve):
    trade, res, ref = priced
    c = getattr(res, curve)
    moved = SurvivalCurve(c.tenors, c.probs - 0.01)
    assert w.price_adi_check(trade, replace(res, **{curve: moved}), ref)


def test_total_devaluation_must_kill_the_contractual_spread(priced):
    trade, res, ref = priced
    total = replace(trade, fx=replace(trade.fx, gamma_z=-1.0))
    leg = replace(res.contractual, par_spread=2.0 * w.BP)
    tight = replace(ref, reduced=replace(res, contractual=leg))
    assert any("total devaluation" in p
               for p in w.price_adi_check(total, replace(res, contractual=leg), tight))


# ---- mc-symmetry ----------------------------------------------------------


@pytest.fixture(scope="module")
def studied():
    case = w.SymmetryCase(-0.5, 11)
    return case, w._study(case, 20_000, w.SYM_STEPS), w.mc_symmetry_reference(case)


def test_mc_symmetry_check_passes(studied):
    assert w.mc_symmetry_check(*studied) == []


def test_mc_symmetry_check_catches_martingale_shift(studied):
    case, pt, ref = studied
    m = pt.martingale
    away = math.copysign(5.0 * m.std_error, m.mean - 1.0)
    assert w.mc_symmetry_check(case, replace(pt, martingale=_shift(m, away)), ref)


def test_mc_symmetry_check_catches_dual_gap_and_control(studied):
    case, pt, ref = studied
    rep = pt.report
    se = math.hypot(rep.p_hat_liquid.std_error, rep.p_hat_contractual.std_error)
    gap = replace(rep, p_hat_contractual=_shift(rep.p_hat_contractual, 4.0 * se))
    assert w.mc_symmetry_check(case, replace(pt, report=gap), ref)
    assert w.mc_symmetry_check(case, replace(pt, martingale_biased=pt.martingale), ref)


def test_mc_symmetry_check_catches_survival_shift(studied):
    case, pt, ref = studied
    moved = replace(pt.report, p_hat_liquid=_shift(pt.report.p_hat_liquid, 0.01))
    assert w.mc_symmetry_check(case, replace(pt, report=moved), ref)


# ---- tracing and run.py -----------------------------------------------------


def test_tracer_counts_and_restores():
    trade = w.price_adi_cases(0)[0]
    original = pde.survival_curve_1f
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_op()
        cds.quanto_par_spread(trade.h, trade.fx, w.CLI_RATES, CdsContract(tenor=1.0),
                              pde.SolverConfig(n_x=11, n_y=21, n_t=40), engine="reduced")
        tr.begin_op()
        pde.survival_curve_1f(trade.h, [1.0], n_y=21, n_t=40)
        pde.survival_curve_1f(trade.h, [1.0], n_y=21, n_t=40)
    finally:
        tr.uninstall()
    assert pde.survival_curve_1f is original
    m = tr.metrics(2)
    assert m["pde.march_1f_calls"] == 2.0  # 4 marches over 2 operations
    assert m["pde.march_1f_distinct_ratio"] == 0.75  # the repeat in op 2
    assert m["cds.par_spread_calls"] == 1.0
    assert m["pde.banded_solves"] == 80.0  # 4 marches x 40 steps over 2 operations
    assert m["curves.evals"] > 0 and m["pde.adi_solves"] == 0.0
    spans = tr.spans
    assert all(s[3] < i for i, s in enumerate(spans))  # parents open before children
    assert set(m) == {name for name, _ in tracing.PER_LAYER}


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "calibrate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
