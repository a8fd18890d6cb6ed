"""Importing quantocds loads numpy only: scipy.linalg loads with the first
PDE solve, and nothing loads scipy.optimize, since every fit and the
implied vol's root find run the in-house ``calibration._fit``.  Each check
runs in a fresh interpreter, since this test session has long since loaded
scipy."""

import os
import subprocess
import sys
from pathlib import Path

import quantocds

SRC = str(Path(quantocds.__file__).resolve().parents[1])


def scipy_loaded_after(code: str) -> list[str]:
    """The scipy modules in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    probe = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_scipy():
    assert scipy_loaded_after("import quantocds, quantocds.validation, quantocds.cli") == []


def test_symmetry_study_loads_no_scipy():
    loaded = scipy_loaded_after(
        "from quantocds import validation\n"
        "points = validation.fx_symmetry_study(n_paths=1000, n_steps=10)\n"
        "assert len(points) == 4"
    )
    assert loaded == []


def test_reduced_price_loads_linalg_but_not_optimize():
    loaded = scipy_loaded_after(
        "from quantocds import CdsContract, HazardParams, QuantoFxParams, RatePair, cds\n"
        "q = cds.quanto_par_spread(HazardParams(1e-4, -120.0, 0.5, -4.4),\n"
        "                          QuantoFxParams(1.0, 0.1, -0.2, 0.3), RatePair(0.0, 0.0),\n"
        "                          CdsContract(1.0), engine='reduced')\n"
        "assert 0 < q.contractual.par_spread < q.liquid.par_spread"
    )
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]


BACKTEST = (
    "from quantocds import calibration\n"
    "snap = calibration.MarketSnapshot('2012-05-07', 0.0440, 0.0460, 0.0350, 0.0370,\n"
    "                                  0.10, 0.50, 0.0)\n"
    "rows = calibration.backtest([snap], calibration.CalibrationConfig(sigma_y_mode={mode!r}))\n"
    "assert rows[0].error is None and rows[0].result.converged"
)


def test_passthrough_backtest_loads_linalg_but_not_optimize():
    loaded = scipy_loaded_after(BACKTEST.format(mode="passthrough"))
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]


def test_implied_backtest_loads_no_optimize():
    loaded = scipy_loaded_after(BACKTEST.format(mode="implied"))
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]
