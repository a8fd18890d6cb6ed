"""Multi-currency (quanto) CDS pricing under a stochastic-hazard model with
an FX devaluation jump at default, with Monte Carlo and finite-difference
engines cross-validating each other and a market calibration layer."""

from .model import (
    HazardParams,
    QuantoFxParams,
    RatePair,
    correlation_basis_gap,
    devaluation_estimate,
    fx_jump_inverse,
    no_arb_drift_z,
)
from .curves import SurvivalCurve
from .mc import (
    FxSymmetryReport,
    McEstimate,
    QuantoBondMc,
    SimConfig,
    quanto_bond_mc,
    survival_curve_mc,
    survival_probability_mc,
    verify_fx_symmetry,
    verify_rn_martingale,
)
from .pde import (
    Grid2D,
    PdeInstabilityError,
    PdeSolution,
    SolverConfig,
    quanto_survival_curve,
    quanto_survival_curve_1f,
    solve_foreign_measure_pde,
    solve_quanto_pde,
    survival_curve_1f,
)
from .cds import (
    CdsContract,
    ParSpreadResult,
    QuantoParSpreads,
    par_spread,
    protection_leg_pv,
    quanto_par_spread,
)
from .calibration import (
    BacktestRow,
    CalibrationConfig,
    CalibrationError,
    CalibrationResult,
    MarketSnapshot,
    backtest,
    calibrate_quanto,
    calibrate_sigma_y,
    calibrate_single_ccy,
    calibrate_snapshot,
    historical_correlation,
)

__version__ = "0.1.0"
