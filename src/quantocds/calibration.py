"""Calibration of the hazard and quanto parameters to dual-currency quotes.

The per-date pipeline has three stages: set sigma_y from the 1M
index-option vol (pass-through by default, or implied from a small MC
round trip at a hazard fitted with the placeholder vol, or with the quoted
vol where the placeholder cannot fit the quotes), fit (b, y0) to the
liquid-currency 5Y/10Y par spreads at that vol, then fit (rho, gamma) to
the contractual-currency quotes at that liquid hazard, which the liquid
quotes alone determine.  All stages of one snapshot price through one
memoised spread model.  Both fits and the implied vol's root find run
`_fit`, a small bounded trust-region Gauss-Newton that updates its
Jacobian from points already priced and stops at the model's round-off,
so no stage loads scipy.optimize.  The spread model prices a point within
`pde._REACH` of the last one it solved afresh from that solve's
eigendecomposition (`pde._nearby_1f`), so on the spectral path a Jacobian,
and most closing steps, cost no eigensolve.  The mean reversion stays
pinned at a small value throughout, which makes b act through the product
a*b only; `CalibrationResult.ab` exposes that product.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import pde
from .cds import CdsContract, par_spread
from .curves import SurvivalCurve
from .model import HazardParams, QuantoFxParams, correlation_basis_gap, devaluation_estimate


class CalibrationError(RuntimeError):
    pass


# what `calibrate_sigma_y` warns for a snapshot without an index vol
NO_INDEX_VOL = "no index-option vol quoted; falling back to sigma_y_default"


@dataclass(frozen=True)
class MarketSnapshot:
    """One business date of quotes, spreads and vols as annualized decimals."""

    # no market quotes a spread or vol above this (1,000,000 bp, a vol of 10,000 %),
    # and refusing one keeps the fits' squares of bp residuals and of vols finite
    MAX_QUOTE: ClassVar[float] = 100.0

    date: str
    spread_usd_5y: float
    spread_usd_10y: float
    spread_eur_5y: float
    spread_eur_10y: float
    fx_atm_vol: float
    index_option_vol_1m: float | None
    rate: float

    def __post_init__(self) -> None:
        for name in ("spread_usd_5y", "spread_usd_10y", "spread_eur_5y", "spread_eur_10y"):
            if not 0.0 < getattr(self, name) <= self.MAX_QUOTE:
                raise ValueError(f"{name} must be > 0 and at most {self.MAX_QUOTE:g}, "
                                 f"got {getattr(self, name)}")
        for name in ("fx_atm_vol", "index_option_vol_1m"):
            vol = getattr(self, name)
            if vol is not None and not 0.0 <= vol <= self.MAX_QUOTE:
                raise ValueError(f"{name} must be >= 0 and at most {self.MAX_QUOTE:g}, got {vol}")
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")


@dataclass(frozen=True)
class CalibrationConfig:
    # fixed for every run, and readable on an instance
    a_fixed: ClassVar[float] = 1e-4
    sigma_y_default: ClassVar[float] = 0.5
    recovery: ClassVar[float] = 0.4
    z0: ClassVar[float] = 1.0  # par spreads are homogeneous in z0; level is cosmetic
    tenors: ClassVar[tuple[float, float]] = (5.0, 10.0)  # the snapshot schema's quotes
    width_sigmas: ClassVar[float] = pde._WIDTH_SIGMAS

    sigma_y_mode: str = "passthrough"  # or "implied"
    tolerance_bp: float = 0.5
    single_ccy_tolerance_bp: float = 0.1
    max_iterations: int = 200
    n_y: int = 161
    n_t_per_year: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("tolerance_bp", "single_ccy_tolerance_bp"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {getattr(self, name)}")
        for name, least in (("max_iterations", 1), ("n_y", 3), ("n_t_per_year", 1)):
            n = getattr(self, name)
            if not (isinstance(n, numbers.Integral) and n >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.sigma_y_mode not in ("passthrough", "implied"):
            raise ValueError(f"unknown sigma_y_mode {self.sigma_y_mode!r}")


@dataclass(frozen=True)
class CalibrationResult:
    """Joint-stage fit of one snapshot.

    ``b`` and ``y0`` are the liquid-currency fit, unchanged.  ``iterations``
    is `_fit`'s ``nfev`` for the (rho, gamma) fit: its seed and the points
    its trust-region steps evaluated, up to and including the first at the
    round-off floor, where the fit stops.  Most Jacobians are secant
    updates from those points and cost no evaluation; the first one, and
    one after a step rejected on a secant Jacobian or short of a quarter of
    the predicted reduction, is a forward difference of two further
    evaluations, which ``iterations`` leaves out.  On the spectral path
    most evaluations, the forward differences among them, cost no
    eigensolve (`_SpreadModel`).  It counts nothing of the liquid-currency
    stage.
    """

    date: str
    b: float
    y0: float
    sigma_y: float
    rho: float
    gamma: float
    residuals_bp: dict[str, float]
    iterations: int
    converged: bool
    a: float

    @property
    def ab(self) -> float:
        """Effective log-hazard drift a*b; the identified combination when
        the mean reversion is pinned near zero."""
        return self.a * self.b

    def max_residual_bp(self) -> float:
        return max(abs(v) for v in self.residuals_bp.values())


class _SpreadModel:
    """Model par spreads for one snapshot at the calibration grid.

    The liquid (USD) curve is the contractual one at rho = gamma = 0: no
    drift tilt and intensity scale 1, so one method prices both currencies.
    The model memoises its curves and holds one spectral solve
    (`pde._Spectrum`): that of the last point it solved afresh, none where
    that solve marched.  It prices every new point from the held solve by
    the first-order update (`pde._nearby_1f`), which matches a fresh solve
    within 1e-12 (``TestNearbySolve`` in tests/test_pde.py); the fits'
    forward-difference points are such points.  A point the update hands
    back (beyond `pde._REACH` of the held solve, the spot node moved, the
    gate left, a value not finite) is solved afresh, and its solve replaces
    the held one.
    """

    def __init__(self, snapshot: MarketSnapshot, cfg: CalibrationConfig):
        self.cfg = cfg
        self.rate = snapshot.rate
        self.sigma_z = snapshot.fx_atm_vol
        self.contracts = [CdsContract(tenor=t, recovery=cfg.recovery) for t in cfg.tenors]
        self.tenors = pde._sorted_tenors(self.contracts[-1].payment_times())  # checked once
        self.n_t = max(1, int(round(cfg.n_t_per_year * cfg.tenors[-1])))
        # each stage reprices points the last one priced: march once
        self._memo: dict[tuple[float, ...], SurvivalCurve] = {}
        self._spectrum: pde._Spectrum | None = None

    def curve(self, b: float, y0: float, sigma_y: float,
              rho: float = 0.0, gamma: float = 0.0) -> SurvivalCurve:
        key = (b, y0, sigma_y, rho, gamma)
        if key not in self._memo:
            h = HazardParams(a=self.cfg.a_fixed, b=b, sigma_y=sigma_y, y0=y0)
            fx = QuantoFxParams(z0=self.cfg.z0, sigma_z=self.sigma_z, gamma_z=gamma, rho=rho)
            # the one-factor reduction of `pde.quanto_survival_curve_1f`
            tilt, kill_scale = fx.rho * h.sigma_y * fx.sigma_z, 1.0 + fx.gamma_z
            solve = dict(n_y=self.cfg.n_y, n_t=self.n_t, drift_shift=tilt, kill_scale=kill_scale)
            p = pde._nearby_1f(self._spectrum, h, self.tenors, **solve)
            if p is None:
                p, self._spectrum = pde.survival_curve_1f(h, self.tenors, with_spectrum=True,
                                                          **solve)
            self._memo[key] = SurvivalCurve(self.tenors, p)
        return self._memo[key]

    def spreads(self, b: float, y0: float, sigma_y: float,
                rho: float = 0.0, gamma: float = 0.0) -> tuple[float, float]:
        """5Y and 10Y par spreads; USD at the default rho = gamma = 0."""
        curve = self.curve(b, y0, sigma_y, rho, gamma)
        return tuple(par_spread(curve, self.rate, c).par_spread for c in self.contracts)


# every stage of one snapshot shares one model; a new snapshot or config
# evicts it, so no curve outlives the snapshot being calibrated
_spread_model = functools.lru_cache(maxsize=1)(_SpreadModel)

# with a pinned near zero, b acts through a*b; flat spread curves need
# a*b ~ -sigma_y^2/2, so the b range must scale with the admissible vols
_B_BOUNDS = (-3000.0, 3000.0)
_Y0_BOUNDS = (-12.0, 1.0)
_SIGMA_Y_BOUNDS = (1e-4, 3.0)


# forward-difference step of scipy's 2-point scheme, relative to max(1, |x|)
_FD_STEP = math.sqrt(np.finfo(float).eps)
# residuals at or below this many bp are the spread model's round-off
# (3e-12 to 6e-11 bp): a fit ends at the first point that reaches it
_FLOOR_BP = 1e-10
# a step shorter than this, relative to |x|, is round-off: the fit ends
_XTOL = 1e-10


def _forward_jacobian(residual, x: np.ndarray, f: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Forward differences at ``x``, where ``residual(x)`` is ``f``; a step
    that would cross an upper bound is taken inward."""
    h = _FD_STEP * np.maximum(1.0, np.abs(x))
    h = np.where(x + h > upper, -h, h)
    J = np.empty((f.size, x.size))
    for j in range(x.size):
        xj = x.copy()
        xj[j] += h[j]
        J[:, j] = (residual(xj) - f) / (xj[j] - x[j])
    return J


def _dogleg(J: np.ndarray, f: np.ndarray, radius: float) -> np.ndarray:
    """Powell's dogleg step for ``min |f + J h|`` within ``|h| <= radius``."""
    gauss_newton = -np.linalg.lstsq(J, f, rcond=None)[0]
    if np.linalg.norm(gauss_newton) <= radius:
        return gauss_newton
    g = J.T @ f
    cauchy = -(g @ g) / np.sum((J @ g) ** 2) * g
    if np.linalg.norm(cauchy) >= radius:
        return -radius / np.linalg.norm(g) * g
    d = gauss_newton - cauchy  # leg from the Cauchy point to the radius
    b, c = cauchy @ d, cauchy @ cauchy - radius**2
    return cauchy + (-b + math.sqrt(b * b - (d @ d) * c)) / (d @ d) * d


def _fit(residual, x0: np.ndarray, bounds, x_scale, max_nfev: int):
    """Bounded trust-region Gauss-Newton with a secant Jacobian, stopped at
    round-off; returns ``(x, f, nfev)``.

    Each step is Powell's dogleg in ``x_scale`` units, projected into
    ``bounds``, with a parameter held on a bound the gradient pushes it
    past; it is accepted if it lowers the sum of squares.  The fit ends at
    the first point whose residuals all lie within ``_FLOOR_BP``, in the
    residual's own units (bp for the spread fits, vol for
    `calibrate_sigma_y`'s root), or else after a step under ``_XTOL``
    relative to ``x`` (as a collapsed trust radius gives), or at
    ``max_nfev`` points: ``nfev`` counts the seed and the trial points.
    The Jacobian is a forward difference (`_forward_jacobian`)
    at the seed, after a step rejected on a secant Jacobian and after one
    accepted short of a quarter of its predicted reduction; otherwise each
    accepted step updates it by Broyden's rank-one formula.  ``residual``
    prices every point, the forward differences included; the spread fits'
    model prices those and most closing steps by a first-order update
    (`_SpreadModel`).
    """
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    scale = np.asarray(x_scale, dtype=float)
    x = np.array(x0, dtype=float)
    f, nfev = residual(x), 1
    radius = float(np.linalg.norm(x / scale)) or 1.0
    J = None
    while np.max(np.abs(f)) > _FLOOR_BP and nfev < max_nfev:
        if J is None:
            J, secant = _forward_jacobian(residual, x, f, upper), False
        g = J.T @ f
        held = ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))
        x_new = np.clip(x + scale * _dogleg(J * scale * ~held, f, radius), lower, upper)
        step = x_new - x
        if not step.any():
            break
        f_new, nfev = residual(x_new), nfev + 1
        if np.max(np.abs(f_new)) <= _FLOOR_BP:
            return x_new, f_new, nfev
        predicted = f @ f - np.sum((f + J @ step) ** 2)
        actual = f @ f - f_new @ f_new
        ratio = actual / predicted if predicted > 0 and np.isfinite(actual) else 0.0
        scaled = float(np.linalg.norm(step / scale))
        if ratio < 0.25:
            radius = 0.25 * scaled
        elif ratio > 0.75 and scaled > 0.95 * radius:
            radius *= 2.0
        if actual > 0:
            if ratio >= 0.25:
                J, secant = J + np.outer(f_new - f - J @ step, step) / (step @ step), True
            else:
                J = None
            x, f = x_new, f_new
        elif secant:
            J = None
        if np.linalg.norm(step) < _XTOL * (_XTOL + np.linalg.norm(x)):
            break
    return x, f, nfev


# perfbench/tracing.py resolves and wraps the fit by this name
least_squares = _fit


def calibrate_single_ccy(
    snapshot: MarketSnapshot, cfg: CalibrationConfig | None = None,
    sigma_y: float | None = None,
) -> tuple[float, float]:
    """Fit (b, y0) so the liquid-currency 5Y/10Y par spreads are repriced.

    ``sigma_y`` defaults to the config placeholder used before the vol
    stage has run.  Raises CalibrationError if the residuals cannot be
    brought below the single-currency tolerance.
    """
    cfg = cfg or CalibrationConfig()
    sigma_y = cfg.sigma_y_default if sigma_y is None else sigma_y
    model = _spread_model(snapshot, cfg)
    targets = np.array([snapshot.spread_usd_5y, snapshot.spread_usd_10y])

    def residuals(x):
        return (np.array(model.spreads(x[0], x[1], sigma_y)) - targets) * 1e4

    x, f, _ = _fit(residuals, _seed_hazard(snapshot, cfg, sigma_y),
                   ([_B_BOUNDS[0], _Y0_BOUNDS[0]], [_B_BOUNDS[1], _Y0_BOUNDS[1]]),
                   [100.0, 0.5], cfg.max_iterations)
    worst = float(np.max(np.abs(f)))
    if worst > cfg.single_ccy_tolerance_bp:
        raise CalibrationError(
            f"single-currency fit stuck at {worst:.3f} bp "
            f"(5Y {f[0]:+.3f}, 10Y {f[1]:+.3f}) at sigma_y = {sigma_y:g} "
            f"on {snapshot.date}"
        )
    return float(x[0]), float(x[1])


def _seed_hazard(snapshot: MarketSnapshot, cfg: CalibrationConfig,
                 sigma_y: float) -> np.ndarray:
    """Triangle-based starting point: level from the 5Y quote, drift from
    the 5Y->10Y slope net of the vol convexity sigma_y^2/2."""
    lam5 = snapshot.spread_usd_5y / (1.0 - cfg.recovery)
    y0 = math.log(lam5)
    growth = (math.log(snapshot.spread_usd_10y) - math.log(snapshot.spread_usd_5y)) / 2.5
    drift = growth - 0.5 * sigma_y**2
    b = np.clip(drift / cfg.a_fixed + y0, *_B_BOUNDS)
    return np.array([b, np.clip(y0, *_Y0_BOUNDS)])


def calibrate_sigma_y(
    snapshot: MarketSnapshot,
    p_y: tuple[float, float] | None,
    cfg: CalibrationConfig | None = None,
) -> float:
    """sigma_y from the 1M index-option vol.

    Pass-through mode assigns the quote directly and ignores ``p_y``, which
    may be None.  Implied mode matches the model's one-month log-spread
    volatility at the liquid hazard ``p_y``, estimated by simulating the
    log-intensity one month out and repricing a flat-hazard 5Y spread per
    path, to the quote: `_fit` solves for the root in sigma_y, bounded to
    [1e-4, 3] and seeded at the quote clipped to those bounds, and stops
    where the vol misses the quote by at most ``_FLOOR_BP``, read as 1e-10
    in vol units, not bp.  A quote outside the model's range at those
    bounds returns the nearer bound.
    """
    cfg = cfg or CalibrationConfig()
    quote = snapshot.index_option_vol_1m
    if quote is None:
        warnings.warn(NO_INDEX_VOL)
        return cfg.sigma_y_default
    if cfg.sigma_y_mode == "passthrough":
        return float(quote)
    if quote == 0.0:
        return 0.0
    if p_y is None:
        raise ValueError("implied sigma_y needs the liquid hazard fit p_y")
    b, y0 = p_y

    def implied_minus_quote(x):
        return np.array([_log_spread_vol_1m(b, y0, x[0], snapshot.rate, cfg) - quote])

    x, _, _ = _fit(implied_minus_quote, np.clip([quote], *_SIGMA_Y_BOUNDS), _SIGMA_Y_BOUNDS,
                   [1.0], cfg.max_iterations)
    return float(x[0])


def _log_spread_vol_1m(b: float, y0: float, sigma: float, rate: float,
                       cfg: CalibrationConfig, n_paths: int = 20_000) -> float:
    """Annualized stdev of the log 5Y par spread one month ahead.

    Draws the log-intensity one month out from `pde.ou_mean_std`'s moments
    and uses the flat-hazard closed forms per path; common random numbers
    make the estimator smooth in sigma for the root find.
    """
    dt = 1.0 / 12.0
    mean, sd = pde.ou_mean_std(HazardParams(a=cfg.a_fixed, b=b, sigma_y=sigma, y0=y0), dt)
    rng = np.random.default_rng(cfg.seed)
    y = mean + sd * rng.standard_normal(n_paths)
    lam = np.exp(y)
    t5 = cfg.tenors[0]
    contract = CdsContract(tenor=t5, recovery=cfg.recovery)
    # flat-hazard legs: annuity and LGD * E[DF at default]
    disc = np.exp(-np.outer(lam + rate, contract.payment_times()))
    annuity = (disc * contract.accruals()).sum(axis=1)
    prot = (1.0 - cfg.recovery) * lam / (lam + rate) * (
        1.0 - np.exp(-(lam + rate) * t5)
    ) if rate != 0.0 else (1.0 - cfg.recovery) * (1.0 - np.exp(-lam * t5))
    spreads = prot / annuity
    return float(np.std(np.log(spreads), ddof=1) * math.sqrt(12.0))


def calibrate_quanto(
    snapshot: MarketSnapshot,
    p_y: tuple[float, float],
    sigma_y: float,
    cfg: CalibrationConfig | None = None,
) -> CalibrationResult:
    """Fit (rho, gamma) to the contractual-currency quotes at the liquid
    hazard ``p_y`` = (b, y0).

    The liquid par spreads do not depend on (rho, gamma), so the solved
    ``p_y`` is returned unchanged and only the EUR pair is fitted, seeded at
    rho = 0 and gamma at the relative 5Y basis.  Non-convergence returns a
    result flagged converged=False rather than raising.
    """
    cfg = cfg or CalibrationConfig()
    model = _spread_model(snapshot, cfg)
    b, y0 = p_y
    targets = np.array([snapshot.spread_eur_5y, snapshot.spread_eur_10y])
    gamma0 = devaluation_estimate(snapshot.spread_eur_5y, snapshot.spread_usd_5y)

    def residuals(x):
        return (np.array(model.spreads(b, y0, sigma_y, *x)) - targets) * 1e4

    x, f, nfev = _fit(residuals, np.array([0.0, float(np.clip(gamma0, -0.95, 4.9))]),
                      ([-1.0, -1.0 + 1e-9], [1.0, 5.0]), [0.5, 0.2], cfg.max_iterations)
    usd_5y, usd_10y = model.spreads(b, y0, sigma_y)
    residuals_bp = {
        "usd_5y": (usd_5y - snapshot.spread_usd_5y) * 1e4,
        "usd_10y": (usd_10y - snapshot.spread_usd_10y) * 1e4,
        "eur_5y": float(f[0]),
        "eur_10y": float(f[1]),
    }
    return CalibrationResult(
        date=snapshot.date,
        b=b,
        y0=y0,
        sigma_y=float(sigma_y),
        rho=float(x[0]),
        gamma=float(x[1]),
        residuals_bp=residuals_bp,
        iterations=nfev,
        converged=max(abs(v) for v in residuals_bp.values()) < cfg.tolerance_bp,
        a=cfg.a_fixed,
    )


def calibrate_snapshot(
    snapshot: MarketSnapshot, cfg: CalibrationConfig | None = None
) -> CalibrationResult:
    """Full three-stage pipeline for one date; the joint stage fits
    (rho, gamma) at the hazard fitted at the vol the joint stage uses."""
    cfg = cfg or CalibrationConfig()
    p_y = None
    if cfg.sigma_y_mode == "implied":
        # the implied vol is matched at a hazard fitted with the placeholder
        # vol, or with the quoted vol where the placeholder cannot fit
        try:
            p_y = calibrate_single_ccy(snapshot, cfg)
        except CalibrationError:
            quote = snapshot.index_option_vol_1m
            if quote is None or quote == cfg.sigma_y_default:
                raise
            p_y = calibrate_single_ccy(snapshot, cfg, sigma_y=quote)
    sigma_y = calibrate_sigma_y(snapshot, p_y, cfg)
    p_y = calibrate_single_ccy(snapshot, cfg, sigma_y=sigma_y)
    return calibrate_quanto(snapshot, p_y, sigma_y, cfg)


@dataclass(frozen=True)
class BacktestRow:
    date: str
    result: CalibrationResult | None
    error: str | None
    model_spread_1y: dict[str, float] = field(default_factory=dict)
    model_spread_5y: dict[str, float] = field(default_factory=dict)
    model_spread_10y: dict[str, float] = field(default_factory=dict)
    rel_basis_1y: float = math.nan
    rel_basis_10y: float = math.nan
    basis_gap_observed: float = math.nan
    basis_gap_diffusive: float = math.nan


def backtest(snapshots, cfg: CalibrationConfig | None = None) -> list[BacktestRow]:
    """Calibrate every snapshot and emit scatter-style diagnostics.

    Per date: the calibration result; model-implied 1Y/5Y/10Y spreads in
    both currencies; the relative 1Y basis (a direct devaluation-rate
    estimate); and the pair (observed 10Y-1Y relative-basis gap, diffusive
    prediction sigma_y sigma_z rho (rpv10 - rpv1)).  Failures are recorded
    per date and the run continues.
    """
    cfg = cfg or CalibrationConfig()
    rows: list[BacktestRow] = []
    for snap in snapshots:
        try:
            result = calibrate_snapshot(snap, cfg)
            rows.append(_diagnostics_row(snap, result, cfg))
        except (CalibrationError, ValueError) as exc:
            rows.append(BacktestRow(date=snap.date, result=None, error=str(exc)))
    return rows


def _diagnostics_row(
    snap: MarketSnapshot, result: CalibrationResult, cfg: CalibrationConfig
) -> BacktestRow:
    model = _spread_model(snap, cfg)
    diag_tenors = (1.0, cfg.tenors[0], cfg.tenors[1])
    usd_curve = model.curve(result.b, result.y0, result.sigma_y)
    eur_curve = model.curve(result.b, result.y0, result.sigma_y, result.rho, result.gamma)
    usd, eur, rpv = {}, {}, {}
    for t in diag_tenors:
        contract = CdsContract(tenor=t, recovery=cfg.recovery)
        usd_res = par_spread(usd_curve, snap.rate, contract)
        usd[t] = usd_res.par_spread
        eur[t] = par_spread(eur_curve, snap.rate, contract).par_spread
        rpv[t] = usd_res.premium_pv01
    rel = {t: (eur[t] - usd[t]) / usd[t] for t in diag_tenors}
    t1, t10 = 1.0, cfg.tenors[1]
    return BacktestRow(
        date=snap.date,
        result=result,
        error=None,
        model_spread_1y={"usd": usd[1.0], "eur": eur[1.0]},
        model_spread_5y={"usd": usd[cfg.tenors[0]], "eur": eur[cfg.tenors[0]]},
        model_spread_10y={"usd": usd[t10], "eur": eur[t10]},
        rel_basis_1y=rel[t1],
        rel_basis_10y=rel[t10],
        basis_gap_observed=rel[t10] - rel[t1],
        basis_gap_diffusive=correlation_basis_gap(
            result.sigma_y, snap.fx_atm_vol, result.rho, rpv[t1], rpv[t10]),
    )


def historical_correlation(fx_series, spread_series, window: int) -> np.ndarray:
    """Rolling Pearson correlation of daily log-returns.

    Both series must be aligned, positive, and long enough to produce at
    least one full window of returns.
    """
    if not isinstance(window, numbers.Integral):
        raise ValueError(f"window must be an integer, got {window!r}")
    if window < 10:
        raise ValueError(f"window must be >= 10 observations, got {window}")
    fx = np.asarray(fx_series, dtype=float)
    sp = np.asarray(spread_series, dtype=float)
    if fx.shape != sp.shape or fx.ndim != 1:
        raise ValueError("series must be 1-d and aligned")
    for name, x in (("fx_series", fx), ("spread_series", sp)):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} must be finite, got {x[~np.isfinite(x)][0]}")
    if fx.size < window + 1:
        raise ValueError(
            f"need at least {window + 1} aligned observations, got {fx.size}"
        )
    if np.any(fx <= 0) or np.any(sp <= 0):
        raise ValueError("log-returns need positive series")
    rx = np.diff(np.log(fx))
    ry = np.diff(np.log(sp))
    from numpy.lib.stride_tricks import sliding_window_view

    wx = sliding_window_view(rx, window)
    wy = sliding_window_view(ry, window)
    cx = wx - wx.mean(axis=1, keepdims=True)
    cy = wy - wy.mean(axis=1, keepdims=True)
    num = np.sum(cx * cy, axis=1)
    den = np.sqrt(np.sum(cx * cx, axis=1) * np.sum(cy * cy, axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = num / den
    return out
