"""CDS cash-flow engine: leg PVs, par spreads and quanto par spreads.

Conventions are deliberately light: quarterly premium schedule with flat
accrual fractions (a short final stub if the tenor is not a multiple of a
quarter), a single recovery shared by every currency, continuous discount
factors from flat rates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import SurvivalCurve
from .model import HazardParams, QuantoFxParams, RatePair
from . import pde

# premium accrual period (quarterly) and protection-integral step (weekly), years
_PERIOD = 0.25
_PROTECTION_STEP = 1.0 / 52.0


def checked_tenor(tenor: float) -> float:
    """``tenor`` if a contract can run that long, else a ValueError naming it.

    The longest contract is ``pde.MAX_TENOR`` years: the schedule holds one
    payment time a quarter, so a tenor without a bound would size an array
    without one (1e308 overflowed its count).
    """
    if not 0.0 < tenor < math.inf:
        raise ValueError(f"tenor must be positive and finite, got {tenor}")
    if tenor > pde.MAX_TENOR:
        raise ValueError(f"tenor must be at most {pde.MAX_TENOR:g} years, got {tenor}")
    return tenor


@dataclass(frozen=True)
class CdsContract:
    """Single-name CDS with a quarterly premium schedule.

    ``recovery`` is the auction recovery (LGD = 1 - recovery), shared by
    both currencies of a quanto pair.
    """

    tenor: float
    recovery: float = 0.4
    notional: float = 1.0

    def __post_init__(self) -> None:
        checked_tenor(self.tenor)
        if not 0.0 <= self.recovery < 1.0:
            raise ValueError(f"recovery must lie in [0, 1), got {self.recovery}")
        if not (math.isfinite(self.notional) and self.notional != 0.0):
            # a negative notional flips the legs' sign; zero leaves no par spread
            raise ValueError(f"notional must be nonzero and finite, got {self.notional}")
        # the schedule is fixed by the tenor: build it once, read-only
        n_full = int(math.floor(self.tenor / _PERIOD + 1e-9))
        times = _PERIOD * np.arange(1, n_full + 1)
        if times.size == 0 or times[-1] < self.tenor - 1e-9:
            times = np.append(times, self.tenor)
        accruals = np.diff(times, prepend=0.0)
        times.flags.writeable = accruals.flags.writeable = False
        object.__setattr__(self, "_schedule", (times, accruals))

    @property
    def lgd(self) -> float:
        return 1.0 - self.recovery

    def payment_times(self) -> np.ndarray:
        """Payment grid T_1...T_N; appends a stub if the tenor is ragged."""
        return self._schedule[0]

    def accruals(self) -> np.ndarray:
        return self._schedule[1]


@dataclass(frozen=True, slots=True)
class ParSpreadResult:
    """Par spread with its building blocks.

    ``premium_pv01`` is the risky annuity in years (PV of one unit of
    running spread per unit notional); ``protection_pv`` carries the
    notional, so par_spread = protection_pv / (notional * premium_pv01).
    """

    par_spread: float
    premium_pv01: float
    protection_pv: float


@dataclass(frozen=True, slots=True)
class QuantoParSpreads:
    liquid: ParSpreadResult
    contractual: ParSpreadResult
    curve_liquid: SurvivalCurve
    curve_contractual: SurvivalCurve


def protection_leg_pv(curve: SurvivalCurve, r: float, contract: CdsContract) -> float:
    """PV of the default payment: LGD * int DF(t) (-dp(t)).

    The integral is discretized on a refinement of at most a week, with
    midpoint discounting of each interval's default mass.
    """
    T = contract.payment_times()[-1]
    _require_coverage(curve, T)
    ts, df_mid = _protection_grid(T, r)
    p = curve(ts)
    return contract.notional * contract.lgd * float(np.sum(df_mid * (p[:-1] - p[1:])))


@functools.lru_cache(maxsize=32)
def _protection_grid(T: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The protection integral's nodes on [0, T] and its midpoint discount
    factors at rate r; read-only, since calls share them."""
    n = max(1, int(math.ceil(T / _PROTECTION_STEP)))
    ts = np.linspace(0.0, T, n + 1)
    df_mid = np.exp(-r * 0.5 * (ts[:-1] + ts[1:]))
    ts.flags.writeable = df_mid.flags.writeable = False
    return ts, df_mid


def par_spread(curve: SurvivalCurve, r: float, contract: CdsContract) -> ParSpreadResult:
    """Spread equating the two legs, plus the risky annuity behind it."""
    annuity = _risky_annuity(curve, r, contract)
    if annuity <= 0.0:
        raise ValueError("risky annuity is not positive; cannot quote a par spread")
    protection = protection_leg_pv(curve, r, contract)
    return ParSpreadResult(
        par_spread=protection / (contract.notional * annuity),
        premium_pv01=annuity,
        protection_pv=protection,
    )


def _risky_annuity(curve: SurvivalCurve, r: float, contract: CdsContract) -> float:
    """sum_i delta_i * DF(T_i) * p(T_i) over the premium schedule."""
    times = contract.payment_times()
    _require_coverage(curve, times[-1])
    return float(np.sum(contract.accruals() * np.exp(-r * times) * curve(times)))


def _require_coverage(curve: SurvivalCurve, T: float) -> None:
    if curve.horizon < T * (1 - 1e-12):
        raise ValueError(
            f"survival curve ends at {curve.horizon:g}y, contract needs {T:g}y"
        )


def quanto_par_spread(
    h: HazardParams,
    fx: QuantoFxParams,
    rates: RatePair,
    contract: CdsContract,
    cfg: pde.SolverConfig | None = None,
    engine: str = "adi",
) -> QuantoParSpreads:
    """Par spreads of the same contract quoted in the liquid and the
    contractual currency.

    Each leg pair is priced off its own survival curve (liquid-measure p,
    contractual-measure p_hat on the payment tenors) and its own flat
    discount rate.
    """
    tenors = contract.payment_times()
    curve_hat, curve_p = pde.quanto_survival_curve(h, fx, rates, tenors, cfg, engine=engine)
    liquid = par_spread(curve_p, rates.r, contract)
    contractual = par_spread(curve_hat, rates.r_hat, contract)
    return QuantoParSpreads(
        liquid=liquid,
        contractual=contractual,
        curve_liquid=curve_p,
        curve_contractual=curve_hat,
    )
