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
        pde.checked_tenor(self.tenor)
        if not 0.0 <= self.recovery < 1.0:
            raise ValueError(f"recovery must lie in [0, 1), got {self.recovery}")
        if not (math.isfinite(self.notional) and self.notional != 0.0):
            # a negative notional flips the legs' sign; zero leaves no par spread
            raise ValueError(f"notional must be nonzero and finite, got {self.notional}")
        # the schedule is fixed by the tenor: build it once, read-only
        n_full = int(math.floor(self.tenor / _PERIOD + 1e-9))
        stub = n_full == 0 or _PERIOD * n_full < self.tenor - 1e-9
        times = _PERIOD * np.arange(1, n_full + 1 + stub)
        if stub:
            times[-1] = self.tenor
        accruals = np.empty_like(times)
        accruals[0] = times[0]
        np.subtract(times[1:], times[:-1], out=accruals[1:])
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
    return _protection(contract, df_mid, curve(ts))


def _protection(contract: CdsContract, df_mid: np.ndarray, p: np.ndarray) -> float:
    """The protection leg from the survival ``p`` at the protection nodes."""
    return contract.notional * contract.lgd * float((df_mid * (p[:-1] - p[1:])).sum())


@functools.lru_cache(maxsize=32)
def _protection_grid(T: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The protection integral's nodes on [0, T] and its midpoint discount
    factors at rate r, read-only, since calls share them; raises ValueError
    where e^(-r T), both legs' largest discount at a negative rate, overflows."""
    try:
        math.exp(-r * T)
    except OverflowError:
        raise ValueError(f"the discount e^(-r t) overflows at r = {r:g}, t = {T:g} years") from None
    n = max(1, int(math.ceil(T / _PROTECTION_STEP)))
    ts = np.linspace(0.0, T, n + 1)
    df_mid = np.exp(-r * 0.5 * (ts[:-1] + ts[1:]))
    ts.flags.writeable = df_mid.flags.writeable = False
    return ts, df_mid


def par_spread(curve: SurvivalCurve, r: float, contract: CdsContract) -> ParSpreadResult:
    """Spread equating the two legs, plus the risky annuity behind it.

    The annuity is sum_i delta_i * DF(T_i) * p(T_i) over the premium
    schedule, the protection leg ``protection_leg_pv``'s sum.  Both legs
    share one coverage check and one evaluation of the curve on their nodes
    together; the curve is evaluated node by node, so the legs see the
    values they would alone.
    """
    times = contract.payment_times()
    T = times[-1]
    _require_coverage(curve, T)
    ts, df_mid = _protection_grid(T, r)
    p = curve(np.concatenate((times, ts)))
    annuity = float((contract.accruals() * np.exp(-r * times) * p[:times.size]).sum())
    if annuity <= 0.0:
        raise ValueError("risky annuity is not positive; cannot quote a par spread")
    pv_per_spread = contract.notional * annuity
    if pv_per_spread == 0.0:
        raise ValueError(f"notional {contract.notional:g} times the risky annuity {annuity:g} "
                         f"underflows to 0; cannot quote a par spread")
    protection = _protection(contract, df_mid, p[times.size:])
    return ParSpreadResult(
        par_spread=protection / pv_per_spread,
        premium_pv01=annuity,
        protection_pv=protection,
    )


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
    curve_hat, curve_p = pde.quanto_survival_curve(h, fx, tenors, cfg, engine=engine)
    liquid = par_spread(curve_p, rates.r, contract)
    contractual = par_spread(curve_hat, rates.r_hat, contract)
    return QuantoParSpreads(
        liquid=liquid,
        contractual=contractual,
        curve_liquid=curve_p,
        curve_contractual=curve_hat,
    )
