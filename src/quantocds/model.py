"""Core types and analytic relations for the joint credit / FX model.

The default intensity is exponential Ornstein-Uhlenbeck: ``lambda_t =
exp(Y_t)`` with ``dY = a (b - Y) dt + sigma_y dW``.  The FX rate ``Z``
(units of the liquid currency per unit of the contractual currency) is
lognormal between defaults and is rescaled by ``(1 + gamma_z)`` exactly at
the default time, so a devaluation of the contractual currency corresponds
to ``gamma_z < 0``.

Everything in this package works with annualized decimals; basis points
exist only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HazardParams:
    """Parameters of the log-intensity factor Y.

    Attributes:
        a: mean-reversion speed (1/year), >= 0.
        b: long-term level of the log-intensity (dimensionless).
        sigma_y: volatility of Y (1/sqrt(year)), >= 0.
        y0: initial log-intensity, so the spot hazard is exp(y0).
    """

    a: float
    b: float
    sigma_y: float
    y0: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "sigma_y", "y0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"HazardParams.{name} must be finite, got {v}")
        if self.a < 0:
            raise ValueError(f"mean-reversion speed must be >= 0, got {self.a}")
        if self.sigma_y < 0:
            raise ValueError(f"sigma_y must be >= 0, got {self.sigma_y}")


@dataclass(frozen=True)
class QuantoFxParams:
    """FX state and credit/FX link parameters.

    Attributes:
        z0: spot FX rate, liquid-currency value of one unit of the
            contractual currency. Must be positive.
        sigma_z: lognormal FX volatility (1/sqrt(year)).
        gamma_z: proportional jump applied to Z at the default time;
            gamma_z = -1 devalues the contractual currency to zero.
        rho: instantaneous correlation between the Brownian drivers of the
            log-intensity and the FX rate.
    """

    z0: float
    sigma_z: float
    gamma_z: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.z0 < math.inf:
            raise ValueError(f"z0 must be positive and finite, got {self.z0}")
        if not 0.0 <= self.sigma_z < math.inf:
            raise ValueError(f"sigma_z must be >= 0 and finite, got {self.sigma_z}")
        if not -1.0 <= self.gamma_z < math.inf:
            raise ValueError(f"gamma_z must be >= -1 and finite, got {self.gamma_z}")
        if not abs(self.rho) <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class RatePair:
    """Flat short rates: ``r`` for the liquid (domestic) money market and
    ``r_hat`` for the contractual (foreign) one."""

    r: float
    r_hat: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and math.isfinite(self.r_hat)):
            raise ValueError("rates must be finite")


def foreign_hazard(lam: float, gamma_z: float) -> float:
    """Hazard rate under the contractual-currency measure.

    The devaluation jump makes default 'cheaper' to insure in the
    contractual currency: the intensity is rescaled to (1 + gamma_z) * lam.
    """
    if gamma_z < -1:
        raise ValueError(f"gamma_z must be >= -1, got {gamma_z}")
    if lam < 0:
        raise ValueError(f"intensity must be >= 0, got {lam}")
    return (1.0 + gamma_z) * lam


def fx_jump_inverse(gamma_z: float) -> float:
    """Devaluation rate of the reciprocal FX rate X = 1/Z.

    The map is an involution on (-1, inf): applying it twice returns the
    input.  gamma_z = -1 has no reciprocal counterpart.
    """
    if gamma_z <= -1:
        raise ValueError(f"reciprocal jump undefined for gamma_z <= -1, got {gamma_z}")
    return -gamma_z / (1.0 + gamma_z)


def no_arb_drift_z(rates: RatePair, gamma_z: float, lam: float, d: int) -> float:
    """Drift of Z that keeps the measure-change density a martingale.

    Pre-default the jump must be compensated: r - r_hat - gamma_z * lam.
    After default (d = 1) the compensator term vanishes.
    """
    if lam < 0:
        raise ValueError(f"intensity must be >= 0, got {lam}")
    return rates.r - rates.r_hat - gamma_z * lam * (1 - d)


def devaluation_estimate(s_contractual: float, s_liquid: float) -> float:
    """Devaluation rate implied by the relative basis of two par spreads.

    For short tenors the relative basis (S_contractual - S_liquid) /
    S_liquid approximates the FX devaluation rate gamma_z.
    """
    if s_liquid <= 0:
        raise ValueError(f"liquid-currency spread must be > 0, got {s_liquid}")
    return (s_contractual - s_liquid) / s_liquid


def correlation_basis_gap(
    sigma_y: float, sigma_z: float, rho: float, rpv_t1: float, rpv_t2: float
) -> float:
    """Relative-basis difference between two tenors implied by diffusive
    correlation alone.

    A hedging-cost heuristic prices the relative basis at tenor T as
    gamma + sigma_y * sigma_z * rho * rpv(T); differencing two tenors
    removes gamma and leaves sigma_y * sigma_z * rho * (rpv(T2) - rpv(T1)).
    """
    if rpv_t1 < 0 or rpv_t2 < rpv_t1:
        raise ValueError("risky annuities must satisfy rpv_t2 >= rpv_t1 >= 0")
    return sigma_y * sigma_z * rho * (rpv_t2 - rpv_t1)
