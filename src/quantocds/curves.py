"""Survival curves with piecewise-constant-hazard interpolation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-6


@dataclass(frozen=True)
class SurvivalCurve:
    """Tenor -> survival probability map, log-linear between nodes.

    Log-linear interpolation of the survival probability is equivalent to a
    piecewise-constant forward hazard, so interpolated values stay positive
    and non-increasing whenever the nodes are.  Numerical noise up to 1e-6
    (from a PDE or MC producer) is tolerated and clipped; anything larger
    is rejected.
    """

    tenors: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        tenors = np.asarray(self.tenors, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if tenors.ndim != 1 or tenors.shape != probs.shape or tenors.size == 0:
            raise ValueError("tenors and probs must be 1-d arrays of equal, nonzero length")
        if tenors[0] <= 0 or np.any(np.diff(tenors) <= 0):
            raise ValueError("tenors must be strictly increasing and positive")
        if np.any(probs > 1.0 + _EPS) or np.any(probs < -_EPS):
            raise ValueError("survival probabilities must lie in [0, 1]")
        if np.any(np.diff(probs) > _EPS):
            raise ValueError("survival probabilities must be non-increasing")
        probs = np.minimum.accumulate(np.clip(probs, 0.0, 1.0))
        object.__setattr__(self, "tenors", tenors)
        object.__setattr__(self, "probs", probs)
        # log-linear knots, anchored at p(0) = 1
        xs = np.concatenate(([0.0], tenors))
        with np.errstate(divide="ignore"):
            ys = np.concatenate(([0.0], np.log(probs)))
        object.__setattr__(self, "_knots", (xs, ys))

    @classmethod
    def from_flat_hazard(cls, lam: float, tenors) -> "SurvivalCurve":
        tenors = np.asarray(tenors, dtype=float)
        return cls(tenors, np.exp(-lam * tenors))

    @property
    def horizon(self) -> float:
        return float(self.tenors[-1])

    def __call__(self, t) -> np.ndarray | float:
        """Survival probability at time(s) t; errors beyond the last tenor."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0) or np.any(t > self.tenors[-1] * (1 + 1e-12)):
            raise ValueError("curve evaluated outside [0, horizon]")
        out = np.exp(np.interp(t, *self._knots))
        return float(out) if out.ndim == 0 else out
