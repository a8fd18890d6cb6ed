"""Survival curves with piecewise-constant-hazard interpolation."""

from __future__ import annotations

import numpy as np

_EPS = 1e-6


def outside_unit_interval(probs):
    """Where survival probabilities leave [0, 1] by more than 1e-6 of noise (nan does not)."""
    return (probs > 1.0 + _EPS) | (probs < -_EPS)


def rises(probs, previous):
    """Where survival probabilities rise above the ``previous`` ones, at
    shorter tenors, by more than 1e-6 of noise."""
    return probs - previous > _EPS


class SurvivalCurve:
    """Tenor -> survival probability map, log-linear between nodes.

    Log-linear interpolation of the survival probability is equivalent to a
    piecewise-constant forward hazard, so interpolated values stay positive
    and non-increasing whenever the nodes are.  Numerical noise up to 1e-6
    (from a PDE or MC producer) is tolerated and clipped; anything larger
    is rejected.

    The nodes, anchored at p(0) = 1, are one read-only (3, n + 1) array of
    knot times, log-probabilities and probabilities: ``tenors`` and
    ``probs`` read its rows past the anchor.
    """

    __slots__ = ("_nodes",)

    def __init__(self, tenors, probs) -> None:
        """Validate and anchor the nodes: one difference of the anchored knot
        row checks the tenors, the first tenor against 0 included, and one
        ``log`` of the anchored probability row fills the log row."""
        tenors = np.asarray(tenors, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if tenors.ndim != 1 or tenors.shape != probs.shape or tenors.size == 0:
            raise ValueError("tenors and probs must be 1-d arrays of equal, nonzero length")
        nodes = np.empty((3, tenors.size + 1))
        knots, logs, anchored = nodes
        knots[0] = 0.0
        knots[1:] = tenors
        if (knots[1:] - knots[:-1] <= 0).any():
            raise ValueError("tenors must be strictly increasing and positive")
        if outside_unit_interval(probs).any():
            raise ValueError("survival probabilities must lie in [0, 1]")
        if rises(probs[1:], probs[:-1]).any():
            raise ValueError("survival probabilities must be non-increasing")
        anchored[0] = 1.0
        np.minimum.accumulate(probs.clip(0.0, 1.0), out=anchored[1:])
        with np.errstate(divide="ignore"):
            np.log(anchored, out=logs)
        nodes.flags.writeable = False
        self._nodes = nodes

    @classmethod
    def from_flat_hazard(cls, lam: float, tenors) -> "SurvivalCurve":
        tenors = np.asarray(tenors, dtype=float)
        return cls(tenors, np.exp(-lam * tenors))

    @property
    def tenors(self) -> np.ndarray:
        return self._nodes[0, 1:]

    @property
    def probs(self) -> np.ndarray:
        return self._nodes[2, 1:]

    @property
    def horizon(self) -> float:
        return float(self._nodes[0, -1])

    def __call__(self, t) -> np.ndarray | float:
        """Survival probability at time(s) t; errors beyond the last tenor."""
        t = np.asarray(t, dtype=float)
        if (t < 0).any() or (t > self.horizon * (1 + 1e-12)).any():
            raise ValueError("curve evaluated outside [0, horizon]")
        out = np.exp(np.interp(t, self._nodes[0], self._nodes[1]))
        return float(out) if out.ndim == 0 else out
