"""Backward finite-difference solvers for the quanto pricing equation.

The pre-default value v(t, z, y) of the claim paying Z_T on survival obeys,
in log-FX coordinates x = ln z,

    dv/dt + 0.5 sigma_z^2 (v_xx - v_x) + rho sigma_z sigma_y v_xy
          + 0.5 sigma_y^2 v_yy + (r - r_hat - gamma e^y) v_x
          + a (b - y) v_y - (r + e^y) v = 0,        v(T, x, y) = e^x,

where the e^y terms come from killing at default and from the compensator
of the FX devaluation jump; the Monte Carlo engine pins the drift and
discount bookkeeping in the test suite.  The solution is exactly linear in
z, v = z w(t, y), so every solve marches a y-profile w from w = 1:

- ``solve_quanto_pde``, the two-factor Craig-Sneyd ADI scheme, its
  x-differences fitted to be exact on e^x (``_ProfileStep``);
- ``survival_curve_1f``, the one-factor reduction: w killed at
  (1 + gamma) e^y under a drift tilted by rho sigma_y sigma_z, the ADI
  engine's cross-check and the calibration's fast path.  It diagonalises
  its operator once where its gate allows (``_spectral_1f``) and marches
  elsewhere; ``_nearby_1f`` prices an operator within ``_REACH`` of a
  diagonalised one by a first-order update;
- ``solve_foreign_measure_pde``, the gamma = 0 measure-change route.

They share one y-operator (``_y_diags``), one step type (``_Step``), one
time loop (``_march``), one tridiagonal solve (``solve_banded``) and one
stop check (``_reached``), each described where it is defined.

Importing this module loads numpy only; scipy.linalg loads with the first
solve, and each LAPACK or BLAS routine is imported where it is called
(``_factor``, ``eigh_tridiagonal``, ``_nearby_1f``), so a routine patched
on ``scipy.linalg.lapack`` is the one called.  Callers look
``solve_banded`` and ``eigh_tridiagonal`` up as module globals, so a
wrapper set in their place sees every call.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises

from .curves import SurvivalCurve, outside_unit_interval, rises
from .model import HazardParams, QuantoFxParams, RatePair


class PdeInstabilityError(RuntimeError):
    """Raised when a solve produces non-finite or exploding values."""


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and eigenvectors (columns) of the symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    One call to LAPACK ``dstevd``, bound on first call: the divide and
    conquer routine that ``scipy.linalg.eigh_tridiagonal(d, e)`` runs for all
    eigenpairs, with the same results, bit for bit.  Like scipy's, it raises
    ValueError for a non-finite entry and LinAlgError where ``dstevd``
    reports an error (``info`` nonzero).
    """
    from scipy.linalg.lapack import dstevd

    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    lam, vec, info = dstevd(d, e)
    if info != 0:
        raise LinAlgError(f"dstevd (eigh_tridiagonal) failed (LAPACK info={info})")
    return lam, vec


# Every solve steps Crank-Nicolson (implicit weight _THETA) after
# _RANNACHER_STEPS fully implicit startup steps, on spatial domains
# _WIDTH_SIGMAS standard deviations of the respective factor at the horizon.
_THETA = 0.5
_RANNACHER_STEPS = 2
_WIDTH_SIGMAS = 6.0
# longest tenor, in years, of a curve, a contract or a PDE horizon (``checked_tenor``)
MAX_TENOR = 1000.0
# most steps in a PDE time grid once its snapshot tenors are on nodes (``_time_grid``):
# a step a day over MAX_TENOR is 365,250, and a million nodes take 8 MB
MAX_STEPS = 1_000_000
# most nodes in a PDE log-hazard grid (``_y_axis``): a million take 8 MB a profile
MAX_NODES = 1_000_000


def checked_tenor(tenor: float) -> float:
    """``tenor`` if a contract, a curve or a PDE solve's horizon (``build_grid``)
    can run that long, else a ValueError naming it.

    The longest is ``MAX_TENOR`` years: a contract's schedule holds one
    payment time a quarter and a time grid one step per n_t-th of its
    horizon, so a tenor without a bound would size either without one
    (1e308 overflowed both counts).
    """
    if not 0.0 < tenor < math.inf:
        raise ValueError(f"tenor must be positive and finite, got {tenor}")
    if tenor > MAX_TENOR:
        raise ValueError(f"tenor must be at most {MAX_TENOR:g} years, got {tenor}")
    return tenor


@dataclass(frozen=True)
class SolverConfig:
    """Grid resolutions; ``n_t`` counts time steps over the whole solve horizon.

    The CLI's ``--grid-y`` and ``--grid-t`` default to ``n_y`` and ``n_t``.
    ``n_x`` is validated and read by nothing (the solvers have no log-FX
    axis): perfbench passes it, and it goes with the next benchmark change.
    """

    n_x: int = 11
    n_y: int = 101
    n_t: int = 300

    def __post_init__(self) -> None:
        for name, least in (("n_x", 3), ("n_y", 3), ("n_t", 1)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class Grid2D:
    y_nodes: np.ndarray
    t_nodes: np.ndarray
    iy0: int

    def __post_init__(self) -> None:
        for name in ("y_nodes", "t_nodes"):
            nodes = getattr(self, name)
            # np.diff's difference, one pass and one reduction
            if nodes.size < 2 or (nodes[1:] - nodes[:-1] <= 0).any():
                raise ValueError(f"{name} must be strictly increasing")
        if not (0 < self.iy0 < self.y_nodes.size - 1):
            raise ValueError("spot log-intensity must be an interior node")


@dataclass(frozen=True)
class PdeSolution:
    """Values at t = 0 and spot FX plus optional spot values per tenor.

    ``values[j]`` is v(0, z0, y_nodes[j]).  ``spot_curve`` holds (tenors,
    values at the spot node) when snapshot tenors were requested.
    """

    grid: Grid2D
    values: np.ndarray
    spot_curve: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def spot_value(self) -> float:
        return float(self.values[self.grid.iy0])


def ou_mean_std(h: HazardParams, t: float, drift_shift: float = 0.0) -> tuple[float, float]:
    """Mean and standard deviation of Y_t under an optional drift tilt.

    Raises ValueError for a sigma_y whose square overflows: every grid is
    sized by this deviation, so no solve can take such a vol.
    """
    try:
        sigma2 = h.sigma_y**2
    except OverflowError:
        raise ValueError(f"sigma_y = {h.sigma_y:g} is too large: its square overflows") from None
    if h.a > 0:
        decay = math.exp(-h.a * t)
        b_eff = h.b + drift_shift / h.a
        mean = b_eff + (h.y0 - b_eff) * decay
        var = sigma2 * (-math.expm1(-2.0 * h.a * t)) / (2.0 * h.a)
    else:
        mean = h.y0 + drift_shift * t
        var = sigma2 * t
    return mean, math.sqrt(var)


def _y_axis(h: HazardParams, T: float, n_y: int, width_sigmas: float,
            drift_shift: float = 0.0) -> tuple[np.ndarray, int]:
    """Uniform y grid covering the travelled envelope, with y0 on a node.

    Raises ValueError for more than ``MAX_NODES`` nodes, before any is
    made, and where the envelope has no width in floating point: a
    log-intensity so far from 0 that its pad rounds away.
    """
    if n_y > MAX_NODES:
        raise ValueError(f"a PDE log-hazard grid holds at most {MAX_NODES} nodes, got {n_y}")
    m_end, s_end = ou_mean_std(h, T, drift_shift)
    pad = max(width_sigmas * s_end, 1e-3)
    lo = min(h.y0, m_end) - pad
    hi = max(h.y0, m_end) + pad
    dy = (hi - lo) / (n_y - 1)
    if not dy > 0.0:
        raise ValueError(f"the log-hazard grid around y0 = {h.y0:g} has no width: "
                         f"its pad of {pad:g} rounds away")
    k0 = int(round((h.y0 - lo) / dy))
    k0 = min(max(k0, 1), n_y - 2)
    lo = h.y0 - k0 * dy
    return lo + dy * np.arange(n_y), k0


def _exp_y(y: np.ndarray, h: HazardParams, T: float, solve: str, scale: float = 1.0
           ) -> np.ndarray:
    """e^y on ``solve``'s ascending log-hazard nodes ``y``; raises ValueError
    where it or ``scale`` times it, the solve's largest intensity, overflows
    at the top node: a kill that no solve can take."""
    try:
        top = math.exp(y[-1])
    except OverflowError:
        raise ValueError(
            f"{solve}: the log-hazard grid would reach y = {y[-1]:.6g}, where e^y overflows: "
            f"y0 = {h.y0:g}, b = {h.b:g} or sigma_y = {h.sigma_y:g} is too large over {T:g} years"
        ) from None
    if not scale * top < math.inf:
        raise ValueError(f"{solve}: the intensity scale {scale:g} times e^y overflows at the "
                         f"top node y = {y[-1]:.6g}")
    return np.exp(y)


@functools.lru_cache(maxsize=128)
def _time_grid(T: float, n_t: int, snapshot_tenors: tuple[float, ...]
               ) -> tuple[float, int, Mapping[int, float]]:
    """Uniform step size such that every snapshot tenor falls on a node.

    Returns (dt, total steps, read-only {node index -> tenor}); results are
    memoised, since every march of a calibration asks for the same grid.
    Raises ValueError naming the first tenor outside (0, T], for a tenor
    that rounds to zero, for two tenors that round to one node, for
    tenors whose common step needs more than 10 * n_t steps, and, once
    the tenors are on nodes, for more than ``MAX_STEPS`` steps: every PDE
    solve sizes its march by this grid, the spectral one-factor solve too.
    """
    if not snapshot_tenors:
        dt, total, snap = T / n_t, n_t, {}
    else:
        tenors = sorted(float(t) for t in snapshot_tenors)
        outside = [t for t in tenors if not 0 < t <= T * (1 + 1e-12)]
        if outside:
            raise ValueError(f"snapshot tenors must lie in (0, T], got {outside[0]:g} "
                             f"with T = {T:g}")
        fracs = [Fraction(t).limit_denominator(10**6) for t in tenors + [T]]
        if fracs[0] == 0:
            raise ValueError(f"snapshot tenor {tenors[0]:g} rounds to zero on the 1e-6 time grid")
        g = fracs[0]
        for f in fracs[1:]:
            g = Fraction(math.gcd(g.numerator, f.numerator), math.lcm(g.denominator, f.denominator))
        per_seg = max(1, math.ceil(n_t * float(g) / T))
        dt = g / per_seg
        total = int(fracs[-1] / dt)
        if total > 10 * n_t:
            shown = ", ".join(f"{t:g}" for t in tenors)
            raise ValueError(f"snapshot tenors [{shown}] share a step of {float(g):.3g} y and "
                             f"would need {total} time steps, more than 10 x n_t = {10 * n_t}")
        snap = {total - int(f_t / dt): t for f_t, t in zip(fracs[:-1], tenors)}
        if len(snap) < len(set(tenors)):  # a node holds one tenor's snapshot
            raise ValueError(f"snapshot tenors {tenors} put two on one node of the 1e-6 time grid")
    if total > MAX_STEPS:
        raise ValueError(f"a PDE time grid holds at most {MAX_STEPS} steps, got {total} over "
                         f"{T:g} years from a step count of {n_t}")
    return float(dt), total, MappingProxyType(snap)


def build_grid(h: HazardParams, T: float, cfg: SolverConfig, snapshot_tenors=None
               ) -> tuple[Grid2D, Mapping[int, float]]:
    y, iy0 = _y_axis(h, checked_tenor(T), cfg.n_y, _WIDTH_SIGMAS)
    dt, n_t, snap = _time_grid(T, cfg.n_t, tuple(() if snapshot_tenors is None else snapshot_tenors))
    return Grid2D(y, dt * np.arange(n_t + 1), iy0), snap


_Diags = tuple[np.ndarray, np.ndarray, np.ndarray]  # sub-, main and super-diagonal


def _y_diags(h: HazardParams, y: np.ndarray, drift_shift: float, kill: np.ndarray) -> _Diags:
    """Diagonals of 0.5 sigma_y^2 d_yy + (a(b - y) + drift_shift) d_y - kill.

    Spalding's (1972) hybrid scheme on the uniform ``y`` nodes, zero first
    derivative at both ends; the one-factor march and the ADI y-direction
    share it.  Interior rows difference centrally with the diffusion
    max(sigma_y^2 / 2, |c| dy / 2), c the drift: up to a cell Peclet number
    |c| dy / sigma_y^2 of 1 that is the plain central scheme, above it pure
    upwinding, whose downwind coupling is zero.  The boundary rows keep
    sigma_y^2 / 2.

    Raises ValueError where an entry would overflow: a grid so wide, or a
    drift so fast, that no solve can take its operator.
    """
    dy = y[1] - y[0]
    hy = 0.5 * h.sigma_y**2
    # no entry exceeds (2 hy + c dy) / dy^2 + c / (2 dy) + |kill|, c the larger end
    # drift (it is linear in y), checked in Python floats, which overflow quietly
    step, c = float(dy), max(abs(h.a * (h.b - float(end)) + drift_shift) for end in (y[0], y[-1]))
    if not (step * step < math.inf and (2.0 * hy + c * step) / (step * step) + c / (2.0 * step)
            + abs(float(kill[0])) + abs(float(kill[-1])) < math.inf):
        raise ValueError(f"the log-hazard operator overflows on the grid from y = {y[0]:.6g} "
                         f"to {y[-1]:.6g}: a = {h.a:g}, b = {h.b:g}, y0 = {h.y0:g}, sigma_y = "
                         f"{h.sigma_y:g} or the drift tilt {drift_shift:g} is too large")
    dy2 = dy**2
    cy = h.a * (h.b - y) + drift_shift
    d = np.maximum(hy, 0.5 * dy * np.abs(cy))
    d[0] = d[-1] = hy
    diffusion = d / dy2
    convection = cy / (2 * dy)
    # both couplings are >= 0; rounding must not turn one that cancels (upwinding) negative
    lo = np.maximum(diffusion - convection, 0.0)
    di = -2 * d / dy2 - kill
    up = np.maximum(diffusion + convection, 0.0)
    lo[0] = up[-1] = 0.0
    up[0] = lo[-1] = 2 * hy / dy2
    return lo, di, up


def _apply(lo: np.ndarray, di: np.ndarray, up: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tridiagonal operator times ``v`` along the first axis."""
    out = di * v
    out[1:] += lo[1:] * v[:-1]
    out[:-1] += up[:-1] * v[1:]
    return out


def _factor(lo: np.ndarray, di: np.ndarray, up: np.ndarray, theta_dt: float, sweep: str) -> tuple:
    """LAPACK LU factors of I - theta_dt * A for a tridiagonal operator A.

    ``lo``, ``di``, ``up`` are A's sub-, main and super-diagonals, shape (n,)
    or (k, n); k rows are solved as one block-diagonal system of size k*n
    with zero couplings at the row seams (``lo[..., 0]`` and ``up[..., -1]``
    are ignored).  ``dgttrf`` factors once with the partial pivoting of
    LAPACK ``gtsv``.  Returns ``solve_banded``'s ``lu``: ``dgttrs``, bound
    here, the system's size and the factors.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    dl, du = -theta_dt * lo, -theta_dt * up
    dl[..., 0] = du[..., -1] = 0.0
    *factors, info = dgttrf(dl.ravel()[1:], 1.0 - theta_dt * di.ravel(), du.ravel()[:-1])
    if info != 0:
        raise PdeInstabilityError(
            f"{sweep}: I - theta*dt*A is singular at theta*dt = {theta_dt:.6g} "
            f"(zero pivot at unknown {info} of {di.size})"
        )
    return (dgttrs, di.size, *factors)


def solve_banded(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """(I - theta_dt * A)^-1 rhs from ``_factor``'s ``lu``: every implicit sweep's solve.

    A right-hand side whose first dimension is the system's size holds one
    column per trailing index, all solved against the shared matrix: the
    ADI step applied to the identity solves its n_y columns so.
    """
    dgttrs, size, *factors = lu
    return dgttrs(*factors, rhs.reshape(size, -1))[0].reshape(rhs.shape)


class _Step:
    """The theta-step of every march, w -> L (B w + C (L B w - w)), on a
    profile w of shape (n_y,) or on each column of a stack of them, with
    L = (I - theta dt A_y)^-1.

    For the split operators A_x (a diagonal, ``a_x``), A_y (``y_diags``) and
    F0 (``mixed_coef`` times the central y-difference, zero on the edge rows),
    B and C are tridiagonal, made once per (theta, dt) with L's factors:

        B = X (I + dt (F0 + A_x + A_y) - theta dt A_x) - theta dt A_y
          = I + dt X (A_x + F0) + dt (X - theta) A_y,
        C = 0.5 dt X F0,    X = (I - theta dt A_x)^-1,

    the Craig-Sneyd step: the predictor L B w and a corrector by C.  C is
    zero at theta = 1 and without a mixed term; with A_x = 0 too the step is
    the one-factor w -> L (w + (1 - theta) dt A_y w).
    """

    def __init__(self, y_diags: _Diags, sweep: str, a_x: np.ndarray | float = 0.0,
                 mixed_coef: float = 0.0):
        self.y_diags = y_diags
        self.sweep = self.inputs = sweep  # named where L is singular, and where w blows up
        self.a_x = a_x
        self.mixed_coef = mixed_coef
        self._parts: dict[tuple[float, float], tuple] = {}

    def _made(self, theta: float, dt: float) -> tuple:
        """L's factors, B - I's diagonals and C's coefficient a row (None where
        C is zero), made once per (theta, dt)."""
        key = (theta, dt)
        if key not in self._parts:
            lo, di, up = self.y_diags
            x = 1.0 / (1.0 - theta * dt * self.a_x)
            ay = dt * (x - theta)  # A_y's weight in B
            f0 = np.full(di.size, dt * self.mixed_coef) * x  # dt X F0's coefficient a row
            f0[0] = f0[-1] = 0.0
            b = (ay * lo - f0, ay * di + dt * x * self.a_x, ay * up + f0)
            c = None if theta == 1.0 or self.mixed_coef == 0.0 else 0.5 * f0
            self._parts[key] = (_factor(lo, di, up, theta * dt, self.sweep), b, c)
        return self._parts[key]

    def apply(self, w: np.ndarray, theta: float, dt: float) -> np.ndarray:
        """The step w -> w_next on a profile w, or on each column of a stack w
        of shape (n_y, k): one ``solve_banded``, two with C.  On the identity
        it is the step's dense matrix, column j the step on e_j bit for bit."""
        lu, b, c = self._made(theta, dt)
        if w.ndim == 2:  # B's diagonals and C's coefficients as columns
            b, c = [d[:, None] for d in b], None if c is None else c[:, None]
        bw = w + _apply(*b, w)
        w_next = solve_banded(lu, bw)
        if c is None:
            return w_next
        return solve_banded(lu, bw + _central(c, w_next - w))


def _central(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``c`` times the central difference of ``d`` along its first axis, a
    row each, and zero on the edge rows."""
    out = np.zeros_like(d)
    np.subtract(d[2:], d[:-2], out=out[1:-1])
    out[1:-1] *= c[1:-1]
    return out


class _ProfileStep(_Step):
    """One Craig-Sneyd step of the two-factor scheme, on the y-profile w of v = e^x w.

    Every x-difference of the scheme is fitted to be exact on e^x (``_Ops2D``
    in tests/test_pde.py marches a log-FX surface with them), and a march
    starts from v = e^x, so each split operator maps e^x w to e^x times an
    operator on w:

    - A_x is the diagonal a_x = -max(gamma, 0) e^y: on e^x its rows give the
      FX drift plus sigma_z^2 / 2, r - r_hat - gamma e^y, less the discount
      r - r_hat and the kill -min(gamma, 0) e^y that the x-direction takes
      for gamma < 0, so that the jump compensator's drift does not grow e^x
      in its sweep.  That sweep divides by 1 - theta dt a_x >= 1.
    - The mixed term rho sigma_z sigma_y v_xy is rho sigma_z sigma_y / (2 dy)
      times the central y-difference of w, and zero on the y-edge rows, where
      the boundary condition sets w_y = 0.
    - A_y is the one-factor march's operator (``_y_diags``), killing at e^y
      less the x-direction's share.

    The operators discount at r - r_hat, so a march carries e^(r_hat tau) v
    (tau the time to maturity) and ``solve_quanto_pde`` applies the exact
    e^(-r_hat tau); on e^x that discount cancels the FX drift's r - r_hat, so
    w does not see the rates.
    """

    def __init__(self, grid: Grid2D, h: HazardParams, fx: QuantoFxParams):
        y = grid.y_nodes
        sweep = f"ADI y-sweep on {y.size} y-nodes"
        ey = _exp_y(y, h, float(grid.t_nodes[-1]), sweep, scale=max(fx.gamma_z, 1.0))
        kill_x = -min(fx.gamma_z, 0.0) * ey
        super().__init__(_y_diags(h, y, 0.0, ey - kill_x), sweep, -max(fx.gamma_z, 0.0) * ey,
                         fx.rho * fx.sigma_z * h.sigma_y / (2.0 * (y[1] - y[0])))
        self.inputs = (f"explicit mixed term at rho = {fx.rho:g}, sigma_z = {fx.sigma_z:g}, "
                       f"sigma_y = {h.sigma_y:g}")


def _flush_tiny(m: np.ndarray) -> np.ndarray:
    """``m``, its entries below 1e-150 in magnitude set to zero in place.

    The product of two such entries would be subnormal, and subnormal
    arithmetic slows a matrix product several-fold (a 401-node squaring 5x);
    the entries dropped move a product by at most n 1e-150 of its scale.
    """
    m[(m < 1e-150) & (m > -1e-150)] = 0.0
    return m


def _marches_vector(step: _Step, n_steps: int) -> bool:
    """Whether the march applies each of ``n_steps`` steps to w rather than
    square the n_y x n_y step matrix: for an ADI step (``_ProfileStep``) where
    n_y^2 > 300 n_steps, and for every one-factor step, which marches only
    outside ``_spectral_1f``'s gate, a gate measured against this side.

    The dense path, its build, squarings and mat-vecs at the CLI's gaps,
    costs about n_y^2 / 10 us; an ADI step applied to w about 30 us up to a
    few hundred nodes (measured break-even n_y about 110 at 38 steps, 300 at
    298 and 570 at 1198, on a 2-CPU x86-64 machine).  The vector march
    holds no n_y x n_y matrix, which at n_y = 4001 would be 128 MB.
    """
    return type(step) is _Step or step.y_diags[1].size**2 > 300 * n_steps


def _reached(profiles: np.ndarray, nodes: Sequence[int], iy0: int, snap: Mapping[int, float],
             snapshots: dict[float, float], where: tuple[int, float, str]) -> None:
    """Every solve's stop check of the profiles w at the time ``nodes``, one a
    row in march order; keeps in ``snapshots`` the rows' values at ``iy0`` on
    ``snap``'s nodes.

    It names the first node whose max |w| is not finite or above 50, a
    blow-up, and then, in one pass, the first snapshot outside [0, 1]
    (``outside_unit_interval``) or above the previous tenor's (``rises``),
    each with ``where`` = (n_y, dt, the solve), formatted only when it raises.
    """
    def stop(what: str) -> PdeInstabilityError:
        return PdeInstabilityError("{} ({} y-nodes, dt = {:.3e}) in the {}".format(what, *where))

    peaks = np.abs(profiles).max(axis=1)
    if not (within := peaks <= 50.0).all():
        k = within.argmin()
        raise stop(f"value blow-up at time node {nodes[k]}: max |w| = {peaks[k]:.3e}")
    previous = next(reversed(snapshots.values()), 1.0)  # p = 1 before the first tenor
    for node, spot in zip(nodes, profiles[:, iy0].tolist()):
        if node in snap:
            if outside_unit_interval(spot):
                raise stop(f"survival {spot:.3e} outside [0, 1] at time node {node}")
            if rises(spot, previous):
                raise stop(f"survival {spot:.3e} at time node {node} rises above the "
                           f"previous tenor's {previous:.3e}")
            previous = snapshots[snap[node]] = spot


# an overflow to inf or nan is a blow-up, which ``_reached`` names at the next stop
@np.errstate(over="ignore", invalid="ignore")
def _march(step: _Step, dt: float, n_t: int, snap: Mapping[int, float], iy0: int
           ) -> tuple[np.ndarray, dict[float, float]]:
    """Every PDE solve's time loop: march w backward from w = 1 over ``n_t``
    steps of ``dt``; returns the final profile and its values at node ``iy0``
    on the snapshot nodes ``snap`` (time node -> tenor).

    The two Rannacher steps apply the theta = 1 step to w.  After them only
    the stops are read: the snapshot nodes and the last node.  The
    Crank-Nicolson step is one matrix M, the step applied to the identity,
    so the march keeps the table M, M^2, M^4, ... up to the longest gap
    between stops and crosses a gap of g steps with one mat-vec per set bit
    of g (a 9.75-year trade on the CLI grid: 3 squarings and 40 mat-vecs for
    310 steps), one row a stop; where ``_marches_vector`` says so it applies
    the step to w.
    ``_reached`` checks the profiles at the Rannacher nodes and at the stops,
    all of the powered march's stops in one pass.
    """
    n_y = step.y_diags[1].size
    snapshots: dict[float, float] = {}
    where = (n_y, dt, step.inputs)
    w = np.ones(n_y)
    implicit = np.empty((min(_RANNACHER_STEPS, n_t), n_y))
    for k in range(len(implicit)):
        w = implicit[k] = step.apply(w, 1.0, dt)
    node = n_t - len(implicit)  # the time node of w
    _reached(implicit, range(n_t - 1, node - 1, -1), iy0, snap, snapshots, where)
    stops = sorted({k for k in (0, *snap) if k < node}, reverse=True)
    gaps = [a - b for a, b in zip([node, *stops], stops)]
    if _marches_vector(step, node):
        # one stop at a time: on y-grids this large a row per stop could take
        # as much memory as the n_y x n_y matrix this march does without
        for stop, gap in zip(stops, gaps):
            for _ in range(gap):
                w = step.apply(w, _THETA, dt)
            _reached(w[None], [stop], iy0, snap, snapshots, where)
        return w, snapshots
    powers = [_flush_tiny(step.apply(np.eye(n_y), _THETA, dt))]
    while 2 ** len(powers) <= max(gaps):
        powers.append(_flush_tiny(powers[-1] @ powers[-1]))
    # the powers M^(2^i) of each gap's set bits i, in ascending i
    crossings = {gap: [p for i, p in enumerate(powers) if gap >> i & 1] for gap in set(gaps)}
    profiles = np.empty((len(stops), n_y))
    for k, gap in enumerate(gaps):
        for power in crossings[gap]:
            w = power.dot(w)  # power @ w's BLAS gemv, with less dispatch
        profiles[k] = w
    _reached(profiles, stops, iy0, snap, snapshots, where)
    return w, snapshots


def _discount(r_hat: float, T: float) -> float:
    """The exact contractual discount e^(-r_hat T) that a solve applies to its
    march; raises ValueError where it overflows."""
    try:
        return math.exp(-r_hat * T)
    except OverflowError:
        raise ValueError(f"the discount e^(-r_hat T) overflows at r_hat = {r_hat:g}, "
                         f"T = {T:g} years") from None


def solve_quanto_pde(
    h: HazardParams,
    fx: QuantoFxParams,
    rates: RatePair,
    T: float,
    cfg: SolverConfig | None = None,
    snapshot_tenors=None,
) -> PdeSolution:
    """Values of the claim paying Z_T on survival at t = 0 and spot FX.

    With ``snapshot_tenors`` the solver also records the spot value at each
    requested time-to-maturity on the way (the coefficients are
    time-homogeneous, so the slice at time t of the horizon-T problem is
    the t = 0 value of the horizon-(T - t) problem).

    Default kills the claim and the devaluation jump lands on a value that
    is zero after default, so the jump enters only through the e^y kill
    term and the compensator in the x-drift: the pre-default value is
    z w(t, y), and one march of w (``_ProfileStep``) is the whole solve.
    """
    grid, snap = build_grid(h, T, cfg or SolverConfig(), snapshot_tenors)
    discount = _discount(rates.r_hat, T)
    t = grid.t_nodes
    w, snapshots = _march(_ProfileStep(grid, h, fx), float(t[1] - t[0]), t.size - 1, snap,
                          grid.iy0)
    # the march carries e^(r_hat tau) v (``_ProfileStep``)
    spot_curve = None
    if snapshot_tenors is not None:
        tenors = np.array(sorted(snapshots))
        values = fx.z0 * np.array([snapshots[t] for t in tenors.tolist()])
        spot_curve = (tenors, values * np.exp(-rates.r_hat * tenors))
    return PdeSolution(grid=grid, values=fx.z0 * w * discount, spot_curve=spot_curve)


def solve_foreign_measure_pde(
    h: HazardParams,
    fx: QuantoFxParams,
    rates: RatePair,
    T: float,
    cfg: SolverConfig | None = None,
) -> PdeSolution:
    """Diffusive-correlation (gamma = 0) solution via the measure-change route.

    Under the contractual-currency measure the hazard factor drift gains
    rho * sigma_y * sigma_z and the claim reduces to a one-factor survival
    discounted at r_hat, whose profile times z0 must agree with
    :func:`solve_quanto_pde` at gamma = 0 on the same grid.  The march kills
    at e^y, and the discount is applied exactly, as in ``solve_quanto_pde``.
    """
    if fx.gamma_z != 0.0:
        raise ValueError("foreign-measure route covers the diffusive model only (gamma_z = 0)")
    grid, _ = build_grid(h, T, cfg or SolverConfig())
    discount = _discount(rates.r_hat, T)
    solve = f"foreign-measure solve on {grid.y_nodes.size} nodes"
    ops = _y_diags(h, grid.y_nodes, fx.rho * h.sigma_y * fx.sigma_z,
                   _exp_y(grid.y_nodes, h, T, solve))
    t = grid.t_nodes
    w, _ = _march(_Step(ops, solve), float(t[1] - t[0]), t.size - 1, {}, grid.iy0)
    return PdeSolution(grid=grid, values=fx.z0 * w * discount)


_ONE_FACTOR = "one-factor solve on {} nodes"  # the one-factor solve, named in its errors


def _symmetrised(ops: _Diags, kill: np.ndarray, dt: float, n_t: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The diagonal and off-diagonal of the symmetric S = D A D^-1 and ln d,
    d = diag(D) with d[0] = 1, for the operator A (``ops``, which kills at
    ``kill``) of an ``n_t``-step march of ``dt``; None outside
    ``_spectral_1f``'s gate."""
    lo, di, up = ops
    if 2 * di.size > n_t:
        return None
    # the coupling after the stiffness gate, which bounds |lo|, |up| by 300 / dt
    if not (kill.min() > 0.0 and np.abs(di).max() * dt <= 300.0
            and (couple := lo[1:] * up[:-1]).min() > 0.0):
        return None
    log_d = np.empty(di.size)
    log_d[0] = 0.0
    np.add.accumulate(0.5 * np.log(up[:-1] / lo[1:]), out=log_d[1:])
    if log_d.max() - log_d.min() > 10.0:
        return None
    return di, np.sqrt(couple), log_d


# ``_nearby_1f`` prices a point on a spectral solve's y-grid whose six other
# ``_coordinates`` each lie this close to the solve's, relative to max(1, |x|)
_REACH = 5e-8


def _coordinates(h: HazardParams, n_y: int, width_sigmas: float, drift_shift: float,
                 kill_scale: float) -> tuple[tuple, tuple]:
    return (n_y, width_sigmas), (h.a, h.b, h.sigma_y, h.y0, drift_shift, kill_scale)


class _Spectrum:
    """What a spectral one-factor solve (``_spectral_1f``) diagonalised, and its
    survivals; ``_nearby_1f`` prices a nearby operator from it, within
    ``_REACH`` of the operator's coordinates ``at`` (``_coordinates``).

    S = V diag(lam) V^T is the symmetrised operator (``di``, ``off``) and u
    the start vector D 1, with d[iy0] = 1.  The march to the k-th node of
    ``snap`` takes n_k implicit steps, each a factor R = 1 / (1 - dt lam)
    (row n of ``rannacher`` holds R^n), then m_k theta steps, each the
    Crank-Nicolson factor C = (1 + (1 - theta) dt lam) / (1 - theta dt lam)
    (``cn``).  Row k of ``factors`` holds f_k(lam) = R^(n_k) C^(m_k), and the
    node's survival (``survivals``, and ``snapshots`` by tenor) is
    f_k(lam) . (a * b), with a = V^T e_iy0 and b = V^T u.
    """

    def __init__(self, di, off, u, lam, vec, dt, n_t, snap, iy0, at):
        self.di, self.off, self.u, self.lam, self.vec = di, off, u, lam, vec
        self.dt, self.n_t, self.snap, self.iy0, self.at = dt, n_t, snap, iy0, at
        self.a, self.b = vec[iy0], u @ vec
        steps = n_t - np.fromiter(snap, int)[:, None]  # steps marched to each node
        self.n_implicit = np.minimum(steps, _RANNACHER_STEPS)
        self.n_theta = steps - self.n_implicit
        self.rannacher = (1.0 - dt * lam) ** -np.arange(_RANNACHER_STEPS + 1)[:, None]
        self.cn = (1.0 + (1.0 - _THETA) * dt * lam) / (1.0 - _THETA * dt * lam)
        self.factors = self.rannacher[self.n_implicit.ravel()]
        self.factors *= self.cn ** self.n_theta
        self.survivals = self.factors @ (self.a * self.b)
        self.snapshots: dict[float, float] = {}

    @functools.cached_property
    def perturbation(self) -> tuple[np.ndarray, np.ndarray]:
        """1 / (lam_i - lam_j), zero where i = j, and the factors' derivatives
        f_k'(lam) = n_k dt R f_k + m_k R^(n_k) C^(m_k - 1) dt / (1 - theta dt lam)^2,
        which does not divide by C: the parts of ``_nearby_1f``'s update that
        every nearby operator shares."""
        lam, dt = self.lam, self.dt
        gaps = np.asfortranarray(lam[:, None] - lam)  # in G's order, for G o 1 / gaps
        np.fill_diagonal(gaps, 1.0)
        inverse = 1.0 / gaps
        np.fill_diagonal(inverse, 0.0)
        n, m = self.n_implicit, self.n_theta
        derivatives = n * (dt * self.rannacher[1]) * self.factors
        derivatives += (m * self.rannacher[n.ravel()] * self.cn ** np.maximum(m - 1, 0)
                        * (dt / (1.0 - _THETA * dt * lam) ** 2))
        return inverse, derivatives


def _spectral_1f(ops: _Diags, kill: np.ndarray, dt: float, n_t: int,
                 snap: Mapping[int, float], iy0: int, at: tuple | None = None
                 ) -> _Spectrum | None:
    """``_march``'s snapshots of ``_Step(ops)`` from one eigendecomposition
    (the ``_Spectrum``'s ``snapshots``, kept with the operator's coordinates
    ``at``), or None; ``_reached`` checks them as it checks the march's.

    The operator A (``ops``, which kills at ``kill``) is time-homogeneous,
    so each step of the march multiplies the eigencomponents of the
    symmetric S = D A D^-1 by a scalar (``_Spectrum``).  Returns None, and
    the caller marches, wherever that is not both accurate and cheaper
    (``_symmetrised`` tests all but the last):

    - a zero kill at some node, where e^y underflows: S is then not
      negative definite (a zero ``kill_scale``, total devaluation, never
      gets here: ``survival_curve_1f`` returns its exact solution, 1);
    - a cell Peclet number above 1, where ``_y_diags`` upwinds and a zero
      coupling leaves A not symmetrisable;
    - ln(max d / min d) > 10, where the eigenvectors lose accuracy, or
      max |diag| dt > 300, where the stiff components' step factors near -1
      take the two paths more than 1e-12 apart;
    - n_y > n_t / 2, where the march's n_t steps, each linear in n_y, cost
      less than the eigensolve, quadratic in n_y (measured break-even
      n_y about 160 at n_t = 200 and 280 at n_t = 400 on a 2-CPU x86-64
      machine);
    - a LinAlgError from the eigensolver.
    """
    symmetrised = _symmetrised(ops, kill, dt, n_t)
    if symmetrised is None:
        return None
    di, off, log_d = symmetrised
    try:
        lam, vec = eigh_tridiagonal(di, off)
    except LinAlgError:
        return None
    spectrum = _Spectrum(di, off, np.exp(log_d - log_d[iy0]), lam, vec, dt, n_t, snap, iy0, at)
    _reached(spectrum.survivals[:, None], list(snap), 0, snap, spectrum.snapshots,
             (di.size, dt, _ONE_FACTOR.format(di.size)))
    return spectrum


def _nearby_1f(base: _Spectrum | None, h: HazardParams, tenors: Sequence[float], n_y: int,
               n_t: int, width_sigmas: float = _WIDTH_SIGMAS, drift_shift: float = 0.0,
               kill_scale: float = 1.0) -> np.ndarray | None:
    """``survival_curve_1f``'s survivals for these arguments, from the spectral
    solve ``base`` of a nearby operator, or None where the caller must solve
    afresh: there is no base, the operator lies on another y-grid or beyond
    ``_REACH`` of base's (``_coordinates``), the spot node or the time grid
    moved, or the operator lies outside ``_spectral_1f``'s gate.

    The operator is built as a fresh solve builds it, and its survivals are
    base's plus the first-order change of w(iy0) = e_iy0^T f_k(S) u in
    dS = S' - S and du = u' - u, by the Daleckii-Krein formula (Higham,
    *Functions of Matrices*, 2008, ch. 3): with G = V^T dS V,
    H = (a b^T) o G (a = V^T e_iy0, b = V^T u, ``_Spectrum``) and
    c = V^T du, the change at node k is
    sum_i f_k(lam_i) g_i + f_k'(lam_i) H_ii, where
    g_i = sum_(j != i) (H_ij + H_ji) / (lam_i - lam_j) + a_i c_i.
    A move within ``_REACH`` (5e-8 in each coordinate; a calibration's
    forward-difference step is 1.5e-8) leaves a second-order term at
    round-off: the update matches a fresh solve within 1e-12, by at most
    3.3e-13 measured (``TestNearbySolve`` in tests/test_pde.py), at the cost
    of one GEMM against an eigensolve's.  The term grows with the square of
    the move: 1e-7 in every coordinate missed by 1.3e-12.
    """
    from scipy.linalg.blas import dgemm, dgemv

    y_grid, point = _coordinates(h, n_y, width_sigmas, drift_shift, kill_scale)
    if base is None or y_grid != base.at[0] or max(
            abs(x - x0) / max(1.0, abs(x0)) for x, x0 in zip(point, base.at[1])) > _REACH:
        return None
    tenors = _sorted_tenors(tenors)
    operator = _operator_1f(h, tenors, n_y, n_t, width_sigmas, drift_shift, kill_scale)
    if operator is None or operator[2:] != (base.dt, base.n_t, base.snap, base.iy0):
        return None
    ops, kill, dt, n_total, snap, iy0 = operator
    symmetrised = _symmetrised(ops, kill, dt, n_total)
    if symmetrised is None:
        return None
    di, off, log_d = symmetrised
    vec, a, b = base.vec, base.a, base.b
    inverse, derivatives = base.perturbation
    # G = (V^T dS) V and c = V^T du on scipy's BLAS, which the eigensolver
    # runs on: numpy may link its own, whose threads then contend with the
    # eigensolver's.  dS = S' - S is tridiagonal, so V^T dS is built row-wise
    # on V^T, which is C-contiguous (dstevd returns V in Fortran order), and
    # dgemm reads both operands in the order they are stored
    rows, d_off = vec.T, off - base.off
    rows_ds = rows * (di - base.di)
    rows_ds[:, 1:] += rows[:, :-1] * d_off
    rows_ds[:, :-1] += rows[:, 1:] * d_off
    g_matrix = dgemm(1.0, rows_ds.T, vec, trans_a=True)
    c = dgemv(1.0, vec, np.exp(log_d - log_d[iy0]) - base.u, trans=1)
    # G is symmetric: g_i = a_i ((M b)_i + c_i) + b_i (M a)_i, M = G o 1 / (lam_i - lam_j)
    m_b, m_a = ((g_matrix * inverse) @ np.column_stack((b, a))).T
    g = a * (m_b + c) + b * m_a
    survivals = base.survivals + base.factors @ g + derivatives @ (a * g_matrix.diagonal() * b)
    if not np.isfinite(survivals).all():
        return None
    snapshots: dict[float, float] = {}
    _reached(survivals[:, None], list(snap), 0, snap, snapshots,
             (n_y, dt, _ONE_FACTOR.format(n_y)))
    return np.array([snapshots[t] for t in tenors])


class _Tenors(tuple):
    """Tenors that ``_sorted_tenors`` sorted and checked, and passes through."""


def _sorted_tenors(tenors: Sequence[float]) -> _Tenors:
    """``tenors`` sorted, once: a ``_Tenors`` passes through as it is; a
    ValueError for none, for one not positive and finite and, by
    ``checked_tenor``, for one longer than a contract."""
    if type(tenors) is _Tenors:
        return tenors
    tenors = sorted(map(float, tenors))
    if not tenors or not all(0.0 < t < math.inf for t in tenors):
        raise ValueError(f"tenors must be positive and finite, got {tenors}")
    checked_tenor(tenors[-1])
    return _Tenors(tenors)


def _operator_1f(h: HazardParams, tenors: _Tenors, n_y: int, n_t: int, width_sigmas: float,
                 drift_shift: float, kill_scale: float) -> tuple | None:
    """The one-factor solve's operator, kill, dt, step count, snapshot nodes
    and spot node; None at a zero ``kill_scale``, where w = 1 solves it."""
    T = tenors[-1]
    y, iy0 = _y_axis(h, T, n_y, width_sigmas, drift_shift)
    dt, n_total, snap = _time_grid(T, n_t, tenors)
    if kill_scale == 0.0:
        # every row of the operator sums to zero, so w = 1 solves the
        # discrete equation exactly; a solve would only add round-off
        return None
    kill = kill_scale * _exp_y(y, h, T, _ONE_FACTOR.format(n_y), kill_scale)
    return _y_diags(h, y, drift_shift, kill), kill, dt, n_total, snap, iy0


def survival_curve_1f(
    h: HazardParams,
    tenors: Sequence[float],
    n_y: int = 401,
    n_t: int = 400,
    width_sigmas: float = _WIDTH_SIGMAS,
    drift_shift: float = 0.0,
    kill_scale: float = 1.0,
    with_spectrum: bool = False,
) -> np.ndarray | tuple[np.ndarray, _Spectrum | None]:
    """Survival probabilities E[exp(-kill_scale * int e^Y)] at the tenors.

    ``drift_shift`` tilts the Y drift (measure change), ``kill_scale``
    rescales the intensity; the plain survival curve is the default.  With
    ``with_spectrum`` it returns (survivals, the spectral solve's
    ``_Spectrum``, or None where it marched), for ``_nearby_1f``.  Tenors
    that ``_sorted_tenors`` checked (a ``_Tenors``) are not checked again.
    """
    tenors = _sorted_tenors(tenors)
    operator = _operator_1f(h, tenors, n_y, n_t, width_sigmas, drift_shift, kill_scale)
    if operator is None:
        p, spectrum = np.ones(len(tenors)), None
    else:
        ops, kill, dt, n_total, snap, iy0 = operator
        spectrum = _spectral_1f(ops, kill, dt, n_total, snap, iy0,
                                _coordinates(h, n_y, width_sigmas, drift_shift, kill_scale))
        if spectrum is None:
            snapshots = _march(_Step(ops, _ONE_FACTOR.format(n_y)), dt, n_total, snap, iy0)[1]
        else:
            snapshots = spectrum.snapshots
        p = np.array([snapshots[t] for t in tenors])
    return (p, spectrum) if with_spectrum else p


def quanto_survival_curve_1f(
    h: HazardParams,
    fx: QuantoFxParams,
    tenors: Sequence[float],
    n_y: int = 401,
    n_t: int = 400,
    width_sigmas: float = _WIDTH_SIGMAS,
) -> np.ndarray:
    """Contractual-currency survival via the exact one-factor reduction.

    The two-factor value surface is exactly linear in z, which collapses
    the quanto survival to a tilted, intensity-rescaled one-factor
    expectation; flat rates cancel in the ratio defining the survival.
    """
    return survival_curve_1f(h, tenors, n_y=n_y, n_t=n_t, width_sigmas=width_sigmas,
                             drift_shift=fx.rho * h.sigma_y * fx.sigma_z,
                             kill_scale=1.0 + fx.gamma_z)


def quanto_survival_curve(
    h: HazardParams,
    fx: QuantoFxParams,
    tenors: Sequence[float],
    cfg: SolverConfig | None = None,
    engine: str = "adi",
) -> tuple[SurvivalCurve, SurvivalCurve]:
    """Survival curves (contractual-measure p_hat, liquid-measure p).

    ``engine`` selects how p_hat is produced: "adi" runs the two-factor
    solver with per-tenor snapshots, "reduced" uses the exact one-factor
    reduction (identical in the limit, much cheaper; used in calibration).
    The liquid curve always comes from the one-factor survival solve.  No
    curve sees the rates or the spot FX (``_ProfileStep``).
    """
    cfg = cfg or SolverConfig()
    tenors = _sorted_tenors(tenors)
    if engine == "adi":
        # at zero rates and z0 = 1 the spot curve is the marched survival itself
        ts, p_hat = solve_quanto_pde(h, replace(fx, z0=1.0), RatePair(0.0, 0.0), tenors[-1], cfg,
                                     tenors).spot_curve
    elif engine == "reduced":
        ts = np.asarray(tenors)
        p_hat = quanto_survival_curve_1f(h, fx, tenors, n_y=cfg.n_y, n_t=cfg.n_t)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    p = survival_curve_1f(h, tenors, n_y=cfg.n_y, n_t=cfg.n_t)
    return SurvivalCurve(ts, p_hat), SurvivalCurve(np.asarray(tenors), p)
