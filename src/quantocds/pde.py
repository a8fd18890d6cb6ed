"""Backward finite-difference solvers for the quanto pricing equation.

The pre-default value v(t, z, y) of the claim paying Z_T on survival obeys,
in log-FX coordinates x = ln z,

    dv/dt + 0.5 sigma_z^2 (v_xx - v_x) + rho sigma_z sigma_y v_xy
          + 0.5 sigma_y^2 v_yy + (r - r_hat - gamma e^y) v_x
          + a (b - y) v_y - (r + e^y) v = 0,        v(T, x, y) = e^x,

where the e^y terms come from killing at default and from the compensator
of the FX devaluation jump.  The drift/discount bookkeeping was re-derived
from the discounted-martingale condition and is pinned by the Monte Carlo
engine in the test suite.

Two solvers are provided: an ADI scheme of Craig-Sneyd type (theta time
stepping, Rannacher start, mixed derivative treated explicitly with one
corrector pass) for the full two-factor problem, and a one-factor reduction
that exploits the exact z-linearity of the solution, v = z * w(t, y), where
w solves the killed equation with intensity scale (1 + gamma) and the
y-drift tilted by rho sigma_y sigma_z.  The reduction doubles as a
high-precision cross-check of the ADI engine and as the fast path for
calibration.

Both engines difference y with one operator, ``_y_diags``: Spalding's
hybrid scheme, central up to a cell Peclet number of 1 and upwind above it.
Every implicit sweep (the one-factor march, the ADI x-sweep and the ADI
y-sweep) solves through one function, ``solve_banded``: LAPACK ``dgttrf``
factors I - theta*dt*A once per theta*dt (``_factor``), and a solve is one
``dgttrs`` call.  The ADI x-sweep solves all y rows as one block-diagonal
system.  The y-sweep's matrix is shared by all x columns: on up to
``_DENSE_Y_SWEEP_MAX`` y-nodes it multiplies them by the inverse that one
solve of the identity gives, one BLAS-3 product, and above it solves them
as right-hand sides of one call.

``survival_curve_1f`` builds the one-factor operator once and does
without the time loop where it can: the operator is time-homogeneous and,
at cell Peclet numbers up to 1, similar to a symmetric tridiagonal matrix,
so ``_spectral_1f`` diagonalises it once (``eigh_tridiagonal``, which runs
LAPACK's divide and conquer ``stevd`` for all eigenpairs) and applies each
step of the march, Rannacher steps included, as one scalar factor per
eigenvalue.  Outside its gate (a zero kill, a Peclet number above 1, an
ill-conditioned symmetrisation or a stiff spectrum, or more nodes than
half the time steps, where the march is cheaper) ``_march_1f`` marches the
same operator; it is also the reference the tests hold the spectral path to.

Importing this module loads numpy only; scipy.linalg loads with the first
solve.  ``_factor`` binds LAPACK ``dgttrf``/``dgttrs`` when it factors, and
the module-level ``eigh_tridiagonal`` imports scipy's routine when called;
``TestSpectralSolve`` in tests/test_pde.py monkeypatches that name.  Callers
look ``solve_banded`` up as a module global, so a wrapper set in its place
sees every solve.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg raises

from .curves import SurvivalCurve
from .model import HazardParams, QuantoFxParams, RatePair


class PdeInstabilityError(RuntimeError):
    """Raised when a solve produces non-finite or exploding values."""


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh_tridiagonal(d, e)``, imported on first call."""
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(d, e)


# Every solve steps Crank-Nicolson (implicit weight _THETA) after
# _RANNACHER_STEPS fully implicit startup steps, on spatial domains
# _WIDTH_SIGMAS standard deviations of the respective factor at the horizon.
_THETA = 0.5
_RANNACHER_STEPS = 2
_WIDTH_SIGMAS = 6.0

# Most y-nodes at which the ADI y-sweep multiplies by a dense inverse, not dgttrs.  At
# the default n_x = 11 on one thread of a 2-CPU x86-64 machine (OpenBLAS 0.3.31) the two
# took 4.6 and 11.8 us at n_y = 101, 9.9 and 17.5 us at 151, and 17.0 and 23.2 us at 201.
# The product would still win above 151, but the gate stays: moving it would move the
# bytes of every price at 152 to 201 y-nodes.
_DENSE_Y_SWEEP_MAX = 151


@dataclass(frozen=True)
class SolverConfig:
    """Grid resolutions; ``n_t`` counts time steps over the whole solve horizon.

    ``n_x`` defaults to 11 because the log-FX grid adds no error: every ADI
    x-difference, at the edges and in the mixed term too, is fitted to be exact
    on e^x, in which the solution z * w(t, y) is linear.  Eleven nodes price as
    101 do to round-off in about a fifth of the time.  The CLI's ``--grid-*``
    flags default to these fields.
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
    x_nodes: np.ndarray
    y_nodes: np.ndarray
    t_nodes: np.ndarray
    ix0: int
    iy0: int

    def __post_init__(self) -> None:
        for name in ("x_nodes", "y_nodes", "t_nodes"):
            nodes = getattr(self, name)
            if nodes.size < 2 or np.any(np.diff(nodes) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        if self.x_nodes.size < 3 or self.y_nodes.size < 3:
            raise ValueError("spatial axes need at least 3 nodes")
        if not (0 < self.ix0 < self.x_nodes.size - 1):
            raise ValueError("spot log-FX must be an interior node")
        if not (0 < self.iy0 < self.y_nodes.size - 1):
            raise ValueError("spot log-intensity must be an interior node")


@dataclass(frozen=True)
class PdeSolution:
    """Value surface at t = 0 plus optional spot values per tenor.

    ``values[i, j]`` is v(0, x_nodes[i], y_nodes[j]).  ``spot_curve`` holds
    (tenors, values at the spot node) when snapshot tenors were requested.
    """

    grid: Grid2D
    values: np.ndarray
    spot_curve: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def spot_value(self) -> float:
        return float(self.values[self.grid.ix0, self.grid.iy0])


def ou_mean_std(h: HazardParams, t: float, drift_shift: float = 0.0) -> tuple[float, float]:
    """Mean and standard deviation of Y_t under an optional drift tilt."""
    if h.a > 0:
        decay = math.exp(-h.a * t)
        b_eff = h.b + drift_shift / h.a
        mean = b_eff + (h.y0 - b_eff) * decay
        var = h.sigma_y**2 * (-math.expm1(-2.0 * h.a * t)) / (2.0 * h.a)
    else:
        mean = h.y0 + drift_shift * t
        var = h.sigma_y**2 * t
    return mean, math.sqrt(var)


def _y_axis(h: HazardParams, T: float, n_y: int, width_sigmas: float,
            drift_shift: float = 0.0) -> tuple[np.ndarray, int]:
    """Uniform y grid covering the travelled envelope, with y0 on a node."""
    m_end, s_end = ou_mean_std(h, T, drift_shift)
    pad = max(width_sigmas * s_end, 1e-3)
    lo = min(h.y0, m_end) - pad
    hi = max(h.y0, m_end) + pad
    dy = (hi - lo) / (n_y - 1)
    k0 = int(round((h.y0 - lo) / dy))
    k0 = min(max(k0, 1), n_y - 2)
    lo = h.y0 - k0 * dy
    return lo + dy * np.arange(n_y), k0


def _x_axis(h: HazardParams, fx: QuantoFxParams, rates: RatePair, T: float,
            n_x: int) -> tuple[np.ndarray, int]:
    """Symmetric log-FX grid around ln z0, wide enough for diffusion and drift."""
    m_end, _ = ou_mean_std(h, T)
    lam_scale = math.exp(max(h.y0, m_end))
    half = _WIDTH_SIGMAS * fx.sigma_z * math.sqrt(T)
    half += abs(rates.r - rates.r_hat) * T
    half += min(abs(fx.gamma_z) * lam_scale * T * 3.0, 2.0)
    half = max(half, 0.25)
    if n_x % 2 == 0:
        n_x += 1
    x0 = math.log(fx.z0)
    return np.linspace(x0 - half, x0 + half, n_x), n_x // 2


@functools.lru_cache(maxsize=128)
def _time_grid(T: float, n_t: int, snapshot_tenors: tuple[float, ...]
               ) -> tuple[float, int, Mapping[int, float]]:
    """Uniform step size such that every snapshot tenor falls on a node.

    Returns (dt, total steps, read-only {node index -> tenor}); results are
    memoised, since every march of a calibration asks for the same grid.
    Raises ValueError for a tenor that rounds to zero or for tenors whose
    common step needs more than 10 * n_t steps.
    """
    if not snapshot_tenors:
        dt = T / n_t
        return dt, n_t, MappingProxyType({})
    tenors = sorted(float(t) for t in snapshot_tenors)
    if tenors[0] <= 0 or tenors[-1] > T * (1 + 1e-12):
        raise ValueError("snapshot tenors must lie in (0, T]")
    fracs = [Fraction(t).limit_denominator(10**6) for t in tenors + [T]]
    if fracs[0] == 0:
        raise ValueError(f"snapshot tenor {tenors[0]:g} rounds to zero on the 1e-6 time grid")
    g = fracs[0]
    for f in fracs[1:]:
        g = Fraction(math.gcd(g.numerator, f.numerator), math.lcm(g.denominator, f.denominator))
    per_seg = max(1, math.ceil(n_t * float(g) / T))
    dt_frac = g / per_seg
    total = int(fracs[-1] / dt_frac)
    if total > 10 * n_t:
        shown = ", ".join(f"{t:g}" for t in tenors)
        raise ValueError(
            f"snapshot tenors [{shown}] share a step of {float(g):.3g} y and would "
            f"need {total} time steps, more than 10 x n_t = {10 * n_t}"
        )
    snap = {total - int(Fraction(f_t / dt_frac)): t
            for f_t, t in zip(fracs[:-1], tenors)}
    return float(dt_frac), total, MappingProxyType(snap)


def build_grid(
    h: HazardParams,
    fx: QuantoFxParams,
    rates: RatePair,
    T: float,
    cfg: SolverConfig,
    snapshot_tenors=None,
) -> tuple[Grid2D, Mapping[int, float]]:
    if not T > 0:
        raise ValueError(f"horizon must be > 0, got {T}")
    x, ix0 = _x_axis(h, fx, rates, T, cfg.n_x)
    y, iy0 = _y_axis(h, T, cfg.n_y, _WIDTH_SIGMAS)
    dt, n_t, snap = _time_grid(T, cfg.n_t, tuple(() if snapshot_tenors is None else snapshot_tenors))
    t_nodes = dt * np.arange(n_t + 1)
    return Grid2D(x, y, t_nodes, ix0, iy0), snap


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
    """
    dy = y[1] - y[0]
    hy = 0.5 * h.sigma_y**2
    cy = h.a * (h.b - y) + drift_shift
    d = np.maximum(hy, 0.5 * dy * np.abs(cy))
    d[[0, -1]] = hy
    lo = d / dy**2 - cy / (2 * dy)
    di = -2 * d / dy**2 - kill
    up = d / dy**2 + cy / (2 * dy)
    lo[0] = 0.0
    up[0] = 2 * hy / dy**2
    up[-1] = 0.0
    lo[-1] = 2 * hy / dy**2
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
    column per trailing index, all solved against the shared matrix; the
    identity as right-hand side gives the ADI y-sweep its dense inverse.
    """
    dgttrs, size, *factors = lu
    return dgttrs(*factors, rhs.reshape(size, -1))[0].reshape(rhs.shape)


class _Ops2D:
    """Discrete split operators on a Grid2D.

    Arrays are laid out (n_y, n_x), x along the contiguous last axis.
    Direction 1 is x, direction 2 is y.  The x-direction systems vary by y
    row (the jump compensator makes their convection y-dependent) and are
    solved through ``solve_banded`` as one block-diagonal system over all rows.
    The y-direction operator is the one-factor march's (``_y_diags``),
    shared by all x columns: up to ``_DENSE_Y_SWEEP_MAX`` nodes its factors
    solve the identity once per theta*dt and each y-sweep is one product
    with that inverse; above it, one ``dgttrs`` call with the columns as
    right-hand sides.

    The operators discount at r - r_hat, so a march carries e^(r_hat tau) v
    (tau the time to maturity) and ``solve_quanto_pde`` applies the exact
    e^(-r_hat tau).  At total devaluation that discount cancels the FX
    drift's r - r_hat on e^x, so the interior rows keep z at any rates.

    Boundary conditions: zero second derivative in x at both ends (the
    payoff is asymptotically linear in z), zero first derivative in y.
    """

    def __init__(self, grid: Grid2D, h: HazardParams, fx: QuantoFxParams,
                 rates: RatePair):
        x, y = grid.x_nodes, grid.y_nodes
        dx, dy = x[1] - x[0], y[1] - y[0]
        ey = np.exp(y)
        cx = rates.r - rates.r_hat - 0.5 * fx.sigma_z**2 - fx.gamma_z * ey  # (ny,)
        hx = 0.5 * fx.sigma_z**2
        # exponential fitting: each x-difference is scaled to be exact on e^x,
        # in which the solution z * w(t, y) is linear, so the x-grid adds no error
        d2 = hx / (2.0 * math.sinh(0.5 * dx)) ** 2  # hx / dx^2 * (dx/2)^2 / sinh^2(dx/2)
        d1 = cx / (2.0 * math.sinh(dx))             # cx / (2 dx) * dx / sinh(dx)
        # for gamma < 0 the compensator's drift grows e^x at the rate -gamma e^y: the x-sweep
        # takes that much of the kill so as not to amplify it; the y-sweep keeps (1 + gamma) e^y
        kill_x = -min(fx.gamma_z, 0.0) * ey
        r_fwd = rates.r - rates.r_hat

        lo1 = np.repeat((d2 - d1)[:, None], x.size, axis=1)
        di1 = np.repeat((-2 * d2 - r_fwd - kill_x)[:, None], x.size, axis=1)
        up1 = np.repeat((d2 + d1)[:, None], x.size, axis=1)
        # linearity boundary: drop the diffusion and convect at cx + hx, so the
        # one-sided rows stay exact on e^x, where v_xx = v_x
        left, right = (cx + hx) / math.expm1(dx), -(cx + hx) / math.expm1(-dx)
        lo1[:, 0] = up1[:, -1] = 0.0
        di1[:, 0] = -left - r_fwd - kill_x
        up1[:, 0] = left
        di1[:, -1] = right - r_fwd - kill_x
        lo1[:, -1] = -right
        self.diags = {1: (lo1, di1, up1), 2: _y_diags(h, y, 0.0, ey - kill_x)}
        # f1 and f2 apply the diagonals along contiguous memory: f1 over the flat array,
        # where the zero seams lo1[:, 0] and up1[:, -1] keep the rows apart, f2 along
        # the first axis, a whole row at a time
        self._x_stencil = tuple(d.ravel() for d in self.diags[1])
        self._y_stencil = tuple(np.repeat(d[:, None], x.size, axis=1) for d in self.diags[2])

        # rho sigma_z sigma_y times the fitted v_xy's weight on the four-point cross difference
        self.mixed_coef = fx.rho * fx.sigma_z * h.sigma_y * dx / math.sinh(dx) / (4.0 * dx * dy)
        # at the x-edges a central y-difference of the one-sided fitted x-differences,
        # exact on e^x like the boundary rows of the x-direction
        edge = fx.rho * fx.sigma_z * h.sigma_y / (2.0 * dy)
        self._edge_coefs = (edge / math.expm1(dx), -edge / math.expm1(-dx))
        self._factors: dict[tuple[int, float], tuple] = {}
        self._y_inverses: dict[float, np.ndarray] = {}

    def f1(self, v: np.ndarray) -> np.ndarray:
        return _apply(*self._x_stencil, v.ravel()).reshape(v.shape)

    def f2(self, v: np.ndarray) -> np.ndarray:
        return _apply(*self._y_stencil, v)

    def mixed(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The mixed term into a zeroed ``out``, whose y-edge rows, where v_y = 0, stay zero."""
        if self.mixed_coef != 0.0:
            dxv = v[:, 2:] - v[:, :-2]
            np.multiply(self.mixed_coef, dxv[2:] - dxv[:-2], out=out[1:-1, 1:-1])
            left, right = self._edge_coefs
            out[1:-1, 0] = left * ((v[2:, 1] - v[2:, 0]) - (v[:-2, 1] - v[:-2, 0]))
            out[1:-1, -1] = right * ((v[2:, -1] - v[2:, -2]) - (v[:-2, -1] - v[:-2, -2]))
        return out

    def lu(self, direction: int, theta_dt: float) -> tuple:
        """``solve_banded``'s factors of I - theta_dt * A along ``direction``, made once."""
        key = (direction, theta_dt)
        if key not in self._factors:
            ny, nx = self.diags[1][1].shape
            self._factors[key] = _factor(*self.diags[direction], theta_dt,
                                         f"ADI {'xy'[direction - 1]}-sweep on the {nx} x {ny} grid")
        return self._factors[key]

    def y_sweep(self, rhs: np.ndarray, theta_dt: float) -> np.ndarray:
        """(I - theta_dt * A_y)^-1 rhs for every x column."""
        lu, n_y = self.lu(2, theta_dt), rhs.shape[0]
        if n_y > _DENSE_Y_SWEEP_MAX:
            return solve_banded(lu, rhs)
        if theta_dt not in self._y_inverses:
            self._y_inverses[theta_dt] = solve_banded(lu, np.eye(n_y))
        return self._y_inverses[theta_dt] @ rhs

    def sweeps(self, rhs: np.ndarray, theta_dt: float, f1v: np.ndarray,
               f2v: np.ndarray) -> np.ndarray:
        """The implicit x-sweep, then the y-sweep, of one splitting stage."""
        y1 = solve_banded(self.lu(1, theta_dt), rhs - theta_dt * f1v)
        return self.y_sweep(y1 - theta_dt * f2v, theta_dt)


def _adi_march(
    ops: _Ops2D,
    v: np.ndarray,
    dt: float,
    n_t: int,
    snap: Mapping[int, float],
    spot: tuple[int, int],
) -> tuple[np.ndarray, dict[float, float]]:
    """March backward n_t steps; returns final surface and spot snapshots."""
    iy0, ix0 = spot
    snapshots: dict[float, float] = {}
    cap = 50.0 * float(np.max(np.abs(v))) + 10.0
    f0v, f0v_new = np.zeros_like(v), np.zeros_like(v)  # mixed terms; y-edges stay zero
    for step in range(n_t):
        k_next = n_t - 1 - step  # time-node index after this step
        theta = 1.0 if step < _RANNACHER_STEPS else _THETA
        f1v, f2v = ops.f1(v), ops.f2(v)
        rhs0 = v + dt * (ops.mixed(v, f0v) + f1v + f2v)
        v = ops.sweeps(rhs0, theta * dt, f1v, f2v)
        if theta != 1.0 and ops.mixed_coef != 0.0:
            v = ops.sweeps(rhs0 + 0.5 * dt * (ops.mixed(v, f0v_new) - f0v), theta * dt, f1v, f2v)
        if (step & 15) == 0 or k_next == 0:
            m = float(np.max(np.abs(v)))
            if not math.isfinite(m) or m > cap:
                raise PdeInstabilityError(
                    f"value blow-up at time node {k_next}: max |v| = {m:.3e} "
                    f"(grid {v.shape[1]}x{v.shape[0]}, dt = {dt:.3e})"
                )
        if k_next in snap:
            snapshots[snap[k_next]] = float(v[iy0, ix0])
    return v, snapshots


def solve_quanto_pde(
    h: HazardParams,
    fx: QuantoFxParams,
    rates: RatePair,
    T: float,
    cfg: SolverConfig | None = None,
    snapshot_tenors=None,
) -> PdeSolution:
    """Value surface of the claim paying Z_T on survival, at t = 0.

    With ``snapshot_tenors`` the solver also records the spot value at each
    requested time-to-maturity on the way (the coefficients are
    time-homogeneous, so the slice at time t of the horizon-T problem is
    the t = 0 value of the horizon-(T - t) problem).

    Default kills the claim and the devaluation jump lands on a value that
    is zero after default, so the jump enters only through the e^y kill
    term and the compensator in the x-drift: one march of the pre-default
    surface is the whole solve.
    """
    cfg = cfg or SolverConfig()
    grid, snap = build_grid(h, fx, rates, T, cfg, snapshot_tenors)
    dt = float(grid.t_nodes[1] - grid.t_nodes[0])
    n_t = grid.t_nodes.size - 1
    ops = _Ops2D(grid, h, fx, rates)
    u = np.tile(np.exp(grid.x_nodes), (grid.y_nodes.size, 1))
    u, snapshots = _adi_march(ops, u, dt, n_t, snap, (grid.iy0, grid.ix0))
    # the march carries e^(r_hat tau) v (``_Ops2D``)
    spot_curve = None
    if snapshot_tenors is not None:
        tenors = np.array(sorted(snapshots))
        values = np.array([snapshots[t] for t in tenors])
        spot_curve = (tenors, values * np.exp(-rates.r_hat * tenors))
    return PdeSolution(grid=grid, values=u.T * math.exp(-rates.r_hat * T), spot_curve=spot_curve)


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
    discounted at r_hat; the full surface is rebuilt as z * Bhat * w(y) and
    must agree with :func:`solve_quanto_pde` at gamma = 0 on the same grid.
    """
    if fx.gamma_z != 0.0:
        raise ValueError("foreign-measure route covers the diffusive model only (gamma_z = 0)")
    cfg = cfg or SolverConfig()
    grid, _ = build_grid(h, fx, rates, T, cfg)
    dt = float(grid.t_nodes[1] - grid.t_nodes[0])
    n_t = grid.t_nodes.size - 1
    ops = _y_diags(h, grid.y_nodes, fx.rho * h.sigma_y * fx.sigma_z,
                   np.exp(grid.y_nodes) + rates.r_hat)
    w, _ = _march_1f(ops, dt, n_t, {}, grid.iy0)
    values = np.exp(grid.x_nodes)[:, None] * w[None, :]
    return PdeSolution(grid=grid, values=values)


def _march_1f(ops: _Diags, dt: float, n_t: int, snap: Mapping[int, float], iy0: int
              ) -> tuple[np.ndarray, dict[float, float]]:
    """Crank-Nicolson/Rannacher march of the killed one-factor equation.

    Solves w_t + A w = 0 backward from w(T) = 1, where ``ops`` holds the
    diagonals of A, 0.5 sigma_y^2 d_yy + (a(b - y) + shift) d_y - kill with
    Neumann boundaries (``_y_diags``): ``survival_curve_1f`` kills at
    kill_scale e^y, ``solve_foreign_measure_pde`` at e^y + r_hat.
    """
    lo, di, up = ops
    n = di.size
    w = np.ones(n)
    snapshots: dict[float, float] = {}
    factors: dict[float, tuple] = {}
    for step in range(n_t):
        k_next = n_t - 1 - step
        theta = 1.0 if step < _RANNACHER_STEPS else _THETA
        if theta not in factors:
            factors[theta] = _factor(lo, di, up, theta * dt, f"one-factor march on {n} nodes")
        # a fully implicit step has no explicit half
        w = solve_banded(factors[theta],
                         w if theta == 1.0 else w + (1.0 - theta) * dt * _apply(lo, di, up, w))
        if k_next in snap:
            snapshots[snap[k_next]] = float(w[iy0])
    if not np.all(np.isfinite(w)):
        raise PdeInstabilityError("one-factor solve produced non-finite values")
    return w, snapshots


def _spectral_1f(ops: _Diags, kill: np.ndarray, dt: float, n_t: int,
                 snap: Mapping[int, float], iy0: int) -> dict[float, float] | None:
    """``_march_1f``'s snapshots from one eigendecomposition, or None.

    The operator A (``ops``, which kills at ``kill``) is time-homogeneous,
    so each step of the march multiplies A's eigencomponents by a scalar:
    1 / (1 - dt lam) on a Rannacher step,
    (1 + (1 - theta) dt lam) / (1 - theta dt lam) on a theta step.  With
    S = D A D^-1 symmetric, w(iy0) = sum_j V[iy0, j] (V^T d)_j f(lam_j)
    where D = diag(d) and d[iy0] = 1.  Returns None, and the caller
    marches, wherever that is not both accurate and cheaper:

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
    lo, di, up = ops
    if 2 * di.size > n_t:
        return None
    couple = lo[1:] * up[:-1]
    if not (np.all(kill > 0.0) and np.all(couple > 0.0)
            and np.max(np.abs(di)) * dt <= 300.0):
        return None
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * np.log(up[:-1] / lo[1:]))))
    if np.ptp(log_d) > 10.0:
        return None
    try:
        lam, vec = eigh_tridiagonal(di, np.sqrt(couple))
    except LinAlgError:
        return None
    weights = vec[iy0] * (np.exp(log_d - log_d[iy0]) @ vec)
    steps = n_t - np.fromiter(snap, int)[:, None]  # steps marched to each node
    n_implicit = np.minimum(steps, _RANNACHER_STEPS)
    factors = ((1.0 - dt * lam) ** -n_implicit
               * ((1.0 + (1.0 - _THETA) * dt * lam) / (1.0 - _THETA * dt * lam))
               ** (steps - n_implicit))
    values = factors @ weights
    if not np.all(np.isfinite(values)):
        raise PdeInstabilityError("one-factor solve produced non-finite values")
    return {t: float(v) for t, v in zip(snap.values(), values)}


def _sorted_tenors(tenors: Sequence[float]) -> list[float]:
    tenors = sorted(float(t) for t in tenors)
    if not tenors or not all(0.0 < t < math.inf for t in tenors):
        raise ValueError(f"tenors must be positive and finite, got {tenors}")
    return tenors


def survival_curve_1f(
    h: HazardParams,
    tenors: Sequence[float],
    n_y: int = 401,
    n_t: int = 400,
    width_sigmas: float = _WIDTH_SIGMAS,
    drift_shift: float = 0.0,
    kill_scale: float = 1.0,
) -> np.ndarray:
    """Survival probabilities E[exp(-kill_scale * int e^Y)] at the tenors.

    ``drift_shift`` tilts the Y drift (measure change), ``kill_scale``
    rescales the intensity; the plain survival curve is the default.
    """
    tenors = _sorted_tenors(tenors)
    T = tenors[-1]
    y, iy0 = _y_axis(h, T, n_y, width_sigmas, drift_shift)
    dt, n_total, snap = _time_grid(T, n_t, tuple(tenors))
    if kill_scale == 0.0:
        # every row of the operator sums to zero, so w = 1 solves the
        # discrete equation exactly; a solve would only add round-off
        return np.ones(len(tenors))
    kill = kill_scale * np.exp(y)
    ops = _y_diags(h, y, drift_shift, kill)
    snapshots = _spectral_1f(ops, kill, dt, n_total, snap, iy0)
    if snapshots is None:
        _, snapshots = _march_1f(ops, dt, n_total, snap, iy0)
    return np.array([snapshots[t] for t in tenors])


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
    shift = fx.rho * h.sigma_y * fx.sigma_z
    return survival_curve_1f(
        h, tenors, n_y=n_y, n_t=n_t, width_sigmas=width_sigmas,
        drift_shift=shift, kill_scale=1.0 + fx.gamma_z,
    )


def quanto_survival_curve(
    h: HazardParams,
    fx: QuantoFxParams,
    rates: RatePair,
    tenors: Sequence[float],
    cfg: SolverConfig | None = None,
    engine: str = "adi",
) -> tuple[SurvivalCurve, SurvivalCurve]:
    """Survival curves (contractual-measure p_hat, liquid-measure p).

    ``engine`` selects how p_hat is produced: "adi" runs the two-factor
    solver with per-tenor snapshots, "reduced" uses the exact one-factor
    reduction (identical in the limit, much cheaper; used in calibration).
    The liquid curve always comes from the one-factor survival solve.
    """
    cfg = cfg or SolverConfig()
    tenors = _sorted_tenors(tenors)
    if engine == "adi":
        # the solve sees only r - r_hat, so at the rates (r - r_hat, 0) it marches the same
        # e^(r_hat t) v and leaves no discount to divide out
        fwd = RatePair(rates.r - rates.r_hat, 0.0)
        ts, us = solve_quanto_pde(h, fx, fwd, tenors[-1], cfg, snapshot_tenors=tenors).spot_curve
        p_hat = us / fx.z0
    elif engine == "reduced":
        ts = np.asarray(tenors)
        p_hat = quanto_survival_curve_1f(h, fx, tenors, n_y=cfg.n_y, n_t=cfg.n_t)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    p = survival_curve_1f(h, tenors, n_y=cfg.n_y, n_t=cfg.n_t)
    return SurvivalCurve(ts, p_hat), SurvivalCurve(np.asarray(tenors), p)
