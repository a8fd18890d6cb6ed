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

The ADI scheme's x-differences are fitted to be exact on e^x, and its march
starts from v = e^x, so every step leaves v = e^x w(y): ``_ProfileStep``
marches that y-profile w, on which each split operator acts exactly as a
one-dimensional one, and the log-FX grid only sizes the reported surface.
The march reads w only at its stops, the snapshot nodes and the last node.
Its two Rannacher steps apply the step to w; the Crank-Nicolson step, linear
in w, is a dense n_y x n_y matrix M, which ``_ProfileStep.matrix`` builds on
its band, each column bit for bit the step applied to a unit vector, and
the march crosses each gap between stops with products by squares M^(2^i),
every gap before it checks all the stops for a blow-up in one pass.  On
large y-grids (``_marches_vector``) it applies the step to w instead and
checks each stop as it reaches it.

Both engines difference y with one operator, ``_y_diags``: Spalding's
hybrid scheme, central up to a cell Peclet number of 1 and upwind above it.
Every implicit solve goes through one function, ``solve_banded``: LAPACK
``dgttrf`` factors I - theta*dt*A once per theta*dt (``_factor``), and a
solve is one ``dgttrs`` call.  The one-factor march solves once a step; the
ADI y-sweep solves once a sweep, for the step matrix with its n_y columns as
right-hand sides, and its x-sweep, diagonal on the profile, divides.

``survival_curve_1f`` builds the one-factor operator once and does
without the time loop where it can: the operator is time-homogeneous and,
at cell Peclet numbers up to 1, similar to a symmetric tridiagonal matrix,
so ``_spectral_1f`` diagonalises it once (``eigh_tridiagonal``, one call to
LAPACK's divide and conquer ``dstevd`` for all eigenpairs) and applies each
step of the march, Rannacher steps included, as one scalar factor per
eigenvalue.  Outside its gate (a zero kill, a Peclet number above 1, an
ill-conditioned symmetrisation or a stiff spectrum, or more nodes than
half the time steps, where the march is cheaper) ``_march_1f`` marches the
same operator; it is also the reference the tests hold the spectral path to.

Importing this module loads numpy only; scipy.linalg loads with the first
solve.  ``_factor`` binds LAPACK ``dgttrf``/``dgttrs`` when it factors, and
the module-level ``eigh_tridiagonal`` binds ``dstevd`` when called;
``TestSpectralSolve`` in tests/test_pde.py monkeypatches both.  Callers
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
# longest tenor, in years, of a curve or a contract (``cds.checked_tenor``): a
# time grid over a tenor without a bound would size its steps without one
# (1e308 overflowed their count)
MAX_TENOR = 1000.0

@dataclass(frozen=True)
class SolverConfig:
    """Grid resolutions; ``n_t`` counts time steps over the whole solve horizon.

    ``n_x`` only sizes the reported surface ``PdeSolution.values``: every ADI
    x-difference, at the edges and in the mixed term too, is fitted to be exact
    on e^x, in which the solution z * w(t, y) is linear, so the ADI engine
    marches the y-profile w alone and prices alike on any log-FX grid.  The
    CLI's ``--grid-*`` flags default to these fields.
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
    # the compensator's term below is capped at 2.0, so for any |gamma| T above
    # 1e-307 an e^y beyond e^709, the largest finite power, moves nothing but overflows
    lam_scale = math.exp(min(max(h.y0, m_end), 709.0))
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
    column per trailing index, all solved against the shared matrix: the
    ADI step applied to the identity solves its n_y columns so.
    """
    dgttrs, size, *factors = lu
    return dgttrs(*factors, rhs.reshape(size, -1))[0].reshape(rhs.shape)


class _ProfileStep:
    """One Craig-Sneyd step of the two-factor scheme, on the y-profile w of v = e^x w.

    Every x-difference of the scheme, its boundary rows and the mixed term's
    x-edges included, is fitted to be exact on e^x (``_Ops2D`` in
    tests/test_pde.py marches the whole surface with them), and a march
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
        ey = np.exp(y)
        kill_x = -min(fx.gamma_z, 0.0) * ey
        self.a_x = -max(fx.gamma_z, 0.0) * ey
        self.y_diags = _y_diags(h, y, 0.0, ey - kill_x)
        self.mixed_coef = fx.rho * fx.sigma_z * h.sigma_y / (2.0 * (y[1] - y[0]))
        self.sweep = f"ADI y-sweep on the {grid.x_nodes.size} x {y.size} grid"
        self._factors: dict[float, tuple] = {}

    def mixed(self, w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        out[0] = out[-1] = 0.0
        np.subtract(w[2:], w[:-2], out=out[1:-1])
        out[1:-1] *= self.mixed_coef
        return out

    def _lu(self, theta_dt: float) -> tuple:
        """Factors of the y-sweep's I - theta dt A_y, made once per theta dt."""
        if theta_dt not in self._factors:
            self._factors[theta_dt] = _factor(*self.y_diags, theta_dt, self.sweep)
        return self._factors[theta_dt]

    def _explicit(self, w: np.ndarray, theta_dt: float, dt: float) -> tuple:
        """The step's explicit terms at w, shape (n_y,) or (n_y, k): the
        predictor's right-hand side, the mixed term, and the map that takes a
        right-hand side through the x-sweep to the y-sweep's."""
        rows = (slice(None),) + (None,) * (w.ndim - 1)  # broadcasts a node's entry along its row
        a_x = self.a_x[rows]
        f1w = a_x * w
        f2w = _apply(*(d[rows] for d in self.y_diags), w)
        f0w = self.mixed(w)
        x_sweep = 1.0 - theta_dt * a_x

        def y_rhs(rhs: np.ndarray) -> np.ndarray:
            return (rhs - theta_dt * f1w) / x_sweep - theta_dt * f2w

        return w + dt * (f0w + f1w + f2w), f0w, y_rhs

    def apply(self, w: np.ndarray, theta: float, dt: float) -> np.ndarray:
        """The step w -> w_next on a profile w, shape (n_y,).

        The y-sweep solves through ``solve_banded`` on factors of
        I - theta dt A_y made once per theta dt.
        """
        lu = self._lu(theta * dt)
        rhs0, f0w, y_rhs = self._explicit(w, theta * dt, dt)
        w_next = solve_banded(lu, y_rhs(rhs0))
        if theta != 1.0 and self.mixed_coef != 0.0:
            w_next = solve_banded(lu, y_rhs(rhs0 + 0.5 * dt * (self.mixed(w_next) - f0w)))
        return w_next

    def matrix(self, theta: float, dt: float) -> np.ndarray:
        """The step as a dense n_y x n_y matrix: column j is ``apply(e_j)``, bit for bit.

        The step's explicit terms are tridiagonal, so on the identity the
        predictor's right-hand side is a band, whose entries ``apply``'s own
        terms compute on three combs (``_band``).  The corrector's right-hand
        side takes the mixed term of the predicted matrix M1: on the band it
        is again ``apply``'s expression on the combs; off it every other term
        is zero, so it is 0.5 dt mixed(M1) through the x-sweep, which divides
        only where a_x is nonzero (gamma > 0), and adding 0.0 gives its zeros
        the sign they take in ``apply``.  Each sweep is one ``solve_banded``
        call with the n_y columns as right-hand sides.
        """
        theta_dt = theta * dt
        lu = self._lu(theta_dt)
        n = self.a_x.size
        rows, cols, k, combs = _band(n)
        rhs0, f0w, y_rhs = self._explicit(combs, theta_dt, dt)
        m = np.zeros((n, n))
        m[rows, cols] = y_rhs(rhs0)[rows, k]
        m = solve_banded(lu, m)
        if theta == 1.0 or self.mixed_coef == 0.0:
            return m
        mixed = self.mixed(m)
        on_band = np.zeros_like(rhs0)
        on_band[rows, k] = mixed[rows, cols]
        band = y_rhs(rhs0 + 0.5 * dt * (on_band - f0w))[rows, k]
        mixed *= 0.5 * dt
        if np.any(self.a_x):
            mixed /= (1.0 - theta_dt * self.a_x)[:, None]
        mixed += 0.0
        mixed[rows, cols] = band
        return solve_banded(lu, mixed)


@functools.lru_cache(maxsize=8)
def _band(n: int) -> tuple[np.ndarray, ...]:
    """The entries (rows[e], cols[e]) of an n x n tridiagonal band, the comb
    k[e] = cols[e] mod 3 of each, and the (n, 3) combs: comb k is 1 at the
    nodes j = k mod 3.

    Any three neighbouring nodes hold exactly one node of each comb, so a
    term of the step at row i, which reads w at i - 1, i and i + 1, takes on
    comb k the value it takes on e_j, j the comb's node among them, bit for bit.
    """
    rows = np.repeat(np.arange(n), 3)[1:-1]
    cols = rows + np.tile([-1, 0, 1], n)[1:-1]
    combs = (np.arange(n)[:, None] % 3 == np.arange(3)).astype(float)
    out = (rows, cols, cols % 3, combs)
    for a in out:
        a.flags.writeable = False
    return out


def _flush_tiny(m: np.ndarray) -> np.ndarray:
    """``m``, its entries below 1e-150 in magnitude set to zero in place.

    The product of two such entries would be subnormal, and subnormal
    arithmetic slows a matrix product several-fold (a 401-node squaring 5x);
    the entries dropped move a product by at most n 1e-150 of its scale.
    """
    m[(m < 1e-150) & (m > -1e-150)] = 0.0
    return m


def _marches_vector(n_y: int, n_steps: int) -> bool:
    """Whether the ADI march applies each of ``n_steps`` steps to w rather
    than square the n_y x n_y step matrix: where n_y^2 > 300 n_steps.

    The dense path, its build, squarings and mat-vecs at the CLI's gaps,
    costs about n_y^2 / 10 us; a step applied to w about 30 us up to a few
    hundred nodes (measured break-even n_y about 110 at 38 steps, 300 at
    298 and 570 at 1198, on a 2-CPU x86-64 machine).  The vector march
    holds no n_y x n_y matrix, which at n_y = 4001 would be 128 MB.
    """
    return n_y**2 > 300 * n_steps


def _adi_march(step: _ProfileStep, grid: Grid2D, snap: Mapping[int, float]
               ) -> tuple[np.ndarray, dict[float, float]]:
    """March the profile backward from w = 1 over ``grid``'s time steps;
    returns the final profile and its spot snapshots.

    The two Rannacher steps apply the theta = 1 step to w.  After them only
    the stops are read: the snapshot nodes and the last node.  The
    Crank-Nicolson step is one matrix M (``_ProfileStep.matrix``), so a gap
    of g steps between stops is a product with M^g: the march keeps the
    table M, M^2, M^4, ... up to the longest gap and crosses each gap with
    one mat-vec per set bit of g (a 9.75-year trade on the CLI grid: 3
    squarings and 40 mat-vecs for 310 steps).  Where ``_marches_vector``
    says so it applies the step to w instead, one step at a time.

    The march checks max |v| for a blow-up at the Rannacher nodes and at
    the stops, and reads the spot values there.  The powered march crosses
    every gap first, into one row a stop; then one reduction checks them
    all, naming the first node in march order past the cap, and the spot
    values are one column of those rows.
    """
    dt = float(grid.t_nodes[1] - grid.t_nodes[0])
    n_t = grid.t_nodes.size - 1
    n_y = grid.y_nodes.size
    snapshots: dict[float, float] = {}
    scale = math.exp(grid.x_nodes[-1])

    def reached(profiles: np.ndarray, nodes: Sequence[int]) -> None:
        """Check the profiles at ``nodes``, one a row, for a blow-up in one
        reduction, and keep the spot values of the snapshot nodes among them."""
        # max |v| over the surface e^x w, against its value at maturity
        peaks = scale * np.max(np.abs(profiles), axis=1)
        blown = np.flatnonzero(~np.isfinite(peaks) | (peaks > 50.0 * scale + 10.0))
        if blown.size:
            k = blown[0]
            raise PdeInstabilityError(
                f"value blow-up at time node {nodes[k]}: max |v| = {peaks[k]:.3e} "
                f"(grid {grid.x_nodes.size}x{n_y}, dt = {dt:.3e})"
            )
        for node, spot in zip(nodes, profiles[:, grid.iy0].tolist()):
            if node in snap:
                snapshots[snap[node]] = spot

    w = np.ones(n_y)
    implicit = np.empty((min(_RANNACHER_STEPS, n_t), n_y))
    for k in range(len(implicit)):
        w = implicit[k] = step.apply(w, 1.0, dt)
    node = n_t - len(implicit)  # the time node of w
    reached(implicit, range(n_t - 1, node - 1, -1))
    stops = sorted({k for k in (0, *snap) if k < node}, reverse=True)
    gaps = [a - b for a, b in zip([node, *stops], stops)]
    if _marches_vector(n_y, node):
        # one stop at a time: on y-grids this large a row per stop could take
        # as much memory as the n_y x n_y matrix this march does without
        for stop, gap in zip(stops, gaps):
            for _ in range(gap):
                w = step.apply(w, _THETA, dt)
            reached(w[None], [stop])
        return w, snapshots
    powers = [_flush_tiny(step.matrix(_THETA, dt))]
    while 2 ** len(powers) <= max(gaps):
        powers.append(_flush_tiny(powers[-1] @ powers[-1]))
    profiles = np.empty((len(stops), n_y))
    for k, gap in enumerate(gaps):
        for i, power in enumerate(powers):
            if gap >> i & 1:
                w = power @ w
        profiles[k] = w
    reached(profiles, stops)
    return w, snapshots


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
    surface, as its y-profile (``_ProfileStep``), is the whole solve.
    """
    cfg = cfg or SolverConfig()
    grid, snap = build_grid(h, fx, rates, T, cfg, snapshot_tenors)
    w, snapshots = _adi_march(_ProfileStep(grid, h, fx), grid, snap)
    # the march carries e^(r_hat tau) v (``_ProfileStep``)
    spot_curve = None
    if snapshot_tenors is not None:
        tenors = np.array(sorted(snapshots))
        values = math.exp(grid.x_nodes[grid.ix0]) * np.array([snapshots[t] for t in tenors])
        spot_curve = (tenors, values * np.exp(-rates.r_hat * tenors))
    values = np.exp(grid.x_nodes)[:, None] * w[None, :]
    return PdeSolution(grid=grid, values=values * math.exp(-rates.r_hat * T),
                       spot_curve=spot_curve)


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
    # the Rannacher factor once per count of implicit steps, 0 to _RANNACHER_STEPS
    rannacher = (1.0 - dt * lam) ** -np.arange(_RANNACHER_STEPS + 1)[:, None]
    factors = rannacher[n_implicit.ravel()]
    factors *= (((1.0 + (1.0 - _THETA) * dt * lam) / (1.0 - _THETA * dt * lam))
                ** (steps - n_implicit))
    values = factors @ weights
    if not np.all(np.isfinite(values)):
        raise PdeInstabilityError("one-factor solve produced non-finite values")
    return {t: float(v) for t, v in zip(snap.values(), values)}


def _sorted_tenors(tenors: Sequence[float]) -> list[float]:
    tenors = sorted(float(t) for t in tenors)
    if not tenors or not all(0.0 < t < math.inf for t in tenors):
        raise ValueError(f"tenors must be positive and finite, got {tenors}")
    if tenors[-1] > MAX_TENOR:
        raise ValueError(f"tenor must be at most {MAX_TENOR:g} years, got {tenors[-1]}")
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
