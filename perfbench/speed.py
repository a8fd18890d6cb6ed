"""Reference kernels that track how fast the benchmark machine runs right now.

The benchmark machine is shared and switches between a fast and a slow
state that lasts from seconds to minutes: on the 2-CPU machine the figures
in README.md come from, the same ADI price took 0.57 s in one state and
0.95 s in the other, with nothing else running in the container.  A wall
time alone then says as much about the neighbours as about the program.  So
every timed piece of a run is bracketed by short runs of a reference kernel,
and its time is reported scaled by nominal / (reference time around it).

Each kernel is the benchmark's own code and never calls quantocds, so a
change to the program cannot move it.  Each repeats the inner step of the
operation it serves, as the program does it today, because the slow state
slows interpreter-bound and array-bound code by different factors.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded


def _tridiag(n: int, lo: float, di: float, up: float) -> np.ndarray:
    ab = np.empty((3, n))
    ab[0], ab[1], ab[2] = up, di, lo
    return ab


_AB_1F = _tridiag(161, -0.3, 1.6, -0.3)
_TENORS = np.concatenate(([0.0], 0.25 * np.arange(1, 41)))
_LOG_P = -0.02 * _TENORS
_WEEKS = np.linspace(0.0, 10.0, 521)
_AB_Y = _tridiag(101, -0.3, 1.6, -0.3)
_V0 = np.exp(np.linspace(-1.0, 1.0, 101))[None, :] * np.ones((101, 1))
_INV = np.full((101, 101), 1.0 / 1.6)
_CP = np.full((101, 101), -0.3 / 1.6)


def march_kernel() -> None:
    """One-factor Crank-Nicolson steps (tridiagonal product, banded solve)
    and a survival-curve lookup, as in a calibration residual."""
    w = np.ones(161)
    di, off = np.full(161, -0.4), np.full(161, 0.2)
    for _ in range(300):
        rhs = w + 0.01 * (di * w)
        rhs[1:] += 0.01 * off[1:] * w[:-1]
        rhs[:-1] += 0.01 * off[:-1] * w[1:]
        w = solve_banded((1, 1), _AB_1F, rhs)
    for _ in range(30):
        np.exp(np.interp(_WEEKS, _TENORS, _LOG_P))


def adi_kernel() -> None:
    """Craig-Sneyd steps on a 101 x 101 grid: explicit operators, a
    row-batched Thomas sweep and a many-column banded solve."""
    v = _V0.copy()
    for _ in range(6):
        f0 = np.zeros_like(v)
        f0[1:-1, 1:-1] = v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]
        f1 = -0.4 * v
        f1[:, 1:] += 0.2 * v[:, :-1]
        f1[:, :-1] += 0.2 * v[:, 1:]
        f2 = -0.4 * v
        f2[1:, :] += 0.2 * v[:-1, :]
        f2[:-1, :] += 0.2 * v[1:, :]
        rhs = v + 0.01 * (f0 + f1 + f2)
        for _ in range(2):  # predictor and corrector
            x = np.empty_like(rhs)
            x[:, 0] = rhs[:, 0] * _INV[:, 0]
            for i in range(1, 101):
                x[:, i] = (rhs[:, i] + 0.3 * x[:, i - 1]) * _INV[:, i]
            for i in range(99, -1, -1):
                x[:, i] -= _CP[:, i] * x[:, i + 1]
            y2 = solve_banded((1, 1), _AB_Y, x - 0.005 * f2)
        v = y2


def paths_kernel() -> None:
    """Time steps of a block of 32768 joint hazard / FX paths: two normal
    draws, the exact OU update, the FX log-Euler step and the default test."""
    rng = np.random.default_rng(0)
    n = 1 << 15
    y = np.full(n, -4.0)
    lam = np.exp(y)
    acc = np.zeros(n)
    lnz = np.zeros(n)
    e = -np.log1p(-rng.uniform(size=n))
    jumped = e <= 0.0
    for _ in range(12):
        n1 = rng.standard_normal(n)
        y = 1e-4 + 0.9999 * y + 0.03 * n1
        lam_new = np.exp(y)
        n2 = rng.standard_normal(n)
        drift = 0.01 - 0.2 * lam * (~jumped)
        lnz = lnz + (drift - 0.005) * 0.02 + 0.014 * (0.3 * n1 + 0.95 * n2)
        acc_new = acc + 0.5 * (lam + lam_new) * 0.02
        newly = ~jumped & (acc_new >= e)
        if np.any(newly):
            lnz = lnz + np.where(newly, -0.2, 0.0)
        jumped = jumped | newly
        acc, lam = acc_new, lam_new


def measure(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


# workload -> (kernel, its time in seconds on the benchmark machine's fast state)
REFERENCE = {
    "calibrate": (march_kernel, 0.015),
    "price-adi": (adi_kernel, 0.010),
    "mc-symmetry": (paths_kernel, 0.028),
}
