"""Monte Carlo engine for the joint simulation of hazard, FX and default.

The log-intensity Y is advanced with its exact Gaussian transition, the
default time comes from a Cox construction (one unit-exponential threshold
per path against the trapezoidal integral of the intensity), and the FX
rate is stepped in log space with the no-arbitrage drift evaluated at the
left node; the devaluation jump is applied at the end of the step that
contains the default time.  One path simulator, ``_TerminalKernel``, runs
every estimator below.

The simulator steps a stack of legs, one per measure parameterisation
(liquid, contractual, or liquid with the jump compensator dropped), and all
legs share one set of draws: each leg sees exactly the numbers a run of it
alone would draw, so the estimates that share a pass (the symmetry study's
measures, the long-tenor check's drift tilts) are bit-identical to separate
runs while the normals are drawn once.

Legs that share a hazard (drift tilt and intensity scale) share its
stepped state, and legs that share an FX correlation and volatility share
each step's FX noise, so a pass does each piece of arithmetic once.

Paths are simulated in fixed-size blocks whose RNG substreams are derived
deterministically from (seed, block index), and block partials are reduced
in block order, so estimates are bit-identical for a given config no matter
how the work is laid out.

The work runs on two threads at most (numpy's generator and ufuncs release
the GIL, so two threads use two cores), through one helper primitive,
``_on_helper``.  Full blocks run in pairs, one block on the caller's thread
and one as the single call on a helper, each drawing its own normals as it
steps.  A full block left over and the final partial block run alone, with
a helper drawing each step's normals a few steps ahead of the step loop.
Every block consumes its stream in the order a serial loop would, so every
estimate is unchanged bit for bit, and every helper is joined before its
blocks return, also when either side raises: no thread outlives a call.
"""

from __future__ import annotations

import math
import numbers
import queue
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import HazardParams, QuantoFxParams, RatePair, fx_jump_inverse

_BLOCK = 1 << 15
_AHEAD = 4  # steps of normals the helper thread may hold ready for the step loop


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, horizon and reproducibility knobs.

    ``n_steps`` is the total number of uniform time steps over ``horizon``.
    """

    n_paths: int
    n_steps: int
    horizon: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_paths", "n_steps"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be > 0 and finite, got {self.horizon}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    ci95_low: float
    ci95_high: float
    n_paths: int

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "McEstimate":
        x = np.asarray(x, dtype=float)
        s1, s2, n = float(x.sum()), float((x * x).sum()), x.size
        mean = s1 / n
        var = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
        se = math.sqrt(var / n)
        return cls(mean, se, mean - 1.96 * se, mean + 1.96 * se, n)

    def contains(self, value: float) -> bool:
        return self.ci95_low <= value <= self.ci95_high

    def z_score(self, value: float) -> float:
        """Distance from ``value`` in standard errors (inf for zero SE)."""
        if self.std_error == 0.0:
            return 0.0 if value == self.mean else math.inf
        return (self.mean - value) / self.std_error


@dataclass(frozen=True)
class QuantoBondMc:
    """Joint estimate of the quanto bond value U and the survival it implies."""

    u: McEstimate
    p_hat: McEstimate


@dataclass(frozen=True)
class FxSymmetryReport:
    """Cross-measure consistency report for the FX jump construction.

    The same two observables are estimated from both sides: the liquid
    (domestic) simulation of Z and the contractual (foreign) simulation of
    the reciprocal rate X with the transformed jump and rescaled intensity.
    Both runs draw the same random numbers, but the contractual one builds
    X with its own jump transform, intensity scale and drift tilt, so
    agreement within the standard errors checks those three.
    """

    p_hat_liquid: McEstimate
    p_hat_contractual: McEstimate
    p_liquid: McEstimate
    p_contractual: McEstimate

    def max_z_score(self) -> float:
        return max(
            _gap_z(self.p_hat_liquid, self.p_hat_contractual),
            _gap_z(self.p_liquid, self.p_contractual),
        )


def _gap_z(e1: McEstimate, e2: McEstimate) -> float:
    se = math.hypot(e1.std_error, e2.std_error)
    if se == 0.0:
        return 0.0 if e1.mean == e2.mean else math.inf
    return abs(e1.mean - e2.mean) / se


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _ou_mean_coeffs(h: HazardParams, dt: float, drift_shift: float) -> tuple[float, float, float]:
    """Coefficients (m0, m1, sd) of the exact transition Y' = m0 + m1*Y + sd*N."""
    if h.a > 0:
        decay = math.exp(-h.a * dt)
        b_eff = h.b + drift_shift / h.a
        m0 = b_eff * (1.0 - decay)
        m1 = decay
        var = h.sigma_y * h.sigma_y * (-math.expm1(-2.0 * h.a * dt)) / (2.0 * h.a)
    else:
        m0 = drift_shift * dt
        m1 = 1.0
        var = h.sigma_y * h.sigma_y * dt
    return m0, m1, math.sqrt(var)


@dataclass(frozen=True)
class _Leg:
    """One measure's parameterisation of the path simulator.

    ``drift_shift`` tilts the OU drift and ``intensity_scale`` multiplies the
    integrated intensity in the Cox construction.  The FX process starts at
    ``fx_spot`` with volatility ``fx_sigma``, signed correlation ``fx_rho``
    and jump ``fx_gamma``; its pre-default drift is
    ``rate_diff - compensator * intensity``.
    """

    drift_shift: float
    intensity_scale: float
    fx_spot: float
    fx_sigma: float
    fx_rho: float
    fx_gamma: float
    compensator: float
    rate_diff: float

    @classmethod
    def of(cls, h: HazardParams, fx: QuantoFxParams, rates: RatePair,
           measure: str = "liquid") -> "_Leg":
        """The leg of ``measure``.

        "liquid" simulates Z under the liquid currency's measure;
        "contractual" simulates X = 1/Z under the contractual one (reciprocal
        jump, intensity scaled by 1 + gamma_z, drift tilt rho sigma_y sigma_z);
        "uncompensated" is the liquid leg with the jump compensator left out
        of the FX drift, a negative control for the drift condition.
        """
        if measure in ("liquid", "uncompensated"):
            comp = fx.gamma_z if measure == "liquid" else 0.0
            return cls(0.0, 1.0, fx.z0, fx.sigma_z, fx.rho, fx.gamma_z, comp,
                       rates.r - rates.r_hat)
        if measure == "contractual":
            scale = 1.0 + fx.gamma_z
            gamma = fx_jump_inverse(fx.gamma_z)
            return cls(fx.rho * h.sigma_y * fx.sigma_z, scale, 1.0 / fx.z0, fx.sigma_z,
                       -fx.rho, gamma, gamma * scale, rates.r_hat - rates.r)
        raise ValueError(f"unknown measure {measure!r}")


@contextmanager
def _on_helper(work: Callable[[threading.Event], object], n: int,
               depth: int) -> Iterator[tuple[Callable[[], object], threading.Event]]:
    """``(take, stop)``: one helper thread makes the ``n`` calls ``work(stop)``
    in order, at most ``depth`` ahead, and ``take()`` returns their results in
    call order.

    A failure in ``work`` sets ``stop``, ends the calls and is raised by the
    ``take()`` that would have returned its result.  On leaving the block,
    normally or by an exception, ``stop`` is set, the queue is drained (so a
    helper blocked on a full queue can see the flag) and the thread is joined.
    """
    ready: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()

    def produce() -> None:
        try:
            for _ in range(n):
                if stop.is_set():
                    return
                ready.put((work(stop), None))
        except BaseException as exc:  # re-raised by take(): the caller never waits on a dead helper
            stop.set()
            ready.put((None, exc))

    def take():
        result, exc = ready.get()
        if exc is not None:
            raise exc
        return result

    helper = threading.Thread(target=produce, name="quantocds-mc-helper", daemon=True)
    helper.start()
    try:
        yield take, stop
    finally:
        stop.set()
        # after the flag is set the helper puts at most one more item
        while True:
            try:
                ready.get_nowait()
            except queue.Empty:
                break
        helper.join()


def _column(values) -> np.ndarray:
    return np.array(list(values), dtype=float).reshape(-1, 1)


class _TerminalKernel:
    """Streaming block simulator collecting per-path quantities at the horizon.

    It steps a stack of legs (one ``_Leg`` each) on the same random numbers:
    every leg sees, number for number, the draws a run of that leg alone
    would make.  Legs with the same (``drift_shift``, ``intensity_scale``)
    form one hazard group, whose Y, e^Y, integrated intensity and alive mask
    are stepped once, with shape (groups, block) and per-group coefficient
    columns; legs with the same (``fx_rho``, ``fx_sigma``) share one FX noise
    increment a step; ln Z is stepped per leg.  A survival run (no FX) steps
    only Y, e^Y and the integrated intensity, and tests no default.
    """

    def __init__(self, h: HazardParams, legs: Sequence[_Leg]):
        self.h = h
        self.legs = tuple(legs)
        self._hazards = list(dict.fromkeys((leg.drift_shift, leg.intensity_scale)
                                           for leg in self.legs))
        self._hazard_of = [self._hazards.index((leg.drift_shift, leg.intensity_scale))
                           for leg in self.legs]

    def run(self, cfg: SimConfig, want_fx: bool = True) -> tuple[np.ndarray, ...]:
        """Per-path arrays at the horizon reduced over all blocks, each of shape
        (legs, n_paths): ``(alive, z)`` with ``want_fx``, the survival mask and
        the FX value; ``(int_lam,)`` without it, the trapezoidal integral of
        the *unscaled* intensity exp(Y).

        Full blocks run two at a time (``_run_pair``); a full block left over
        and the final partial block run alone.
        """
        n = cfg.n_paths
        paired = n // (2 * _BLOCK) * 2
        blocks = []
        for block in range(0, paired, 2):
            blocks.extend(self._run_pair(cfg, block, want_fx))
        for block in range(paired, -(-n // _BLOCK)):
            size = min(_BLOCK, n - block * _BLOCK)
            blocks.append(self._run_block(_block_rng(cfg.seed, block), size, cfg, want_fx))
        return tuple(np.concatenate(parts, axis=1) for parts in zip(*blocks))

    def _run_pair(self, cfg: SimConfig, block: int, want_fx: bool):
        """The full blocks ``block`` and ``block + 1`` side by side, drawing inline:
        the second is the one call on an ``_on_helper`` thread, the first runs
        here, and a failure on either side stops the other and is raised here."""
        def second(stop):
            return self._run_block(_block_rng(cfg.seed, block + 1), _BLOCK, cfg, want_fx, stop)

        with _on_helper(second, 1, 1) as (take, stop):
            first = self._run_block(_block_rng(cfg.seed, block), _BLOCK, cfg, want_fx, stop)
            return first, take()

    def _draw_normals(self, rng, count: int) -> np.ndarray:
        return rng.standard_normal(count)

    def _run_block(self, rng, size: int, cfg: SimConfig, want_fx: bool,
                   stop: threading.Event | None = None) -> tuple[np.ndarray, ...]:
        """One block's arrays as :meth:`run` returns them, one row per leg.

        The thresholds are drawn on the calling thread.  Without ``stop`` the
        normals are drawn up to ``_AHEAD`` steps ahead on an ``_on_helper``
        thread, and the block never polls that helper's flag: a failed draw
        must reach the step loop through ``take()``.  With ``stop``, as one
        block of a pair, they are drawn inline, and the block gives up at the
        first step after ``stop`` is set.
        """
        # Every update writes into buffers allocated once per block and keeps
        # the operand order of the plain expression it replaces (noted beside
        # it), so each leg's numbers are bit for bit those of a one-leg run.
        dt = cfg.horizon / cfg.n_steps
        half_dt = 0.5 * dt  # (x * 0.5) * dt == x * half_dt: halving is exact
        shifts, scales = zip(*self._hazards)
        m0, m1, sd = (_column(c) for c in
                      zip(*(_ou_mean_coeffs(self.h, dt, shift) for shift in shifts)))
        shape = (len(shifts), size)

        y = np.full(shape, self.h.y0)
        lam = np.exp(y)
        lam_new = np.empty(shape)
        acc = np.zeros(shape)
        tmp = np.empty(shape)
        if not want_fx:
            rng.uniform(size=size)  # the unused thresholds: both modes draw one stream
        else:
            e = -np.log1p(-rng.uniform(size=size))
            alive = np.empty(shape, dtype=bool)
            np.greater(e, 0.0, out=alive)
            newly = np.empty(shape, dtype=bool)
            # per hazard group: (scale, acc, spare, newly) rows
            defaults = list(zip(scales, acc, tmp, newly))
            sqdt = math.sqrt(dt)
            noises = list(dict.fromkeys((leg.fx_rho, leg.fx_sigma) for leg in self.legs))
            noise = np.empty((len(noises), size))
            noise_coeffs = [(rho, math.sqrt(max(1.0 - rho * rho, 0.0)), sigma * sqdt, w)
                            for (rho, sigma), w in zip(noises, noise)]
            spare = tmp[0]  # free between the y update and the trapezoid
            lnz = np.empty((len(self.legs), size))
            fx_legs, jumps = [], []
            for leg, g, row in zip(self.legs, self._hazard_of, lnz):
                half_var = 0.5 * leg.fx_sigma * leg.fx_sigma
                log_jump = math.log1p(leg.fx_gamma) if leg.fx_gamma > -1.0 else -math.inf
                row[...] = math.log(leg.fx_spot)
                np.add(row, log_jump, out=row, where=~alive[g])
                w = noise[noises.index((leg.fx_rho, leg.fx_sigma))]
                fx_legs.append((row, g, alive[g], w, leg.compensator, leg.rate_diff, half_var,
                                (leg.rate_diff - half_var) * dt))
                jumps.append((row, newly[g], log_jump))

        def draw_step():
            n1 = self._draw_normals(rng, size)
            return n1, self._draw_normals(rng, size) if want_fx else None

        inline = stop is not None
        draws = (nullcontext((draw_step, None)) if inline
                 else _on_helper(lambda _: draw_step(), cfg.n_steps, _AHEAD))
        with draws as (next_draws, _):
            for _ in range(cfg.n_steps):
                if inline and stop.is_set():
                    break  # the pair failed on the other side; this block is discarded
                n1, n2 = next_draws()
                # y = m0 + m1 * y + sd * n1
                y *= m1
                y += m0
                np.multiply(sd, n1, out=tmp)
                y += tmp
                if want_fx:
                    # w = vol * (rho * n1 + rho_c * n2), once per (fx_rho, fx_sigma)
                    for rho, rho_c, vol, w in noise_coeffs:
                        np.multiply(rho, n1, out=w)
                        np.multiply(rho_c, n2, out=spare)
                        w += spare
                        w *= vol
                    # lnz = lnz + (rate_diff - comp * lam * alive - half_var) * dt + w;
                    # at comp = 0 the drift is the constant (rate_diff - half_var) * dt,
                    # exact while e^Y is finite (0 * inf would make it nan)
                    for row, g, alive_g, w, comp, rate_diff, half_var, const in fx_legs:
                        if comp == 0.0:
                            row += const
                        else:
                            np.multiply(comp, lam[g], out=spare)
                            spare *= alive_g
                            np.subtract(rate_diff, spare, out=spare)
                            spare -= half_var
                            spare *= dt
                            row += spare
                        row += w
                np.exp(y, out=lam_new)
                # acc = acc + 0.5 * (lam + lam_new) * dt
                np.add(lam, lam_new, out=tmp)
                tmp *= half_dt
                acc += tmp
                if want_fx:
                    # newly = alive & (scale * acc >= e): the default falls in this step
                    for scale, acc_g, tmp_g, newly_g in defaults:
                        if scale != 1.0:
                            acc_g = np.multiply(scale, acc_g, out=tmp_g)
                        np.greater_equal(acc_g, e, out=newly_g)
                    newly &= alive
                    for row, newly_g, log_jump in jumps:
                        np.add(row, log_jump, out=row, where=newly_g)
                    alive ^= newly
                lam, lam_new = lam_new, lam

        hz = self._hazard_of
        return (alive[hz], np.exp(lnz, out=lnz)) if want_fx else (acc[hz],)


def _tenor_config(T: float, cfg: SimConfig) -> SimConfig:
    """``cfg`` with its ``n_steps`` spread over the tenor T instead of its horizon."""
    if T > cfg.horizon:
        raise ValueError(f"tenor {T} exceeds simulation horizon {cfg.horizon}")
    if not T > 0:
        raise ValueError(f"tenor {T} must be > 0")
    return replace(cfg, horizon=T)


def survival_probability_mc(h: HazardParams, T: float, cfg: SimConfig) -> McEstimate:
    """Survival probability p0(T) via the conditional estimator exp(-int lambda).

    The paths take ``cfg.n_steps`` uniform steps over the tenor T itself
    (dt = T / n_steps), whatever ``cfg.horizon`` is.  Averaging the
    conditional survival given the intensity path has lower variance than
    counting default indicators and stays in [0, 1] pathwise.
    """
    if T == 0.0:
        return McEstimate(1.0, 0.0, 1.0, 1.0, cfg.n_paths)
    kern = _TerminalKernel(h, [_Leg.of(h, _DUMMY_FX, _ZERO_RATES)])
    (int_lam,) = kern.run(_tenor_config(T, cfg), want_fx=False)
    return McEstimate.from_samples(np.exp(-int_lam[0]))


def survival_curve_mc(h: HazardParams, tenors, cfg: SimConfig) -> list[McEstimate]:
    """Survival estimates at nodes of the grid of ``cfg.n_steps`` uniform
    steps over ``cfg.horizon`` (dt = horizon / n_steps).

    Every tenor must be a node T = k dt, and its estimate is the one
    :func:`survival_probability_mc` gives for T with the k steps that reach
    it (``replace(cfg, n_steps=k, horizon=T)``), not the one it gives for T
    with ``cfg`` itself.
    """
    tenors = [float(t) for t in tenors]
    if not tenors:
        raise ValueError("need at least one tenor")
    dt = cfg.horizon / cfg.n_steps
    steps = [round(t / dt) if math.isfinite(t / dt) else 0 for t in tenors]
    for t, k in zip(tenors, steps):
        if not (1 <= k <= cfg.n_steps and abs(k * dt - t) <= 1e-9 * cfg.horizon):
            raise ValueError(f"tenor {t} is not a node of the {cfg.n_steps}-step grid "
                             f"over (0, {cfg.horizon}]")
    return [survival_probability_mc(h, t, replace(cfg, n_steps=k, horizon=t))
            for t, k in zip(tenors, steps)]


def quanto_bond_mc(
    h: HazardParams, fx: QuantoFxParams, rates: RatePair, T: float, cfg: SimConfig
) -> QuantoBondMc:
    """Quanto defaultable-bond value U0(T) and the survival it implies.

    U0(T) = B(0,T) * E[Z_T 1{tau > T}] and p_hat = U0(T) / (z0 * Bhat(0,T)).
    """
    return _quanto_bond_pass(h, [fx], rates, T, cfg)[0]


def _quanto_bond_pass(h: HazardParams, fxs: Sequence[QuantoFxParams], rates: RatePair,
                      T: float, cfg: SimConfig) -> list[QuantoBondMc]:
    """:func:`quanto_bond_mc` for each of ``fxs`` from one pass whose legs share
    their draws; each estimate equals, bit for bit, the one its own call returns."""
    kern = _TerminalKernel(h, [_Leg.of(h, fx, rates) for fx in fxs])
    alive, z = kern.run(_tenor_config(T, cfg))
    disc = math.exp(-rates.r * T)
    out = []
    for fx, z_leg, alive_leg in zip(fxs, z, alive):
        u = McEstimate.from_samples(disc * z_leg * alive_leg)
        s = 1.0 / (fx.z0 * math.exp(-rates.r_hat * T))
        out.append(QuantoBondMc(u, McEstimate(u.mean * s, u.std_error * s, u.ci95_low * s,
                                              u.ci95_high * s, u.n_paths)))
    return out


def _density_martingale(z: np.ndarray, fx: QuantoFxParams, rates: RatePair,
                        T: float) -> McEstimate:
    return McEstimate.from_samples(z * math.exp((rates.r_hat - rates.r) * T) / fx.z0)


def verify_rn_martingale(
    h: HazardParams,
    fx: QuantoFxParams,
    rates: RatePair,
    T: float,
    cfg: SimConfig,
    drop_compensator: bool = False,
) -> McEstimate:
    """Estimate of E[Z_T Bhat_T / (z0 B_T)], which must equal 1.

    With ``drop_compensator`` the jump compensator is removed from the FX
    drift; the estimate then deviates from 1 by roughly gamma * P(default),
    which serves as a negative control for the drift condition.
    """
    leg = _Leg.of(h, fx, rates, "uncompensated" if drop_compensator else "liquid")
    _, z = _TerminalKernel(h, [leg]).run(_tenor_config(T, cfg))
    return _density_martingale(z[0], fx, rates, T)


def verify_fx_symmetry(
    h: HazardParams, fx: QuantoFxParams, rates: RatePair, T: float, cfg: SimConfig
) -> FxSymmetryReport:
    """Dual-construction check of the FX jump symmetry.

    The liquid-measure leg simulates Z and prices the quanto bond; the
    contractual-measure leg simulates X = 1/Z directly (reciprocal jump,
    intensity scaled by 1 + gamma_z, drift-shifted hazard factor) and
    recovers the same two observables from the other side:

    * p_hat: directly as the contractual-measure survival frequency;
    * p:     as z0 * exp((r - r_hat) T) * E[X_T 1{tau > T}].
    """
    return _fx_symmetry_pass(h, fx, rates, T, cfg, control=False)[0]


def _fx_symmetry_pass(
    h: HazardParams, fx: QuantoFxParams, rates: RatePair, T: float, cfg: SimConfig,
    control: bool,
) -> tuple[FxSymmetryReport, McEstimate, McEstimate | None]:
    """The report of :func:`verify_fx_symmetry`, the density martingale of
    :func:`verify_rn_martingale` and, with ``control``, its uncompensated
    negative control (else None), from one pass whose legs share their draws.

    Each estimate equals, bit for bit, the one its own function returns.
    """
    run_cfg = _tenor_config(T, cfg)
    measures = ("liquid", "contractual", "uncompensated") if control else ("liquid", "contractual")
    kern = _TerminalKernel(h, [_Leg.of(h, fx, rates, m) for m in measures])
    alive, z = kern.run(run_cfg)

    disc_ratio = math.exp((rates.r_hat - rates.r) * T)
    report = FxSymmetryReport(
        p_hat_liquid=McEstimate.from_samples(disc_ratio * z[0] * alive[0] / fx.z0),
        p_hat_contractual=McEstimate.from_samples(alive[1].astype(float)),
        p_liquid=McEstimate.from_samples(alive[0].astype(float)),
        p_contractual=McEstimate.from_samples(fx.z0 * z[1] * alive[1] / disc_ratio),
    )
    biased = _density_martingale(z[2], fx, rates, T) if control else None
    return report, _density_martingale(z[0], fx, rates, T), biased


_DUMMY_FX = QuantoFxParams(z0=1.0, sigma_z=0.0, gamma_z=0.0, rho=0.0)
_ZERO_RATES = RatePair(0.0, 0.0)
