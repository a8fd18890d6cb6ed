"""Monte Carlo engine for the joint simulation of hazard, FX and default.

The log-intensity Y is advanced with its exact Gaussian transition, the
default time comes from a Cox construction (one unit-exponential threshold
per path against the trapezoidal integral of the intensity), and the FX
rate is stepped in log space with the no-arbitrage drift evaluated at the
left node; the devaluation jump is applied at the end of the step that
contains the default time.  One path simulator, ``_TerminalKernel``, runs
every estimator below.

Paths are simulated in fixed-size blocks whose RNG substreams are derived
deterministically from (seed, block index), and block partials are reduced
in block order, so estimates are bit-identical for a given config no matter
how the work is laid out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import HazardParams, QuantoFxParams, RatePair, fx_jump_inverse

_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """Simulation size, horizon and reproducibility knobs.

    ``n_steps`` is the total number of uniform time steps over ``horizon``.
    """

    n_paths: int
    n_steps: int
    horizon: float
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self) -> None:
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be >= 1")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    ci95_low: float
    ci95_high: float
    n_paths: int

    @classmethod
    def from_sums(cls, s1: float, s2: float, n: int) -> "McEstimate":
        mean = s1 / n
        var = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
        se = math.sqrt(var / n)
        return cls(mean, se, mean - 1.96 * se, mean + 1.96 * se, n)

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "McEstimate":
        x = np.asarray(x, dtype=float)
        return cls.from_sums(float(x.sum()), float((x * x).sum()), x.size)

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


class _TerminalKernel:
    """Streaming block simulator collecting per-path quantities at the horizon,
    and on request the integrated intensity at chosen steps.

    One instance describes a measure-specific parameterization: the OU
    drift shift, the intensity scale used in the Cox construction, and the
    FX process (spot, signed correlation, jump size, rate ordering).
    """

    def __init__(
        self,
        h: HazardParams,
        fx: QuantoFxParams,
        rates: RatePair,
        *,
        measure: str = "liquid",
        drop_compensator: bool = False,
    ):
        if measure not in ("liquid", "contractual"):
            raise ValueError(f"unknown measure {measure!r}")
        self.h = h
        self.measure = measure
        self.drop_compensator = drop_compensator
        if measure == "liquid":
            self.drift_shift = 0.0
            self.intensity_scale = 1.0
            self.fx_spot = fx.z0
            self.fx_sigma = fx.sigma_z
            self.fx_rho = fx.rho
            self.fx_gamma = fx.gamma_z
            self.r_own, self.r_other = rates.r, rates.r_hat
        else:
            self.drift_shift = fx.rho * h.sigma_y * fx.sigma_z
            self.intensity_scale = 1.0 + fx.gamma_z
            self.fx_spot = 1.0 / fx.z0
            self.fx_sigma = fx.sigma_z
            self.fx_rho = -fx.rho
            self.fx_gamma = fx_jump_inverse(fx.gamma_z)
            self.r_own, self.r_other = rates.r_hat, rates.r

    def run(self, cfg: SimConfig, want_fx: bool = True, at_steps: Sequence[int] = ()):
        """Terminal arrays (alive, int_lam, z) reduced over all blocks.

        ``int_lam`` is the trapezoidal integral of the *unscaled* intensity
        exp(Y); ``z`` is the FX value at the horizon (None if not needed).
        With ``at_steps`` (distinct step indices in 1..n_steps), ``int_lam``
        has shape (n_paths, len(at_steps)) and holds the integral after each
        listed step instead.
        """
        n = cfg.n_paths
        alive = np.empty(n, dtype=bool)
        int_lam = np.empty((n, len(at_steps)) if at_steps else n)
        z = np.empty(n) if want_fx else None
        start = 0
        block = 0
        while start < n:
            size = min(_BLOCK, n - start)
            a, il, zz = self._run_block(_block_rng(cfg.seed, block), size, cfg, want_fx,
                                        at_steps)
            alive[start : start + size] = a
            int_lam[start : start + size] = il
            if want_fx:
                z[start : start + size] = zz
            start += size
            block += 1
        return alive, int_lam, z

    def _draw_normals(self, rng, count: int, antithetic: bool) -> np.ndarray:
        if not antithetic:
            return rng.standard_normal(count)
        half, odd = divmod(count, 2)
        x = rng.standard_normal(half)
        parts = [x, -x]
        if odd:
            parts.append(rng.standard_normal(1))
        return np.concatenate(parts)

    def _draw_exponentials(self, rng, count: int, antithetic: bool) -> np.ndarray:
        if not antithetic:
            return -np.log1p(-rng.uniform(size=count))
        half, odd = divmod(count, 2)
        u = rng.uniform(size=half)
        with np.errstate(divide="ignore"):
            parts = [-np.log1p(-u), -np.log(u)]
        if odd:
            parts.append(-np.log1p(-rng.uniform(size=1)))
        return np.concatenate(parts)

    def _run_block(self, rng, size: int, cfg: SimConfig, want_fx: bool,
                   at_steps: Sequence[int]):
        dt = cfg.horizon / cfg.n_steps
        m0, m1, sd = _ou_mean_coeffs(self.h, dt, self.drift_shift)
        rho = self.fx_rho
        rho_c = math.sqrt(max(1.0 - rho * rho, 0.0))
        sig = self.fx_sigma
        sqdt = math.sqrt(dt)
        with np.errstate(divide="ignore"):
            log_jump = math.log1p(self.fx_gamma) if self.fx_gamma > -1.0 else -math.inf

        e = self._draw_exponentials(rng, size, cfg.antithetic)
        y = np.full(size, self.h.y0)
        lam = np.exp(y)
        acc = np.zeros(size)
        jumped = e <= 0.0
        lnz = np.full(size, math.log(self.fx_spot))
        if want_fx:
            lnz[jumped] += log_jump
        column = {k: j for j, k in enumerate(at_steps)}
        int_lam_at = np.empty((size, len(at_steps)))

        for k in range(1, cfg.n_steps + 1):
            n1 = self._draw_normals(rng, size, cfg.antithetic)
            y = m0 + m1 * y + sd * n1
            lam_new = np.exp(y)
            if want_fx:
                n2 = self._draw_normals(rng, size, cfg.antithetic)
                comp = 0.0 if self.drop_compensator else self.fx_gamma * self.intensity_scale
                drift = self.r_own - self.r_other - comp * lam * (~jumped)
                w = rho * n1 + rho_c * n2
                lnz = lnz + (drift - 0.5 * sig * sig) * dt + sig * sqdt * w
            acc_new = acc + 0.5 * (lam + lam_new) * dt
            newly = ~jumped & (self.intensity_scale * acc_new >= e)
            if want_fx and np.any(newly):
                lnz = lnz + np.where(newly, log_jump, 0.0)
            jumped = jumped | newly
            acc = acc_new
            lam = lam_new
            if k in column:
                int_lam_at[:, column[k]] = acc

        z = np.exp(lnz) if want_fx else None
        return ~jumped, int_lam_at if at_steps else acc, z


def _tenor_config(T: float, cfg: SimConfig) -> SimConfig:
    """``cfg`` with its ``n_steps`` spread over the tenor T instead of its horizon."""
    if T > cfg.horizon:
        raise ValueError(f"tenor {T} exceeds simulation horizon {cfg.horizon}")
    return replace(cfg, horizon=T)


def survival_probability_mc(h: HazardParams, T: float, cfg: SimConfig) -> McEstimate:
    """Survival probability p0(T) via the conditional estimator exp(-int lambda).

    Averaging the conditional survival given the intensity path has lower
    variance than counting default indicators and stays in [0, 1] pathwise.
    """
    if T == 0.0:
        return McEstimate(1.0, 0.0, 1.0, 1.0, cfg.n_paths)
    kern = _TerminalKernel(h, _DUMMY_FX, _ZERO_RATES)
    _, int_lam, _ = kern.run(_tenor_config(T, cfg), want_fx=False)
    return McEstimate.from_samples(np.exp(-int_lam))


def survival_curve_mc(h: HazardParams, tenors, cfg: SimConfig) -> list[McEstimate]:
    """Survival estimates at several tenors from a single set of paths.

    Every tenor must be a node of the uniform grid of ``cfg.n_steps`` steps
    over ``cfg.horizon``; the estimate at the horizon is the one
    :func:`survival_probability_mc` gives for ``cfg``.
    """
    tenors = [float(t) for t in tenors]
    if not tenors:
        raise ValueError("need at least one tenor")
    dt = cfg.horizon / cfg.n_steps
    steps = [round(t / dt) for t in tenors]
    for t, k in zip(tenors, steps):
        if not (1 <= k <= cfg.n_steps and abs(k * dt - t) <= 1e-9 * cfg.horizon):
            raise ValueError(f"tenor {t:g} is not a node of the {cfg.n_steps}-step grid "
                             f"over (0, {cfg.horizon:g}]")
    distinct = sorted(set(steps))
    kern = _TerminalKernel(h, _DUMMY_FX, _ZERO_RATES)
    _, int_lam, _ = kern.run(cfg, want_fx=False, at_steps=distinct)
    return [McEstimate.from_samples(np.exp(-int_lam[:, distinct.index(k)])) for k in steps]


def quanto_bond_mc(
    h: HazardParams, fx: QuantoFxParams, rates: RatePair, T: float, cfg: SimConfig
) -> QuantoBondMc:
    """Quanto defaultable-bond value U0(T) and the survival it implies.

    U0(T) = B(0,T) * E[Z_T 1{tau > T}] and p_hat = U0(T) / (z0 * Bhat(0,T)).
    """
    kern = _TerminalKernel(h, fx, rates)
    alive, _, z = kern.run(_tenor_config(T, cfg))
    disc = math.exp(-rates.r * T)
    u = McEstimate.from_samples(disc * z * alive)
    scale = 1.0 / (fx.z0 * math.exp(-rates.r_hat * T))
    p_hat = McEstimate(
        u.mean * scale, u.std_error * scale, u.ci95_low * scale, u.ci95_high * scale, u.n_paths
    )
    return QuantoBondMc(u=u, p_hat=p_hat)


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
    kern = _TerminalKernel(h, fx, rates, drop_compensator=drop_compensator)
    _, _, z = kern.run(_tenor_config(T, cfg))
    l_t = z * math.exp((rates.r_hat - rates.r) * T) / fx.z0
    return McEstimate.from_samples(l_t)


def verify_fx_symmetry(
    h: HazardParams, fx: QuantoFxParams, rates: RatePair, T: float, cfg: SimConfig
) -> FxSymmetryReport:
    """Dual-construction check of the FX jump symmetry.

    The liquid-measure run simulates Z and prices the quanto bond; the
    contractual-measure run simulates X = 1/Z directly (reciprocal jump,
    intensity scaled by 1 + gamma_z, drift-shifted hazard factor) and
    recovers the same two observables from the other side:

    * p_hat: directly as the contractual-measure survival frequency;
    * p:     as z0 * exp((r - r_hat) T) * E[X_T 1{tau > T}].
    """
    run_cfg = _tenor_config(T, cfg)

    dom = _TerminalKernel(h, fx, rates)
    alive_d, _, z_d = dom.run(run_cfg)
    disc_ratio = math.exp((rates.r_hat - rates.r) * T)
    p_hat_liquid = McEstimate.from_samples(disc_ratio * z_d * alive_d / fx.z0)
    p_liquid = McEstimate.from_samples(alive_d.astype(float))

    fore = _TerminalKernel(h, fx, rates, measure="contractual")
    alive_f, _, x_f = fore.run(run_cfg)
    p_hat_contractual = McEstimate.from_samples(alive_f.astype(float))
    p_contractual = McEstimate.from_samples(fx.z0 * x_f * alive_f / disc_ratio)

    return FxSymmetryReport(
        p_hat_liquid=p_hat_liquid,
        p_hat_contractual=p_hat_contractual,
        p_liquid=p_liquid,
        p_contractual=p_contractual,
    )


_DUMMY_FX = QuantoFxParams(z0=1.0, sigma_z=0.0, gamma_z=0.0, rho=0.0)
_ZERO_RATES = RatePair(0.0, 0.0)
