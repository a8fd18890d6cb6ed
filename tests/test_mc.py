import math
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from quantocds import mc
from quantocds.mc import (
    _AHEAD,
    _BLOCK,
    McEstimate,
    SimConfig,
    _block_rng,
    _Leg,
    _on_helper,
    _ou_mean_coeffs,
    _quanto_bond_pass,
    _TerminalKernel,
    quanto_bond_mc,
    survival_curve_mc,
    survival_probability_mc,
    verify_fx_symmetry,
    verify_rn_martingale,
)
from quantocds.model import HazardParams, QuantoFxParams, RatePair
from quantocds.pde import ou_mean_std

RATES0 = RatePair(0.0, 0.0)
H_TEST = HazardParams(a=0.08, b=3.7, sigma_y=0.2, y0=-5.0)

# flat-hazard setup: a = 0 and tiny vol keep exp(Y) pinned at exp(y0)
H_FLAT = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(0.016746))


def flat_fx(gamma=0.0, sigma_z=0.0, rho=0.0, z0=1.0):
    return QuantoFxParams(z0=z0, sigma_z=sigma_z, gamma_z=gamma, rho=rho)


def _kernel(h, fx=None, rates=RATES0, measure="liquid") -> _TerminalKernel:
    """A one-leg kernel."""
    return _TerminalKernel(h, [_Leg.of(h, fx or flat_fx(), rates, measure)])


def _y_paths(kern: _TerminalKernel, cfg: SimConfig) -> np.ndarray:
    """Y after every step, recovered from the kernel's trapezoidal integrals.

    The run of k steps over k dt draws the first k steps' numbers of ``cfg``'s
    run, and each step adds 0.5 * (exp(Y_left) + exp(Y_right)) * dt, so the
    integrals of the runs of 1..n_steps steps give every Y up to round-off.
    """
    dt = cfg.horizon / cfg.n_steps
    int_lam = np.stack([kern.run(replace(cfg, n_steps=k, horizon=k * dt), want_fx=False)[0][0]
                        for k in range(1, cfg.n_steps + 1)], axis=1)
    inc = np.diff(int_lam, axis=1, prepend=0.0)
    lam = np.empty_like(inc)
    left = math.exp(kern.h.y0)
    for k in range(cfg.n_steps):
        left = lam[:, k] = 2.0 * inc[:, k] / dt - left
    return np.log(lam)


class _ZeroDraws:
    """Stands in for a numpy Generator: every uniform and normal draw is 0."""

    def uniform(self, size):
        return np.zeros(size)

    def standard_normal(self, size):
        return np.zeros(size)


class TestSimulateOu:
    def test_degenerate_is_constant(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=-3.0)
        kern = _kernel(h)
        y = _y_paths(kern, SimConfig(n_paths=4, n_steps=10, horizon=5.0, seed=1))
        assert np.allclose(y, -3.0, rtol=0.0, atol=1e-12)

    def test_terminal_moments_match_closed_form(self):
        kern = _kernel(H_TEST)
        y5 = _y_paths(kern, SimConfig(n_paths=100_000, n_steps=25, horizon=5.0, seed=7))[:, -1]
        mean, sd = ou_mean_std(H_TEST, 5.0)
        se_mean = sd / math.sqrt(y5.size)
        assert abs(y5.mean() - mean) < 3 * se_mean
        # sample variance of a Gaussian: SE ~ var * sqrt(2/(n-1))
        se_var = sd**2 * math.sqrt(2.0 / (y5.size - 1))
        assert abs(y5.var(ddof=1) - sd**2) < 3 * se_var

    def test_zero_reversion_limit_variance(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.3, y0=0.0)
        kern = _kernel(h)
        y1 = _y_paths(kern, SimConfig(n_paths=200_000, n_steps=1, horizon=1.0, seed=3))[:, 0]
        assert y1.var(ddof=1) == pytest.approx(0.09, rel=0.02)

    def test_exact_transition_distribution(self):
        # KS test of a single exact step against its closed-form Gaussian,
        # with a = 0 first, then under both measures (the contractual one
        # tilts the drift by rho * sigma_y * sigma_z)
        rng = np.random.default_rng(2024)
        for i in range(4):
            a = 0.0 if i == 0 else float(rng.uniform(0.0, 2.0))
            b = float(rng.uniform(-5.0, 5.0))
            sig = float(rng.uniform(0.05, 1.0))
            dt = float(rng.uniform(0.01, 2.0))
            h = HazardParams(a=a, b=b, sigma_y=sig, y0=-1.0)
            fx = flat_fx(sigma_z=0.4, rho=0.5)
            kern = _kernel(h, fx, measure=("liquid", "contractual")[i % 2])
            sample = _y_paths(kern, SimConfig(n_paths=20_000, n_steps=1, horizon=dt,
                                              seed=5))[:, 0]
            mean, sd = ou_mean_std(h, dt, kern.legs[0].drift_shift)
            p = stats.kstest(sample, stats.norm(loc=mean, scale=sd).cdf).pvalue
            assert p > 0.01


class TestSimulateDefault:
    def test_constant_hazard_survival_frequency(self):
        lam0 = 0.016746
        n = 200_000
        kern = _kernel(H_FLAT)
        alive, _ = kern.run(SimConfig(n_paths=n, n_steps=5, horizon=5.0, seed=11))
        alive = alive[0]
        p_true = math.exp(-lam0 * 5)
        se = math.sqrt(p_true * (1 - p_true) / n)
        assert abs(alive.mean() - p_true) < 3 * se

    def test_zero_threshold_is_immediate_default(self):
        # a zero threshold defaults at t = 0: the jump lands before the
        # first step and the compensator never switches on
        kern = _kernel(H_FLAT, flat_fx(gamma=-0.5, z0=0.8), RatePair(0.02, 0.01))
        cfg = SimConfig(n_paths=3, n_steps=10, horizon=2.0)
        (alive,), (z,) = kern._run_block(_ZeroDraws(), 3, cfg, True)
        assert not alive.any()
        assert z == pytest.approx(np.full(3, 0.8 * 0.5 * math.exp(0.01 * 2.0)), rel=1e-12)


def _plain_block(kern: _TerminalKernel, rng, size: int, cfg: SimConfig, want_fx: bool):
    """One leg's block as plain expressions, drawn serially on the caller's
    thread: the reference for the in-place step and its drawing thread.
    Returns what ``_run_block`` returns for the leg, ``(alive, z)`` or ``(acc,)``."""
    (leg,) = kern.legs
    dt = cfg.horizon / cfg.n_steps
    m0, m1, sd = _ou_mean_coeffs(kern.h, dt, leg.drift_shift)
    rho = leg.fx_rho
    rho_c = math.sqrt(max(1.0 - rho * rho, 0.0))
    sig = leg.fx_sigma
    log_jump = math.log1p(leg.fx_gamma) if leg.fx_gamma > -1.0 else -math.inf
    e = -np.log1p(-rng.uniform(size=size))
    y = np.full(size, kern.h.y0)
    lam = np.exp(y)
    acc = np.zeros(size)
    jumped = e <= 0.0
    lnz = np.full(size, math.log(leg.fx_spot))
    lnz[jumped] += log_jump
    for _ in range(cfg.n_steps):
        n1 = kern._draw_normals(rng, size)
        y = m0 + m1 * y + sd * n1
        lam_new = np.exp(y)
        if want_fx:
            n2 = kern._draw_normals(rng, size)
            drift = leg.rate_diff - leg.compensator * lam * (~jumped)
            w = rho * n1 + rho_c * n2
            lnz = lnz + (drift - 0.5 * sig * sig) * dt + sig * math.sqrt(dt) * w
        acc = acc + 0.5 * (lam + lam_new) * dt
        newly = ~jumped & (leg.intensity_scale * acc >= e)
        lnz = lnz + np.where(newly, log_jump, 0.0)
        jumped = jumped | newly
        lam = lam_new
    return (~jumped, np.exp(lnz)) if want_fx else (acc,)


def _grouped_legs(h: HazardParams, fx: QuantoFxParams, rates: RatePair) -> list[_Leg]:
    """Legs that share the kernel's groups in every way: the liquid and the
    uncompensated leg (compensator 0) share a hazard group at scale 1 and an
    FX noise, the contractual leg has scale 1 + gamma != 1 and its own noise,
    and a liquid leg of another FX shares the hazard group but not the noise."""
    other = QuantoFxParams(z0=1.3, sigma_z=0.2, gamma_z=1.0, rho=-0.6)
    legs = [_Leg.of(h, fx, rates, m) for m in ("liquid", "contractual", "uncompensated")]
    return legs + [_Leg.of(h, other, rates)]


# both run modes, FX (alive, z) and survival (int_lam,); the ids keep the names
# these cases had when a survival run could also record chosen steps
MODES = [pytest.param(True, id="True-at_steps0"), pytest.param(False, id="False-at_steps1")]


class TestLegs:
    H = HazardParams(a=0.5, b=-3.0, sigma_y=0.6, y0=-2.5)
    FX = QuantoFxParams(z0=0.8, sigma_z=0.15, gamma_z=-0.4, rho=0.3)
    RATES = RatePair(0.01, 0.03)
    MEASURES = ("liquid", "contractual", "uncompensated")

    @pytest.mark.parametrize("want_fx", [True, False])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_in_place_step_matches_plain_expressions(self, measure, want_fx):
        kern = _kernel(self.H, self.FX, self.RATES, measure)
        cfg = SimConfig(n_paths=1_001, n_steps=15, horizon=3.0)
        got = kern._run_block(_block_rng(4, 0), 1_001, cfg, want_fx)
        want = _plain_block(kern, _block_rng(4, 0), 1_001, cfg, want_fx)
        assert len(got) == len(want) == (2 if want_fx else 1)
        if want_fx:
            assert 0 < got[0].sum() < got[0].size
        for g, w in zip(got, want):
            assert np.array_equal(g[0], w)

    @pytest.mark.parametrize("want_fx", [True, False])
    def test_grouped_legs_match_plain_expressions(self, want_fx):
        legs = _grouped_legs(self.H, self.FX, self.RATES)
        kern = _TerminalKernel(self.H, legs)
        cfg = SimConfig(n_paths=1_001, n_steps=15, horizon=3.0)
        got = kern._run_block(_block_rng(4, 0), 1_001, cfg, want_fx)
        for i, leg in enumerate(legs):
            want = _plain_block(_TerminalKernel(self.H, [leg]), _block_rng(4, 0), 1_001, cfg,
                                want_fx)
            assert len(got) == len(want)
            if want_fx:
                assert 0 < got[0][i].sum() < got[0][i].size
            for g, w in zip(got, want):
                assert np.array_equal(g[i], w)

    @pytest.mark.parametrize("want_fx", MODES)
    def test_stacked_pass_equals_one_leg_runs(self, want_fx):
        # two blocks, the second of odd size; the last leg has another FX
        other = QuantoFxParams(z0=1.3, sigma_z=0.2, gamma_z=1.0, rho=-0.6)
        legs = [_Leg.of(self.H, self.FX, self.RATES, m) for m in self.MEASURES]
        legs.append(_Leg.of(self.H, other, self.RATES, "contractual"))
        cfg = SimConfig(n_paths=_BLOCK + 1_001, n_steps=12, horizon=3.0, seed=5)
        stacked = _TerminalKernel(self.H, legs).run(cfg, want_fx)
        for i, leg in enumerate(legs):
            alone = _TerminalKernel(self.H, [leg]).run(cfg, want_fx)
            assert len(stacked) == len(alone) == (2 if want_fx else 1)
            for got, want in zip(stacked, alone):
                assert got.shape == (len(legs), cfg.n_paths) and want.shape == (1, cfg.n_paths)
                assert np.array_equal(got[i], want[0])

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure 'foreign'"):
            _Leg.of(self.H, self.FX, self.RATES, "foreign")


def _bounded(fn, timeout: float = 60.0):
    """The exception ``fn()`` raised, or None, asserting that it returned
    within ``timeout`` seconds and left no thread behind."""
    threads = threading.active_count()
    raised = []

    def call():
        try:
            fn()
        except Exception as exc:  # handed to the test's assertions
            raised.append(exc)

    watched = threading.Thread(target=call, daemon=True)
    watched.start()
    watched.join(timeout)
    assert not watched.is_alive(), f"kernel run still going after {timeout} s"
    assert threading.active_count() == threads
    return raised[0] if raised else None


class TestDrawAhead:
    """The normals come from a helper thread; the block equals the serial
    reference bit for bit, a failure on either side reaches the caller, and
    no thread outlives a run."""

    H = HazardParams(a=0.5, b=-3.0, sigma_y=0.6, y0=-2.5)
    FX = QuantoFxParams(z0=0.8, sigma_z=0.15, gamma_z=-0.4, rho=0.3)

    @pytest.mark.parametrize("want_fx", MODES)
    def test_two_blocks_equal_the_serial_reference(self, want_fx):
        kern = _kernel(self.H, self.FX, RatePair(0.01, 0.03))
        cfg = SimConfig(n_paths=_BLOCK + 1_001, n_steps=12, horizon=3.0, seed=6)
        got = []
        assert _bounded(lambda: got.extend(kern.run(cfg, want_fx))) is None
        assert len(got) == (2 if want_fx else 1)
        for block, start in enumerate((0, _BLOCK)):
            size = min(_BLOCK, cfg.n_paths - start)
            want = _plain_block(kern, _block_rng(cfg.seed, block), size, cfg, want_fx)
            cut = slice(start, start + size)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g[0, cut], w)

    @staticmethod
    def _counting_draws(monkeypatch, on_call):
        """Patch the kernel's normal draws; ``on_call(k, draws)`` may replace
        the k-th call's result or raise.  Returns the list of call numbers."""
        calls = []
        draw = _TerminalKernel._draw_normals

        def patched(self, rng, count):
            calls.append(len(calls) + 1)
            return on_call(len(calls), draw(self, rng, count))

        monkeypatch.setattr(_TerminalKernel, "_draw_normals", patched)
        return calls

    @pytest.mark.parametrize("want_fx", [True, False])
    def test_draw_failure_is_raised_by_the_run(self, monkeypatch, want_fx):
        def fail_fifth(k, n):
            if k == 5:
                raise RuntimeError("draw 5 failed")
            return n

        calls = self._counting_draws(monkeypatch, fail_fifth)
        cfg = SimConfig(n_paths=2_000, n_steps=1_000, horizon=1.0, seed=2)
        exc = _bounded(lambda: _kernel(self.H, self.FX).run(cfg, want_fx))
        assert isinstance(exc, RuntimeError) and str(exc) == "draw 5 failed"
        assert calls[-1] == 5

    @pytest.mark.parametrize("want_fx", [True, False])
    def test_step_failure_stops_and_joins_the_helper(self, monkeypatch, want_fx):
        # a short 201st draw breaks the step loop's broadcast.  By then the
        # helper, which draws far faster than the loop steps its 32 legs, has
        # filled the queue and waits to put; of its 2000 steps it stops with
        # at most _AHEAD queued and one more drawn
        calls = self._counting_draws(monkeypatch, lambda k, n: n[:-1] if k == 201 else n)
        cfg = SimConfig(n_paths=2_000, n_steps=2_000, horizon=1.0, seed=2)
        kern = _TerminalKernel(self.H, [_Leg.of(self.H, self.FX, RATES0)] * 32)
        exc = _bounded(lambda: kern.run(cfg, want_fx))
        assert isinstance(exc, ValueError)
        per_step = 2 if want_fx else 1
        failed_step = -(-201 // per_step)
        assert len(calls) <= per_step * (failed_step + _AHEAD + 1)


class _Stream:
    """A block's generator that records the threads drawing its normals, sets
    ``drew`` at its first normal and raises at normal draw ``fail_at``, if
    given, once ``other`` is set."""

    def __init__(self, rng: np.random.Generator, fail_at: int | None, message: str,
                 drew: threading.Event, other: threading.Event):
        self.rng, self.fail_at, self.message = rng, fail_at, message
        self.drew, self.other = drew, other
        self.normals = 0
        self.threads = set()

    def uniform(self, size):
        return self.rng.uniform(size=size)

    def standard_normal(self, count):
        self.normals += 1
        self.threads.add(threading.current_thread())
        if self.normals == self.fail_at:
            # nothing else orders the two blocks' threads: fail only once the
            # other block has drawn a normal (the timeout leaves that to the asserts)
            self.other.wait(timeout=10.0)
            raise RuntimeError(self.message)
        self.drew.set()
        return self.rng.standard_normal(count)


class TestPairs:
    """Full blocks run two at a time, each on its own thread drawing its
    normals inline; a full block left over and the partial block draw ahead.
    Every block equals its draw-ahead run, every leg its one-leg run, and a
    failure in either block of a pair reaches the caller with no thread left."""

    H = TestLegs.H
    FX = TestLegs.FX
    RATES = TestLegs.RATES
    SIZES = [2 * _BLOCK + 1_001, 3 * _BLOCK + 1]  # a pair and a partial; and a full block left over

    @pytest.mark.parametrize("n_paths", SIZES)
    @pytest.mark.parametrize("want_fx", MODES)
    def test_every_block_equals_its_draw_ahead_run(self, n_paths, want_fx):
        kern = _TerminalKernel(self.H, _grouped_legs(self.H, self.FX, self.RATES))
        cfg = SimConfig(n_paths=n_paths, n_steps=5, horizon=3.0, seed=7)
        got = []
        assert _bounded(lambda: got.extend(kern.run(cfg, want_fx))) is None
        assert len(got) == (2 if want_fx else 1)
        for block, start in enumerate(range(0, n_paths, _BLOCK)):
            size = min(_BLOCK, n_paths - start)
            want = kern._run_block(_block_rng(cfg.seed, block), size, cfg, want_fx)
            cut = slice(start, start + size)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g[:, cut], w)

    @pytest.mark.parametrize("n_paths", SIZES)
    @pytest.mark.parametrize("want_fx", MODES)
    def test_each_leg_equals_its_one_leg_run(self, n_paths, want_fx):
        legs = _grouped_legs(self.H, self.FX, self.RATES)
        cfg = SimConfig(n_paths=n_paths, n_steps=5, horizon=3.0, seed=7)
        stacked = _TerminalKernel(self.H, legs).run(cfg, want_fx)
        for i, leg in enumerate(legs):
            alone = _TerminalKernel(self.H, [leg]).run(cfg, want_fx)
            for got, want in zip(stacked, alone, strict=True):
                assert np.array_equal(got[i], want[0])

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller's block", "paired block"])
    def test_failure_in_a_pair_is_raised_and_stops_the_other_block(self, monkeypatch, failing):
        streams = {}
        drew = [threading.Event(), threading.Event()]

        def block_rng(seed, block):
            fail_at = 5 if block == failing else None
            streams[block] = _Stream(_block_rng(seed, block), fail_at, f"block {block} failed",
                                     drew[block], drew[1 - block])
            return streams[block]

        monkeypatch.setattr(mc, "_block_rng", block_rng)
        cfg = SimConfig(n_paths=2 * _BLOCK, n_steps=2_000, horizon=1.0, seed=2)
        callers = []

        def run():
            callers.append(threading.current_thread())
            _kernel(self.H, self.FX).run(cfg)

        exc = _bounded(run)
        assert isinstance(exc, RuntimeError) and str(exc) == f"block {failing} failed"
        assert sorted(streams) == [0, 1]
        assert streams[0].threads == set(callers)
        (paired,) = streams[1].threads
        assert paired not in callers
        assert streams[failing].normals == 5
        assert streams[1 - failing].normals < 2 * cfg.n_steps


class TestOnHelper:
    """The one helper-thread primitive on its own, without the kernel: ``n``
    calls of ``work(stop)`` on one helper, at most ``depth`` ahead, whose
    results ``take()`` returns in call order."""

    @staticmethod
    def _counting(fail_at: int | None = None):
        """A ``work`` that records each call's ``stop`` and returns the call
        number, raising at call ``fail_at``; and the list of those stops."""
        calls = []

        def work(stop):
            calls.append(stop)
            if len(calls) == fail_at:
                raise RuntimeError(f"call {fail_at} failed")
            return len(calls)

        return work, calls

    def test_results_come_back_in_call_order(self):
        work, calls = self._counting()
        seen = []

        def run():
            with _on_helper(work, 50, 3) as (take, stop):
                seen.extend(take() for _ in range(50))
                seen.append(stop.is_set())
            seen.append(stop)

        assert _bounded(run) is None
        *results, stopped_inside, stop = seen
        assert results == list(range(1, 51)) and not stopped_inside
        assert len(calls) == 50 and all(passed is stop for passed in calls)
        assert stop.is_set()

    def test_failing_call_is_raised_by_its_take_and_ends_the_calls(self):
        work, calls = self._counting(fail_at=4)
        seen = []

        def run():
            with _on_helper(work, 20, 2) as (take, stop):
                seen.extend(take() for _ in range(3))
                try:
                    take()
                finally:
                    # the helper set the flag and made its last call before
                    # handing the failure over
                    seen.extend([stop.is_set(), len(calls)])

        exc = _bounded(run)
        assert isinstance(exc, RuntimeError) and str(exc) == "call 4 failed"
        assert seen == [1, 2, 3, True, 4]
        assert len(calls) == 4

    @pytest.mark.parametrize("leave", ["normally", "by an exception"])
    def test_leaving_early_stops_the_calls_and_joins_the_helper(self, leave):
        # with nothing taken, the helper fills the queue with depth results and
        # waits to put one more; leaving drains the queue and ends the calls
        work, calls = self._counting()
        depth = 3
        stops = []

        def run():
            with _on_helper(work, 1_000, depth) as (_, stop):
                stops.append(stop)
                deadline = time.monotonic() + 10.0
                while len(calls) < depth + 1 and time.monotonic() < deadline:
                    time.sleep(0.001)
                if leave != "normally":
                    raise KeyError("left early")

        exc = _bounded(run)
        assert exc is None if leave == "normally" else isinstance(exc, KeyError)
        assert stops[0].is_set()
        assert 1 <= len(calls) <= depth + 1


class TestSimulateFx:
    def test_degenerate_is_constant(self):
        kern = _kernel(H_TEST, flat_fx(z0=0.8))
        _, (z,) = kern.run(SimConfig(n_paths=4, n_steps=10, horizon=5.0, seed=1))
        assert np.allclose(z, 0.8, rtol=1e-14)

    def test_gbm_expectation(self):
        rates = RatePair(0.03, 0.01)
        n = 100_000
        kern = _kernel(H_TEST, flat_fx(sigma_z=0.2, z0=1.3), rates)
        _, (zt,) = kern.run(SimConfig(n_paths=n, n_steps=40, horizon=2.0, seed=5))
        target = 1.3 * math.exp((rates.r - rates.r_hat) * 2.0)
        assert abs(zt.mean() - target) < 3 * zt.std(ddof=1) / math.sqrt(n)

    def test_jump_applied_at_crossing_node(self):
        # no diffusion: the pre-default drift is the pure compensator
        # -gamma * lam, on through the step in which the integrated hazard
        # crosses the threshold; that step also applies the jump 1 + gamma
        gamma = -0.5
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(0.4))
        cfg = SimConfig(n_paths=1_000, n_steps=10, horizon=5.0, seed=3)
        (alive,), (z,) = _kernel(h, flat_fx(gamma=gamma, z0=0.8)).run(cfg)
        # the kernel draws one Exp(1) threshold per path first
        e = -np.log1p(-_block_rng(cfg.seed, 0).uniform(size=cfg.n_paths))
        lam_dt = math.exp(h.y0) * 0.5
        crossed = np.cumsum(np.full(cfg.n_steps, lam_dt))[None, :] >= e[:, None]
        assert np.array_equal(alive, ~crossed[:, -1])
        assert 0 < alive.sum() < cfg.n_paths
        k = np.where(alive, cfg.n_steps, crossed.argmax(axis=1) + 1)
        expected = 0.8 * np.exp(-gamma * lam_dt * k) * np.where(alive, 1.0, 1.0 + gamma)
        assert z == pytest.approx(expected, rel=1e-12)


class TestSurvivalEstimators:
    def test_flat_hazard_is_exact(self):
        cfg = SimConfig(n_paths=4_000, n_steps=50, horizon=5.0, seed=1)
        est = survival_probability_mc(H_FLAT, 5.0, cfg)
        assert est.mean == pytest.approx(math.exp(-0.016746 * 5), rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-8)

    def test_zero_tenor(self):
        cfg = SimConfig(n_paths=100, n_steps=10, horizon=1.0, seed=1)
        assert survival_probability_mc(H_TEST, 0.0, cfg).mean == 1.0

    def test_tenor_beyond_horizon_rejected(self):
        cfg = SimConfig(n_paths=100, n_steps=10, horizon=1.0, seed=1)
        with pytest.raises(ValueError):
            survival_probability_mc(H_TEST, 2.0, cfg)

    def test_ou_survival_brackets_closed_form_mean(self):
        cfg = SimConfig(n_paths=100_000, n_steps=200, horizon=5.0, seed=9)
        est = survival_probability_mc(H_TEST, 5.0, cfg)
        assert 0.0 <= est.mean <= 1.0
        # independent reference computed from a fine one-factor PDE solve
        from quantocds.pde import survival_curve_1f

        ref = survival_curve_1f(H_TEST, [5.0], n_y=401, n_t=500)[0]
        assert abs(est.z_score(ref)) < 3.0

    def test_curve_monotone_in_tenor(self):
        cfg = SimConfig(n_paths=50_000, n_steps=120, horizon=6.0, seed=13)
        ests = survival_curve_mc(H_TEST, [1.0, 2.0, 4.0, 6.0], cfg)
        for a, b in zip(ests, ests[1:]):
            gap_se = math.hypot(a.std_error, b.std_error)
            assert b.mean <= a.mean + 2 * gap_se
        assert all(0.0 <= e.mean <= 1.0 for e in ests)

    def test_curve_ends_on_terminal_estimate(self):
        cfg = SimConfig(n_paths=40_001, n_steps=40, horizon=5.0, seed=12)
        curve = survival_curve_mc(H_TEST, [1.0, 2.5, 5.0], cfg)
        assert curve[-1] == survival_probability_mc(H_TEST, 5.0, cfg)

    def test_curve_node_is_single_tenor_run_on_its_steps(self):
        # the curve steps on the horizon grid, so at T = k dt it is the
        # single-tenor estimate with k steps over T, not with n_steps over T
        cfg = SimConfig(n_paths=50_000, n_steps=120, horizon=6.0, seed=13)
        tenors = [1.0, 2.0, 4.0, 6.0]
        curve = survival_curve_mc(H_TEST, tenors, cfg)
        for T, k, est in zip(tenors, [20, 40, 80, 120], curve):
            assert est == survival_probability_mc(H_TEST, T, replace(cfg, n_steps=k, horizon=T))
        assert curve[0] != survival_probability_mc(H_TEST, 1.0, cfg)

    @pytest.mark.parametrize("horizon, n_steps",
                             [(1.0, 10), (5.0, 30), (3.0, 7), (10.0, 120), (2.5, 9)])
    def test_curve_node_written_to_ten_decimals_is_its_single_tenor_run(self, horizon, n_steps):
        # a node given to 10 decimals is within the grid's tolerance of k dt,
        # and its estimate is the single-tenor run of k steps over the tenor as given
        cfg = SimConfig(n_paths=16, n_steps=n_steps, horizon=horizon, seed=3)
        dt = horizon / n_steps
        tenors = [round(k * dt, 10) for k in range(1, n_steps + 1)]
        curve = survival_curve_mc(H_TEST, tenors, cfg)
        for k, (t, est) in enumerate(zip(tenors, curve), start=1):
            assert est == survival_probability_mc(H_TEST, t, replace(cfg, n_steps=k, horizon=t))

    @pytest.mark.parametrize("tenor", [1.3, 0.0, 6.0, 1.0000001, 5e-324])
    def test_curve_rejects_tenor_off_the_grid(self, tenor):
        # the message names the tenor and the horizon as given
        cfg = SimConfig(n_paths=100, n_steps=10, horizon=5.0, seed=1)
        message = f"tenor {tenor} is not a node of the 10-step grid over (0, 5.0]"
        with pytest.raises(ValueError, match=re.escape(message)):
            survival_curve_mc(H_TEST, [1.0, tenor], cfg)

    def test_determinism(self):
        cfg = SimConfig(n_paths=30_000, n_steps=60, horizon=5.0, seed=42)
        e1 = survival_probability_mc(H_TEST, 5.0, cfg)
        e2 = survival_probability_mc(H_TEST, 5.0, cfg)
        assert e1 == e2


class TestQuantoBond:
    def test_no_quanto_effect(self):
        h = H_TEST
        cfg = SimConfig(n_paths=50_000, n_steps=100, horizon=3.0, seed=3)
        qb = quanto_bond_mc(h, flat_fx(), RATES0, 3.0, cfg)
        p = survival_probability_mc(h, 3.0, cfg)
        gap_se = math.hypot(qb.p_hat.std_error, p.std_error)
        assert abs(qb.p_hat.mean - p.mean) < 3 * gap_se

    def test_flat_hazard_reweighting_identity(self):
        # for constant hazard and rho = 0, the contractual survival is
        # exp(-gamma * lam * T) times the liquid one
        gamma = -0.2045
        lam = 0.016746
        cfg = SimConfig(n_paths=200_000, n_steps=50, horizon=1.0, seed=21)
        qb = quanto_bond_mc(H_FLAT, flat_fx(gamma=gamma, sigma_z=0.1), RATES0, 1.0, cfg)
        target = math.exp(-(1.0 + gamma) * lam)
        assert abs(qb.p_hat.z_score(target)) < 3.0

    def test_z0_homogeneity(self):
        cfg = SimConfig(n_paths=20_000, n_steps=60, horizon=2.0, seed=8)
        fx1 = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.3, rho=0.4)
        fx2 = QuantoFxParams(z0=1.6, sigma_z=0.1, gamma_z=-0.3, rho=0.4)
        qb1 = quanto_bond_mc(H_TEST, fx1, RATES0, 2.0, cfg)
        qb2 = quanto_bond_mc(H_TEST, fx2, RATES0, 2.0, cfg)
        assert qb2.u.mean == pytest.approx(2 * qb1.u.mean, rel=1e-12)
        assert qb2.p_hat.mean == pytest.approx(qb1.p_hat.mean, rel=1e-12)

    def test_one_pass_equals_single_calls(self):
        # two blocks; the legs differ in every FX parameter
        cfg = SimConfig(n_paths=_BLOCK + 1_001, n_steps=12, horizon=3.0, seed=4)
        fxs = [QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-0.3, rho=0.4),
               QuantoFxParams(z0=1.3, sigma_z=0.2, gamma_z=1.0, rho=-0.6),
               QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=-1.0, rho=0.0)]
        rates = RatePair(0.01, 0.03)
        assert _quanto_bond_pass(H_TEST, fxs, rates, 2.0, cfg) == [
            quanto_bond_mc(H_TEST, fx, rates, 2.0, cfg) for fx in fxs]


class TestMeasureChange:
    def test_degenerate_density_is_one_pathwise(self):
        cfg = SimConfig(n_paths=5_000, n_steps=40, horizon=5.0, seed=2)
        est = verify_rn_martingale(H_TEST, flat_fx(), RatePair(0.02, 0.01), 5.0, cfg)
        assert est.mean == pytest.approx(1.0, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-13)

    def test_martingale_with_jump(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(0.05))
        fx = flat_fx(gamma=-0.5, sigma_z=0.1)
        cfg = SimConfig(n_paths=200_000, n_steps=100, horizon=5.0, seed=6)
        est = verify_rn_martingale(h, fx, RATES0, 5.0, cfg)
        assert abs(est.z_score(1.0)) < 3.0

    def test_uncompensated_drift_detected(self):
        h = HazardParams(a=0.0, b=0.0, sigma_y=0.0, y0=math.log(0.05))
        fx = flat_fx(gamma=-0.5, sigma_z=0.1)
        cfg = SimConfig(n_paths=200_000, n_steps=100, horizon=5.0, seed=6)
        est = verify_rn_martingale(h, fx, RATES0, 5.0, cfg, drop_compensator=True)
        assert abs(est.z_score(1.0)) > 5.0
        # analytic bias: dropping the compensator leaves 1 + gamma * P(default)
        bias = 1.0 - 0.5 * (1.0 - math.exp(-0.05 * 5.0))
        assert abs(est.z_score(bias)) < 3.0


class TestFxSymmetry:
    def test_degenerate_constructions_coincide(self):
        cfg = SimConfig(n_paths=4_000, n_steps=30, horizon=2.0, seed=4)
        rep = verify_fx_symmetry(H_TEST, flat_fx(), RatePair(0.02, 0.01), 2.0, cfg)
        # with no vol and no jump the two measures are the same measure and
        # the block RNG layout makes the runs draw identical paths
        assert rep.p_hat_liquid.mean == pytest.approx(rep.p_hat_contractual.mean, rel=1e-12)
        assert rep.p_liquid.mean == pytest.approx(rep.p_contractual.mean, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, -0.2045])
    def test_dual_construction_agreement(self, gamma):
        h = HazardParams(a=1e-4, b=-210.45, sigma_y=0.2, y0=-4.089)
        fx = QuantoFxParams(z0=0.8, sigma_z=0.1, gamma_z=gamma, rho=0.5)
        cfg = SimConfig(n_paths=100_000, n_steps=100, horizon=5.0, seed=14)
        rep = verify_fx_symmetry(h, fx, RatePair(0.01, 0.02), 5.0, cfg)
        assert rep.max_z_score() < 3.0


@pytest.mark.parametrize("estimate", [
    lambda T, cfg: survival_probability_mc(H_TEST, T, cfg),
    lambda T, cfg: quanto_bond_mc(H_TEST, flat_fx(), RATES0, T, cfg),
    lambda T, cfg: verify_rn_martingale(H_TEST, flat_fx(), RATES0, T, cfg),
    lambda T, cfg: verify_fx_symmetry(H_TEST, flat_fx(), RATES0, T, cfg),
], ids=["survival", "quanto_bond", "rn_martingale", "fx_symmetry"])
def test_tenor_beyond_horizon_names_both(estimate):
    cfg = SimConfig(n_paths=100, n_steps=10, horizon=5.0, seed=1)
    with pytest.raises(ValueError, match="tenor 10.0 exceeds simulation horizon 5.0"):
        estimate(10.0, cfg)


# each MC entry point by tenor; its ValueError names the tenor as given
_BY_TENOR = [
    lambda T, cfg: survival_probability_mc(H_TEST, T, cfg),
    lambda T, cfg: survival_curve_mc(H_TEST, [T], cfg),
    lambda T, cfg: quanto_bond_mc(H_TEST, flat_fx(), RATES0, T, cfg),
    lambda T, cfg: verify_rn_martingale(H_TEST, flat_fx(), RATES0, T, cfg),
    lambda T, cfg: verify_fx_symmetry(H_TEST, flat_fx(), RATES0, T, cfg),
]


@settings(max_examples=60, deadline=None)
@given(T=st.floats())
@example(T=math.nan)
@example(T=math.inf)
@example(T=-math.inf)
@example(T=-1.0)
@example(T=0.0)
@example(T=1e308)
@example(T=1.0000001)
@example(T=5e-324)
def test_every_tenor_returns_or_raises_a_value_error_naming_it(T):
    cfg = SimConfig(n_paths=8, n_steps=4, horizon=2.0, seed=1)
    for estimate in _BY_TENOR:
        try:
            estimate(T, cfg)
        except ValueError as exc:
            assert f"tenor {T}" in str(exc)


class TestMcEstimate:
    def test_ci_shape(self):
        est = McEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
        assert est.mean == 2.5
        assert est.ci95_low == pytest.approx(est.mean - 1.96 * est.std_error)
        assert est.ci95_high == pytest.approx(est.mean + 1.96 * est.std_error)
        assert est.contains(2.5)

    def test_invalid_config(self):
        valid = dict(n_paths=10, n_steps=10, horizon=1.0, seed=0)
        for field, bad in [("n_paths", 0), ("n_paths", 1.5), ("n_steps", 0), ("n_steps", 10.0),
                           ("horizon", 0.0), ("horizon", math.inf), ("horizon", math.nan),
                           ("seed", -1), ("seed", 0.5)]:
            with pytest.raises(ValueError, match=f"^{field} must"):
                SimConfig(**{**valid, field: bad})
        # numpy integers are integers
        SimConfig(n_paths=np.int64(10), n_steps=np.int32(10), horizon=1.0, seed=np.uint32(3))
