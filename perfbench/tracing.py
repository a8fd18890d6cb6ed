"""Spans and counters recorded around the public entry points of quantocds.

Installing a Tracer replaces each traced function, in every quantocds module
that refers to it, with a wrapper that records a span: name, start, end,
parent span and the operation it belongs to.  Hot leaf calls (banded solves
and survival-curve evaluations) are not spans; each adds to a count and a
total time, globally and on the span that encloses it.  A span's self time
is its duration minus its child spans and its leaf calls.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute) of the traced callable
SPANS = {
    "calibration.backtest": ("quantocds.calibration", "backtest"),
    "calibration.calibrate_snapshot": ("quantocds.calibration", "calibrate_snapshot"),
    "calibration.calibrate_single_ccy": ("quantocds.calibration", "calibrate_single_ccy"),
    "calibration.calibrate_sigma_y": ("quantocds.calibration", "calibrate_sigma_y"),
    "calibration.calibrate_quanto": ("quantocds.calibration", "calibrate_quanto"),
    "calibration.least_squares": ("quantocds.calibration", "least_squares"),
    "pde.survival_curve_1f": ("quantocds.pde", "survival_curve_1f"),
    "pde.quanto_survival_curve_1f": ("quantocds.pde", "quanto_survival_curve_1f"),
    "pde.quanto_survival_curve": ("quantocds.pde", "quanto_survival_curve"),
    "pde.solve_quanto_pde": ("quantocds.pde", "solve_quanto_pde"),
    "pde.solve_foreign_measure_pde": ("quantocds.pde", "solve_foreign_measure_pde"),
    "cds.par_spread": ("quantocds.cds", "par_spread"),
    "cds.quanto_par_spread": ("quantocds.cds", "quanto_par_spread"),
    "mc.survival_probability_mc": ("quantocds.mc", "survival_probability_mc"),
    "mc.survival_curve_mc": ("quantocds.mc", "survival_curve_mc"),
    "mc.quanto_bond_mc": ("quantocds.mc", "quanto_bond_mc"),
    "mc.verify_rn_martingale": ("quantocds.mc", "verify_rn_martingale"),
    "mc.verify_fx_symmetry": ("quantocds.mc", "verify_fx_symmetry"),
}
LEAVES = {
    "pde.solve_banded": ("quantocds.pde", "solve_banded"),
    "curves.eval": ("quantocds.curves", "SurvivalCurve.__call__"),
}
# spans that run one one-factor march each
MARCHES = ("pde.survival_curve_1f", "pde.solve_foreign_measure_pde")
# kernel runs of each public MC estimator over its SimConfig
KERNEL_RUNS = {
    "mc.survival_probability_mc": 1,
    "mc.survival_curve_mc": 1,
    "mc.quanto_bond_mc": 1,
    "mc.verify_rn_martingale": 1,
    "mc.verify_fx_symmetry": 2,
}

PER_LAYER = (
    ("calibration.residual_evals", "count"),
    ("calibration.optimizer_self_s", "s"),
    ("calibration.single_ccy_s", "s"),
    ("calibration.joint_s", "s"),
    ("calibration.diagnostics_s", "s"),
    ("pde.march_1f_calls", "count"),
    ("pde.march_1f_distinct_ratio", "ratio"),
    ("pde.march_1f_ms", "ms"),
    ("pde.banded_solves", "count"),
    ("pde.banded_solve_us", "us"),
    ("pde.adi_solves", "count"),
    ("pde.adi_steps", "count"),
    ("pde.adi_step_ms", "ms"),
    ("cds.par_spread_calls", "count"),
    ("cds.par_spread_self_us", "us"),
    ("curves.evals", "count"),
    ("curves.eval_us", "us"),
    ("mc.kernel_runs", "count"),
    ("mc.path_steps", "count"),
    ("mc.path_step_ns", "ns"),
)

_NAME, _START, _END, _PARENT, _OP, _LEAF_S = range(6)


def _freeze(value):
    """Hashable form of a call argument, for telling repeated calls apart."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(float(v) for v in np.asarray(value, dtype=float).ravel())
    return value


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects spans and leaf counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, leaf seconds]
        self.leaves: dict[str, list] = {name: [0, 0.0] for name in LEAVES}
        self.march_keys: list[list] = []  # per operation
        self.adi_steps = 0
        self.kernel_runs = 0
        self.path_steps = 0
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ---- installing -----------------------------------------------------

    def install(self) -> None:
        for name, (module, attr) in {**SPANS, **LEAVES}.items():
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrapper = (self._leaf if name in LEAVES else self._span)(name, original)
            if isinstance(owner, type):
                self._patch(owner, key, wrapper)
                continue
            # a function is replaced wherever a quantocds module imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "quantocds" or mod_name.startswith("quantocds."):
                    for k, v in list(vars(mod).items()):
                        if v is original:
                            self._patch(mod, k, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def begin_op(self) -> None:
        self.op += 1
        self.march_keys.append([])

    # ---- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if name in MARCHES or name in KERNEL_RUNS else None

        def wrapper(*args, **kwargs):
            if name == "calibration.least_squares":
                args = (self._span("calibration.residual", args[0]), *args[1:])
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(name, bound.arguments)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()
            if name == "pde.solve_quanto_pde":
                self.adi_steps += result.grid.t_nodes.size - 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, arguments: dict) -> None:
        if name in MARCHES:
            key = (name, tuple((k, _freeze(v)) for k, v in arguments.items()))
            self.march_keys[self.op].append(key)
        else:
            cfg = arguments["cfg"]
            runs = KERNEL_RUNS[name]
            self.kernel_runs += runs
            self.path_steps += runs * cfg.n_paths * cfg.n_steps

    def _leaf(self, name: str, fn):
        spans, stack, total = self.spans, self._stack, self.leaves[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                total[0] += 1
                total[1] += dt
                if stack:
                    spans[stack[-1]][_LEAF_S] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- results --------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics; counts are per operation."""
        spans = self.spans
        dur = [s[_END] - s[_START] for s in spans]
        child_s = [0.0] * len(spans)
        child_by_name: dict[tuple[int, str], float] = defaultdict(float)
        for i, s in enumerate(spans):
            if s[_PARENT] >= 0:
                child_s[s[_PARENT]] += dur[i]
                child_by_name[s[_PARENT], s[_NAME]] += dur[i]
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            count[s[_NAME]] += 1
            total[s[_NAME]] += dur[i]
            self_s[s[_NAME]] += dur[i] - child_s[i] - s[_LEAF_S]
        diagnostics = sum(dur[i] - child_by_name[i, "calibration.calibrate_snapshot"]
                          for i, s in enumerate(spans) if s[_NAME] == "calibration.backtest")
        marches = sum(count[m] for m in MARCHES)
        march_s = sum(total[m] for m in MARCHES)
        distinct = sum(len(set(keys)) for keys in self.march_keys)
        banded_n, banded_s = self.leaves["pde.solve_banded"]
        curve_n, curve_s = self.leaves["curves.eval"]
        mc_s = sum(total[m] for m in KERNEL_RUNS)

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "calibration.residual_evals": ratio(count["calibration.residual"], n_ops),
            "calibration.optimizer_self_s": ratio(self_s["calibration.least_squares"], n_ops),
            "calibration.single_ccy_s": ratio(total["calibration.calibrate_single_ccy"], n_ops),
            "calibration.joint_s": ratio(total["calibration.calibrate_quanto"], n_ops),
            "calibration.diagnostics_s": ratio(diagnostics, n_ops),
            "pde.march_1f_calls": ratio(marches, n_ops),
            "pde.march_1f_distinct_ratio": ratio(distinct, marches),
            "pde.march_1f_ms": 1e3 * ratio(march_s, marches),
            "pde.banded_solves": ratio(banded_n, n_ops),
            "pde.banded_solve_us": 1e6 * ratio(banded_s, banded_n),
            "pde.adi_solves": ratio(count["pde.solve_quanto_pde"], n_ops),
            "pde.adi_steps": ratio(self.adi_steps, n_ops),
            "pde.adi_step_ms": 1e3 * ratio(self_s["pde.solve_quanto_pde"], self.adi_steps),
            "cds.par_spread_calls": ratio(count["cds.par_spread"], n_ops),
            "cds.par_spread_self_us": 1e6 * ratio(self_s["cds.par_spread"],
                                                  count["cds.par_spread"]),
            "curves.evals": ratio(curve_n, n_ops),
            "curves.eval_us": 1e6 * ratio(curve_s, curve_n),
            "mc.kernel_runs": ratio(self.kernel_runs, n_ops),
            "mc.path_steps": ratio(self.path_steps, n_ops),
            "mc.path_step_ns": 1e9 * ratio(mc_s, self.path_steps),
        }

    def record(self) -> dict:
        """Everything recorded, in a form json can write."""
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op", "leaf_s"],
            "spans": self.spans,
            "leaves": {name: {"count": n, "seconds": s} for name, (n, s) in self.leaves.items()},
        }
