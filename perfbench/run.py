"""Benchmark of quantocds: one workload per run, in one process.

    python3 perfbench/run.py --workload calibrate|price-adi|mc-symmetry \
        --seed N --seconds S --trace 0|1

A single caller sends one operation after another (a closed loop) through
the public API of quantocds, in whole rounds of the same cases, until at
least S seconds have passed.  The seed makes the inputs; the program only
sees them.  Outputs are checked outside the timed region.  Times are scaled
to the reference speed of the machine (see speed.py).  The last line of
standard output is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  A
traced run also writes its spans to perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# BLAS threads: at most the two cores the benchmark machine has
_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Run in a fresh interpreter: the import, bracketed by a pure-Python
# reference loop (imports are interpreter-bound work), timed in the child.
IMPORT_PROBE = """
import time
def loop():
    t = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    return time.perf_counter() - t
before = [loop() for _ in range(3)]
t = time.perf_counter()
import quantocds, quantocds.validation
took = time.perf_counter() - t
print(took, *before, *(loop() for _ in range(3)))
"""
# the reference loop's time on the fast state of the benchmark machine
IMPORT_LOOP_NOMINAL = 0.0064


class Clock:
    """Times pieces of work and runs a reference kernel after each one, for
    about SHARE of the piece's time.  A piece's time is reported scaled by
    nominal / (mean reference time just before and just after it)."""

    SHARE = 0.10

    def __init__(self, workload: str):
        self.kernel, self.nominal = speed.REFERENCE[workload]
        self.groups: list[list[float]] = []
        self.pieces: list[float] = []
        self._sample(0.0)

    def _sample(self, after: float) -> None:
        group = [speed.measure(self.kernel)]
        while sum(group) < self.SHARE * after:
            group.append(speed.measure(self.kernel))
        self.groups.append(group)

    def run(self, fn, *args):
        """(result or None, exception or None, index of the piece)."""
        t0 = time.perf_counter()
        try:
            out, exc = fn(*args), None
        except Exception as e:  # a failed operation is counted, not fatal
            out, exc = None, e
        self.pieces.append(time.perf_counter() - t0)
        self._sample(self.pieces[-1])
        return out, exc, len(self.pieces) - 1

    def scale(self, piece: int) -> float:
        around = self.groups[piece] + self.groups[piece + 1]
        return self.nominal / statistics.fmean(around)


def import_seconds() -> tuple[float, float]:
    """Time to import quantocds in a fresh interpreter, unscaled and scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    took, *loops = (float(x) for x in proc.stdout.split())
    return took, took * IMPORT_LOOP_NOMINAL / statistics.fmean(loops)


def set_up(wl, clock: Clock, seed: int) -> tuple[list, float, float]:
    """Imports, then inputs and warm-up, each repeated; returns the cases and
    the set-up time unscaled and scaled (sum of the two medians)."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    prepare = []
    for _ in range(SETUP_REPEATS):
        cases, exc, piece = clock.run(_prepare, wl, seed)
        if exc is not None:
            raise exc
        raw = clock.pieces[piece]
        prepare.append((raw, raw * clock.scale(piece)))
    raw = statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in prepare)
    scaled = statistics.median(s for _, s in imports) + statistics.median(s for _, s in prepare)
    return cases, raw, scaled


def _prepare(wl, seed: int) -> list:
    cases = wl.make_cases(seed)
    wl.warm_up(cases)
    return cases


def run_rounds(wl, clock: Clock, cases: list, seconds: float, tracer=None) -> list[dict]:
    """Repeat the round of cases until `seconds` have passed."""
    ops = []
    t_start = time.perf_counter()
    while True:
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.begin_op()
            out, exc, piece = clock.run(wl.op, case)
            ops.append({"case": i, "out": out, "error": exc, "piece": piece})
        if time.perf_counter() - t_start >= seconds:
            return ops


def check(wl, cases: list, ops: list[dict]) -> list[str]:
    problems = []
    refs: dict[int, object] = {}
    for op in ops:
        i = op["case"]
        if op["error"] is not None:
            if not getattr(cases[i], "known_fault", False):
                problems.append(f"case {i}: unexpected failure {op['error']!r}")
            continue
        if i not in refs:
            refs[i] = wl.reference(cases[i])
        problems += [f"case {i}: {p}" for p in wl.check(cases[i], op["out"], refs[i])]
    return problems


def rates(times: list[float], ok: list[bool]) -> tuple[float, float]:
    """(operations completed per second, median seconds per completed one)."""
    done = [t for t, good in zip(times, ok) if good]
    return len(done) / sum(times), statistics.median(done) if done else float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(speed.REFERENCE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")

    clock = Clock(args.workload)
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    cases, setup_raw, setup_s = set_up(wl, clock, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        ops = run_rounds(wl, clock, cases, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check(wl, cases, ops)
    ok = [op["error"] is None for op in ops]
    raw = [clock.pieces[op["piece"]] for op in ops]
    ops_per_s, op_p50_s = rates([t * clock.scale(op["piece"]) for t, op in zip(raw, ops)], ok)
    raw_ops_per_s, raw_op_p50_s = rates(raw, ok)
    attempted = len(ops)
    failed = attempted - sum(ok)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for i, msg in sorted({(op["case"], repr(op["error"])) for op in ops if op["error"]}):
        print(f"failed operation, case {i}: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed; "
          f"unscaled ops_per_s {raw_ops_per_s:.4f} op_p50_s {raw_op_p50_s:.4f} "
          f"setup_s {setup_raw:.4f}", file=sys.stderr)

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (ops_per_s, "1/s"),
                   "op_p50_s": (op_p50_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        from tracing import PER_LAYER

        values = tracer.metrics(attempted)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "attempted": attempted,
                  "ops_per_s": ops_per_s, "op_p50_s": op_p50_s,
                  "unscaled_ops_per_s": raw_ops_per_s, "unscaled_op_p50_s": raw_op_p50_s,
                  "metrics": values, **tracer.record()}
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
