#!/usr/bin/env python3
"""posdec benchmark: rank-serve, verify-sweep and verify-wide.

One workload, as the benchmark harness calls it (prints a JSON result as
the last line of standard output):

    python3 perfbench/run.py --workload rank-serve --seed 1 --seconds 36 --trace 0

Every workload, each in its own process, untraced once and traced twice
(prints every metric, the tracing overhead, and whether the computed
counts repeat exactly):

    python3 perfbench/run.py --seed 1 --seconds 36

One set-up of a workload in this process (prints its wall and reference
seconds); a timed run starts one of these about every second to sample
``setup_s``:

    python3 perfbench/run.py --workload rank-serve --seed 1 --set-up-only

The program is imported from ``src/`` of the checkout this file sits in;
without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import speed
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("cli", "lotteries", "utilities", "axioms", "scales")
SETUP_EVERY_S = 1.0
MAX_FAILURES_SHOWN = 3

# Times in reference seconds (see speed.py), but peak_rss_mb.
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed before the JSON result, not part of it.
EXTRA_UNITS = {
    "ops": "count", "failed_ratio": "ratio", "op_p50_ms": "ms", "op_p99_ms": "ms",
    "checks_per_s": "1/s", "setup_wall_s": "s", "ops_per_wall_s": "1/s",
    "ref_s_per_wall_s": "ratio",
}


def import_program():
    """Import posdec from the checkout's src/ and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("posdec")
    if Path(package.__file__).resolve().parent != SRC / "posdec":
        raise ImportError(f"posdec was imported from {package.__file__}, not from {SRC}")
    return package, {m: importlib.import_module(f"posdec.{m}") for m in MODULES}


def set_up(workload_cls, seed: int):
    """Import the program, generate the run's inputs and build its universe.

    Returns the wall and the reference seconds it took, then what it made.
    """
    def build():
        package, modules = import_program()
        return package, modules, workload_cls(SimpleNamespace(**modules), seed)

    probe = speed.SpeedProbe()
    probe.start()
    try:
        made, wall = probe.timed(build)
    finally:
        probe.stop()
    return (wall, wall * probe.to_reference(), *made)


def measure(workload, seconds: float, tracer, probe, set_up_again=None) -> dict:
    """Closed loop, one client: the next op starts when the last is checked.

    Each op is timed by ``probe`` (its wall time without the probe's own).
    Traced, the probe's ticks would land in spans, so it samples between ops.
    ``set_up_again``, if given, is called between ops about once every
    ``SETUP_EVERY_S`` seconds, so that the set-up samples are spread over
    the run like the ops are.
    """
    def attempt(inp):
        try:
            return workload.run(inp), []
        except Exception:
            return None, [traceback.format_exc()]

    latencies: list[float] = []
    failures = 0
    checks = 0
    first_counts = (0, 0)
    start = time.perf_counter()
    next_set_up = SETUP_EVERY_S
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        inp = workload.make_input(i)
        if tracer is not None:
            tracer.begin_op(i, counting=i == 0)
        (out, problems), latency = probe.timed(attempt, inp)
        latencies.append(latency)
        if tracer is not None:
            tracer.end_op()
            probe.sample_after(latency)
        if out is not None:
            try:
                problems = workload.check(inp, out)
                counts = workload.counts(out)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            failures += 1
            if failures <= MAX_FAILURES_SHOWN:
                print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            checks += counts[1]
            if i == 0:
                first_counts = counts
        i += 1
        if set_up_again is not None and time.perf_counter() - start >= next_set_up:
            set_up_again()
            next_set_up = time.perf_counter() - start + SETUP_EVERY_S
    return {
        "latencies": latencies, "failures": failures, "checks": checks,
        "first_counts": first_counts,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload_cls = WORKLOADS[name]
    wall, ref, package, modules, workload = set_up(workload_cls, seed)
    setups = [(wall, ref)]

    def set_up_again() -> None:
        # In a fresh process, like the first: the import is cold, and this
        # process's memory stays the workload's own.
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--set-up-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setups.append(tuple(float(x) for x in proc.stdout.split()[-2:]))

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(package, modules)
        tracer.begin_op(tracing.SETUP, counting=True)
        workload = workload_cls(SimpleNamespace(**modules), seed)
        tracer.end_op()

    probe = speed.SpeedProbe()
    if not trace:
        probe.start()
    try:
        result = measure(workload, seconds, tracer, probe, None if trace else set_up_again)
    finally:
        if not trace:
            probe.stop()
    latencies = result["latencies"]
    ops = len(latencies)
    wall_busy = sum(latencies)
    # Latencies and rates below are in reference time.
    factor = probe.to_reference()
    busy = wall_busy * factor
    extras = {"ops": ops, "failed_ratio": result["failures"] / ops}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "ops_per_s": ops / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
        extras["setup_wall_s"] = statistics.median(w for w, _ in setups)
        extras["ops_per_wall_s"] = ops / wall_busy
        extras["ref_s_per_wall_s"] = factor
    else:
        metrics = {"traced.ops_per_s": ops / busy}
        metrics.update(tracer.layer_metrics(ops))
        metrics.update(tracer.computed(*result["first_counts"]))
        units = {key: layer_unit(key) for key in metrics}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.tsv.gz")

    ordered = sorted(latencies)
    for q in workload_cls.PERCENTILES:
        # The median always; a tail percentile only with ten samples beyond it.
        if q == 50 or ops * (100 - q) / 100 >= 10:
            extras[f"op_p{q}_ms"] = ordered[math.ceil(q / 100 * ops) - 1] * factor * 1e3
    if result["checks"]:
        extras["checks_per_s"] = result["checks"] / busy
    print(f"workload {name}, seed {seed}, {ops} ops, trace {int(trace)}")
    for key, value in {**metrics, **extras}.items():
        print(f"  {key:<48} {value:>16.6f} {units.get(key, EXTRA_UNITS.get(key, ''))}")
    print(json.dumps({
        "correct": result["failures"] == 0,
        "attempted": ops,
        "failed": result["failures"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".busy_s"):
        return "s"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh process; return its result and extras."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=seconds + 170,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    extras = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 2 and fields[0] in EXTRA_UNITS:
            extras[fields[0]] = float(fields[1])
    return json.loads(lines[-1]), extras


def run_all(seed: int, seconds: float) -> int:
    ok = True
    for name in WORKLOADS:
        plain, extras = child(name, seed, seconds, 0)
        traced = [child(name, seed, seconds, 1)[0] for _ in range(2)]
        ok &= plain["correct"] and all(t["correct"] for t in traced)
        print(f"== {name} (seed {seed}, {plain['attempted']} ops, {plain['failed']} failed)")
        for key, metric in plain["metrics"].items():
            print(f"  {key:<48} {metric['value']:>16.6f} {metric['unit']}")
        for key, value in extras.items():
            print(f"  {key:<48} {value:>16.6f} {EXTRA_UNITS[key]}")
        layers = traced[0]["metrics"]
        overhead = plain["metrics"]["ops_per_s"]["value"] / layers["traced.ops_per_s"]["value"]
        print(f"  {'tracing overhead (untraced / traced ops_per_s)':<48} {overhead:>16.6f} x")
        repeat = all(
            traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"]
            for k in tracing.COMPUTED
        )
        ok &= repeat
        print(f"  computed counts repeat exactly across two traced runs: {'yes' if repeat else 'NO'}")
        for key, metric in layers.items():
            mark = " (computed)" if key in tracing.COMPUTED else ""
            print(f"  {key:<48} {metric['value']:>16.6f} {metric['unit']}{mark}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload; without it, run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", action="store_true",
                        help="time one set-up of --workload; print its wall and reference seconds")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    try:
        if args.set_up_only:
            wall, ref = set_up(WORKLOADS[args.workload], args.seed)[:2]
            print(wall, ref)
            return 0
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
