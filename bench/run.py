"""Benchmark of tdbcsim: two workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload figures --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Operations are timed in one single-threaded process.  A run measures set-up
in fresh interpreters, then times whole rounds of operations for --seconds
(the design inputs are vetted in a child first), then checks every output
against the oracles, then prints its metrics; the last line of standard
output is one JSON object.  With --trace 1 rounds alternate between untraced
and traced, the per-layer metrics come from the traced ones, and the spans
are written to bench/.out/.  See bench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, ".out")
sys.path.insert(0, SRC)

import workloads as W  # noqa: E402

#: Fresh interpreters timed per run for setup_s.
SETUP_PROBES = 7
#: Spans kept by one traced run; tracing stops after the round that fills it.
MAX_SPANS = 600_000
#: Adaptive configurations solved by one operation, for policies_per_s.
POLICIES_PER_OP = {W.FIGURES: 21, W.DESIGN: 1}


def import_program():
    """Import tdbcsim from src/ of this checkout, and from nowhere else."""
    try:
        import tdbcsim
    except ImportError as exc:
        sys.exit(f"bench: cannot import tdbcsim from {SRC}: {exc}")
    if not os.path.abspath(tdbcsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: tdbcsim was imported from {tdbcsim.__file__}, not {SRC}")
    return tdbcsim


def child(args: list[str], stdin: str = "") -> tuple[float, str]:
    """Run this script in a fresh interpreter; (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          input=stdin, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"bench: child {args} failed:\n{proc.stderr}")
    return wall, proc.stdout


def load_params(text: str):
    """Design parameters as written by --design-params, or None."""
    return [tuple(p) for p in json.loads(text)] if text else None


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def measure(workload, seconds: float, tracer=None):
    """Run whole rounds for `seconds` (traced runs: untraced and traced
    rounds alternate, ending on a traced one).  Returns per-operation times
    in ns, collected results, the indices of traced operations, and the
    (untraced, traced) seconds of each pair of rounds."""
    times, results, traced_ops, pairs = array("q"), [], set(), []
    run = workload.run
    traced_run = tracer.operation(run) if tracer else None
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    i = 0
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        call = traced_run if traced else run
        if traced:
            tracer.install()
        round_ns = 0
        for _ in range(workload.round_size):
            t0 = clock()
            result = call(i)
            dt = clock() - t0
            round_ns += dt
            times.append(dt)
            if traced:
                traced_ops.add(i)
            results.append(workload.collect(i, result))
            i += 1
        if traced:
            tracer.uninstall()
            pairs[-1] = (pairs[-1][0], round_ns / 1e9)
        elif tracer is not None:
            pairs.append((round_ns / 1e9, None))
        rounds += 1
        if tracer is not None and rounds % 2 == 1:
            continue
        if time.perf_counter() >= deadline or (tracer is not None and tracer.full()):
            return times, results, traced_ops, pairs


def check(workload, results) -> tuple[list[bool], list[str], list[str]]:
    """Per-operation failure flags, unexpected problems, expected faults."""
    failed = [False] * len(results)
    problems, faults = [], []
    if workload.name == W.DESIGN:
        verdicts = {}
        for i, result in enumerate(results):
            slot = i % workload.round_size
            key = (slot, result)
            if key not in verdicts:
                verdicts[key] = found = W.check_design(workload.params[slot], result)
                label = workload.fault_slots.get(slot)
                if label is None:
                    problems += [f"design {slot}: {p}" for p in found]
                else:
                    faults += [f"{label}: {p}" for p in found]
            failed[i] = bool(verdicts[key])
        return failed, problems, faults
    reference = W.sweep_reference()
    for i, (codes, blobs) in enumerate(results):
        found = W.check_figures(codes, blobs, reference)
        if found:
            failed[i] = True
            problems += [f"op {i} (seed {workload.seed_of(i)}): {p}" for p in found]
    # Same seed, same bytes: repeat the first operation.
    found = W.check_repeat(results[0][1], workload.collect(0, workload.run(0))[1])
    if found:
        failed[0] = True
        problems += [f"op 0 (seed {workload.seed_of(0)}): {p}" for p in found]
    return failed, problems, faults


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    params_json = ""
    if name == W.DESIGN:
        # Vetting the seeded designs needs scipy; a child keeps it out of
        # this process, whose peak memory is a metric.
        _, params_json = child(["--design-params", str(seed)])
    setup = [child(["--setup-probe", name], params_json)[0] for _ in range(SETUP_PROBES)]

    workload = W.Workload(name, seed, OUT_DIR, load_params(params_json))
    if name == W.DESIGN:
        for i in range(workload.round_size):  # warm-up round, not counted
            workload.run(i)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(MAX_SPANS)
    times, results, traced_ops, pairs = measure(workload, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems, faults = check(workload, results)
    for line in faults:
        print(f"bench: known fault: {line}", file=sys.stderr)
    for line in problems:
        print(f"bench: CHECK FAILED: {line}", file=sys.stderr)
    completed = [t for t, f in zip(times, failed) if not f]
    if not completed:
        sys.exit("bench: no operation completed")
    spread = [t / 1e6 for t in sorted(completed)]
    print(f"bench: {len(spread)} completed operations, ms: min {spread[0]:.4g} "
          f"median {statistics.median(spread):.4g} max {spread[-1]:.4g}", file=sys.stderr)

    if trace:
        untraced = [t for i, t in enumerate(times) if i not in traced_ops and not failed[i]]
        overhead_pct = 100.0 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0)
        traced_ok = {i for i in traced_ops if not failed[i]}
        metrics = tracing.layer_metrics(tracer, traced_ok, (len(untraced), sum(untraced) / 1e9),
                                        overhead_pct)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-{seed}.json")
        tracer.dump(spans_path)
        print(f"bench: {len(tracer.start)} spans of {len(traced_ok)} traced operations "
              f"-> {spans_path}")
    else:
        ms = [t / 1e6 for t in completed]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (percentile(ms, 90), "ms"),
            "policies_per_s": (POLICIES_PER_OP[name] * len(ms) / (sum(ms) / 1e3), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"{name:9s} {key:36s} {value:16.6g} {unit}")
    print(f"{name:9s} attempted {len(results)} failed {sum(failed)} "
          f"correct {not problems}")
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=W.WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--design-params", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        # What a user pays before the first operation: import the package
        # and build the workload's inputs.
        import_program()
        W.Workload(args.setup_probe, 0, OUT_DIR, load_params(sys.stdin.read()))
        return 0
    if args.design_params is not None:
        print(json.dumps(W.design_params(args.design_params)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.workload == "all":
        summary = {}
        for name in W.WORKLOADS:
            _, out = child(["--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)])
            lines = out.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            summary[name] = json.loads(lines[-1])
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in summary.values()) else 1

    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
