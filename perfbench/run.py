#!/usr/bin/env python3
"""Benchmark clsh on one workload, from the root of a checkout:

    python3 perfbench/run.py --workload church --seed 1 --seconds 25 --trace 0

Workloads (spec.py says why each was chosen): catalog, church, trace,
sampled, or all of them, each in a process of its own.  The run imports
clsh from src/ of the checkout and runs whole passes of the workload's ops
for --seconds, in one process and one thread, setting up again now and
then to report the median set-up time.  Every op's outcome is checked
against an oracle and against the steps, status and normal-form hash
recorded in expected.json.  ops_per_s and steps_per_s are what the
passes got done over the wall time they took; the latency percentiles are
over every op run that passed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same passes
untraced and then traced, and prints the per-layer metrics: calls, self
time and work of each layer per pass, microbenchmarks, and the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A record of the run (facts,
metrics, failures) is written to perfbench/out/, and in a traced run the
spans too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import micro
import spec
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 9
# String hashes, and so the probe sequences of every dict and set keyed by
# names, differ from process to process; fixing them takes that variation
# out of the comparison between two runs.
HASH_SEED = "0"


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def set_up(workload: str, seed: int, smoke: bool):
    """Import clsh afresh, build its rule sets and the workload's inputs,
    and warm the caches.  Returns (seconds, lib, inputs)."""
    t0 = perf_counter()
    lib = workloads.Lib(workloads.import_clsh())
    inputs = workloads.INPUTS[workload](lib, seed, smoke)
    workloads.warm_caches(lib)
    return perf_counter() - t0, lib, inputs


def run_passes(pass_fn, lib, inputs, rec, seconds: float,
               count: int | None = None, between=None) -> list:
    """Whole passes while one more, as long as the last, would end within
    `seconds` (at least one pass), or exactly `count` passes; between()
    runs after each pass, outside its timing.  Returns, per pass, the ops
    that passed, the steps they fired and the pass's wall seconds."""
    gc.collect()
    passes = []
    start = perf_counter()
    while True:
        t0, done, steps = perf_counter(), rec.done, rec.steps
        pass_fn(lib, inputs, len(passes), rec)
        passes.append((rec.done - done, rec.steps - steps,
                       perf_counter() - t0))
        if between is not None:
            between()
        if count is not None:
            if len(passes) == count:
                return passes
        elif perf_counter() - start + passes[-1][2] > seconds:
            return passes


def end_to_end(rec, passes, setup_s: float) -> dict:
    """Throughput is what the passes got done over the wall time they
    took, everything a pass did included; the latency percentiles are taken
    over the wall time of every op that passed."""
    wall = sum(w for _, _, w in passes)
    lat = sorted(t for times in rec.times.values() for t in times)
    p90 = (statistics.quantiles(lat, n=10, method="inclusive")[-1]
           if len(lat) > 1 else lat[0])
    return {
        "ops_per_s": sum(d for d, _, _ in passes) / wall,
        "steps_per_s": sum(s for _, s, _ in passes) / wall,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def run_all(args) -> int:
    """Every workload, each in a process of its own, one after another;
    the result line joins theirs, metric names prefixed by workload."""
    joined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + ["--smoke"] * args.smoke,
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        joined["correct"] &= result["correct"]
        joined["attempted"] += result["attempted"]
        joined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            joined["metrics"][f"{name}.{metric}"] = value
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(joined, indent=1) + "\n")
    print(json.dumps(joined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*spec.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})

    if args.workload == "all":
        return run_all(args)
    if not (SRC / "clsh" / "__init__.py").is_file():
        print(f"perfbench: no clsh sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    name = args.workload
    expected = json.loads((HERE / "expected.json").read_text())[name]
    # The set-ups are spread over the run, so that setup_s sees the same
    # mix of fast and slow moments of the machine as the passes do.
    setups = []

    def setup_rep():
        seconds, *built = set_up(name, args.seed, args.smoke)
        setups.append(seconds)
        return built

    lib, inputs = setup_rep()
    if not Path(lib.mods["terms"].__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: clsh was imported from {lib.mods['terms'].__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    measured = args.seconds / 2 if args.trace else args.seconds
    begin = perf_counter()

    def between():
        if (len(setups) < SETUP_REPS and perf_counter() - begin
                >= len(setups) * measured / SETUP_REPS):
            setup_rep()

    pass_fn = workloads.PASSES[name]
    rec = workloads.Recorder(expected)
    passes = run_passes(pass_fn, lib, inputs, rec, measured, between=between)
    while len(setups) < SETUP_REPS:
        setup_rep()
    setup_s = statistics.median(setups)
    wall = sum(p[2] for p in passes)
    tracer = None
    if args.trace:
        tracer = Tracer()
        traced = workloads.Recorder(expected, tracer=tracer)
        tracer.install(lib)
        try:
            traced_wall = sum(p[2] for p in run_passes(
                pass_fn, lib, inputs, traced, 0, count=len(passes)))
        finally:
            tracer.restore()
        metrics = tracer.per_pass(len(passes))
        metrics.update(micro.run(lib))
        metrics["trace.wall_untraced_s"] = wall
        metrics["trace.wall_traced_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        units = {n: u for n, u, _ in spec.per_layer()}
        attempted = rec.attempted + traced.attempted
        failed = rec.failed + traced.failed
        failures = rec.failures + traced.failures
    else:
        metrics = end_to_end(rec, passes, setup_s)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        attempted, failed, failures = rec.attempted, rec.failed, rec.failures

    facts = {
        "workload": name, "why": spec.WORKLOADS[name], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "passes": len(passes), "ops": attempted,
        "distinct_ops": len(rec.times),
        "nonconverged": rec.nonconverged, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }
    print(f"clsh benchmark: {name}, seed {args.seed}, {len(passes)} passes, "
          f"{attempted} ops ({len(rec.times)} distinct, {rec.done} latency "
          f"samples), {rec.nonconverged} nonconverged")
    for metric, value in metrics.items():
        print(f"  {metric:<42} {value:14.6g} {units[metric]}")
    print(f"  {'error_rate':<42} {failed / attempted:14.6g} "
          f"({failed}/{attempted})")
    for line in failures[:20]:
        print(f"perfbench: failed op {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    record = {"facts": facts, "predictions": dict(spec.PREDICTIONS),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "error_rate": failed / attempted, "failures": failures,
              "ops": {k: {"runs": len(v),
                          "median_ms": statistics.median(v) * 1e3}
                      for k, v in sorted(rec.times.items())}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
