#!/usr/bin/env python3
"""Repository benchmark: replay workloads end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The script builds perfbench/ (which compiles ../src) into .bench_build, then
runs the edm_perfbench binary, one replay per process, for --seconds.

--trace 0 runs untraced replays through the public entry points and reports
the end-to-end metrics: replay throughput over all processes, the other host
metrics as the median over processes, modelled
metrics as the interquartile mean over the seed's traces (each trace's
repeat exactly, which is checked).

--trace 1 runs cycles of (untraced replay, traced replay with standalone
layer passes, replay without the workload's telemetry) and reports the
per-layer metrics as medians over cycles, with an Amdahl table.

Every process checks that each workload record completed; the traced run
must also reproduce the untraced run's modelled metrics and report digest.
A failed check marks the result incorrect and exits 1.  The last line of
stdout is the JSON result; human-readable tables come before it.
"""

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "edm_perfbench"
SPAN_DIR = BUILD_DIR / "spans"
CHILD_TIMEOUT_S = 60

# The metrics, their units and bounds are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_METRICS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# End-to-end metrics timed on the host; the rest are modelled.
HOST_METRICS = ("replay_ops_per_s", "setup_s", "peak_rss_mb")
MODEL_METRICS = [name for name in END_TO_END if name not in HOST_METRICS]

# Standalone layer times subtracted from sim.replay_s to leave sim.self_s.
AMDAHL_LAYERS = ["trace.drain_s", "cluster.map_s", "core.temperature_s",
                 "flash.io_s"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    pass


def build():
    """Configures and builds edm_perfbench (incrementally); exits 1 on
    failure, e.g. when the checkout has no ../src to build."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "edm_perfbench"]]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


@functools.cache
def listing():
    """Workloads with their traces per seed, and the default and held-out
    seeds, as workloads.h defines them."""
    return json.loads(subprocess.run(
        [str(BINARY), "workloads"], capture_output=True, text=True,
        check=True).stdout)


def traces_per_seed(workload):
    for spec in listing()["workloads"]:
        if spec["name"] == workload:
            return spec["traces_per_seed"]
    return None


def edm_perfbench(*args):
    """Runs one edm_perfbench process; returns its JSON result line."""
    cmd = [str(BINARY), *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        log(proc.stderr[-2000:])
        result = result or {}
        raise CheckFailed(f"{' '.join(args)} exited {proc.returncode}: "
                          f"{result.get('check_errors')} "
                          f"standalone_ok={result.get('standalone_ok')}")
    return result


def git_commit():
    """HEAD of the checkout, or "" when the checkout is not a git tree."""
    if not (ROOT / ".git").exists():
        return ""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else ""
    except OSError:
        return ""


def print_provenance(prov):
    commit = git_commit() or "unknown (not a git checkout)"
    print(f"provenance: {prov['compiler']} | build {prov['build_type']} "
          f"flags '{prov['cxx_flags'].strip()}' | cpu {prov['cpu_model']} | "
          f"nproc {os.cpu_count()} | commit {commit}")
    flags = prov["cxx_flags"]
    if (prov["build_type"].lower() == "debug" or "-fsanitize" in flags
            or "-O0" in flags):
        banner = ("WARNING: Debug or sanitizer build -- it measures a "
                  "different program; do not compare these numbers")
        print("!" * len(banner))
        print(banner)
        print("!" * len(banner))
        log(banner)


def same_model(a, b, what, digest=True):
    """Checks two runs of one trace modelled the same cluster behaviour.
    The report digest also covers the report's telemetry section, so it is
    compared only between runs with the same telemetry."""
    if a["model"] != b["model"] or (digest and a["digest"] != b["digest"]):
        raise CheckFailed(f"{what}: modelled metrics differ: "
                          f"{a['model']} / {a['digest']} vs "
                          f"{b['model']} / {b['digest']}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def interquartile_mean(values):
    """Mean of the middle half of the sorted values."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut:len(values) - cut])


def count_ops(tally, result):
    tally["attempted"] += result["expected_ops"]
    tally["failed"] += result["ops_failed"]
    return result


def measure_end_to_end(workload, seed, seconds, tally):
    """Untraced replays, cycling over the seed's traces, until `seconds`
    pass and every trace ran once.  Returns (metrics, provenance)."""
    traces = traces_per_seed(workload)
    samples = []
    by_trace = {}
    start = time.monotonic()
    while len(samples) < traces or time.monotonic() - start < seconds:
        index = len(samples) % traces
        r = count_ops(tally, edm_perfbench("replay", f"--workload={workload}",
                                    f"--seed={seed}", f"--trace={index}"))
        if index in by_trace:
            same_model(by_trace[index], r, "replay repeat")
        by_trace.setdefault(index, r)
        samples.append(r)
    per_trace = [by_trace[i] for i in range(traces)]
    host = {
        "replay_ops_per_s": [r["completed_ops"] / r["replay_s"]
                             for r in samples],
        "setup_s": [r["setup_s"] for r in samples],
        "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
    }
    metrics = {name: statistics.median(v) for name, v in host.items()}
    # Replay throughput is all ops over all replay seconds of the run, not
    # a median: per-process replay times on a shared host fall into a fast
    # and a slow mode, and a median jumps between the two.
    metrics["replay_ops_per_s"] = (sum(r["completed_ops"] for r in samples) /
                                   sum(r["replay_s"] for r in samples))
    for name in MODEL_METRICS:
        metrics[name] = interquartile_mean(
            [r["model"][name] for r in per_trace])
    digest = hashlib.sha256(
        " ".join(r["digest"] for r in per_trace).encode()).hexdigest()[:16]
    ops = sum(r["completed_ops"] for r in per_trace)

    print(f"{workload} seed {seed}: {len(samples)} replay processes over "
          f"{traces} traces, {ops} ops per pass over the traces, "
          f"{sum(r['ops_failed'] for r in per_trace)} failed; "
          f"report digest {digest}")
    print(f"  {'metric':<24} {'value':>14} {'q1':>14} {'q3':>14}  unit  "
          f"statistic")
    for name in HOST_METRICS:
        q1, q3 = quartiles(host[name])
        statistic = ("all ops / all replay seconds"
                     if name == "replay_ops_per_s" else "median")
        print(f"  {name:<24} {metrics[name]:>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g}  {END_TO_END[name]}  {statistic} of "
              f"{len(samples)} processes")
    for name in MODEL_METRICS:
        q1, q3 = quartiles([r["model"][name] for r in per_trace])
        print(f"  {name:<24} {metrics[name]:>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g}  {END_TO_END[name]}  interquartile mean of "
              f"{traces} traces (exact)")
    return metrics, samples[0]["provenance"]


# Per-layer metrics derived in run.py from the medians of the others.
DERIVED_LAYER_METRICS = ("sim.self_s", "telemetry.overhead_s",
                         "bench.trace_overhead_s")


def traced_cycle(workload, seed, cycle, tally):
    """One untraced replay, one traced run and one replay without the
    workload's telemetry, all of the seed's first trace.  On workloads
    without telemetry the last replay repeats the first, so their
    difference shows the host's noise.  Returns the traced layer metrics,
    the two untraced replay times and provenance."""
    trace = (f"--workload={workload}", f"--seed={seed}", "--trace=0")
    plain = count_ops(tally, edm_perfbench("replay", *trace))
    run_id = f"{workload}-seed{seed}-cycle{cycle}"
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    traced = count_ops(tally, edm_perfbench(
        "traced", *trace, f"--run-id={run_id}",
        f"--spans-out={SPAN_DIR / (run_id + '.json')}"))
    same_model(plain, traced, "traced vs untraced")
    bare = count_ops(tally, edm_perfbench("replay", *trace, "--telemetry-off"))
    same_model(plain, bare, "telemetry on vs off", digest=False)
    return (traced["layers"], plain["replay_s"], bare["replay_s"],
            plain["provenance"])


def measure_layers(workload, seed, seconds, tally):
    """Traced cycles until `seconds` pass; returns (metrics, provenance).
    Times are medians over cycles; the derived metrics are differences of
    those medians, so the Amdahl table sums exactly to sim.replay_s."""
    cycles, plain_s, bare_s = [], [], []
    start = time.monotonic()
    while not cycles or time.monotonic() - start < seconds:
        layers, plain, bare, prov = traced_cycle(workload, seed, len(cycles),
                                                 tally)
        for name, unit in LAYER_METRICS.items():
            if (cycles and unit == "count" and name in layers
                    and layers[name] != cycles[0][name]):
                raise CheckFailed(f"count {name} changed between cycles")
        cycles.append(layers)
        plain_s.append(plain)
        bare_s.append(bare)
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name in DERIVED_LAYER_METRICS:
            continue
        values = [c[name] for c in cycles]
        metrics[name] = values[0] if unit == "count" else statistics.median(
            values)
    replay = metrics["sim.replay_s"]
    metrics["sim.self_s"] = replay - sum(metrics[n] for n in AMDAHL_LAYERS)
    metrics["telemetry.overhead_s"] = (statistics.median(plain_s) -
                                       statistics.median(bare_s))
    metrics["bench.trace_overhead_s"] = replay - statistics.median(plain_s)

    print(f"{workload} seed {seed}: traced, {len(cycles)} cycles "
          f"(medians); standalone layer times are share-of-replay "
          f"estimates, not exact attribution")
    print(f"  {'layer':<22} {'seconds':>10} {'share':>8}")
    for name in AMDAHL_LAYERS + ["sim.self_s"]:
        print(f"  {name:<22} {metrics[name]:>10.4f} "
              f"{metrics[name] / replay:>8.1%}")
    print(f"  {'sim.replay_s':<22} {replay:>10.4f} {1:>8.1%}")
    for name, unit in LAYER_METRICS.items():
        print(f"  {name:<28} {metrics[name]:>16.6g}  {unit}")
    return metrics, prov


def run(workload, seed, seconds, trace):
    tally = {"attempted": 0, "failed": 0}
    try:
        if trace:
            metrics, prov = measure_layers(workload, seed, seconds, tally)
            units = LAYER_METRICS
        else:
            metrics, prov = measure_end_to_end(workload, seed, seconds, tally)
            units = END_TO_END
        print_provenance(prov)
    except (CheckFailed, json.JSONDecodeError,
            subprocess.TimeoutExpired) as e:
        # A failed check fails every op the run attempted.
        log(f"perfbench: check failed: {e}")
        ops = max(1, tally["attempted"])
        return {"correct": False, "attempted": ops, "failed": ops,
                "metrics": {}}
    return {
        "correct": True,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def self_check():
    """Every workload at the default and the held-out seed, both modes:
    every named metric present and every invariant holding."""
    info = listing()
    ok = True
    for workload in (spec["name"] for spec in info["workloads"]):
        for seed in (info["default_seed"], info["held_out_seed"]):
            for trace in (0, 1):
                result = run(workload, seed, 0, trace)
                expected = LAYER_METRICS if trace else END_TO_END
                good = (result["correct"] and result["failed"] == 0 and
                        set(result["metrics"]) == set(expected))
                ok = ok and good
                print(f"self-check {workload} seed {seed} trace {trace}: "
                      f"{'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_check:
        return self_check()
    if traces_per_seed(args.workload) is None:
        names = [spec["name"] for spec in listing()["workloads"]]
        parser.error(f"--workload must be one of {names}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
