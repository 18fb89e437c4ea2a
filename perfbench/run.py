#!/usr/bin/env python3
"""The repository benchmark.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds perfbench/driver.cc and
the program libraries it calls into .bench_build. A run then repeats one
fixed-work pass of the workload, each in a fresh process, until --seconds
have passed, and checks every pass's outputs. It prints a table, then one
JSON line: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Metric names and units come from BENCHMARK.json; METRICS.md says
what each workload stresses and which metrics should move together.

A traced run alternates untraced and traced passes. Traced passes enable
the monitor's phase profiler and write the benchmark's spans to
.bench_build/spans/<workload>.csv; the untraced ones give the tracing
overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
PASS_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850

# Span name -> per-layer metric holding the median duration of those spans.
SPAN_P50 = {
    "monitor.share": "monitor.share_p50_ns",
    "monitor.revoke": "monitor.revoke_p50_ns",
    "monitor.attest": "monitor.attest_p50_ns",
    "monitor.take_interrupt": "monitor.take_interrupt_p50_ns",
    "monitor.destroy": "monitor.destroy_p50_ns",
    "tyche.enclave_create": "tyche.enclave_create_p50_ns",
    "tyche.verify_report": "tyche.verify_report_p50_ns",
    "fleet.submit": "fleet.submit_p50_ns",
}
LAYERS = ("bench", "monitor", "tyche", "fleet")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "monitor" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    jobs = str(len(os.sched_getaffinity(0)))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                        "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as error:
        fail(f"build failed: {error}")


def run_pass(workload, seed, spans):
    command = [str(DRIVER), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if spans else "0"]
    if spans:
        command += ["--spans", str(spans)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S, check=False)
    except (OSError, subprocess.SubprocessError) as error:
        fail(f"{workload} pass did not finish: {error}")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def throughput(passes):
    """All ops of the passes over all their timed regions."""
    return (sum(len(p["latency_ns"]) for p in passes) /
            sum(p["timed_s"] for p in passes))


def end_to_end(passes):
    """Metrics of the fastest quarter of the run's passes.

    Every pass runs the same ops, but on a shared host whole passes land in
    slow or fast periods: fleet_verify passes pinned to one CPU of a 4-CPU
    VM ran at 48-51 k or 64-71 k requests/s, switching within seconds, so a
    run's share of slow passes, not the program, set its median. The fastest
    passes show the program with the least interference; a slower program
    slows them too. Throughput and both percentiles pool the ops of the
    passes with the fastest timed regions; setup_s is the median of the
    fastest set-ups. Cost growth compares two parts of one pass and peak
    memory does not depend on speed, so those are medians over every pass.
    """
    fast = stats.fastest_quarter(passes, lambda p: p["timed_s"])
    pooled = [ns for p in fast for ns in p["latency_ns"]]
    fast_setups = stats.fastest_quarter([p["setup_s"] for p in passes], lambda s: s)
    return {
        "throughput_ops_s": throughput(fast),
        "latency_p50_us": stats.percentile(pooled, 50) / 1e3,
        "latency_p99_us": stats.percentile(pooled, 99) / 1e3,
        "cost_growth_x": statistics.median(stats.decile_ratio(p["latency_ns"]) for p in passes),
        "setup_s": statistics.median(fast_setups),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def read_spans(path):
    spans = []
    with open(path, encoding="ascii") as lines:
        next(lines)  # header: id,parent,op,name,start_ns,end_ns
        for line in lines:
            span_id, parent, _, name, start, end = line.rstrip("\n").split(",")
            spans.append((int(span_id), int(parent), name, int(start), int(end)))
    return spans


def layer_metrics(result, spans):
    """Per-layer metrics of one traced pass: its counters plus span figures."""
    metrics = dict(result["counters"])
    ops = len(result["latency_ns"])
    durations = {}
    for _, _, name, start, end in spans:
        durations.setdefault(name, []).append(end - start)
    for name, metric in SPAN_P50.items():
        samples = durations.get(name)
        # A layer call this workload never makes reads 0.
        metrics[metric] = stats.percentile(samples, 50) if samples else 0.0
    metrics["fleet.drain_ns_per_request"] = sum(durations.get("fleet.drain", ())) / ops
    self_ns = stats.self_times(spans)
    for layer in LAYERS:
        metrics[f"selftime.{layer}_ns_per_op"] = self_ns.get(layer, 0) / ops
    metrics["trace.spans"] = len(spans)
    return metrics


def per_layer(plain, traced, samples):
    names = samples[0].keys()
    metrics = {name: statistics.median(s[name] for s in samples) for name in names}
    metrics["trace.overhead_ratio"] = throughput(plain) / throughput(traced)
    return metrics


def main():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        fail(f"cannot read {spec_path}: {error}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    build()

    spans_path = BUILD / "spans" / f"{args.workload}.csv"
    spans_path.parent.mkdir(exist_ok=True)
    plain, traced, layer_samples = [], [], []
    deadline = time.monotonic() + args.seconds
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        result = run_pass(args.workload, args.seed, spans_path if trace_this else None)
        if trace_this:
            traced.append(result)
            layer_samples.append(layer_metrics(result, read_spans(spans_path)))
        else:
            plain.append(result)
        if time.monotonic() >= deadline and (traced or not args.trace):
            break

    everything = plain + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    correct = failed == 0 and all(p["post_checks_ok"] for p in everything)
    try:
        if args.trace:
            metrics = per_layer(plain, traced, layer_samples)
        else:
            metrics = end_to_end(plain)
            # 0 on a healthy run, so it is printed in the table and carried
            # by "failed"/"attempted" rather than listed as a bounded metric.
            metrics["error_ratio"] = stats.error_ratio(failed, attempted)
    except ValueError as error:
        fail(f"{args.workload}: {error}")

    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if args.trace and args.workload != "fleet_verify":
        # Only fleet_verify runs a front end; elsewhere that layer does no work.
        for name in units:
            if name.startswith("fleet."):
                metrics.setdefault(name, 0.0)
    missing = set(units) - set(metrics)
    if missing:
        fail(f"metrics not computed: {sorted(missing)}")
    print(f"{args.workload}  seed {args.seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced  ops {attempted}  failed {failed}  correct {correct}")
    if not args.trace:
        print(f"  times from the fastest quarter of {len(plain)} passes "
              f"of {attempted // len(plain)} ops each")
    for name, value in sorted(metrics.items()):
        print(f"  {name:40s} {value:16.6g} {units.get(name, 'ratio')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
