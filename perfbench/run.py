#!/usr/bin/env python3
"""Switch benchmark: FIB miss path, cached MAC stream, ACL churn over OFP.

Builds the ofmtl library and the `switchbench` binary from this checkout
(perfbench/CMakeLists.txt, into .bench_build/ or $CARGO_TARGET_DIR), runs one
workload, and prints every metric it measured by name and unit, followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the JSON holds the end-to-end metrics (an untraced run); with
--trace 1 the per-layer metrics (a traced run: the same phases plus the
single-threaded layer ledger). A per-layer metric of a layer the workload does
not exercise (a field it does not match on, a second table, the OFP path on a
workload without a controller) reads 0. The ledger's ns figures are per
stream packet, so they add up to ledger.e2e_ns_per_pkt; the candidate and
match counts are per packet that reached the table.

    python3 perfbench/run.py --workload fib_uniform --seed 1 --trace 0
    python3 perfbench/run.py                     # every workload, both runs
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json

The catalog below is the single source of BENCHMARK.json: workloads, end-to-end
metrics with their regression bounds, and per-layer metrics. A workload's
set-up, traffic and fixed paced rate are defined in src/workloads.cpp; its
`why` here repeats the rate for the manifest, and each run's meta reports the
rate the binary used.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_SECONDS = 25
BINARY_TIMEOUT_S = 170

WORKLOADS = [
    {
        "name": "fib_uniform",
        "why": "coza routing, 184,909 rules, 65,536 uniform flows, cache off, "
               "1 worker: the pipeline miss path over a table far larger "
               "than L2; paced at 0.5 Mpps",
    },
    {
        "name": "mac_zipf",
        "why": "gozb MAC learning, 7,370 rules, Zipf 1.1 over 4,096 flows, "
               "8,192-slot cache, 1 worker: parse and cache probe carry the "
               "load; paced at 1.5 Mpps",
    },
    {
        "name": "acl_churn",
        "why": "2,000-rule 5-field ACL (EM, LPM, RM), Zipf, cache on, "
               "1 worker, OFP add/delete churn of 64 rules at 10 rounds/s "
               "(640 mods/s, <1% of measured OFP capacity); paced at "
               "0.6 Mpps",
    },
]

END_TO_END = [
    {"name": "mpps", "unit": "Mpps", "better": "higher", "bound": 0.25},
    {"name": "lat_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "lat_p95_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "mem_model_kbit", "unit": "kbit", "better": "lower",
     "bound": 0.05},
    {"name": "rss_peak_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]

_T0_FIELDS = ["in_port", "vlan_id", "ipv4_src", "ipv4_dst", "src_port",
              "dst_port", "ip_proto"]
_T1_FIELDS = ["ipv4_dst", "eth_dst", "metadata"]


def _per_layer():
    metrics = [
        ("trace.parse_ns_per_frame", "ns", "lower"),
        ("trace.malformed_frac", "frac", "lower"),
        ("runtime.cache_hit_frac", "frac", "higher"),
        ("runtime.cache_probe_ns", "ns", "lower"),
        ("runtime.cache_invalidations_per_publish", "count", "lower"),
        ("runtime.queue_depth_mean", "batches", "lower"),
        ("runtime.queue_wait_us", "us", "lower"),
        ("runtime.submit_spins_per_batch", "count", "lower"),
        ("runtime.worker_busy_frac", "frac", "lower"),
        ("runtime.allocs_per_batch", "count", "lower"),
        ("runtime.publish_us_p50", "us", "lower"),
        ("runtime.publish_us_p99", "us", "lower"),
        ("core.exec_ns_per_pkt", "ns", "lower"),
        ("core.apply_ns", "ns", "lower"),
        ("core.apply_mods_us_per_mod", "us", "lower"),
    ]
    for table, fields in (("t0", _T0_FIELDS), ("t1", _T1_FIELDS)):
        metrics.append((f"core.{table}.lookup_ns", "ns", "lower"))
        metrics += [(f"core.{table}.search.{f}_ns", "ns", "lower")
                    for f in fields]
        metrics += [
            (f"core.{table}.index_ns", "ns", "lower"),
            (f"core.{table}.candidates_per_pkt", "count", "lower"),
            (f"core.{table}.matches_per_pkt", "count", "lower"),
        ]
    for table, fields in (("t0", _T0_FIELDS), ("t1", _T1_FIELDS)):
        metrics += [(f"mem.{table}.{f}_kbit", "kbit", "lower") for f in fields]
        metrics += [
            (f"mem.{table}.index_kbit", "kbit", "lower"),
            (f"mem.{table}.actions_kbit", "kbit", "lower"),
        ]
    metrics += [
        ("mem.update_words", "count", "lower"),
        ("ofp.decode_ns", "ns", "lower"),
        ("ofp.mods_per_sink_call", "count", "higher"),
        ("ofp.sink_share", "frac", "lower"),
        ("ofp.error_frac", "frac", "lower"),
        # The paced phase's p99 (median over trials) swings with preemption
        # on a shared machine far past any end-to-end bound; p95 is gated.
        ("lat_p99_us", "us", "lower"),
        # Control-plane and failure figures: measured on every run, but zero
        # on workloads without a controller (or without failures), so they
        # cannot carry an end-to-end bound.
        ("mods_per_s", "1/s", "higher"),
        ("mod_rtt_p50_us", "us", "lower"),
        ("mod_rtt_p99_us", "us", "lower"),
        ("fail_frac", "frac", "lower"),
        ("ledger.closure_pct", "%", "higher"),
        ("ledger.e2e_ns_per_pkt", "ns", "lower"),
        ("bench.lat_p99_worst_us", "us", "lower"),
        ("bench.gen_lag_p99_us", "us", "lower"),
        ("bench.lat_samples", "count", "higher"),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in metrics]


PER_LAYER = _per_layer()


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return Path(target).resolve() if target else ROOT / ".bench_build"


def build():
    """Configure and build switchbench; the path of the binary, or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "switchbench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"run.py: build step failed: {' '.join(step)}")
            return None
    return out / "switchbench"


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def run_binary(binary, workload, seed, seconds, trace):
    """One switchbench run; (exit code, parsed JSON or None)."""
    command = [str(binary), "--workload", workload["name"],
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace),
               "--git-sha", git_sha()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload['name']} exceeded {BINARY_TIMEOUT_S} s")
        return 1, None
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    return result.returncode, report


def select(report, catalog):
    """The catalog's metrics from a run's report (0 where not exercised)."""
    measured = report["metrics"]
    selected = {}
    for metric in catalog:
        entry = measured.get(metric["name"],
                             {"value": 0.0, "unit": metric["unit"]})
        if entry["unit"] != metric["unit"]:
            raise ValueError(f"{metric['name']}: unit {entry['unit']} "
                             f"!= catalog {metric['unit']}")
        selected[metric["name"]] = {"value": entry["value"],
                                    "unit": metric["unit"]}
    return selected


def print_report(workload, trace, report):
    print(f"# {workload['name']} ({'traced' if trace else 'untraced'} run) "
          f"meta {json.dumps(report['meta'], sort_keys=True)}")
    print(f"# correct={report['correct']} attempted={report['attempted']} "
          f"failed={report['failed']}")
    for name, entry in report["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; (ok, result object) with result None on failure."""
    code, report = run_binary(binary, workload, seed, seconds, trace)
    if report is None:
        log(f"run.py: {workload['name']} produced no report (exit {code})")
        return False, None
    print_report(workload, trace, report)
    catalog = PER_LAYER if trace else END_TO_END
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": select(report, catalog),
    }
    return code == 0 and result["correct"], result


def main():
    # On SIGTERM, unwind: subprocess.run kills and waits for the build step or
    # switchbench it is running, so no child outlives this script.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the catalog and exit")
    args = parser.parse_args()

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0

    binary = build()
    if binary is None:
        return 1

    if args.workload is not None:
        workload = next(w for w in WORKLOADS if w["name"] == args.workload)
        ok, result = run_one(binary, workload, args.seed, args.seconds,
                             args.trace or 0)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if ok else 1

    # Every workload, untraced then traced (or only the requested kind).
    traces = [args.trace] if args.trace is not None else [0, 1]
    all_ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in traces:
            ok, result = run_one(binary, workload, args.seed, args.seconds,
                                 trace)
            all_ok = all_ok and ok
            if result is None:
                summary["correct"] = False
                continue
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                summary["metrics"][f"{workload['name']}/{name}"] = entry
    print(json.dumps(summary))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
