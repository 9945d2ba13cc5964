#!/usr/bin/env python3
"""The SGFS benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the perfbench driver (CMake package in
this directory, compiling ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload for about S wall seconds.

--trace 0 prints every end-to-end metric that applies to the workload, by
name and unit, and ends with one JSON line holding the metrics BENCHMARK.json
names.  --trace 1 prints the per-layer table of a traced run instead (the JSON
line then holds the per-layer metrics).  Either way the run checks the bytes
the workload read and wrote, that the simulation raised no errors, and that
every simulated result and per-layer count repeats exactly across the
repetitions of one seed; any failure prints correct=false and exits 1.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("bulk-aes-lan", "fleet-small-ops", "smallfile-wan-cache",
             "reconnect-storm")

# Table order of the end-to-end metrics; a workload prints those that apply.
E2E_ORDER = ("wall_s", "setup_s", "read_mb_per_wall_s", "write_mb_per_wall_s",
             "ops_per_wall_s", "peak_rss_mb", "sim_read_mb_per_s",
             "sim_write_mb_per_s", "sim_op_p50_ms", "sim_op_p99_ms",
             "sim_op_p999_ms", "sim_goodput_ops_per_s", "sim_recovery_s",
             "op_fail_ratio")
# The end-to-end metrics every workload reports; these go into the JSON line
# and BENCHMARK.json.
E2E_REPORTED = ("wall_s", "setup_s", "ops_per_wall_s", "peak_rss_mb",
                "sim_goodput_ops_per_s")

DRIVER_TIMEOUT_PAD_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    if not (HERE.parent / "src" / "CMakeLists.txt").exists():
        log("perfbench: the repository sources (../src) are missing")
        return None
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return out / "perfbench"


def run_driver(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(build_dir() /
                               ("spans-%s-seed%d.jsonl" %
                                (args.workload, args.seed)))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True,
                          timeout=args.seconds + DRIVER_TIMEOUT_PAD_S)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def fmt(value):
    if value is None:
        return "n/a"
    if math.isinf(value):
        return "inf"
    if isinstance(value, int) or float(value).is_integer():
        return "%d" % value
    return "%.6g" % value


def check(records, process):
    """Correctness and determinism problems, as human-readable strings."""
    problems = [r["error"] for r in records if r["error"]]
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    for name in metrics.deterministic_mismatches(untraced):
        problems.append("deterministic field differs across repeats: " + name)
    for name in metrics.deterministic_mismatches(traced):
        problems.append("deterministic field differs across traced repeats: "
                        + name)
    if traced:
        pair = [untraced[0], traced[0]]
        for name in metrics.deterministic_mismatches(pair, ("trace.",)):
            problems.append("tracing changed a deterministic field: " + name)
    for r in records:
        if r["det"].get("crypto.mac_failures", 0):
            problems.append("secure channel reported MAC failures")
            break
    if process is None:
        problems.append("driver ended without its process record")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    try:
        code, lines = run_driver(binary, args)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 2
    raw = [l for l in lines if l["kind"] == "iteration"]
    records = [metrics.at_reference_speed(r, r["wall"]["host.ref_s"])
               for r in raw]
    process = next((l for l in lines if l["kind"] == "process"), None)
    calib = next((l for l in lines if l["kind"] == "calibration"), None)
    if calib is not None:
        cal = calib["unit_costs"]
        factor = metrics.REF_NOMINAL_S / cal.pop("host.ref_s")
        calib = {k: v * factor for k, v in cal.items()}
    if not records:
        log("perfbench: driver produced no records (exit %d)" % code)
        return 2

    problems = check(records, process)
    if code != 0 and not problems:
        problems.append("driver exited with %d" % code)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    timed = untraced[1:] or untraced
    attempted = int(sum(r["det"]["ops.attempted"] for r in records))
    failed = int(sum(r["det"]["ops.failed"] for r in records))

    print("== %s  seed %d  (%d timed repetitions, %d traced)" %
          (args.workload, args.seed, len(timed), len(traced)))
    result = {}
    if not problems and args.trace == 0:
        lat = untraced[0].get("lat_ns")
        e2e = metrics.end_to_end(untraced[0], timed, lat or None)
        for name in E2E_ORDER:
            value, unit, note = e2e.get(name, (None, "", "does not apply"))
            print("  %-24s %14s %-6s %s" % (name, fmt(value), unit, note))
        print("  (wall figures at reference host speed; as read: wall_s %s s,"
              " reference work %s s vs %s s nominal)" %
              (fmt(metrics.measured_wall(raw[1:] or raw)),
               fmt(metrics.median([r["wall"]["host.ref_s"] for r in raw])),
               fmt(metrics.REF_NOMINAL_S)))
        result = {n: {"value": e2e[n][0], "unit": e2e[n][1]}
                  for n in E2E_REPORTED}
    elif not problems:
        if calib is None or not traced:
            problems.append("traced run produced no calibration")
        else:
            walls = {"wall_s": metrics.measured_wall(timed),
                     "traced_s": metrics.measured_wall(traced)}
            for k in ("setup.testbed_s", "setup.preload_s", "setup.mount_s"):
                walls[k] = metrics.setup_wall(timed, k)
            layer = metrics.per_layer(traced[0]["det"], calib, walls)
            for name, unit, _better, moves in metrics.PER_LAYER:
                print("  %-36s %14s %-9s -> %s" %
                      (name, fmt(layer[name]), unit, moves))
            print("  unit costs (ns/call): " +
                  ", ".join("%s=%.1f" % kv for kv in sorted(calib.items())))
            result = {name: {"value": layer[name] or 0, "unit": unit}
                      for name, unit, _b, _m in metrics.PER_LAYER}

    for p in problems:
        print("  FAIL: " + p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
