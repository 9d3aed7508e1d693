#!/usr/bin/env python3
"""Figure 1 end-to-end benchmark: stream -> compute -> OLAP -> SQL.

Builds the platform libraries and the benchmark from source (into
$CARGO_TARGET_DIR, default .bench_build, relative to the checkout root) and
runs one workload:

    python3 perfbench/run.py --workload trips_passthrough --seed 1 \\
        --seconds 10 --trace 0

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics; with
--trace 1 the same workload is run untraced and then traced, and the
metrics are the per-layer numbers derived from the traced run's spans plus
the tracing overhead (traced minus untraced value of each end-to-end
metric). Spans are written to <build dir>/traces/<workload>-<seed>.jsonl.

Other entry points:
    python3 perfbench/run.py --all [--seed N] [--seconds S]
        every workload untraced; prints each end-to-end metric with its unit
        and sample count; exits non-zero when a reference check fails.
    python3 perfbench/run.py --self-test
        the harness self-tests (percentiles, matchers, rollup reference).

Exits non-zero without a result when the sources cannot be built.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["trips_passthrough", "dashboard_under_ingest"]
RUN_TIMEOUT_S = 85  # per process; a traced run is two processes


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: platform sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "fig1_bench",
                  "harness_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, cwd=ROOT)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out


def run_bench(out, workload, seed, seconds, trace, trace_out=None):
    """Runs one benchmark process; returns (exit code, stdout lines, result)."""
    cmd = [os.path.join(out, "fig1_bench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 3, [], None
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def traced_e2e(lines):
    for line in lines:
        if line.startswith("# traced-e2e "):
            return json.loads(line[len("# traced-e2e "):])
    return None


def single(args):
    out = build()
    if not args.trace:
        code, lines, result = run_bench(out, args.workload, args.seed, args.seconds, False)
        if result is None:
            sys.exit(code or 3)
        print("\n".join(lines), flush=True)
        sys.exit(code)
    # Traced: the untraced run first, then the traced one on the same seed.
    code0, lines0, plain = run_bench(out, args.workload, args.seed, args.seconds, False)
    if plain is None:
        sys.exit(code0 or 3)
    print("\n".join("untraced| " + l for l in lines0[:-1]), flush=True)
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-%d.jsonl" % (args.workload, args.seed))
    code1, lines1, traced = run_bench(out, args.workload, args.seed, args.seconds, True,
                                      trace_out)
    if traced is None:
        sys.exit(code1 or 3)
    print("\n".join(lines1[:-1]), flush=True)
    metrics = dict(traced["metrics"])
    with_tracing = traced_e2e(lines1) or {}
    print("tracing overhead (traced - untraced):")
    for name, m in plain["metrics"].items():
        delta = with_tracing.get(name, m["value"]) - m["value"]
        metrics["overhead." + name] = {"value": delta, "unit": m["unit"]}
        print("  %-32s %14.4f %s" % ("overhead." + name, delta, m["unit"]))
    print("spans written to %s" % os.path.relpath(trace_out, ROOT))
    result = {
        "correct": bool(plain["correct"] and traced["correct"]),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    sys.exit(code0 or code1)


def run_all(args):
    out = build()
    failed_checks = []
    for w in WORKLOADS:
        code, lines, result = run_bench(out, w, args.seed, args.seconds, False)
        print("\n".join(lines[:-1]), flush=True)
        if result is None or code != 0 or not result["correct"]:
            failed_checks.append(w)
        if any("FLAGGED" in l for l in lines):
            print("note: %s flagged (generator behind schedule); exclude it from "
                  "averages" % w)
        print(flush=True)
    if failed_checks:
        print("reference checks FAILED on: " + ", ".join(failed_checks))
        sys.exit(1)
    print("all reference checks passed")


def self_test():
    out = build()
    proc = subprocess.run([os.path.join(out, "harness_selftest")], cwd=ROOT)
    sys.exit(proc.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.all:
        run_all(args)
    elif args.workload:
        single(args)
    else:
        p.error("one of --workload, --all or --self-test is required")


if __name__ == "__main__":
    main()
