#!/usr/bin/env python3
"""clicsim benchmark entry point.

Builds the benchmark binary from the checkout's sources (CMake, Release),
runs one workload, prints every metric it measured with its unit and kind
(host or simulated), a JSON run record, and as the last line the result
object with the metrics BENCHMARK.json selects:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics (and writes a Chrome trace under the build directory).
Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isdir("src") or not os.path.isfile("perfbench/CMakeLists.txt"):
        fail("run from the root of a clicsim checkout (src/ and perfbench/ needed)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "clicsim_perfbench"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "clicsim_perfbench")


def source_sha1():
    """Content hash of the simulator and benchmark sources (the checkout is
    not always a git repository, so this stands in for the commit)."""
    h = hashlib.sha1()
    for top in ("src", "perfbench", "bench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = res.stdout.split()
    if res.returncode != 0 or len(out) != 2:
        return "unknown"
    if os.path.realpath(out[0]) != os.path.realpath("."):
        return "unknown"
    return out[1]


def run_binary(cmd):
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded its time limit")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="digest invariance and library-equivalence checks")
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found in the current directory")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = build()

    if args.selftest:
        res = run_binary([binary, "--selftest"])
        sys.stdout.write(res.stdout)
        sys.exit(res.returncode)

    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seed < 0:
        fail("--seed must be >= 0")

    trace_file = os.path.join(build_dir(), "traces", f"{args.workload}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        cmd += ["--trace-out", trace_file]
    res = run_binary(cmd)
    lines = [l for l in res.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"workload printed no record (exit {res.returncode})")
    rec = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        got = rec["metrics"].get(m["name"])
        if got is None:
            missing.append(m["name"])
            continue
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        fail("workload did not report: " + ", ".join(missing))

    # Every metric the run measured, selected or not, with unit and kind.
    declared = {m["name"]: "end_to_end" for m in spec["end_to_end"]}
    declared.update({m["name"]: "per_layer" for m in spec["per_layer"]})
    for name in sorted(rec["metrics"]):
        got = rec["metrics"][name]
        n = rec["samples"].get(name)
        extra = f"  n={n}" if n is not None else ""
        print(f"{name:34s} {got['value']:>16.6g} {got['unit']:6s} "
              f"{got['kind']:9s} {declared.get(name, '-')}{extra}")
    run_record = {
        "workload": rec["workload"], "seed": rec["seed"], "trace": rec["trace"],
        "shards": rec["shards"], "passes": rec["passes"],
        "traced_passes": rec["traced_passes"], "sim_digest": rec["sim_digest"],
        "variant_digests": rec["variant_digests"],
        "checks": rec["checks"], "samples": rec["samples"],
        "pass_wall_s": rec["pass_wall_s"],
        "variant_peak_rss_mb": rec["variant_peak_rss_mb"],
        "nproc": os.cpu_count(), "compiler": rec["compiler"],
        "build_type": rec["build_type"], "commit": commit(),
        "source_sha1": source_sha1(),
    }
    if args.trace:
        run_record["trace_file"] = trace_file
    print("# run record " + json.dumps(run_record, sort_keys=True))

    correct = bool(rec["correct"]) and res.returncode == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
