#!/usr/bin/env python3
"""Builds hetsched_bench from this checkout and runs one workload.

    python3 benchmark/run.py --workload chol-nb64 --seed 1 --seconds 15 \
        --trace 0

The first run configures and builds benchmark/ (the library sources under
src/ included) into .bench_build/; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the result JSON
the benchmark prints. The metric names in it are checked against
BENCHMARK.json: end_to_end with --trace 0, per_layer with --trace 1.

    python3 benchmark/run.py --smoke --binary PATH

runs an already built binary's --smoke pass (every workload, both passes)
and applies the same checks to every result; this is the ctest entry.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hetsched_bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hetsched.hpp")):
        raise RuntimeError("no hetsched sources under " + ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:  # configured from another checkout
            shutil.rmtree(BUILD_DIR)
    if not os.path.isfile(cache):
        cmd = [cmake, "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run([cmake, "--build", BUILD_DIR, "-j", "4", "--target",
                    "hetsched_bench"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "hetsched_bench")


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def check_result(line, declared):
    """Checks one result line's shape and metric names; returns an error
    string or None. Failed output checks show in the binary's exit code."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return "result is not JSON: %s" % e
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ: %s" % sorted(res)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared)
                       if got[k] != declared[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "units %s" % (missing, extra, units)
    return None


def run(cmd):
    """Runs the binary; returns (exit code, stdout lines)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary")
    args = ap.parse_args()
    end_to_end, per_layer = declared_metrics()

    if args.smoke:
        code, lines = run([args.binary or build(), "--smoke"])
        print("\n".join(lines))
        results = [l for l in lines if l.startswith("{")]
        # The smoke pass prints an end-to-end then a traced result per workload.
        errors = [e for i, l in enumerate(results)
                  for e in [check_result(l, per_layer if i % 2 else end_to_end)]
                  if e]
        if len(results) != 12:
            errors.append("expected 12 results, got %d" % len(results))
        for e in errors:
            log(e)
        return 1 if errors or code != 0 else 0

    if not args.workload:
        ap.error("--workload is required")
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--out=" + out]
    if args.trace:
        cmd.append("--traced")
    code, lines = run(cmd)
    if not lines or not lines[-1].startswith("{"):
        log("no result from %s (exit %d)" % (binary, code))
        return code or 1
    err = check_result(lines[-1], per_layer if args.trace else end_to_end)
    if err:
        print("\n".join(lines[:-1]))
        log(err)
        return 1
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        sys.exit(2)
