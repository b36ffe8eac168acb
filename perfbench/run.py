#!/usr/bin/env python3
"""Build the luqr benchmark from source and run one workload.

    python3 perfbench/run.py --workload lu_dense --seed 1 --seconds 30 --trace 0

Run from the root of a luqr source tree. The first run configures and builds
the library and the benchmark program luqr_perfbench (CMake, Release) into
the directory named by $CARGO_TARGET_DIR, default .bench_build; later runs
only rebuild what changed. The program's report goes to stdout; its last line is the JSON result,
whose metric names are checked against BENCHMARK.json. Build logs go to
stderr. Exits non-zero, without a result line, when the build or the run
fails. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# BENCHMARK.json gates on lu_dense and hybrid_dense; lu_fine and serve_mixed
# run by name but are too exposed to host CPU steal to gate on (README.md).
WORKLOADS = ["lu_dense", "hybrid_dense", "lu_fine", "serve_mixed"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on error or timeout."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    sys.stderr.write(proc.stdout.decode(errors="replace"))
    if proc.returncode != 0:
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir):
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from the root of a luqr source tree" % (need, ROOT))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "-j4", "--target", "luqr_perfbench"],
               BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "luqr_perfbench")


def git_sha():
    """Short SHA of the tree, looking no further up than ROOT; else 'unknown'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.decode().strip()
    return sha if out.returncode == 0 and sha else "unknown"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    env = dict(os.environ, LUQR_GIT_SHA=os.environ.get("LUQR_GIT_SHA") or git_sha())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("luqr_perfbench exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line of the report is not a JSON result")
    got = [(name, m.get("unit")) for name, m in result.get("metrics", {}).items()]
    want = expected_metrics(args.trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: got %s, want %s" % (got, want))

    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
