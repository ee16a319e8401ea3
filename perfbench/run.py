#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload codebase|service|guest \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run configures and compiles, later runs only check that it is up to date.
The driver's output is passed through; its last line is the result
object. Before printing it, this script checks that its metric names are
exactly those BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1).

Exit status: 0 after a result was printed; non-zero, with no result, when
the build, the run or the metric-name check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; returns its path."""
    target_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A failed configure must not leave a cache behind that
                # would skip the configure step next time.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench"), build_dir


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["codebase", "service", "guest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary, build_dir = build()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", build_dir],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("driver exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    names = list(result.get("metrics", {}))
    want = expected_metrics(args.trace)
    if names != want:
        fail("metric names %s differ from BENCHMARK.json's %s" % (names, want))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
