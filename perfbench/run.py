#!/usr/bin/env python3
"""Build and run the HDDTherm benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig4_replay --seed 42 \
        --seconds 10 --trace 0

Run it from the root of a source checkout.  It configures and builds
perfbench/ (which compiles ../src itself) as a Release build under
$CARGO_TARGET_DIR, default .bench_build, then runs the benchmark binary.
The binary's last stdout line is the JSON result; build logs go to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/: run from a full "
                 "source checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build = os.path.join(target, "perfbench")
    for step in (["cmake", "-S", HERE, "-B", build, "-G", "Ninja",
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build,
                  "-j", str(min(4, os.cpu_count() or 1))]):
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            sys.exit("perfbench: build failed")

    run = subprocess.run(
        [os.path.join(build, "perfbench"),
         "--workload", args.workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace,
         "--out", os.path.join(target, "perfbench-out")],
        cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
