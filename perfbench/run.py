#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <signoff|synthesis|bughunt_service>
        --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]

The benchmark package (`perfbench/Cargo.toml`) is built in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build` at the repository root)
with cargo's output on standard error, then run from the repository root.
Its standard output is passed through: the last line is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("signoff", "synthesis", "bughunt_service")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    # The benchmark measures the repository's crates; without them there is
    # nothing to build.
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found at {ROOT}", file=sys.stderr)
            return 1
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # an absolute target stays as it is
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [
            binary,
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            args.trace,
            "--size",
            args.size,
        ],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
