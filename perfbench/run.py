#!/usr/bin/env python3
"""Builds the server and the benchmark harness, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload weaver --seed 1 --seconds 10 --trace 0

Workloads: weaver, tourney, serve-mixed. The last line of standard output
is the result JSON; build output goes to standard error. Binaries go to
$CARGO_TARGET_DIR (default .bench_build).
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the repository root (no Cargo.toml/crates here)",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ops5-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return done.returncode
    harness = os.path.join(target, "release", "perfbench")
    return subprocess.run([harness] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
