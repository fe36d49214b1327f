#!/usr/bin/env python3
"""Builds the benchmark and runs one workload in its own process.

This is the command BENCHMARK.json names. Run it from the repository
root:

    python3 crates/perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`); build
output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The exit code is the build's when the build fails (for
example when the library crates are missing), else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
