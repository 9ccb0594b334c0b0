#!/usr/bin/env python3
"""Builds the benchmark and `um-serve` from source, then runs one workload.

    python3 crates/bench/e2e/run.py --workload <qos-search|rack-512|serve-mix> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. Cargo's output goes to stderr; the last
line of stdout is the result object. Builds land in $CARGO_TARGET_DIR
(default `.bench_build`); traced runs write their spans under it.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST,
        "-p", "um-benchmark", "-p", "um-serve",
        "--bin", "um-benchmark", "--bin", "um-serve",
    ]
    built = subprocess.run(build, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("run.py: the build failed\n")
        return built.returncode or 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "um-benchmark"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "um-serve"),
        "--spans-dir", os.path.join(target, "spans"),
    ]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
