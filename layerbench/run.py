#!/usr/bin/env python3
"""Build the layered benchmark from source and run it.

Usage, from the repository root:

    python3 layerbench/run.py --workload <bernoulli-n64|burst-n16|campaign-n8>
        --seed N --seconds S --trace 0|1
    python3 layerbench/run.py --self-test

The benchmark is its own Cargo package (layerbench/Cargo.toml) with path
dependencies on the simulator crates. It is built in release mode into
CARGO_TARGET_DIR (default layerbench/target); repetitions keep their state
directories under that target directory and remove them when done. Every
argument is passed to the benchmark binary; its last stdout line is the
JSON result. Exits non-zero without a result if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "layerbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH, "target")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(target, "release", "fifoms-layerbench")
    state_root = os.path.join(target, "layerbench-state")
    run = subprocess.run([exe, "--state-root", state_root] + sys.argv[1:], cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
