#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds, from source and offline, the
repository's `toorjah` binary (the daemon the `daemon_traffic` workload
starts) and the benchmark next to it in `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the benchmark in place of this process. Build
output goes to standard error; a failed build exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, cwd, env):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + args,
        cwd=cwd,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["--bin", "toorjah"], ROOT, env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT, env)
    exe = os.path.join(target, "release", "perfbench")
    out = os.path.join(HERE, "out")
    os.execv(exe, [exe] + sys.argv[1:] + ["--out", out])


if __name__ == "__main__":
    main()
