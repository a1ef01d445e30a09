#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload cache16-writes --seed 1 --seconds 40 --trace 0

The Go program in this directory is built into .bench_build/ (its build
cache too, so nothing is written outside the checkout), then run once. Its
last line of standard output is the result object; the line before it is
the run's provenance. See README.md for the workloads and metrics.
"""

import argparse
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"

BUILD_TIMEOUT_S = 840  # a cold build of the module and its dependencies
RUN_TIMEOUT_S = 170  # one measured run, build excluded


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOMODCACHE=str(BUILD / "gomodcache"),
        GOPATH=str(BUILD / "gopath"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOTELEMETRY="off",
    )
    return env


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal").is_dir():
        print(f"perfbench: no netrs module at {ROOT}; nothing to measure", file=sys.stderr)
        return 2

    env = go_env()
    binary = BUILD / "perfbench"
    try:
        built = subprocess.run(
            ["go", "build", "-o", str(binary), "."], cwd=BENCH, env=env, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        return 1

    cmd = [
        str(binary),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-commit", commit(),
    ]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(f"perfbench: run took {time.monotonic() - start:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
