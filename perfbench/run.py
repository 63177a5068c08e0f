#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package in this
directory is compiled in release mode against the repository's crates
(into $CARGO_TARGET_DIR, default `.bench_build`), then run once. Its
output is passed through after a `host` line describing the machine and
the build; the last line is the JSON result. Any failure to build or
run exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so results
    from checkouts that are not git repositories can still be matched
    to the code they measured."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH_DIR / "Cargo.toml"]
    for base in (ROOT / "crates", BENCH_DIR / "src"):
        files += sorted(p for p in base.rglob("*") if p.suffix in (".rs", ".toml"))
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_block(args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "profile": "release",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = BENCH_DIR / "Cargo.toml"
    crates = ROOT / "crates"
    if not manifest.is_file() or not crates.is_dir():
        print("perfbench: run from a checkout holding the repository's crates", file=sys.stderr)
        return 1
    target = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = target / "release" / "lateral-perfbench"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = run.returncode == 0 and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    print("host " + json.dumps(host_block(args), sort_keys=True))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
