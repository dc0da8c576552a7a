#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_scan|join \
        --seed N --seconds S --trace 0|1

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, or to
.bench_build/perfbench when that variable is unset; later runs rebuild
incrementally. Build output goes to stderr. The binary's standard output is
relayed unchanged; its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. Any failure (the library
sources missing, a build error, a crash, a malformed result, a run past the
time limit) exits non-zero and prints no result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = REPO_DIR / target
    return target / "perfbench"


def build(out: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    # Unix Makefiles whatever CMAKE_GENERATOR says, so the Makefile marks a
    # finished configure.
    if not (out / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    if (REPO_DIR / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(REPO_DIR), "rev-parse", "HEAD"],
                check=True, capture_output=True, text=True).stdout.strip()
            dirty = subprocess.run(
                ["git", "-C", str(REPO_DIR), "status", "--porcelain",
                 "--", "src", "perfbench"],
                check=True, capture_output=True, text=True).stdout.strip()
            return sha + ("-dirty" if dirty else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO_DIR / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(REPO_DIR)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_scan", "join"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--source-id", source_id(),
           "--out-dir", str(out)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (ValueError, IndexError):
        well_formed = False
    if run.returncode != 0 or not well_formed:
        sys.stderr.write(run.stdout)
        print(f"perfbench: binary exited {run.returncode} without a result",
              file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
