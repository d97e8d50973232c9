#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds, later runs reuse the build.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Workloads, metrics and exit codes are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-read", "serve-churn")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    if not (ROOT / "src" / "serve" / "server.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    bdir = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    # Build output goes to stderr: stdout carries only the benchmark's report.
    if not (bdir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", str(bdir), "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return bdir


def source_id():
    """The commit when the checkout is a git work tree, else a digest of the
    sources the benchmark compiles."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        bdir = build("perfbench_tests")
        sys.exit(subprocess.run([str(bdir / "perfbench_tests")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    bdir = build("perfbench")
    command = [str(bdir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(bdir),
               "--commit", source_id()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode)

    # The report must name exactly the metrics BENCHMARK.json declares.
    result = json.loads(run.stdout.strip().splitlines()[-1])
    missing = set(expected_metrics(args.trace)) ^ set(result["metrics"])
    if missing:
        fail(f"reported metrics differ from BENCHMARK.json: {sorted(missing)}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
