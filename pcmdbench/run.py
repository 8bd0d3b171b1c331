#!/usr/bin/env python3
"""Run one pcmd benchmark workload and print its metrics.

    python3 pcmdbench/run.py --workload fig5-seq|paper36-heal|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a pcmd source tree. The first call configures and
builds the harness (pcmdbench/CMakeLists.txt, which compiles ../src) into
.bench_build/pcmdbench; later calls only re-check the build. The harness
then generates the workload from the seed, measures for S host seconds,
checks its outputs and prints, as its last line, one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Full result documents and Chrome traces land in
.bench_build/results. See pcmdbench/NOTES.md for what each workload and
metric is for.

Two extra flags serve the benchmark's own tests: --tiny 1 shrinks every
workload to a few steps or jobs, and --fabricate-error 1 corrupts one
checked output so that it must show up in the failure count.

Exit codes: 0 correct result; 1 incorrect result, missing sources or a
failed build; 2 bad command line.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig5-seq", "paper36-heal", "serve-mixed")
BENCH_DIR = Path(__file__).resolve().parent
SOURCE_ROOT = BENCH_DIR.parent
BUILD_DIR = SOURCE_ROOT / ".bench_build" / "pcmdbench"
RESULTS_DIR = SOURCE_ROOT / ".bench_build" / "results"


def whole_number(low, high):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a whole number, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected {low}..{high}, got {value}")
        return value
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="pcmdbench/run.py", allow_abbrev=False,
        description="Run one pcmd benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True,
                        type=whole_number(0, 2**63 - 1))
    parser.add_argument("--seconds", required=True,
                        type=whole_number(1, 600))
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", choices=("0", "1"), default="0",
                        help="shrink the workload (the benchmark's tests)")
    parser.add_argument("--fabricate-error", choices=("0", "1"), default="0",
                        help="corrupt one checked output (tests)")
    return parser.parse_args(argv)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not (SOURCE_ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"pcmdbench: no pcmd sources at {SOURCE_ROOT / 'src'}; "
                 "run from a full source tree")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"pcmdbench: build step failed: {' '.join(step)}")
    return BUILD_DIR / "pcmdbench"


def main(argv):
    args = parse_args(argv)
    binary = build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", str(RESULTS_DIR),
               "--tiny", args.tiny, "--fabricate-error", args.fabricate_error]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
