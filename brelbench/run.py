#!/usr/bin/env python3
"""Run one workload of the BREL service benchmark.

    python3 brelbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds brelbench/ (the library sources
of the checkout plus the benchmark driver) into $CARGO_TARGET_DIR, or
.bench_build by default, then runs the workload in a fresh process.  The
warm_* workloads first write their snapshot in a separate process under
the workload's own server configuration; the snapshot is removed
afterwards.  The last line of stdout is the JSON result; build output and
diagnostics go to stderr.  See brelbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("cold_unique", "warm_repeat", "warm_edit", "parallel_large")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_BUDGET_S = 170  # preparation + run, after the build
BUILD_TIMEOUT_S = 850


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out: Path) -> Path:
    """Configure and build; returns the benchmark binary."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "brel_bench"


def clean_env() -> dict:
    """The benchmark fixes the engine configuration itself."""
    env = dict(os.environ)
    for name in ("BREL_INCREMENTAL", "BREL_REORDER"):
        env.pop(name, None)
    return env


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request counts (the self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    env = clean_env()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    snapshot = out / "tmp" / f"{tag}.snap"
    command = [str(binary), "run", *common, "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{tag}.jsonl")]
    try:
        if args.workload.startswith("warm_"):
            snapshot.parent.mkdir(parents=True, exist_ok=True)
            command += ["--snapshot", str(snapshot)]
            subprocess.run([str(binary), "prepare", *common, "--snapshot",
                            str(snapshot)], check=True, stdout=sys.stderr,
                           env=env, timeout=deadline - time.monotonic())
        return subprocess.run(command, env=env,
                              timeout=deadline - time.monotonic()).returncode
    except (subprocess.SubprocessError, OSError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        snapshot.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
