#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 brelbench/selftest.py

Runs every workload of BENCHMARK.json, and the diagnostic warm_repeat
workload, at a tiny request count (--smoke), untraced and traced, and
asserts that each run exits 0, reports correct=true with no failed
request, and emits exactly the metrics that BENCHMARK.json names for that
mode, each with its unit.  Takes under a minute once the benchmark is
built.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec: dict, workload: str, trace: str) -> list:
    result = subprocess.run(
        [sys.executable, str(ROOT / "brelbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", trace,
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} trace={trace}"
    if result.returncode != 0:
        return [f"{where}: exit {result.returncode}\n{result.stderr[-2000:]}"]
    lines = result.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last stdout line is not JSON"]
    errors = []
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(line)}")
    if line.get("correct") is not True or line.get("failed") != 0:
        errors.append(f"{where}: correct={line.get('correct')} "
                      f"failed={line.get('failed')}\n{result.stderr[-2000:]}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        errors.append(f"{where}: attempted={line.get('attempted')}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = {name: m.get("unit") for name, m in line.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, units "
                      f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    for name, m in line.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    if trace == "1" and line.get("metrics", {}).get("fail_frac", {}).get("value") != 0:
        errors.append(f"{where}: fail_frac is not 0")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    workloads = [w["name"] for w in spec["workloads"]] + ["warm_repeat"]
    for workload in workloads:
        for trace in ("0", "1"):
            found = check(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
