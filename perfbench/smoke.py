"""Smoke test of the benchmark: every workload at the tiny scale.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --size tiny`` untraced and traced and
asserts that the last line is the result object, that every metric
BENCHMARK.json names for that mode is emitted with its unit (and no other),
and that the correctness check passed.  It also runs the benchmark in a
directory that holds only BENCHMARK.json and the benchmark's files, where it
must exit non-zero without printing a result.  Exits 1 on the first failed
assertion.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TIMEOUT_S = 180


def check_run(workload: str, trace: int, spec: dict) -> list:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-600:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{label}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{label}: {name} unit {m.get('unit')!r} != {unit!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{label}: {name} value {m.get('value')!r}")
    if not result["correct"]:
        failures = [ln for ln in proc.stdout.splitlines() if ln.startswith("FAILED")]
        problems.append(f"{label}: correctness check failed: {failures}")
    return problems


def check_bare_directory() -> list:
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    base = run.OUT_DIR
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=base))
    try:
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        here = Path(run.__file__).resolve().parent
        shutil.copytree(here, bare / here.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{here.name}/run.py", "--workload",
                               workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
