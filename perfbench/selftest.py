"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload at ``--scale tiny`` with ``--trace 0`` and
``--trace 1`` and checks that each prints, as its last line, the result
object with every metric ``BENCHMARK.json`` names, in that metric's
unit, and nothing else.  It also checks that the benchmark refuses to
run, without printing a result, where the program's sources are absent.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(wanted) | set(got)):
        if name not in got:
            errors.append(f"{where}: metric {name} missing")
        elif name not in wanted:
            errors.append(f"{where}: metric {name} is not in BENCHMARK.json")
        elif got[name]["unit"] != wanted[name]:
            errors.append(f"{where}: {name} in {got[name]['unit']}, BENCHMARK.json says {wanted[name]}")
        elif not isinstance(got[name]["value"], (int, float)) or not math.isfinite(got[name]["value"]):
            errors.append(f"{where}: {name} = {got[name]['value']!r}")
    return errors


def check_refuses_without_sources() -> list[str]:
    bare = HERE / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run(bare, "reference", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            errors += check_result(workload, trace, spec)
            print(f"checked {workload} --trace {trace}", file=sys.stderr)
    errors += check_refuses_without_sources()
    for e in errors:
        print("FAIL", e, file=sys.stderr)
    print("selftest", "failed" if errors else "passed", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
