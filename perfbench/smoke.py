#!/usr/bin/env python3
"""Smoke check of the benchmark itself, one op per window.

    python3 perfbench/smoke.py

From the root of a checkout.  For every workload and both trace modes it
runs ``run.py --max-ops 1`` and checks the result line against
``BENCHMARK.json``: the keys, every metric name and unit, and that the
output checks passed.  It then checks the output check: a recorded DSF
result passes, the same result moved by 1e-12 relative passes, and moved
by 1e-6 relative fails.  Last, it runs the benchmark in a directory that
holds only ``BENCHMARK.json`` and the benchmark, where it must exit non-zero
without a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def fail(message: str) -> None:
    sys.exit(f"smoke: FAIL {message}")


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--max-ops", "1"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False)


def check_schema() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_benchmark(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-400:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{workload} trace {trace}: ops failed: {proc.stdout[-800:]}")
            expected = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got) ^ set(expected))}")
            print(f"smoke: {workload} trace {trace}: ok ({result['attempted']} ops)")
            if trace == 0:
                for name, m in result["metrics"].items():
                    print(f"  {workload} {name} = {m['value']:.6g} {m['unit']}")


def check_output_check() -> None:
    from workloads import Schedule, call, output_mismatch

    command, text, reference = Schedule("observables", 7).op(0)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text(text, encoding="utf-8")
        summary = call(command, config, Path(tmp) / "out")
    if output_mismatch(command, summary, reference) is not None:
        fail(f"recorded {command} output no longer matches its reference")
    for shift, should_pass in ((1e-12, True), (1e-6, False)):
        moved = copy.deepcopy(summary)
        moved["dsf"]["branch_weights"][0] *= 1.0 + shift
        if (output_mismatch(command, moved, reference) is None) != should_pass:
            fail(f"a branch weight moved by {shift:g} relative was "
                 f"{'rejected' if should_pass else 'accepted'}")
    print("smoke: output check: ok")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name)
        proc = run_benchmark(bare, "observables", 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("the benchmark ran without the package")
    print("smoke: bare directory: refused")


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_schema()
    check_output_check()
    check_bare_directory()
    print("smoke: all ok")
