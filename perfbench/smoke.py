#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes well under a minute.

    python3 perfbench/smoke.py

It runs every workload at the tiny size with tracing off and on, and
checks that each run prints every metric with its unit and ends in a
result line whose metrics and units match BENCHMARK.json. It shows that a
selection with a corrupted capacity fails the output check, and that the
command fails without printing a result in a directory that holds only
the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int) -> None:
    import run

    label = f"{workload} trace {trace}"
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, f"{label}: no output")
        return
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in spec} if trace else run.END_TO_END
    for name, unit in wanted.items():
        expect(printed.get(name) == unit, f"{label}: metric {name} not printed with unit {unit}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct/attempted/failed {result['correct']}/{result['attempted']}/{result['failed']}")
    expect({k: v["unit"] for k, v in result["metrics"].items()}
           == {m["name"]: m["unit"] for m in spec},
           f"{label}: result metrics differ from BENCHMARK.json")


def check_corrupted_capacity() -> None:
    import run

    run.bootstrap()
    import checks
    import mcftrack
    import workloads

    wl = workloads.WORKLOADS["births"]
    inst = workloads.make_inputs(wl, 3, tiny=True)[0]
    res = mcftrack.column_generation(inst.network, inst.vectors)
    expect(checks.selection_problems(inst.network, inst.vectors, res) == [],
           "births: a solver selection fails the output check")
    # Route one more unit over a selected detection path and one fewer over
    # the bypass: demand still holds, but shared edges now carry two units.
    sel = list(res.selection[0])
    path = next(i for i, (col, _) in enumerate(sel) if len(col.edges) > 1)
    bypass = next(i for i, (col, _) in enumerate(sel) if len(col.edges) == 1)
    col, units = sel[path]
    sel[path] = (col, units + 1)
    col, units = sel[bypass]
    sel[bypass] = (col, units - 1)
    sel = [entry for entry in sel if entry[1] > 0]
    corrupted = dataclasses.replace(res, selection=[sel])
    problems = checks.selection_problems(inst.network, inst.vectors, corrupted)
    expect(any("over unit capacity" in p for p in problems),
           f"births: corrupted capacity passes the output check ({problems})")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench-out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        for src in (ROOT / path).glob("*.py"):
            shutil.copy(src, bare / path)
    proc = run_bench(bare, "--workload", "contested", "--seed", "3", "--seconds", "1",
                     "--trace", "0")
    expect(proc.returncode != 0, "bare directory: the command succeeded")
    expect(not any(line.startswith("{") for line in proc.stdout.splitlines()),
           "bare directory: a result was printed")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(HERE))
    for workload in ("contested", "wide", "births"):
        for trace in (0, 1):
            check_run(workload, trace)
    check_corrupted_capacity()
    check_bare_directory()
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
