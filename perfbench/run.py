#!/usr/bin/env python3
"""mcftrack benchmark: seeded workloads, checked outputs, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 3 --seconds 55 --trace 0

Workloads are `contested`, `wide` and `births` (see workloads.py for the
scenes and why each was chosen). The program is imported from this
checkout's `src/` and nowhere else; without it the command fails.

--trace 0 repeats passes over the workload's inputs for about --seconds
seconds (at least two passes) with tracing off and reports the end-to-end
metrics, each window timed by its median pass. Times are reported at the
nominal machine speed of calibrate.py: each window (and each set-up round)
is scaled by calibrate.REFERENCE_MS over the fixed reference work's time
sampled beside it, so that the host's drift in speed over minutes does not
read as a change of the program. The unscaled figures are printed on a
comment line and kept in the results file.

--trace 1 makes one pass, whatever --seconds says, in which every window
runs untraced and then traced; it writes the spans next to the results and
reports per-layer metrics. Either way every output is checked; a failed check makes
`correct` false and the exit code 1.

Results, with the workload context and environment, go to
`.perfbench-out/<workload>-seed<seed>-trace<0|1>.json` under the root.
"""

from __future__ import annotations

import os

# One BLAS thread: the master LPs are small dense matrices that gain nothing
# from a second thread and lose badly when other processes share the cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_ROUNDS = 3
MIN_PASSES = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mcftrack; "
    "print(time.perf_counter() - t)"
)

# name -> unit, in print order. BENCHMARK.json's end_to_end lists all but
# failed_share (the result line's failed/attempted carry it) and ids (often 0).
END_TO_END = {
    "windows_per_s": "1/s",
    "window_p50_ms": "ms",
    "window_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "share",
    "proven_share": "share",
    "v_int_sum": "cost",
    "mota": "score",
    "ids": "count",
}
NOT_IN_RESULT_LINE = ("failed_share", "ids")


def bootstrap() -> None:
    """Put this checkout's src/ first on the path and insist on using it."""
    pkg = SRC / "mcftrack"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no mcftrack sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import mcftrack

    if Path(mcftrack.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported mcftrack from {mcftrack.__file__}, not {pkg}")


def import_probe_s() -> float:
    """Import time of mcftrack in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception as exc:  # build info is best effort
            return f"unknown ({type(exc).__name__})"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup(workloads, wl, seed: int, tiny: bool):
    """Build the inputs SETUP_ROUNDS times.

    Returns (inputs, round times in s, reference time beside each round in ms).
    """
    rounds, references = [], []
    inputs = None
    for _ in range(SETUP_ROUNDS):
        before = calibrate.sample_ms()
        imported = import_probe_s()
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(wl, seed, tiny)
        rounds.append(imported + time.perf_counter() - t0)
        references.append((before + calibrate.sample_ms()) / 2)
    return inputs, rounds, references


def percentile(values, q: float) -> float:
    return float(numpy.percentile(values, q)) if values else 0.0


def determinism_problems(first, other, label: str) -> list[str]:
    if other.v_int != first.v_int:
        return [f"{label}: per-window v_int differs from the first pass"]
    return []


def timed_run(workloads, wl, inputs, seconds: float, setup_rounds, setup_refs) -> tuple[dict, dict]:
    """Repeat passes over the inputs for about `seconds`, at least MIN_PASSES.

    Each window's time is scaled to nominal speed by the reference sample
    taken just before it. Every pass solves the same windows, so each
    window's latency is its median over the passes and the loop time is that
    of the median pass: a burst of load from other tenants of the machine,
    or a lull, moves fewer than half of the passes.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workloads.run_pass(wl, inputs, calibrate.sample_ms))
        took = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() - begin + took > seconds:
            break
    first = passes[0]
    problems = list(first.problems)
    for i, later in enumerate(passes[1:], start=2):
        problems += later.problems + determinism_problems(first, later, f"pass {i}")
    setup_scales = [calibrate.REFERENCE_MS / r for r in setup_refs]

    def window_stats(per_pass):
        """(windows per s, p50 ms, p90 ms) from each pass's window times in s."""
        if len({len(w) for w in per_pass}) == 1:
            window_ms = list(numpy.median(per_pass, axis=0) * 1e3)
        else:  # passes diverged (reported above); pool what was timed
            window_ms = [s * 1e3 for w in per_pass for s in w]
        loop_s = statistics.median(float(numpy.sum(w)) for w in per_pass)
        return (first.solved / loop_s if loop_s > 0 else 0.0,
                percentile(window_ms, 50), percentile(window_ms, 90))

    raw = [numpy.asarray(p.window_s) for p in passes]
    per_s, p50, p90 = window_stats(
        [w * calibrate.REFERENCE_MS / numpy.asarray(p.reference_ms) for w, p in zip(raw, passes)])
    raw_per_s, raw_p50, raw_p90 = window_stats(raw)
    attempted = sum(p.scheduled for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "windows_per_s": per_s,
        "window_p50_ms": p50,
        "window_p90_ms": p90,
        "setup_s": statistics.median(t * k for t, k in zip(setup_rounds, setup_scales)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed / attempted if attempted else 1.0,
        "proven_share": first.proven / first.solved if first.solved else 0.0,
        "v_int_sum": float(sum(first.v_int)),
        "mota": first.mota,
        "ids": first.mot["ids"],
    }
    detail = {
        "passes": len(passes),
        "windows_per_pass": first.solved,
        "pass_loop_s": [p.loop_s for p in passes],
        "setup_rounds_s": setup_rounds,
        "reference_nominal_ms": calibrate.REFERENCE_MS,
        "pass_reference_ms": [statistics.median(p.reference_ms) for p in passes if p.reference_ms],
        "setup_reference_ms": setup_refs,
        "unscaled": {
            "windows_per_s": raw_per_s,
            "window_p50_ms": raw_p50,
            "window_p90_ms": raw_p90,
            "setup_s": statistics.median(setup_rounds),
        },
        "mot_counts": dict(first.mot),
    }
    report = _report(passes, problems, attempted, failed, detail)
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, report


def traced_run(workloads, tracing, wl, inputs, stem: str) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    untraced, traced = workloads.run_paired(wl, inputs, tracer)
    spans_path = OUT / f"{stem}-spans.jsonl"
    tracer.write(spans_path)
    metrics, totals = tracing.layer_metrics(tracer.spans, untraced.loop_s, traced.loop_s)
    problems = untraced.problems + traced.problems
    problems += determinism_problems(untraced, traced, "traced pass")
    if abs(sum(totals["buckets_ms"].values()) - totals["roots_ms"]) > 1e-6 * max(totals["roots_ms"], 1.0):
        problems.append("per-layer self times do not add up to the traced window time")
    detail = {
        "spans": len(tracer.spans),
        "spans_file": spans_path.name,
        "untraced_loop_s": untraced.loop_s,
        "traced_loop_s": traced.loop_s,
        **totals,
    }
    report = _report([untraced, traced], problems, traced.scheduled, traced.failed, detail)
    return metrics, report


def _report(passes, problems, attempted, failed, detail) -> dict:
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems[:50],
        "exceptions": dict(sum((p.exceptions for p in passes), Counter())),
        "errors": [e for p in passes for e in p.errors][:50],
        **detail,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("contested", "wide", "births"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: workloads.SEED_DEFAULT)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: a few windows per workload")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import tracing
    import workloads

    if args.seed is None:
        args.seed = workloads.SEED_DEFAULT
    wl = workloads.WORKLOADS[args.workload]
    calibrate.sample_ms()  # warm the reference work before its first sample
    inputs, setup_rounds, setup_refs = setup(workloads, wl, args.seed, args.tiny)
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    if args.trace:
        metrics, report = traced_run(workloads, tracing, wl, inputs, stem)
        shown = metrics
    else:
        metrics, report = timed_run(workloads, wl, inputs, args.seconds, setup_rounds, setup_refs)
        shown = {k: v for k, v in metrics.items() if k not in NOT_IN_RESULT_LINE}
    record = {
        "context": wl.context(args.seed, args.tiny),
        "environment": environment(),
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    if report.get("pass_reference_ms"):
        refs = report["pass_reference_ms"]
        print(f"# times at nominal speed: reference work {statistics.median(refs):.3f} ms "
              f"a round here, {calibrate.REFERENCE_MS} ms nominal; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in report["problems"][:10] + report["errors"][:10]:
        print(f"! {line}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": max(int(report["attempted"]), 1),
        "failed": int(report["failed"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
