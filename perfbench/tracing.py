"""In-process span tracing around the public calls into each layer.

The traced run rebinds module attributes the program looks up at call
time, records one span per call (name, start, end, parent, window id and a
few counts read off the call's arguments and result), keeps every span in
memory and derives per-layer metrics from them afterwards. Untraced runs
never install it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np

from mcftrack import colgen, tracker

# (module, attribute) pairs rebound while tracing; span name = attribute.
TRACED = (
    (tracker, "build_network"),
    (tracker, "assemble_cost_vector"),
    (tracker, "column_generation"),
    (tracker, "build_triplets"),
    (tracker, "update_model"),
    (colgen, "solve_lp"),
    (colgen, "price"),
    (colgen, "extract_integer"),
)


def _lp_counts(args, result) -> dict:
    prob = args[0]
    ub_rows = prob.a_ub.shape[0]
    return {
        "rows": ub_rows + prob.a_eq.shape[0],
        "cols": prob.num_cols,
        "ub_rows": ub_rows,
        "touched_rows": int(np.count_nonzero(prob.a_ub.any(axis=1))),
        "pivots": result.iterations,
    }


def _cg_counts(args, result) -> dict:
    net = args[0]
    return {
        "iterations": result.iterations,
        "pool": len(result.columns),
        "status": result.status,
        "epsilon": result.epsilon,
        "detections": len(net.detections),
        "shared_edges": net.num_shared,
        "commodities": len(net.demands),
    }


def _cost_counts(args, result) -> dict:
    net, k = args[0], args[1]
    owner = net.owner
    return {
        "entries": len(result.values),
        "inert": int(np.count_nonzero((owner >= 0) & (owner != k))),
    }


COUNTS: dict[str, Callable] = {
    "solve_lp": _lp_counts,
    "column_generation": _cg_counts,
    "assemble_cost_vector": _cost_counts,
    "build_triplets": lambda args, result: {"triplets": sum(len(t) for t in result.values())},
}


class Tracer:
    """Span recorder; spans are [id, name, start, end, parent, window, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.window = ""
        self._stack: list[int] = []
        self._patches = [
            (mod, attr, getattr(mod, attr), self.wrap(attr, getattr(mod, attr)))
            for mod, attr in TRACED
        ]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, recording a span named `name` around each call."""
        spans, stack, counts = self.spans, self._stack, COUNTS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, name, 0.0, 0.0, stack[-1] if stack else None, self.window, None]
            spans.append(span)
            stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[6] = counts(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every TRACED callable for the duration of the block."""
        try:
            for mod, attr, _, traced in self._patches:
                setattr(mod, attr, traced)
            yield self
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, name, start, end, parent, window, counts in self.spans:
                rec = {"id": sid, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "window": window}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


# Self time of each span lands in exactly one bucket, so the buckets sum to
# the root spans' total. solve_lp under extract_integer is a B&B node.
BUCKETS = {
    "step": "tracker",
    "build_network": "graph",
    "assemble_cost_vector": "costs",
    "column_generation": "colgen",
    "extract_integer": "colgen",
    "price": "price",
    "build_triplets": "simlearn",
    "update_model": "simlearn",
}


def layer_metrics(spans: list[list], untraced_s: float, traced_s: float) -> tuple[dict, dict]:
    """(per-layer metrics, self-time shares by bucket) from one traced pass."""
    dur = [s[3] - s[2] for s in spans]
    child_s = [0.0] * len(spans)
    children = defaultdict(Counter)
    for s in spans:
        if s[4] is not None:
            child_s[s[4]] += dur[s[0]]
            children[s[4]][s[1]] += 1
    self_s = [d - c for d, c in zip(dur, child_s)]

    ms = Counter()  # per span kind, self time in ms
    incl_ms = Counter()  # per span kind, inclusive time in ms
    bucket_ms = Counter()
    roots_ms = 0.0
    master, bb, cg, costs = [], [], [], []
    triplets = 0
    for s in spans:
        sid, name, parent = s[0], s[1], s[4]
        kind = name
        if name == "solve_lp":
            kind = "bb" if spans[parent][1] == "extract_integer" else "master"
            (bb if kind == "bb" else master).append(s[6])
        elif name == "column_generation":
            cg.append(s[6])
        elif name == "assemble_cost_vector":
            costs.append(s[6])
        elif name == "build_triplets":
            triplets += s[6]["triplets"]
        ms[kind] += self_s[sid] * 1e3
        incl_ms[kind] += dur[sid] * 1e3
        bucket_ms[BUCKETS.get(name, "lp" if kind == "master" else "bb")] += self_s[sid] * 1e3
        if parent is None:
            roots_ms += dur[sid] * 1e3

    def mean(rows, key):
        return float(np.mean([r[key] for r in rows])) if rows else 0.0

    ub_rows = sum(r["ub_rows"] for r in master)
    entries = sum(r["entries"] for r in costs)
    roots = [s for s in spans if s[4] is None]
    metrics = {
        "lp.master_ms": (ms["master"], "ms"),
        "lp.master_calls": (len(master), "count"),
        "lp.master_pivots": (sum(r["pivots"] for r in master), "count"),
        "lp.rows_mean": (mean(master, "rows"), "count"),
        "lp.cols_mean": (mean(master, "cols"), "count"),
        "lp.touched_row_share": (
            sum(r["touched_rows"] for r in master) / ub_rows if ub_rows else 0.0, "share"),
        "lp.bb_ms": (ms["bb"], "ms"),
        "lp.bb_nodes": (len(bb), "count"),
        "colgen.extract_ms": (incl_ms["extract_integer"], "ms"),
        "colgen.enrich_windows": (
            sum(1 for s in spans if s[1] == "column_generation"
                and children[s[0]]["extract_integer"] >= 2), "count"),
        "colgen.iterations_mean": (mean(cg, "iterations"), "count"),
        "colgen.pool_size_mean": (mean(cg, "pool"), "count"),
        "colgen.iteration_limit_windows": (
            sum(1 for r in cg if r["status"] == "iteration-limit"), "count"),
        "colgen.epsilon_sum": (float(sum(r["epsilon"] for r in cg)), "cost"),
        "colgen.self_ms": (ms["column_generation"], "ms"),
        "colgen.price_ms": (ms["price"], "ms"),
        "colgen.price_calls": (sum(1 for s in spans if s[1] == "price"), "count"),
        "costs.assemble_ms": (ms["assemble_cost_vector"], "ms"),
        "costs.entries": (entries, "count"),
        "costs.inert_share": (
            sum(r["inert"] for r in costs) / entries if entries else 0.0, "share"),
        "graph.build_ms": (ms["build_network"], "ms"),
        "graph.detections_mean": (mean(cg, "detections"), "count"),
        "graph.shared_edges_mean": (mean(cg, "shared_edges"), "count"),
        "graph.commodities_mean": (mean(cg, "commodities"), "count"),
        "simlearn.update_ms": (ms["update_model"], "ms"),
        "simlearn.triplets_ms": (ms["build_triplets"], "ms"),
        "simlearn.triplets": (triplets, "count"),
        "tracker.self_ms": (ms["step"], "ms"),
        "trace.overhead_share": (traced_s / untraced_s - 1.0, "share"),
        "trace.window_max_ms": (max((dur[s[0]] for s in roots), default=0.0) * 1e3, "ms"),
    }
    for bucket in ("lp", "bb", "price", "colgen", "costs", "graph", "simlearn", "tracker"):
        metrics[f"share.{bucket}"] = (bucket_ms[bucket] / roots_ms if roots_ms else 0.0, "share")
    return metrics, {"roots_ms": roots_ms, "buckets_ms": dict(bucket_ms)}
