"""Output checks, derived from raw arrays rather than from solver helpers.

Each function returns a list of problems; an empty list means the output
passed. Nothing here imports from the repository's tests.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from mcftrack import EdgeKind

CERT_TOL = 1e-9  # epsilon >= -tol and v_lp <= v_int + tol
PROVEN_TOL = 1e-9  # a window with epsilon <= this is proven optimal
COST_RTOL = 1e-9


def certificate_problems(v_lp: float, v_int: float, epsilon: float) -> list[str]:
    if not all(math.isfinite(v) for v in (v_lp, v_int, epsilon)):
        return [f"non-finite certificate v_lp={v_lp!r} v_int={v_int!r} epsilon={epsilon!r}"]
    problems = []
    if epsilon < -CERT_TOL:
        problems.append(f"negative epsilon {epsilon!r}")
    if v_lp > v_int + CERT_TOL:
        problems.append(f"v_lp {v_lp!r} above v_int {v_int!r}")
    if abs(epsilon - (v_int - v_lp)) > COST_RTOL * (1.0 + abs(v_int)):
        problems.append(f"epsilon {epsilon!r} is not v_int - v_lp")
    return problems


def selection_problems(network, vectors, result) -> list[str]:
    """Re-derive flow feasibility and cost of a CGResult selection.

    Every selected column must be a source-sink path of its commodity over
    edges it may use; units must meet each demand; shared edges carry at
    most one unit over all commodities; flows and v_int must match.
    """
    tail, head, owner = network.tail, network.head, network.owner
    ns = network.num_shared
    num_det = len(network.detections)
    usage = np.zeros(ns, dtype=np.int64)
    problems = []
    total = 0.0
    if len(result.selection) != len(network.demands):
        return [f"{len(result.selection)} selection groups for {len(network.demands)} commodities"]
    for k, group in enumerate(result.selection):
        source = 2 * num_det + 2 * k
        sink = source + 1
        values = np.asarray(vectors[k].values)
        flow = np.zeros(len(tail), dtype=np.int64)
        carried = 0
        for col, units in group:
            edges = list(col.edges)
            if col.commodity != k or units < 1 or not edges:
                problems.append(f"commodity {k}: malformed entry ({col.commodity}, {units}, {edges})")
                continue
            if int(tail[edges[0]]) != source or int(head[edges[-1]]) != sink:
                problems.append(f"commodity {k}: path does not run source to sink")
            if any(int(head[a]) != int(tail[b]) for a, b in zip(edges, edges[1:])):
                problems.append(f"commodity {k}: path is not contiguous")
            if any(int(owner[e]) not in (-1, k) for e in edges):
                problems.append(f"commodity {k}: path uses another commodity's edge")
            cost = float(values[edges].sum())
            if abs(cost - col.cost) > COST_RTOL * (1.0 + abs(cost)):
                problems.append(f"commodity {k}: column cost {col.cost!r}, edges sum to {cost!r}")
            for e in edges:
                flow[e] += units
                if e < ns:
                    usage[e] += units
            carried += units
            total += units * cost
        if carried != int(network.demands[k]):
            problems.append(f"commodity {k}: carries {carried}, demand {int(network.demands[k])}")
        if not np.array_equal(flow, np.asarray(result.flows[k])):
            problems.append(f"commodity {k}: reported flows differ from the selection")
    over = np.flatnonzero(usage > 1)
    if over.size:
        problems.append(f"{over.size} shared edges over unit capacity (edge {int(over[0])})")
    if abs(total - result.v_int) > COST_RTOL * (1.0 + abs(total)):
        problems.append(f"v_int {result.v_int!r}, selection costs {total!r}")
    return problems


def selection_tracks(network, result) -> dict[int, dict[int, tuple]]:
    """Hypothesis tracks of a window selection: one per path with detections."""
    kind, det_a = network.kind, network.det_a
    tracks = {}
    for group in result.selection:
        for col, _ in group:
            dets = [
                network.detections[int(det_a[e])]
                for e in col.edges
                if kind[e] == EdgeKind.OBSERVATION
            ]
            if dets:
                tracks[len(tracks) + 1] = {d.frame: d.box for d in dets}
    return tracks


def commit_problems(records, dets_by_frame) -> list[tuple[int, str]]:
    """A committed box must be a detection of its frame, used by one track once."""
    boxes = {f: [d.box for d in dets] for f, dets in dets_by_frame.items()}
    owners: dict[tuple, set] = defaultdict(set)
    seen = set()
    problems = []
    for rec in records:
        if rec.box not in boxes.get(rec.frame, ()):
            problems.append((rec.frame, f"track {rec.track_id} commits a box that is no detection"))
        if (rec.frame, rec.track_id) in seen:
            problems.append((rec.frame, f"track {rec.track_id} commits twice"))
        seen.add((rec.frame, rec.track_id))
        owners[(rec.frame, rec.box)].add(rec.track_id)
    for (frame, _), ids in sorted(owners.items(), key=lambda kv: kv[0][0]):
        if len(ids) > 1:
            problems.append((frame, f"one detection committed to tracks {sorted(ids)}"))
    return problems
