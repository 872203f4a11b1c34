"""Shared test utilities: generators and independent verification oracles.

Nothing in here reuses solver internals. The flow checker re-derives every
constraint from the raw edge arrays, and the LP oracle enumerates basic
solutions of the standard form directly, so agreement between these and the
package is meaningful evidence.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from mcftrack.costs import CostVector
from mcftrack.graph import Detection, GatingConfig, build_network
from mcftrack.lp import LPProblem


def unit_feature(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        v = np.zeros(dim)
        v[0] = 1.0
        return v
    return v / n


def make_det(det_id: int, frame: int, box, score: float = 0.5,
             feature: np.ndarray | None = None, dim: int = 4) -> Detection:
    if feature is None:
        feature = np.zeros(dim)
        feature[det_id % dim] = 1.0
    return Detection(det_id=det_id, frame=frame, box=tuple(float(x) for x in box),
                     score=float(score), feature=np.asarray(feature, dtype=np.float64))


class _FakeTrack:
    """Minimal TrackLike stand-in for cost assembly in tests."""

    def __init__(self, box, frame, feature, dim=4, velocity=(0.0, 0.0)):
        from mcftrack.simlearn import SimilarityModel

        self.last_box = tuple(float(x) for x in box)
        self.last_frame = int(frame)
        self.velocity = tuple(float(v) for v in velocity)
        f = np.asarray(feature, dtype=np.float64)
        self.template = f / np.linalg.norm(f)
        self.model = SimilarityModel.identity(dim)


def fake_track(box, frame, feature=None, dim=4, velocity=(0.0, 0.0)) -> _FakeTrack:
    if feature is None:
        feature = np.zeros(dim)
        feature[0] = 1.0
    return _FakeTrack(box, frame, feature, dim=dim, velocity=velocity)


def reference_transitions(detections, gating: GatingConfig) -> list[tuple[int, int]]:
    """Transition gating as a scalar loop over pairs: the reference rule.

    (i, j) is admitted when 1 <= frame_j - frame_i <= max_gap and
    hypot(dx, dy) <= gamma * gap * 0.5 * (diag_i + diag_j).
    """
    for a, b in zip(detections, detections[1:]):
        if b.frame < a.frame:
            raise ValueError("detections must be sorted by frame")
    pairs: list[tuple[int, int]] = []
    for i, di in enumerate(detections):
        ci = di.center
        for j in range(i + 1, len(detections)):
            dj = detections[j]
            gap = dj.frame - di.frame
            if gap < 1:
                continue
            if gap > gating.max_gap:
                break  # frame-sorted: later j only grows the gap
            cj = dj.center
            reach = gating.gamma * gap * 0.5 * (di.diagonal + dj.diagonal)
            if math.hypot(cj[0] - ci[0], cj[1] - ci[1]) <= reach:
                pairs.append((i, j))
    return pairs


# ---------------------------------------------------------------------------
# Random solver instances (network + direct random costs).
# ---------------------------------------------------------------------------

def random_instance(seed: int, max_dets: int = 8, max_frames: int = 4,
                    max_tracked: int = 3, d0_max: int = 3,
                    oracle_budget: int | None = 200_000):
    """A small random network with per-commodity random cost arrays.

    Costs are drawn directly rather than through the appearance model so the
    solver sees adversarial sign patterns. When ``oracle_budget`` is set,
    resamples until the brute-force combination count fits the budget, so
    the exhaustive oracle never refuses. Each commodity's costs are drawn
    over every edge id, which fixes the random stream that seeded tests
    rely on, then cut to the edges it can use (its CostVector layout).
    Returns (network, cost_arrays).
    """
    rng = np.random.default_rng(seed)
    while True:
        n_frames = int(rng.integers(1, max_frames + 1))
        n_dets = int(rng.integers(1, max_dets + 1))
        tracked = int(rng.integers(0, max_tracked + 1))
        d0 = int(rng.integers(1, d0_max + 1))

        dets = []
        for i in range(n_dets):
            frame = int(rng.integers(1, n_frames + 1))
            cx = 50.0 + 12.0 * frame + rng.uniform(-40, 40)
            cy = 50.0 + rng.uniform(-40, 40)
            w = rng.uniform(18, 30)
            h = rng.uniform(18, 30)
            dets.append(make_det(i, frame, (cx - w / 2, cy - h / 2, w, h),
                                 score=float(rng.uniform(0, 1)),
                                 feature=unit_feature(rng, 4)))
        dets.sort(key=lambda d: (d.frame, d.det_id))
        dets = [make_det(i, d.frame, d.box, d.score, np.asarray(d.feature))
                for i, d in enumerate(dets)]

        demands = [d0] + [1] * tracked
        net = build_network(dets, [object()] * tracked, demands,
                            GatingConfig(max_gap=3, gamma=2.0))
        if oracle_budget is not None and _combo_count(net) > oracle_budget:
            continue

        costs = []
        for k in range(net.num_commodities):
            vals = rng.uniform(-2.0, 1.0, size=net.num_edges)
            # keep bypasses non-negative so "do nothing" is never a free lunch
            for kk in range(net.num_commodities):
                vals[net.bypass_edge(kk)] = rng.uniform(0.0, 3.0)
            costs.append(vals[np.isin(net.owner, (-1, k))])
        return net, costs


def _combo_count(net) -> int:
    """Mirror of the brute-force oracle's pre-search combination guard."""
    from mcftrack.oracle import enumerate_paths

    total = 1
    for k in range(net.num_commodities):
        n_paths = len(enumerate_paths(net, k, limit=500_000))
        if k == 0:
            p = n_paths - 1
            d0 = int(net.demands[0])
            total *= sum(math.comb(p, s) for s in range(min(d0, p) + 1))
        else:
            total *= n_paths
        if total > 10**9:
            return total
    return total


def wrap_cost_vectors(net, cost_arrays) -> list[CostVector]:
    return [CostVector(k, cost_arrays[k]) for k in range(net.num_commodities)]


# ---------------------------------------------------------------------------
# Independent flow-constraint checker.
# ---------------------------------------------------------------------------

def check_flow_constraints(net, selection, atol: float = 1e-9) -> None:
    """Assert integrality, path validity, conservation, coupling, demand.

    ``selection`` is CGResult.selection: per commodity, a list of
    (PathColumn, units) pairs. Every check recomputes from raw arrays.
    """
    assert len(selection) == net.num_commodities
    shared = [e for e in range(net.num_edges) if net.is_shared(e)]
    shared_total = np.zeros(net.num_edges)

    for k, picks in enumerate(selection):
        units_sum = 0
        flow = np.zeros(net.num_edges)
        for col, units in picks:
            edges = tuple(col.edges) if hasattr(col, "edges") else tuple(col)
            u = int(round(float(units)))
            assert abs(float(units) - u) <= atol, f"non-integral units {units}"
            assert u >= 1
            units_sum += u
            # the edge list must chain source -> sink
            assert net.tail[edges[0]] == net.source(k)
            assert net.head[edges[-1]] == net.sink(k)
            for a, b in zip(edges, edges[1:]):
                assert net.head[a] == net.tail[b], "broken path chain"
            assert len(set(edges)) == len(edges), "repeated edge in one path"
            for e in edges:
                flow[e] += u
        assert units_sum == int(net.demands[k]), (
            f"commodity {k} demand {net.demands[k]} got {units_sum}")

        # conservation at every node, recomputed from edge flows
        balance = np.zeros(net.num_nodes)
        for e in range(net.num_edges):
            if flow[e]:
                balance[net.tail[e]] -= flow[e]
                balance[net.head[e]] += flow[e]
        for node in range(net.num_nodes):
            expect = 0.0
            if node == net.source(k):
                expect = -float(net.demands[k])
            elif node == net.sink(k):
                expect = float(net.demands[k])
            assert abs(balance[node] - expect) <= atol, (
                f"conservation broken at node {node} commodity {k}")

        shared_total += flow

    for e in shared:
        f = shared_total[e]
        assert abs(f - round(f)) <= atol
        assert round(f) <= 1, f"shared edge {e} carries {f} > 1"


# ---------------------------------------------------------------------------
# Vertex-enumeration LP oracle.
# ---------------------------------------------------------------------------

def vertex_lp_oracle(problem: LPProblem, comb_cap: int = 200_000):
    """Optimal value by enumerating basic solutions of the standard form.

    Returns the minimum objective over feasible bases, or None when no
    feasible basis exists. Raises ValueError when the basis count would
    exceed ``comb_cap``; generators below stay under it by construction.
    """
    c = np.asarray(problem.obj, dtype=np.float64)
    a_ub = np.asarray(problem.a_ub, dtype=np.float64).reshape(-1, c.size)
    b_ub = np.asarray(problem.b_ub, dtype=np.float64).reshape(-1)
    a_eq = np.asarray(problem.a_eq, dtype=np.float64).reshape(-1, c.size)
    b_eq = np.asarray(problem.b_eq, dtype=np.float64).reshape(-1)
    mi, me, n = b_ub.size, b_eq.size, c.size
    m = mi + me
    if m == 0:
        return 0.0

    top = np.hstack([a_ub, np.eye(mi)]) if mi else np.zeros((0, n))
    bot = np.hstack([a_eq, np.zeros((me, mi))]) if me else np.zeros((0, n + mi))
    big_a = np.vstack([top, bot])
    big_b = np.concatenate([b_ub, b_eq])
    big_c = np.concatenate([c, np.zeros(mi)])
    total = n + mi

    n_comb = math.comb(total, m)
    if n_comb > comb_cap:
        raise ValueError(f"basis count {n_comb} exceeds cap {comb_cap}")

    idx = np.array(list(combinations(range(total), m)), dtype=np.int64)
    mats = big_a[:, idx]            # (m, num, m)
    mats = np.transpose(mats, (1, 0, 2))
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-9
    if not ok.any():
        return None
    rhs = np.broadcast_to(big_b[:, None], (m, 1))
    sols = np.linalg.solve(mats[ok], np.broadcast_to(rhs, (int(ok.sum()), m, 1)))[:, :, 0]
    resid = np.einsum("nij,nj->ni", mats[ok], sols) - big_b
    good = np.abs(resid).max(axis=1) <= 1e-7
    feas = (sols >= -1e-8).all(axis=1) & good
    if not feas.any():
        return None
    vals = (big_c[idx[ok]] * sols).sum(axis=1)
    return float(vals[feas].min())


def random_lp(seed: int, comb_cap: int = 200_000) -> LPProblem:
    """RMLP-shaped random LP: coupling rows b=1, convexity rows, x >= 0.

    Feasible by construction: every convexity row owns one column with an
    empty coupling footprint. Sizes stay within the oracle's basis cap.
    """
    rng = np.random.default_rng(seed)
    while True:
        n_cols = int(rng.integers(2, 21))
        mi = int(rng.integers(0, 6))
        me = int(rng.integers(1, min(5, n_cols) + 1))
        if mi + me > 10 or n_cols + mi < mi + me:
            continue
        if math.comb(n_cols + mi, mi + me) <= comb_cap:
            break

    owner = np.zeros(n_cols, dtype=int)
    owner[:me] = np.arange(me)           # guaranteed bypass-like columns
    if n_cols > me:
        owner[me:] = rng.integers(0, me, size=n_cols - me)

    a_ub = np.zeros((mi, n_cols))
    for j in range(me, n_cols):
        if mi:
            mask = rng.random(mi) < 0.35
            a_ub[mask, j] = 1.0
    b_ub = np.ones(mi)
    a_eq = np.zeros((me, n_cols))
    for j in range(n_cols):
        a_eq[owner[j], j] = 1.0
    b_eq = rng.integers(1, 4, size=me).astype(float)
    obj = rng.uniform(-5.0, 5.0, size=n_cols)
    return LPProblem(obj=obj, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def master_lp(seed: int, rows: int = 60, cols: int = 200, commodities: int = 8,
              frames: int = 6, d0: int = 3) -> LPProblem:
    """A restricted master at the scale of a real window: coupling rows are
    detections (b = 1), one convexity row per commodity, and every column is
    a path taking at most one detection per frame.

    Columns 0..commodities-1 are the bypasses (empty footprint, positive
    cost); the last commodity is the dummy with demand d0, the others have
    demand 1. Path costs are negative, roughly in proportion to length, so
    many paths compete for the same detections.
    """
    rng = np.random.default_rng(seed)
    frame_of = np.arange(rows) % frames
    a_ub = np.zeros((rows, cols))
    a_eq = np.zeros((commodities, cols))
    obj = np.empty(cols)
    a_eq[np.arange(commodities), np.arange(commodities)] = 1.0
    obj[:commodities] = 12.0
    for j in range(commodities, cols):
        a_eq[int(rng.integers(0, commodities)), j] = 1.0
        first = int(rng.integers(0, frames))
        last = int(rng.integers(first, frames))
        for f in range(first, last + 1):
            a_ub[int(rng.choice(np.flatnonzero(frame_of == f))), j] = 1.0
        obj[j] = -float(rng.uniform(1.0, 4.0)) * (last - first + 1) + float(rng.uniform(0.0, 2.0))
    b_eq = np.ones(commodities)
    b_eq[-1] = float(d0)
    return LPProblem(obj=obj, a_ub=a_ub, b_ub=np.ones(rows), a_eq=a_eq, b_eq=b_eq)


def stacked(prob: LPProblem) -> np.ndarray:
    """[slacks | structural columns] over [coupling rows; convexity rows]."""
    mi, me = prob.a_ub.shape[0], prob.a_eq.shape[0]
    M = np.zeros((mi + me, mi + prob.num_cols))
    M[:mi, :mi] = np.eye(mi)
    M[:mi, mi:] = prob.a_ub
    M[mi:, mi:] = prob.a_eq
    return M
