"""Detection graph and multi-commodity flow network construction.

A tracking window is encoded as a directed acyclic graph. Every detection i
contributes a node pair (u_i, v_i) joined by an observation edge; permissible
frame-forward transitions contribute edges (v_i, u_j). Each commodity k
(index 0 is the dummy commodity that carries new objects, 1..K follow the
tracked targets) owns a source s_k with start edges into every u_i, a sink
n_k with termination edges out of every v_i, and one bypass edge (s_k, n_k)
so that its demand is always routable even when no detections are claimed.

Edge ids are stable and contiguous: shared edges first (observation edges in
detection order, then transition edges sorted by (i, j)), followed by one
block of 2N+1 edges per commodity (starts, terminations, bypass). Unit
coupling capacity applies to shared edge ids only; bypass edges are exempt
from the binary flow constraint and may carry a commodity's full demand.
Commodity k's costs cover the shared edges and its own block (cost_index).

Node ids: u_i = 2i, v_i = 2i+1 for detection index i, then s_k = 2N+2k,
n_k = 2N+2k+1, giving 2N + 2(K+1) nodes total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Sequence

import numpy as np

Box = tuple[float, float, float, float]  # x, y, w, h (top-left corner)

FEATURE_NORM_TOL = 1e-9
HYPOT_TIE_RTOL = 1e-12


class EdgeKind(IntEnum):
    OBSERVATION = 0
    TRANSITION = 1
    START = 2
    TERMINATION = 3
    BYPASS = 4


@dataclass(frozen=True)
class Detection:
    """One detector response: frame index, box geometry, score, appearance.

    The box and score must be finite, with a positive size, and the feature
    vector unit-norm; similarity costs assume it.
    """

    det_id: int
    frame: int
    box: Box
    score: float
    feature: np.ndarray

    def __post_init__(self) -> None:
        x, y, w, h = self.box
        if not all(map(math.isfinite, (x, y, w, h, self.score))):
            raise ValueError(f"detection {self.det_id}: non-finite box or score")
        if not (w > 0 and h > 0):
            raise ValueError(f"detection {self.det_id}: nonpositive box size {w}x{h}")
        feat = np.asarray(self.feature, dtype=np.float64)
        if feat.ndim != 1:
            raise ValueError(f"detection {self.det_id}: feature must be 1-D")
        norm = float(np.linalg.norm(feat))
        if not abs(norm - 1.0) <= FEATURE_NORM_TOL:  # a NaN norm fails too
            raise ValueError(
                f"detection {self.det_id}: feature norm {norm!r} not unit within {FEATURE_NORM_TOL}"
            )
        feat.flags.writeable = False
        object.__setattr__(self, "feature", feat)
        object.__setattr__(self, "box", (float(x), float(y), float(w), float(h)))

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return (x + w / 2.0, y + h / 2.0)

    @property
    def diagonal(self) -> float:
        _, _, w, h = self.box
        return math.hypot(w, h)


@dataclass(frozen=True)
class GatingConfig:
    """Transition gating: temporal gap window and spatial reach per gap frame."""

    max_gap: int = 3
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if self.max_gap < 1:
            raise ValueError(f"max_gap must be >= 1, got {self.max_gap}")
        if not self.gamma > 0:  # inf is no spatial gate; NaN would gate out everything
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def permissible_transitions(
    detections: Sequence[Detection], gating: GatingConfig = GatingConfig()
) -> list[tuple[int, int]]:
    """Gated transition pairs (i, j) over detection indices, sorted by (i, j).

    A pair is admitted when 1 <= frame_j - frame_i <= max_gap and the center
    distance is at most gamma * gap * mean box diagonal of the pair. Pairs
    are gated one source frame at a time, against the detections of the
    next max_gap frames only.
    """
    frames, boxes = _detection_arrays(detections)
    if not len(frames):
        return []
    cx = boxes[:, 0] + boxes[:, 2] / 2.0
    cy = boxes[:, 1] + boxes[:, 3] / 2.0
    diag = np.array([d.diagonal for d in detections])
    firsts = np.flatnonzero(np.r_[True, np.diff(frames) != 0])
    ends = np.r_[firsts[1:], len(frames)]
    tops = np.searchsorted(frames, frames[firsts] + gating.max_gap, side="right")
    tails, heads = [], []
    for lo, hi, top in zip(firsts, ends, tops):
        # frame [lo, hi) against [hi, top), row-major: pairs come out sorted
        i = np.repeat(np.arange(lo, hi), top - hi)
        j = np.tile(np.arange(hi, top), hi - lo)
        dx, dy = cx[j] - cx[i], cy[j] - cy[i]
        reach = gating.gamma * (frames[j] - frames[i]) * 0.5 * (diag[i] + diag[j])
        dist = np.hypot(dx, dy)
        keep = dist <= reach
        # np.hypot may round apart from math.hypot: settle near-ties by the latter.
        for p in np.flatnonzero(np.abs(dist - reach) <= HYPOT_TIE_RTOL * reach):
            keep[p] = math.hypot(dx[p], dy[p]) <= reach[p]
        tails.append(i[keep])
        heads.append(j[keep])
    return list(zip(np.concatenate(tails).tolist(), np.concatenate(heads).tolist()))


@dataclass
class FlowNetwork:
    """Window DAG with stable edge ids and per-commodity demands.

    tail/head/kind/owner/det_a/det_b are parallel edge arrays. owner is -1
    for shared edges and the commodity index otherwise. det_a holds the
    detection index of observation/start/termination edges and the
    transition tail; det_b holds the transition head (-1 elsewhere).
    frames (N), boxes (N x 4) and features (N x d) are the detections'
    fields as arrays, in detection order.
    """

    detections: list[Detection]
    transitions: list[tuple[int, int]]
    demands: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    kind: np.ndarray
    owner: np.ndarray
    det_a: np.ndarray
    det_b: np.ndarray
    num_shared: int
    frames: np.ndarray
    boxes: np.ndarray
    features: np.ndarray

    # -- shape ---------------------------------------------------------------

    @property
    def num_detections(self) -> int:
        return len(self.detections)

    @property
    def num_commodities(self) -> int:
        """Commodity count including the dummy (K + 1)."""
        return len(self.demands)

    @property
    def num_tracked(self) -> int:
        return self.num_commodities - 1

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_detections + 2 * self.num_commodities

    @property
    def num_edges(self) -> int:
        return len(self.tail)

    @property
    def cost_size(self) -> int:
        """Length of each commodity's cost vector: the shared edges and one block."""
        return self.num_shared + 2 * self.num_detections + 1

    # -- id arithmetic -------------------------------------------------------

    def u_node(self, i: int) -> int:
        return 2 * i

    def v_node(self, i: int) -> int:
        return 2 * i + 1

    def source(self, k: int) -> int:
        return 2 * self.num_detections + 2 * k

    def sink(self, k: int) -> int:
        return 2 * self.num_detections + 2 * k + 1

    def block_start(self, k: int) -> int:
        """First edge id of commodity k's private block."""
        return self.num_shared + k * (2 * self.num_detections + 1)

    def start_edge(self, k: int, i: int) -> int:
        return self.block_start(k) + i

    def term_edge(self, k: int, i: int) -> int:
        return self.block_start(k) + self.num_detections + i

    def bypass_edge(self, k: int) -> int:
        return self.block_start(k) + 2 * self.num_detections

    def cost_index(self, k: int, e: int) -> int:
        """Position of edge e in commodity k's cost vector (e shared or k's own)."""
        return e if e < self.num_shared else e - k * (2 * self.num_detections + 1)

    # -- traversal -----------------------------------------------------------

    def out_edges(self, node: int, k: int) -> Iterator[int]:
        """Outgoing edge ids at `node` visible to commodity k, ascending."""
        n = self.num_detections
        if node < 2 * n:
            i = node // 2
            if node % 2 == 0:  # u_i: only the observation edge
                yield i
            else:  # v_i: shared transitions, then this commodity's termination
                # transitions are sorted by tail, so i's form one id range
                lo, hi = np.searchsorted(self.det_a[n : self.num_shared], (i, i + 1))
                yield from range(n + lo, n + hi)
                yield self.term_edge(k, i)
        elif node == self.source(k):
            yield from range(self.block_start(k), self.block_start(k) + n)
            yield self.bypass_edge(k)
        # sinks and other commodities' endpoints have no edges for k

    def path_detections(self, edges: Sequence[int]) -> list[int]:
        """Detection indices claimed along a path, in path order."""
        e = np.asarray(edges, dtype=np.intp)
        return self.det_a[e[self.kind[e] == EdgeKind.OBSERVATION]].tolist()

    def is_shared(self, edge: int) -> bool:
        return edge < self.num_shared


def _detection_arrays(detections: Sequence[Detection]) -> tuple[np.ndarray, np.ndarray]:
    """Frames (N) and boxes (N x 4) of frame-sorted detections."""
    frames = np.array([d.frame for d in detections], dtype=np.int64)
    if np.any(np.diff(frames) < 0):
        raise ValueError("detections must be sorted by frame")
    boxes = np.array([d.box for d in detections], dtype=np.float64).reshape(-1, 4)
    return frames, boxes


def network_from_parts(
    detections: Sequence[Detection],
    transitions: Sequence[tuple[int, int]],
    demands: Sequence[int],
) -> FlowNetwork:
    """Assemble a FlowNetwork from explicit transitions (already gated).

    demands has one entry per commodity, dummy first; tracked demands must
    be exactly 1 and the dummy demand nonnegative.
    """
    detections = list(detections)
    frames, boxes = _detection_arrays(detections)
    seen_ids = set()
    for det in detections:
        if det.det_id in seen_ids:
            raise ValueError(f"duplicate det_id {det.det_id}")
        seen_ids.add(det.det_id)

    n = len(detections)
    raw = [(int(i), int(j)) for i, j in transitions]
    trans = sorted(set(raw))
    if len(trans) != len(raw):
        raise ValueError("duplicate transition pairs")
    for i, j in trans:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"transition ({i},{j}) out of range")
        if detections[j].frame <= detections[i].frame:
            raise ValueError(f"transition ({i},{j}) does not advance in frame")

    dem = np.asarray(demands, dtype=np.int64)
    if dem.ndim != 1 or len(dem) < 1:
        raise ValueError("demands must be a nonempty 1-D sequence")
    if dem[0] < 0:
        raise ValueError("dummy demand must be nonnegative")
    if any(int(d) != 1 for d in dem[1:]):
        raise ValueError("tracked commodity demands must all be 1")

    num_comm, block = len(dem), 2 * n + 1
    idx = np.arange(n, dtype=np.int64)
    ti, tj = np.array(trans, dtype=np.int64).reshape(-1, 2).T
    # Private blocks, one row per commodity: starts s_k -> u_i, terminations
    # v_i -> n_k, then the bypass s_k -> n_k.
    src = 2 * n + 2 * np.arange(num_comm, dtype=np.int64)[:, None]
    block_tail = np.empty((num_comm, block), dtype=np.int64)
    block_head = np.empty_like(block_tail)
    block_tail[:, :n], block_head[:, :n] = src, 2 * idx
    block_tail[:, n:-1], block_head[:, n:-1] = 2 * idx + 1, src + 1
    block_tail[:, -1:], block_head[:, -1:] = src, src + 1
    shared_kinds = np.array([EdgeKind.OBSERVATION, EdgeKind.TRANSITION], dtype=np.int64)
    block_kinds = np.array([EdgeKind.START, EdgeKind.TERMINATION, EdgeKind.BYPASS], dtype=np.int64)

    tail = np.concatenate([2 * idx, 2 * ti + 1, block_tail.ravel()])
    head = np.concatenate([2 * idx + 1, 2 * tj, block_head.ravel()])
    kind = np.concatenate([np.repeat(shared_kinds, (n, len(ti))),
                           np.tile(np.repeat(block_kinds, (n, n, 1)), num_comm)])
    owner = np.concatenate([np.full(n + len(ti), -1, dtype=np.int64),
                            np.repeat(np.arange(num_comm, dtype=np.int64), block)])
    det_a = np.concatenate([idx, ti, np.tile(np.r_[idx, idx, -1], num_comm)])
    det_b = np.concatenate([np.full(n, -1, dtype=np.int64), tj,
                            np.full(num_comm * block, -1, dtype=np.int64)])
    features = (np.array([d.feature for d in detections], dtype=np.float64) if n
                else np.empty((0, 0), dtype=np.float64))

    for arr in (tail, head, kind, owner, det_a, det_b, frames, boxes, features):
        arr.flags.writeable = False

    return FlowNetwork(
        detections=detections,
        transitions=trans,
        demands=dem,
        tail=tail,
        head=head,
        kind=kind,
        owner=owner,
        det_a=det_a,
        det_b=det_b,
        num_shared=n + len(trans),
        frames=frames,
        boxes=boxes,
        features=features,
    )


def build_network(
    detections: Sequence[Detection],
    trajectories: Sequence[object],
    demands: Sequence[int],
    gating: GatingConfig = GatingConfig(),
) -> FlowNetwork:
    """Build the window network for K = len(trajectories) tracked commodities.

    demands holds the dummy's demand d0, then one per trajectory.
    """
    k = len(trajectories)
    if len(demands) != k + 1:
        raise ValueError(
            f"demands length {len(demands)} != commodity count {k + 1}"
        )
    trans = permissible_transitions(list(detections), gating)
    return network_from_parts(detections, trans, demands)
