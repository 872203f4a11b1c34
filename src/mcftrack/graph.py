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

A FlowNetwork stores only the detections (with their frames, boxes and
features as arrays), the demands and the transitions as arrays of tails and
heads; every id above is arithmetic on their sizes. The per-edge arrays
(tail, head, kind, owner, det_a, det_b) and the list of transition pairs are
built on first read, for tests, checks and tools: a window's solve reads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
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
    distance is at most gamma * gap * mean box diagonal of the pair. Every
    detection is paired with those of the next max_gap frames in one array
    pass (`_gate`).
    """
    tails, heads = _gate(*_detection_arrays(detections), gating)
    return list(zip(tails.tolist(), heads.tolist()))


def _gate(frames: np.ndarray, boxes: np.ndarray,
          gating: GatingConfig) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the gated pairs of frame-sorted detections, sorted by (i, j)."""
    n = len(frames)
    # detection i against [later, top): the detections of its next max_gap
    # frames, row-major, so the pairs come out sorted
    later = np.searchsorted(frames, frames, side="right")
    top = np.searchsorted(frames, frames + gating.max_gap, side="right")
    count = top - later
    i = np.repeat(np.arange(n, dtype=np.int64), count)
    j = np.arange(len(i), dtype=np.int64) + np.repeat(later - (np.cumsum(count) - count), count)
    cx = boxes[:, 0] + boxes[:, 2] / 2.0
    cy = boxes[:, 1] + boxes[:, 3] / 2.0
    diag = np.array([math.hypot(w, h) for w, h in boxes[:, 2:].tolist()])  # Detection.diagonal
    dx, dy = cx[j] - cx[i], cy[j] - cy[i]
    reach = gating.gamma * (frames[j] - frames[i]) * 0.5 * (diag[i] + diag[j])
    dist = np.hypot(dx, dy)
    keep = dist <= reach
    # np.hypot may round apart from math.hypot: settle near-ties by the latter.
    # An infinite reach admits every distance, so only a finite one is near.
    near = np.isfinite(reach) & (np.abs(dist - reach) <= HYPOT_TIE_RTOL * reach)
    for p in np.flatnonzero(near):
        keep[p] = math.hypot(dx[p], dy[p]) <= reach[p]
    return i[keep], j[keep]


@dataclass
class FlowNetwork:
    """Window DAG with stable edge ids and per-commodity demands.

    A network stores its detections, the demands and the gated transitions
    as trans_tail and trans_head: read-only int64 detection indices, sorted
    by (tail, head), so that transition p is edge n + p. frames (N), boxes
    (N x 4) and features (N x d) are the detections' fields as arrays, in
    detection order. Edge ids, node ids and sizes are arithmetic on these.

    Built on first read and kept: `transitions`, the pairs as a list of
    (i, j), and the parallel per-edge arrays tail/head/kind/owner/det_a/det_b
    (read-only int64). owner is -1 for shared edges and the commodity index
    otherwise. det_a holds the detection index of observation/start/
    termination edges and the transition tail; det_b holds the transition
    head (-1 elsewhere). A window's solve reads none of them.
    """

    detections: list[Detection]
    demands: np.ndarray
    trans_tail: np.ndarray
    trans_head: np.ndarray
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
    def num_shared(self) -> int:
        """Shared edges: one observation per detection, then the transitions."""
        return self.num_detections + len(self.trans_tail)

    @property
    def num_edges(self) -> int:
        return self.num_shared + self.num_commodities * (2 * self.num_detections + 1)

    @property
    def cost_size(self) -> int:
        """Length of each commodity's cost vector: the shared edges and one block."""
        return self.num_shared + 2 * self.num_detections + 1

    # -- built on first read -------------------------------------------------

    @cached_property
    def transitions(self) -> list[tuple[int, int]]:
        return list(zip(self.trans_tail.tolist(), self.trans_head.tolist()))

    @cached_property
    def tail(self) -> np.ndarray:
        i, src = np.arange(self.num_detections), self.source(self._block_owners())
        return self._edge_array(2 * i, 2 * self.trans_tail + 1, src, 2 * i + 1, src)

    @cached_property
    def head(self) -> np.ndarray:
        i, snk = np.arange(self.num_detections), self.sink(self._block_owners())
        return self._edge_array(2 * i + 1, 2 * self.trans_head, 2 * i, snk, snk)

    @cached_property
    def kind(self) -> np.ndarray:
        return self._edge_array(EdgeKind.OBSERVATION, EdgeKind.TRANSITION,
                                EdgeKind.START, EdgeKind.TERMINATION, EdgeKind.BYPASS)

    @cached_property
    def owner(self) -> np.ndarray:
        k = self._block_owners()
        return self._edge_array(-1, -1, k, k, k)

    @cached_property
    def det_a(self) -> np.ndarray:
        i = np.arange(self.num_detections)
        return self._edge_array(i, self.trans_tail, i, i, -1)

    @cached_property
    def det_b(self) -> np.ndarray:
        return self._edge_array(-1, self.trans_head, -1, -1, -1)

    def _block_owners(self) -> np.ndarray:
        """The commodity of each private block, as a column."""
        return np.arange(self.num_commodities)[:, None]

    def _edge_array(self, obs, trans, starts, terms, bypass) -> np.ndarray:
        """A read-only per-edge array from its values on each kind of edge.

        Each value is a scalar or broadcasts over its edges: obs over the
        detections, trans over the transitions, and starts, terms and bypass
        over the blocks (a row per commodity) and their columns.
        """
        n, ns = self.num_detections, self.num_shared
        arr = np.empty(self.num_edges, dtype=np.int64)
        arr[:n], arr[n:ns] = obs, trans
        blocks = arr[ns:].reshape(-1, 2 * n + 1)
        blocks[:, :n], blocks[:, n:-1], blocks[:, -1:] = starts, terms, bypass
        arr.flags.writeable = False
        return arr

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
                lo, hi = np.searchsorted(self.trans_tail, (i, i + 1))
                yield from range(n + lo, n + hi)
                yield self.term_edge(k, i)
        elif node == self.source(k):
            yield from range(self.block_start(k), self.block_start(k) + n)
            yield self.bypass_edge(k)
        # sinks and other commodities' endpoints have no edges for k

    def path_detections(self, edges: Sequence[int]) -> list[int]:
        """Detection indices claimed along a path, in path order."""
        e = np.asarray(edges, dtype=np.intp)
        return e[e < self.num_detections].tolist()  # observation edge i claims detection i

    def is_shared(self, edge: int) -> bool:
        return edge < self.num_shared


def _detection_arrays(detections: Sequence[Detection]) -> tuple[np.ndarray, np.ndarray]:
    """Frames (N) and boxes (N x 4) of frame-sorted detections."""
    frames = np.array([d.frame for d in detections], dtype=np.int64)
    if np.any(np.diff(frames) < 0):
        raise ValueError("detections must be sorted by frame")
    boxes = np.array([d.box for d in detections], dtype=np.float64).reshape(-1, 4)
    return frames, boxes


def _check_ids(detections: Sequence[Detection]) -> None:
    """Raise ValueError on the first det_id seen twice."""
    seen_ids = set()
    for det in detections:
        if det.det_id in seen_ids:
            raise ValueError(f"duplicate det_id {det.det_id}")
        seen_ids.add(det.det_id)


def network_from_parts(
    detections: Sequence[Detection],
    transitions: Sequence[tuple[int, int]],
    demands: Sequence[int],
) -> FlowNetwork:
    """Assemble a FlowNetwork from explicit transitions (already gated).

    The pairs may come in any order but not twice; each must lie in range
    and advance in frame. demands has one entry per commodity, dummy first;
    tracked demands must be exactly 1 and the dummy demand nonnegative.
    """
    detections = list(detections)
    frames, boxes = _detection_arrays(detections)
    _check_ids(detections)

    n = len(detections)
    try:
        pairs = np.array(transitions, dtype=np.int64).reshape(len(transitions), 2)
    except OverflowError:  # an index past int64 is out of range in any window
        past = [(int(i), int(j)) for i, j in transitions if max(abs(int(i)), abs(int(j))) >= 2**63]
        raise ValueError("transition (%d,%d) out of range" % min(past)) from None
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    ti, tj = pairs[order, 0], pairs[order, 1]
    if np.any((ti[1:] == ti[:-1]) & (tj[1:] == tj[:-1])):
        raise ValueError("duplicate transition pairs")
    inside = (ti >= 0) & (ti < n) & (tj >= 0) & (tj < n)
    bad = ~inside
    bad[inside] = frames[tj[inside]] <= frames[ti[inside]]
    if bad.any():  # the first offending pair in sorted order
        p = int(bad.argmax())
        fault = "does not advance in frame" if inside[p] else "out of range"
        raise ValueError(f"transition ({ti[p]},{tj[p]}) {fault}")
    return _network(detections, frames, boxes, ti, tj, demands)


def _network(detections: list[Detection], frames: np.ndarray, boxes: np.ndarray,
             trans_tail: np.ndarray, trans_head: np.ndarray,
             demands: Sequence[int]) -> FlowNetwork:
    """The network over checked detections and sorted, checked transitions."""
    dem = np.asarray(demands, dtype=np.int64)
    if dem.ndim != 1 or len(dem) < 1:
        raise ValueError("demands must be a nonempty 1-D sequence")
    if dem[0] < 0:
        raise ValueError("dummy demand must be nonnegative")
    if any(int(d) != 1 for d in dem[1:]):
        raise ValueError("tracked commodity demands must all be 1")

    features = (np.array([d.feature for d in detections], dtype=np.float64) if detections
                else np.empty((0, 0), dtype=np.float64))
    for arr in (trans_tail, trans_head, frames, boxes, features):
        arr.flags.writeable = False
    return FlowNetwork(
        detections=detections,
        demands=dem,
        trans_tail=trans_tail,
        trans_head=trans_head,
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

    demands holds the dummy's demand d0, then one per trajectory. The
    detections are read once, into the arrays that both gate the pairs and
    make the network.
    """
    k = len(trajectories)
    if len(demands) != k + 1:
        raise ValueError(
            f"demands length {len(demands)} != commodity count {k + 1}"
        )
    detections = list(detections)
    frames, boxes = _detection_arrays(detections)
    _check_ids(detections)
    return _network(detections, frames, boxes, *_gate(frames, boxes, gating), demands)
