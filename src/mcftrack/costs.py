"""Edge cost assembly for the window network.

Tracked commodities price detections by learned bilinear similarity against
the trajectory template, transitions by pairwise bilinear similarity, and
starts by a decayed overlap between the trajectory's constant-velocity
prediction and the candidate box. The dummy commodity prices detections by
negated detector score, transitions by cosine similarity, and starts by a
flat constant. Termination is a flat constant for every commodity. Bypass
costs are the price of leaving a commodity's demand unrouted; they are
configuration, not part of the published cost model.

The scalar rules below define each cost. assemble_cost_vectors evaluates
them for every commodity of a window at once, into one matrix whose rows
become the commodities' vectors: start costs for all trajectories in one set
of array operations over the network's per-detection arrays (frames, boxes,
features), in start_cost's float operations and order, so its start entries
are bitwise equal to start_cost. The similarity products stay per commodity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .graph import Box, Detection, FlowNetwork
from .simlearn import SimilarityModel, similarity


class TrackLike(Protocol):
    """What cost assembly needs from a trajectory."""

    last_box: Box
    last_frame: int
    velocity: tuple[float, float]
    template: np.ndarray
    model: SimilarityModel


@dataclass(frozen=True)
class CostConfig:
    """Cost constants. eta is the per-frame start-cost decay in (0, 1]."""

    eta: float = 0.95
    termination_cost: float = 10.0
    dummy_start_cost: float = 10.0
    bypass_cost_tracked: float = 5.0
    bypass_cost_dummy: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        for name in ("termination_cost", "dummy_start_cost", "bypass_cost_tracked",
                     "bypass_cost_dummy"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CostVector:
    """One commodity's costs: the shared edges in id order, then its own N starts,
    N terminations and bypass. Edge e sits at FlowNetwork.cost_index(k, e).
    """

    commodity: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = min(ax + aw, bx + bw) - max(ax, bx)
    iy = min(ay + ah, by + bh) - max(ay, by)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def predict_box(traj: TrackLike, frame: int) -> Box:
    """Constant-velocity extrapolation of the last associated box.

    Only forward prediction is defined; frame must exceed the trajectory's
    last associated frame.
    """
    gap = frame - traj.last_frame
    if gap <= 0:
        raise ValueError(
            f"prediction frame {frame} not after last associated frame {traj.last_frame}"
        )
    x, y, w, h = traj.last_box
    vx, vy = traj.velocity
    return (x + vx * gap, y + vy * gap, w, h)


def observation_cost(traj: TrackLike, det: Detection) -> float:
    """Negated bilinear similarity of the template to the detection feature."""
    return -similarity(traj.model, traj.template, det.feature)


def dummy_observation_cost(det: Detection) -> float:
    return -det.score


def transition_cost(traj: TrackLike, det_i: Detection, det_j: Detection) -> float:
    return -similarity(traj.model, det_i.feature, det_j.feature)


def dummy_transition_cost(det_i: Detection, det_j: Detection) -> float:
    """Negated cosine similarity; features are unit-norm so this is a dot."""
    return -float(det_i.feature @ det_j.feature)


def start_cost(traj: TrackLike, det: Detection, config: CostConfig) -> float:
    """-eta**gap * IoU(prediction, detection box); 0 when they miss entirely."""
    gap = det.frame - traj.last_frame
    if gap < 1:
        raise ValueError(
            f"start candidate at frame {det.frame} does not follow frame {traj.last_frame}"
        )
    overlap = iou(predict_box(traj, det.frame), det.box)
    return -(config.eta**gap) * overlap


def assemble_cost_vectors(
    network: FlowNetwork,
    trajectories: Sequence[TrackLike],
    config: CostConfig = CostConfig(),
) -> list[CostVector]:
    """Every commodity's cost vector, in CostVector's layout; entry k is commodity k's."""
    rows = _cost_rows(network, trajectories, config, range(network.num_commodities))
    return [CostVector(commodity=k, values=row) for k, row in enumerate(rows)]


def assemble_cost_vector(
    network: FlowNetwork,
    commodity: int,
    trajectories: Sequence[TrackLike],
    config: CostConfig = CostConfig(),
) -> CostVector:
    """Commodity `commodity`'s entry of assemble_cost_vectors, assembled alone.

    Only this commodity's costs are evaluated, so another trajectory that
    could not start in the window does not raise here.
    """
    if not (0 <= commodity < network.num_commodities):
        raise ValueError(f"commodity {commodity} out of range")
    (row,) = _cost_rows(network, trajectories, config, range(commodity, commodity + 1))
    return CostVector(commodity=commodity, values=row)


def _cost_rows(
    network: FlowNetwork,
    trajectories: Sequence[TrackLike],
    config: CostConfig,
    commodities: range,
) -> np.ndarray:
    """One row of costs per commodity in `commodities`, filled into one matrix.

    The matrix products stay per commodity: a stacked product gives the same
    values but allocates every commodity's Gram matrix at once.
    """
    if len(trajectories) != network.num_tracked:
        raise ValueError(
            f"{len(trajectories)} trajectories for {network.num_tracked} tracked commodities"
        )
    n, ns = network.num_detections, network.num_shared
    values = np.zeros((len(commodities), network.cost_size), dtype=np.float64)
    dummy = commodities.start == 0
    tracked = [trajectories[k - 1] for k in commodities if k > 0]
    tracked_rows = values[int(dummy):]

    if n:
        feats = network.features
        pairs = network.det_a[n:ns] * n + network.det_b[n:ns]  # into a flattened Gram matrix
        if dummy:
            values[0, :n] = -np.array([d.score for d in network.detections], dtype=np.float64)
            np.negative((feats @ feats.T).take(pairs), out=values[0, n:ns])
            values[0, ns : ns + n] = config.dummy_start_cost
        for row, traj in zip(tracked_rows, tracked):
            w = traj.model.W
            np.negative(feats @ (w.T @ traj.template), out=row[:n])
            np.negative((feats @ w @ feats.T).take(pairs), out=row[n:ns])
        if tracked:
            tracked_rows[:, ns : ns + n] = _start_costs(
                tracked, network.frames, network.boxes, config
            )

    values[:, ns + n : -1] = config.termination_cost
    values[:, -1] = config.bypass_cost_tracked
    if dummy:
        values[0, -1] = config.bypass_cost_dummy
    return values


def _start_costs(
    trajectories: Sequence[TrackLike], frames: np.ndarray, boxes: np.ndarray, config: CostConfig
) -> np.ndarray:
    """start_cost of each trajectory (rows) at each of the ascending frames (columns).

    Evaluated elementwise by start_cost's float operations in its order, so
    every entry is bitwise equal to it.
    """
    last = np.array([t.last_frame for t in trajectories])
    gap = frames - last[:, None]
    early = gap[:, 0] < 1
    if early.any():
        raise ValueError(
            f"start candidate at frame {frames[0]} does not follow frame "
            f"{trajectories[int(early.argmax())].last_frame}"
        )
    last_box = np.array([t.last_box for t in trajectories], dtype=np.float64)
    velocity = np.array([t.velocity for t in trajectories], dtype=np.float64)
    corner = last_box[:, None, :2] + velocity[:, None, :] * gap[:, :, None]  # predict_box
    # iou: the intersection's width and height side by side
    ixy = (np.minimum(corner + last_box[:, None, 2:], boxes[:, :2] + boxes[:, 2:])
           - np.maximum(corner, boxes[:, :2]))
    ix, iy = ixy[..., 0], ixy[..., 1]
    inter = ix * iy
    area = last_box[:, 2] * last_box[:, 3]
    overlap = np.zeros(gap.shape)
    np.divide(inter, area[:, None] + boxes[:, 2] * boxes[:, 3] - inter, out=overlap,
              where=(ix > 0) & (iy > 0))
    # Python's float pow once per gap in the span: numpy's vectorised power may round apart.
    lo = int(gap[:, 0].min())
    decay = np.array([config.eta ** g for g in range(lo, int(gap[:, -1].max()) + 1)])
    return -decay[gap - lo] * overlap
