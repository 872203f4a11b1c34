"""Sliding-window online tracker.

Frames arrive one at a time. Once frames t+1 .. t+W are buffered (W is the
window length), the window is solved as a multi-commodity flow by column
generation and only the consequences touching frame t+1 are committed:
tracked trajectories whose selected path starts at t+1 are extended by that
detection, trajectories whose path starts later or is the bypass take a
miss, and dummy-commodity paths that start at t+1 with enough detections
spawn new trajectories. Output therefore lags input by W - 1 frames; later
frames of the window stay provisional and are re-solved as the window
slides. After the last frame, flush() freezes the final solution and
commits its remaining frames instead of re-solving shrinking windows,
through the same per-frame routine as a step but without learning or misses.

Trajectories keep a feature history (last 10 associated features, mean
renormalized as the matching template), a constant-velocity estimate from
the last two associated boxes, and a per-trajectory similarity model updated
at every commit from its co-association triplet set.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import io as mio
from .colgen import CGResult, column_generation
# assemble_cost_vector is not called here, but perfbench/tracing.py rebinds it by name.
from .costs import CostConfig, assemble_cost_vector, assemble_cost_vectors  # noqa: F401
from .graph import Box, Detection, FlowNetwork, GatingConfig, build_network
from .simlearn import SimilarityModel, build_triplets, update_model

TEMPLATE_HISTORY = 10


class ConfigError(ValueError):
    """Invalid tracker configuration key or value."""


@dataclass
class TrackerConfig:
    """Flat tracker configuration; key=value config files mirror these names.

    terminate_after_misses <= 0 means "use the window length". The bypass
    costs decide when association or birth is worthwhile at all; see
    CostConfig for the cost model itself.
    """

    window: int = 10
    d0: int = 20
    spawn_min_length: int = 2
    terminate_after_misses: int = 0
    eta: float = 0.95
    termination_cost: float = 10.0
    dummy_start_cost: float = 10.0
    bypass_cost_tracked: float = 5.0
    bypass_cost_dummy: float = 0.0
    max_gap: int = 3
    gamma: float = 2.0
    aggressiveness: float = 0.1
    iter_max: int = 200

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.d0 < 0:
            raise ConfigError(f"d0 must be >= 0, got {self.d0}")
        if self.spawn_min_length < 1:
            raise ConfigError(f"spawn_min_length must be >= 1, got {self.spawn_min_length}")
        if self.iter_max < 1:
            raise ConfigError(f"iter_max must be >= 1, got {self.iter_max}")
        if not self.aggressiveness > 0:
            raise ConfigError(f"aggressiveness must be positive, got {self.aggressiveness}")
        try:
            self.cost_config()
            self.gating_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def miss_limit(self) -> int:
        return self.terminate_after_misses if self.terminate_after_misses > 0 else self.window

    def cost_config(self) -> CostConfig:
        return CostConfig(
            eta=self.eta,
            termination_cost=self.termination_cost,
            dummy_start_cost=self.dummy_start_cost,
            bypass_cost_tracked=self.bypass_cost_tracked,
            bypass_cost_dummy=self.bypass_cost_dummy,
        )

    def gating_config(self) -> GatingConfig:
        return GatingConfig(max_gap=self.max_gap, gamma=self.gamma)

    @classmethod
    def from_text(cls, text: str, origin: str = "<config>") -> "TrackerConfig":
        try:
            kv = mio.parse_kv(text, origin)
        except mio.ParseError as exc:
            raise ConfigError(str(exc)) from None
        # gamma=inf is no spatial gate, as in GatingConfig
        return cls(**mio.typed_fields(cls, kv, origin, "config", ConfigError, ("gamma",)))


@dataclass
class Trajectory:
    """One committed track: boxes are append-only, one per associated frame."""

    track_id: int
    model: SimilarityModel
    frames: list[int] = field(default_factory=list)
    boxes: list[Box] = field(default_factory=list)
    feature_history: list[np.ndarray] = field(default_factory=list)
    template: np.ndarray = field(default_factory=lambda: np.zeros(1))
    velocity: tuple[float, float] = (0.0, 0.0)
    misses: int = 0
    active: bool = True

    @classmethod
    def spawn(
        cls, track_id: int, frame: int, box: Box, feature: np.ndarray, aggressiveness: float
    ) -> "Trajectory":
        traj = cls(
            track_id=track_id,
            model=SimilarityModel.identity(feature.shape[0], aggressiveness),
        )
        traj.commit(frame, box, feature)
        return traj

    @property
    def last_frame(self) -> int:
        return self.frames[-1]

    @property
    def last_box(self) -> Box:
        return self.boxes[-1]

    def commit(self, frame: int, box: Box, feature: np.ndarray) -> None:
        if self.frames and frame <= self.frames[-1]:
            raise ValueError(
                f"track {self.track_id}: commit frame {frame} not after {self.frames[-1]}"
            )
        if self.frames:
            px, py, pw, ph = self.boxes[-1]
            gap = frame - self.frames[-1]
            cx, cy = box[0] + box[2] / 2.0, box[1] + box[3] / 2.0
            pcx, pcy = px + pw / 2.0, py + ph / 2.0
            self.velocity = ((cx - pcx) / gap, (cy - pcy) / gap)
        self.frames.append(frame)
        self.boxes.append(box)
        self.feature_history.append(np.asarray(feature, dtype=np.float64))
        if len(self.feature_history) > TEMPLATE_HISTORY:
            self.feature_history = self.feature_history[-TEMPLATE_HISTORY:]
        # np.mean's own sum and division, without its wrapper
        mean = np.add.reduce(self.feature_history, axis=0) / len(self.feature_history)
        norm = float(np.linalg.norm(mean))
        self.template = mean / norm if norm > 1e-12 else self.feature_history[-1]
        self.misses = 0

    def as_dict(self) -> dict[int, Box]:
        return dict(zip(self.frames, self.boxes))


@dataclass(frozen=True)
class CommitRecord:
    frame: int
    track_id: int
    box: Box


@dataclass(frozen=True)
class WindowDiagnostics:
    window_t: int
    iterations: int
    v_lp: float
    v_int: float
    epsilon: float
    solve_ms: float

    def format_line(self) -> str:
        return (
            f"{self.window_t},{self.iterations},{self.v_lp:.9g},"
            f"{self.v_int:.9g},{self.epsilon:.3e},{self.solve_ms:.3f}"
        )


@dataclass
class _FrozenSolve:
    network: FlowNetwork
    result: CGResult
    active: list[Trajectory]
    spawned: dict[tuple[int, tuple[int, ...]], Trajectory]
    window_lo: int
    window_hi: int


class OnlineTracker:
    """Streaming front end; deepcopy the instance to checkpoint its state."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.trajectories: list[Trajectory] = []
        self.diagnostics: list[WindowDiagnostics] = []
        self._buffer: dict[int, list[Detection]] = {}
        self._next_frame = 1
        self._committed_through = 0
        self._next_track_id = 1
        self._last_solve: _FrozenSolve | None = None
        self._flushed = False

    # -- public API ------------------------------------------------------------

    def step(self, frame: int, detections: Sequence[Detection]) -> list[CommitRecord]:
        """Feed one frame; returns commits for frame `frame - window + 1`.

        Frames must arrive as 1, 2, 3, ... with every frame present (an
        empty detection list is a valid frame). The first window - 1 calls
        only buffer and return no commits.
        """
        if self._flushed:
            raise RuntimeError("tracker already flushed")
        if frame != self._next_frame:
            raise ValueError(f"expected frame {self._next_frame}, got {frame}")
        for det in detections:
            if det.frame != frame:
                raise ValueError(
                    f"detection {det.det_id} carries frame {det.frame}, stepping {frame}"
                )
        self._buffer[frame] = list(detections)
        self._next_frame = frame + 1
        if frame < self.config.window:
            return []
        commit_frame = self._committed_through + 1
        frozen = self._solve_window(commit_frame, self._committed_through + self.config.window)
        associations = self._associations(frozen, commit_frame)
        # Triplets see the templates as they were before this frame's commits.
        triplet_sets = build_triplets(
            frozen.active, {i: det.feature for i, det in associations.items()}
        )
        records = self._commit(frozen, commit_frame, associations)
        for i, traj in enumerate(frozen.active):
            if i not in associations:
                traj.misses += 1
                if traj.misses >= self.config.miss_limit:
                    traj.active = False
        for i, triplet_set in triplet_sets.items():
            update_model(frozen.active[i].model, triplet_set)
        del self._buffer[commit_frame]
        self._committed_through = commit_frame
        return records

    def flush(self) -> list[CommitRecord]:
        """Freeze the last solved window and commit its remaining frames.

        Streams shorter than one window get a single solve over everything
        buffered. Idempotent; the tracker accepts no frames afterwards.
        """
        if self._flushed:
            return []
        self._flushed = True
        last_seen = self._next_frame - 1
        if last_seen == 0:
            return []
        # A stream shorter than one window gets one solve over all of it.
        frozen = self._last_solve or self._solve_window(1, last_seen)
        records: list[CommitRecord] = []
        for f in range(self._committed_through + 1, frozen.window_hi + 1):
            records += self._commit(frozen, f, self._associations(frozen, f))
        return records

    def tracks(self) -> dict[int, dict[int, Box]]:
        return {t.track_id: t.as_dict() for t in self.trajectories}

    # -- internals ---------------------------------------------------------------

    def _spawn(self, det: Detection) -> Trajectory:
        traj = Trajectory.spawn(
            self._next_track_id, det.frame, det.box, det.feature,
            self.config.aggressiveness,
        )
        self._next_track_id += 1
        self.trajectories.append(traj)
        return traj

    def _solve_window(self, lo: int, hi: int) -> _FrozenSolve:
        """Solve frames [lo, hi]; stores and returns the frozen solve, commits nothing."""
        window_dets = [d for f in range(lo, hi + 1) for d in self._buffer.get(f, [])]
        active = [t for t in self.trajectories if t.active]
        demands = [self.config.d0] + [1] * len(active)
        network = build_network(
            window_dets, active, demands, self.config.gating_config()
        )
        vectors = assemble_cost_vectors(network, active, self.config.cost_config())
        begin = time.perf_counter()
        result = column_generation(network, vectors, iter_max=self.config.iter_max)
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        self.diagnostics.append(
            WindowDiagnostics(
                window_t=lo,
                iterations=result.iterations,
                v_lp=result.v_lp,
                v_int=result.v_int,
                epsilon=result.epsilon,
                solve_ms=elapsed_ms,
            )
        )
        self._last_solve = frozen = _FrozenSolve(
            network=network,
            result=result,
            active=active,
            spawned={},
            window_lo=lo,
            window_hi=hi,
        )
        return frozen

    def _associations(self, frozen: _FrozenSolve, frame: int) -> dict[int, Detection]:
        """Detection that each still-active trajectory's selected path takes in frame.

        Keys index frozen.active; termination decisions are final.
        """
        net = frozen.network
        associations: dict[int, Detection] = {}
        for k, traj in enumerate(frozen.active, start=1):
            if not traj.active:
                continue
            for col, _ in frozen.result.selection[k]:
                for pos in col.edges[1:-1:2]:  # every other edge, from d_1 to d_m
                    if net.detections[pos].frame == frame:
                        associations[k - 1] = net.detections[pos]
        return associations

    def _commit(
        self, frozen: _FrozenSolve, frame: int, associations: Mapping[int, Detection]
    ) -> list[CommitRecord]:
        """Commit one frame of the frozen solve.

        Extends the associated trajectories and the trajectories already
        spawned from dummy paths, then spawns, in detection order, the dummy
        paths that start in frame with enough detections. A window of W
        frames cannot hold a longer path than W, so the spawn threshold is
        capped at the window's span.
        """
        net = frozen.network
        records = []
        for i, det in associations.items():
            frozen.active[i].commit(frame, det.box, det.feature)
            records.append(CommitRecord(frame, frozen.active[i].track_id, det.box))
        spawn_min = min(self.config.spawn_min_length, frozen.window_hi - frozen.window_lo + 1)
        spawns = []
        for col, _ in frozen.result.selection[0]:
            positions = col.edges[1:-1:2]  # its detections, as in _associations
            for pos in positions:
                det = net.detections[pos]
                if det.frame != frame:
                    continue
                traj = frozen.spawned.get(col.key)
                if traj is not None:
                    traj.commit(frame, det.box, det.feature)
                    records.append(CommitRecord(frame, traj.track_id, det.box))
                elif pos == positions[0] and len(positions) >= spawn_min:
                    spawns.append((pos, col.key))
        for pos, key in sorted(spawns):
            det = net.detections[pos]
            frozen.spawned[key] = traj = self._spawn(det)
            records.append(CommitRecord(frame, traj.track_id, det.box))
        records.sort(key=lambda r: r.track_id)
        return records

def run(
    detections: Mapping[int, Sequence[Detection]],
    config: TrackerConfig | None = None,
    max_frame: int | None = None,
    log_path: str | None = None,
) -> tuple[dict[int, dict[int, Box]], list[WindowDiagnostics]]:
    """Track a whole frame-indexed detection set; returns (tracks, diagnostics).

    Frames 1..max_frame are stepped in order (missing keys are empty frames);
    max_frame defaults to the largest detection frame. The diagnostics log,
    when requested, holds one `window_t,iters,v_lp,v_int,epsilon,solve_ms`
    line per solved window.
    """
    tracker = OnlineTracker(config)
    if max_frame is None:
        max_frame = max(detections.keys(), default=0)
    for frame in range(1, max_frame + 1):
        tracker.step(frame, list(detections.get(frame, [])))
    tracker.flush()
    if log_path is not None:
        with open(log_path, "w") as fh:
            for diag in tracker.diagnostics:
                fh.write(diag.format_line() + "\n")
    return tracker.tracks(), tracker.diagnostics


def checkpoint(tracker: OnlineTracker) -> OnlineTracker:
    """Value-semantics snapshot of a tracker mid-stream."""
    return copy.deepcopy(tracker)
