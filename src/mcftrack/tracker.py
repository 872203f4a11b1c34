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
commits its remaining frames instead of re-solving shrinking windows.

Trajectories keep a feature history (last 10 associated features, mean
renormalized as the matching template), a constant-velocity estimate from
the last two associated boxes, and a per-trajectory similarity model updated
from co-association triplets at every commit.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from . import io as mio
from .colgen import CGResult, column_generation
from .costs import CostConfig, assemble_cost_vector
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
        try:
            self.cost_config()
            self.gating_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def miss_limit(self) -> int:
        return self.terminate_after_misses if self.terminate_after_misses > 0 else self.window

    @property
    def spawn_min_effective(self) -> int:
        # A window of W frames cannot hold a longer path start at its edge.
        return min(self.spawn_min_length, self.window)

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
        valid = {f.name: f.type for f in fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in kv.items():
            if key not in valid:
                raise ConfigError(f"{origin}: unknown config key {key!r}")
            try:
                num = int(value) if valid[key] == "int" else float(value)
                if isinstance(num, float) and not np.isfinite(num):
                    raise ValueError(value)
                kwargs[key] = num
            except ValueError:
                raise ConfigError(f"{origin}: bad value for {key!r}: {value!r}") from None
        return cls(**kwargs)


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
        mean = np.mean(self.feature_history, axis=0)
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
    committed_hi: int  # highest frame whose consequences are already committed

    @property
    def span(self) -> int:
        return self.window_hi - self.window_lo + 1


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
        return self._solve_and_commit()

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
        if self._last_solve is None:
            # Short stream: one solve over the partial window, commit all of it.
            self._solve_window(1, last_seen)
            assert self._last_solve is not None
        frozen = self._last_solve
        records: list[CommitRecord] = []
        remaining = range(frozen.committed_hi + 1, frozen.window_hi + 1)
        if not remaining:
            return []
        spawn_min = min(self.config.spawn_min_length, frozen.span)
        net = frozen.network
        for k, traj in enumerate(frozen.active, start=1):
            if not traj.active:
                continue  # termination decisions are final
            for col, _ in frozen.result.selection[k]:
                for pos in net.path_detections(col.edges):
                    det = net.detections[pos]
                    if det.frame in remaining:
                        traj.commit(det.frame, det.box, det.feature)
                        records.append(CommitRecord(det.frame, traj.track_id, det.box))
        for col, _ in frozen.result.selection[0]:
            positions = net.path_detections(col.edges)
            if not positions:
                continue
            existing = frozen.spawned.get(col.key)
            if existing is not None:
                for pos in positions:
                    det = net.detections[pos]
                    if det.frame in remaining:
                        existing.commit(det.frame, det.box, det.feature)
                        records.append(
                            CommitRecord(det.frame, existing.track_id, det.box)
                        )
                continue
            first = net.detections[positions[0]]
            if first.frame not in remaining:
                continue
            if len(positions) < spawn_min:
                continue
            traj = self._spawn(first)
            records.append(CommitRecord(first.frame, traj.track_id, first.box))
            for pos in positions[1:]:
                det = net.detections[pos]
                traj.commit(det.frame, det.box, det.feature)
                records.append(CommitRecord(det.frame, traj.track_id, det.box))
        records.sort(key=lambda r: (r.frame, r.track_id))
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

    def _solve_window(self, lo: int, hi: int) -> None:
        """Solve frames [lo, hi]; stores the frozen solve, commits nothing."""
        window_dets = [d for f in range(lo, hi + 1) for d in self._buffer.get(f, [])]
        active = [t for t in self.trajectories if t.active]
        demands = [self.config.d0] + [1] * len(active)
        network = build_network(
            window_dets, active, demands, self.config.gating_config()
        )
        cost_cfg = self.config.cost_config()
        vectors = [
            assemble_cost_vector(network, k, active, cost_cfg)
            for k in range(network.num_commodities)
        ]
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
        self._last_solve = _FrozenSolve(
            network=network,
            result=result,
            active=active,
            spawned={},
            window_lo=lo,
            window_hi=hi,
            committed_hi=lo - 1,
        )

    def _solve_and_commit(self) -> list[CommitRecord]:
        commit_frame = self._committed_through + 1
        self._solve_window(commit_frame, self._committed_through + self.config.window)
        frozen = self._last_solve
        assert frozen is not None
        net, result, active = frozen.network, frozen.result, frozen.active

        associations: dict[int, Detection] = {}
        for k, traj in enumerate(active, start=1):
            det = None
            for col, _ in result.selection[k]:
                positions = net.path_detections(col.edges)
                if positions and net.detections[positions[0]].frame == commit_frame:
                    det = net.detections[positions[0]]
            if det is not None:
                associations[k - 1] = det

        # Triplets see the templates as they were before this frame's commits.
        triplet_sets = build_triplets(
            active, {i: det.feature for i, det in associations.items()}
        )

        records: list[CommitRecord] = []
        for i, traj in enumerate(active):
            det = associations.get(i)
            if det is None:
                traj.misses += 1
                if traj.misses >= self.config.miss_limit:
                    traj.active = False
            else:
                traj.commit(commit_frame, det.box, det.feature)
                records.append(CommitRecord(commit_frame, traj.track_id, det.box))
        for i, triplets in triplet_sets.items():
            update_model(active[i].model, triplets)

        spawn_cols = []
        for col, _ in result.selection[0]:
            positions = net.path_detections(col.edges)
            if not positions:
                continue
            first = net.detections[positions[0]]
            if (
                first.frame == commit_frame
                and len(positions) >= self.config.spawn_min_effective
            ):
                spawn_cols.append((positions[0], col, first))
        for _, col, first in sorted(spawn_cols, key=lambda s: s[0]):
            traj = self._spawn(first)
            frozen.spawned[col.key] = traj
            records.append(CommitRecord(commit_frame, traj.track_id, first.box))

        del self._buffer[commit_frame]
        self._committed_through = commit_frame
        frozen.committed_hi = commit_frame
        records.sort(key=lambda r: (r.frame, r.track_id))
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
