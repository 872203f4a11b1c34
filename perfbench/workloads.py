"""Benchmark workloads: seeded inputs and the closed loops that drive them.

Every workload runs in one process as a closed loop: frames (or window
instances) are fed back to back, the next only after the previous call
returns, as `mcftrack track` does with a detection file. Inputs come only
from the seed argument; the program sees nothing but the generated frames.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import mcftrack
from mcftrack import (
    OnlineTracker,
    Scenario,
    TrackerConfig,
    assemble_cost_vector,
    build_network,
    synth_generate,
)

import checks

SEED_DEFAULT = 3  # the criterion-9 scene seed
HELD_OUT_SEED = 1009  # never used while tuning; reserved for later claims
SCENE_SEED_STRIDE = 1000  # scene i of a run uses seed + i * stride

COMMON_SCENE = dict(miss_prob=0.05, feature_noise=0.1, pos_noise=1.0, target_score_std=0.0)
COMMON_CONFIG = dict(d0=8, bypass_cost_tracked=12.0, bypass_cost_dummy=19.5)

EXCLUDED = {
    "M (targets 5, frames 60, seed 3, window 10)": (
        "the default-window scene takes about 140 s on its first window and "
        "then raises LPInternalError (singular basis), so it cannot be timed "
        "until the master LP survives windows of default size"
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "tracker": OnlineTracker.step per frame; "births": column_generation per instance
    scene: dict
    config: dict
    scenes: int  # independent scenes per run, seeds derived from --seed
    births_stride: int = 0  # frames between the starts of consecutive instances
    births_per_scene: int = 0  # instances cut from each births scene
    tiny_frames: int = 0  # frames of the single scene at the smoke size

    def scenario(self, tiny: bool) -> Scenario:
        return Scenario(**{**self.scene, "frames": self.tiny_frames} if tiny else self.scene)

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(**self.config)

    def scene_count(self, tiny: bool) -> int:
        return 1 if tiny else self.scenes

    def context(self, seed: int, tiny: bool) -> dict:
        return {
            "workload": self.name,
            "why": self.why,
            "loop": "closed loop in one process, inputs fed back to back",
            "seed": seed,
            "seed_default": SEED_DEFAULT,
            "held_out_seed": HELD_OUT_SEED,
            "scene_seeds": scene_seeds(seed, self.scene_count(tiny)),
            "scene": dataclasses.asdict(self.scenario(tiny)),
            "config": dataclasses.asdict(self.tracker_config()),
            "births_stride": self.births_stride or None,
            "births_per_scene": self.births_per_scene or None,
            "tiny": tiny,
            "excluded": EXCLUDED,
        }


# `contested` is the criterion-9 scene lengthened. It is runnable but not in
# BENCHMARK.json: clutter pairs spawn short-lived tracks at a Poisson rate,
# and the extra commodities make one seed's windows up to twice as slow as
# another's, so a steady figure needs three passes over two scenes, about
# 85 s a run, which does not fit the time budget beside the other two.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="contested",
            why=(
                "five unit commodities compete for shared detections among "
                "clutter, so the master LP dominates each window"
            ),
            kind="tracker",
            scene=dict(targets=5, frames=120, clutter_rate=0.5, feature_dim=12,
                       lane_gap=80.0, **COMMON_SCENE),
            config=dict(window=5, **COMMON_CONFIG),
            scenes=2,
            tiny_frames=10,
        ),
        Workload(
            name="wide",
            why=(
                "24 well-separated targets: many commodities, little contention, "
                "about 4.5 CG iterations a window, so pricing, cost assembly and "
                "learning together outweigh the master LP"
            ),
            kind="tracker",
            scene=dict(targets=24, frames=110, clutter_rate=0.0, feature_dim=24,
                       arena_h=3200.0, lane_gap=120.0, **COMMON_SCENE),
            config=dict(window=3, **COMMON_CONFIG),
            scenes=1,
            tiny_frames=12,
        ),
        Workload(
            name="births",
            why=(
                "dummy-only first-window instances route one commodity of demand "
                "d0 through colgen and lp alone, one column per CG iteration"
            ),
            kind="births",
            scene=dict(targets=5, frames=120, clutter_rate=0.5, feature_dim=12,
                       lane_gap=80.0, **COMMON_SCENE),
            config=dict(window=5, **COMMON_CONFIG),  # the contested first window
            scenes=15,
            births_stride=12,
            births_per_scene=10,
            tiny_frames=24,
        ),
    )
}


def scene_seeds(seed: int, count: int) -> list[int]:
    return [seed + i * SCENE_SEED_STRIDE for i in range(count)]


# -- inputs -----------------------------------------------------------------------


@dataclass
class Scene:
    dets: dict
    gt: dict
    frames: int


@dataclass
class BirthInstance:
    network: mcftrack.FlowNetwork
    vectors: list
    gt: dict  # ground truth restricted to the instance's frames


def make_inputs(wl: Workload, seed: int, tiny: bool) -> list:
    """Scenes (tracker workloads) or built window instances (births)."""
    scenario = wl.scenario(tiny)
    scenes = [
        Scene(*synth_generate(scenario, seed=s), frames=scenario.frames)
        for s in scene_seeds(seed, wl.scene_count(tiny))
    ]
    if wl.kind == "tracker":
        return scenes
    cfg = wl.tracker_config()  # births instances span cfg.window frames
    instances = []
    per_scene = min(wl.births_per_scene, (scenario.frames - cfg.window) // wl.births_stride + 1)
    for scene in scenes:
        for w in range(per_scene):
            lo = 1 + w * wl.births_stride
            hi = lo + cfg.window - 1
            window_dets = [d for f in range(lo, hi + 1) for d in scene.dets[f]]
            net = build_network(window_dets, [], [cfg.d0], cfg.gating_config())
            vectors = [assemble_cost_vector(net, 0, [], cfg.cost_config())]
            gt = {
                tid: {f: b for f, b in track.items() if lo <= f <= hi}
                for tid, track in scene.gt.items()
            }
            instances.append(BirthInstance(net, vectors, gt))
    return instances


# -- one pass over the inputs ---------------------------------------------------------


@dataclass
class Outcome:
    """What one pass over a workload's inputs did."""

    window_s: list[float] = field(default_factory=list)  # per solved window
    reference_ms: list[float] = field(default_factory=list)  # sampled before each solved window
    loop_s: float = 0.0  # wall time of the timed calls
    scheduled: int = 0
    failed: int = 0  # windows lost to exceptions or failing a check
    exceptions: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)  # one line per exception
    problems: list[str] = field(default_factory=list)  # failed output checks
    v_int: list[float] = field(default_factory=list)  # per solved window, in order
    proven: int = 0
    mot: Counter = field(default_factory=Counter)  # fp, fn, ids, gt summed

    @property
    def solved(self) -> int:
        return len(self.window_s)

    def record_exception(self, where: str, exc: Exception, lost: int) -> None:
        name = type(exc).__name__
        self.exceptions[name] += 1
        self.failed += lost
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.errors.append(f"{where}: {last}")

    def add_mot(self, gt: dict, hyp: dict) -> None:
        if not any(gt.values()):
            return
        rep = mcftrack.clear_mot(gt, hyp)
        self.mot.update(fp=rep.fp, fn=rep.fn, ids=rep.ids, gt=rep.gt_total)

    @property
    def mota(self) -> float:
        m = self.mot
        return 1.0 - (m["fn"] + m["fp"] + m["ids"]) / m["gt"] if m["gt"] else float("nan")


class _Lane:
    """One copy of the work: untraced, or traced under its tracer.

    With a `reference` (a callable returning milliseconds), the lane samples
    it just before each window that solves, so that every window time has a
    measure of the machine's speed taken beside it.
    """

    def __init__(self, tracer, reference: Callable[[], float] | None = None) -> None:
        self.out = Outcome()
        self.tracer = tracer
        self.reference = reference

    def call(self, window: str, root: str | None, solves: bool, fn: Callable, *args, **kwargs):
        """Time one call; returns its result. Raises what fn raises.

        A call that `solves` a window adds its time to window_s.
        """
        ref = self.reference() if solves and self.reference is not None else None
        if self.tracer is None:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            took = time.perf_counter() - t0
        else:
            self.tracer.window = window
            if root is not None:
                fn = self.tracer.wrap(root, fn)
            with self.tracer.installed():
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                took = time.perf_counter() - t0
        self.out.loop_s += took
        if solves:
            self.out.window_s.append(took)
            if ref is not None:
                self.out.reference_ms.append(ref)
        return result


def run_pass(wl: Workload, inputs: list, reference: Callable[[], float] | None = None) -> Outcome:
    """One untraced pass over the inputs, sampling `reference` before each window."""
    return _run(wl, inputs, [_Lane(None, reference)])[0]


def run_paired(wl: Workload, inputs: list, tracer) -> tuple[Outcome, Outcome]:
    """One pass in which every window runs untraced and then traced.

    The two copies run back to back, window by window, so both timings see
    the same machine and their ratio is the tracing overhead.
    """
    untraced, traced = _run(wl, inputs, [_Lane(None), _Lane(tracer)])
    return untraced, traced


def _run(wl: Workload, inputs: list, lanes: list[_Lane]) -> list[Outcome]:
    cfg = wl.tracker_config()
    if wl.kind == "tracker":
        for idx, scene in enumerate(inputs):
            _tracker_scene(cfg, idx, scene, lanes)
    else:
        _births(cfg, inputs, lanes)
    return [lane.out for lane in lanes]


def _tracker_scene(cfg: TrackerConfig, idx: int, scene: Scene, lanes: list[_Lane]) -> None:
    scheduled = max(scene.frames - cfg.window + 1, 0)
    trackers = [OnlineTracker(cfg) for _ in lanes]
    records: list[list] = [[] for _ in lanes]
    live = set(range(len(lanes)))
    for lane in lanes:
        lane.out.scheduled += scheduled
    for frame in range(1, scene.frames + 2):  # the last round flushes
        for i in sorted(live):
            lane, tracker = lanes[i], trackers[i]
            try:
                if frame <= scene.frames:
                    recs = lane.call(f"{idx}:{frame}", "step", frame >= cfg.window,
                                     tracker.step, frame, scene.dets[frame])
                else:
                    recs = lane.call(f"{idx}:flush", None, False, tracker.flush)
            except Exception as exc:  # a raise ends the stream: the rest of it is lost
                solved = len(tracker.diagnostics)
                lane.out.record_exception(f"scene {idx} window {solved + 1}", exc,
                                          scheduled - solved)
                live.discard(i)
                continue
            records[i].extend(recs)
    for lane, tracker, recs in zip(lanes, trackers, records):
        _check_scene(idx, scene, tracker, recs, lane.out)


def _check_scene(idx: int, scene: Scene, tracker: OnlineTracker, records: list, out: Outcome) -> None:
    bad_windows = set()
    for diag in tracker.diagnostics:
        out.v_int.append(diag.v_int)
        out.proven += diag.epsilon <= checks.PROVEN_TOL
        for problem in checks.certificate_problems(diag.v_lp, diag.v_int, diag.epsilon):
            out.problems.append(f"scene {idx} window {diag.window_t}: {problem}")
            bad_windows.add(diag.window_t)
    last_window = tracker.diagnostics[-1].window_t if tracker.diagnostics else 0
    for frame, problem in checks.commit_problems(records, scene.dets):
        out.problems.append(f"scene {idx} frame {frame}: {problem}")
        bad_windows.add(min(frame, last_window))
    out.failed += len(bad_windows)
    out.add_mot(scene.gt, tracker.tracks())


def _births(cfg: TrackerConfig, instances: list, lanes: list[_Lane]) -> None:
    results: list[list] = [[] for _ in lanes]
    for lane in lanes:
        lane.out.scheduled += len(instances)
    for idx, inst in enumerate(instances):
        for lane, done in zip(lanes, results):
            try:
                res = lane.call(str(idx), "column_generation", True,
                                mcftrack.column_generation, inst.network, inst.vectors,
                                iter_max=cfg.iter_max)
            except Exception as exc:
                lane.out.record_exception(f"instance {idx}", exc, 1)
                res = None
            done.append(res)
    for lane, done in zip(lanes, results):
        out = lane.out
        for idx, (inst, res) in enumerate(zip(instances, done)):
            if res is None:
                continue
            out.v_int.append(res.v_int)
            out.proven += res.epsilon <= checks.PROVEN_TOL
            problems = checks.certificate_problems(res.v_lp, res.v_int, res.epsilon)
            problems += checks.selection_problems(inst.network, inst.vectors, res)
            for problem in problems:
                out.problems.append(f"instance {idx}: {problem}")
            out.failed += bool(problems)
            out.add_mot(inst.gt, checks.selection_tracks(inst.network, res))
