"""Online tracker: windowing, commit latency, spawn/terminate, determinism."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from mcftrack import colgen
from mcftrack import tracker as tracker_module
from mcftrack.graph import GatingConfig
from mcftrack.io import Scenario, parse_scenario, synth_generate
from mcftrack.tracker import (
    CommitRecord,
    ConfigError,
    OnlineTracker,
    TrackerConfig,
    checkpoint,
    run,
)


def cfg(**overrides) -> TrackerConfig:
    base = dict(
        window=3,
        d0=5,
        bypass_cost_tracked=12.0,
        bypass_cost_dummy=19.5,
    )
    base.update(overrides)
    return TrackerConfig(**base)


def noiseless(targets=1, frames=10, **kw) -> Scenario:
    base = dict(
        targets=targets,
        frames=frames,
        miss_prob=0.0,
        clutter_rate=0.0,
        feature_noise=0.0,
        pos_noise=0.0,
        target_score_std=0.0,
        arena_w=240.0,
    )
    base.update(kw)
    return Scenario(**base)


FIXTURES = Path(__file__).parent / "fixtures"


def test_single_target_noiseless_window3():
    dets, gt = synth_generate(noiseless(frames=10), seed=0)
    tracks, diags = run(dets, cfg())
    assert len(tracks) == 1
    (tid, boxes), = tracks.items()
    assert sorted(boxes) == list(range(1, 11))  # zero misses
    gt_boxes = gt[1]
    for f, box in boxes.items():
        assert box == pytest.approx(gt_boxes[f], abs=1e-9)
    assert len(diags) == 8  # one solve per step from frame 3 to 10


def test_output_lags_by_window_minus_one():
    dets, _ = synth_generate(noiseless(frames=10), seed=0)
    tracker = OnlineTracker(cfg())
    for frame in range(1, 11):
        records = tracker.step(frame, dets.get(frame, []))
        if frame < 3:
            assert records == []
        else:
            assert {r.frame for r in records} == {frame - 2}
    tail = tracker.flush()
    assert {r.frame for r in tail} == {9, 10}


def test_window_one_commits_immediately():
    dets, _ = synth_generate(noiseless(frames=8), seed=0)
    tracker = OnlineTracker(cfg(window=1))
    for frame in range(1, 9):
        records = tracker.step(frame, dets.get(frame, []))
        assert all(r.frame == frame for r in records)
        if frame >= 1:
            assert len(records) == 1  # target committed with zero latency
    assert tracker.flush() == []
    assert len(tracker.tracks()) == 1


def test_empty_stream():
    tracks, diags = run({}, cfg())
    assert tracks == {}
    assert diags == []


def test_all_empty_frames():
    tracker = OnlineTracker(cfg())
    for frame in range(1, 7):
        assert tracker.step(frame, []) == []
    assert tracker.flush() == []
    assert tracker.tracks() == {}


def test_deterministic_end_to_end():
    dets, _ = synth_generate(noiseless(targets=2, frames=12, lane_gap=150.0), seed=3)
    a_tracks, a_diags = run(dets, cfg())
    b_tracks, b_diags = run(dets, cfg())
    assert a_tracks == b_tracks
    key = lambda d: (d.window_t, d.iterations, d.v_lp, d.v_int, d.epsilon)
    assert [key(d) for d in a_diags] == [key(d) for d in b_diags]


def test_no_detection_committed_twice():
    dets, _ = synth_generate(noiseless(targets=2, frames=12, lane_gap=150.0), seed=3)
    tracker = OnlineTracker(cfg())
    records: list[CommitRecord] = []
    for frame in range(1, 13):
        records += tracker.step(frame, dets.get(frame, []))
    records += tracker.flush()
    keyed = [(r.frame, r.track_id) for r in records]
    assert len(keyed) == len(set(keyed))
    boxes = [(r.frame, r.box) for r in records]
    assert len(boxes) == len(set(boxes))
    assert len(tracker.tracks()) == 2


def test_prefix_outputs_are_immutable():
    dets, _ = synth_generate(noiseless(frames=10), seed=1)
    full = OnlineTracker(cfg())
    full_records: list[CommitRecord] = []
    for frame in range(1, 11):
        full_records += full.step(frame, dets.get(frame, []))
    prefix = OnlineTracker(cfg())
    prefix_records: list[CommitRecord] = []
    for frame in range(1, 8):
        prefix_records += prefix.step(frame, dets.get(frame, []))
    cutoff = max(r.frame for r in prefix_records)
    assert [r for r in full_records if r.frame <= cutoff] == prefix_records


def test_checkpoint_is_independent():
    dets, _ = synth_generate(noiseless(frames=10), seed=1)
    live = OnlineTracker(cfg())
    for frame in range(1, 6):
        live.step(frame, dets.get(frame, []))
    snap = checkpoint(live)
    rest_live = []
    for frame in range(6, 11):
        rest_live += live.step(frame, dets.get(frame, []))
    rest_snap = []
    for frame in range(6, 11):
        rest_snap += snap.step(frame, dets.get(frame, []))
    assert rest_live == rest_snap


def test_bridges_single_missed_frame():
    dets, _ = synth_generate(noiseless(frames=10), seed=0)
    dets[5] = []
    tracks, _ = run(dets, cfg())
    assert len(tracks) == 1
    (_, boxes), = tracks.items()
    assert sorted(boxes) == [1, 2, 3, 4, 6, 7, 8, 9, 10]


def test_terminates_after_miss_limit():
    dets, _ = synth_generate(noiseless(frames=5), seed=0)
    tracker = OnlineTracker(cfg())
    for frame in range(1, 13):
        tracker.step(frame, dets.get(frame, []))
    tracker.flush()
    assert len(tracker.trajectories) == 1
    traj = tracker.trajectories[0]
    assert not traj.active
    assert max(traj.frames) == 5


def test_flush_covers_streams_shorter_than_window():
    dets, _ = synth_generate(noiseless(frames=2, arena_w=120.0), seed=0)
    tracker = OnlineTracker(cfg(window=5))
    assert tracker.step(1, dets.get(1, [])) == []
    assert tracker.step(2, dets.get(2, [])) == []
    records = tracker.flush()
    assert {r.frame for r in records} == {1, 2}
    assert len(tracker.tracks()) == 1
    # flush is idempotent and terminal
    assert tracker.flush() == []
    with pytest.raises(RuntimeError):
        tracker.step(3, [])


def test_flush_extends_last_step_spawn_and_spawns_late_path():
    # Target A is seen only in frames 8-10, target B only in frames 9-10.
    dets, gt = synth_generate(noiseless(targets=2, frames=10), seed=0)
    first_seen = {1: 8, 2: 9}
    kept = {
        f: [d for d in ds for tid, start in first_seen.items()
            if f >= start and d.box == gt[tid][f]]
        for f, ds in dets.items()
    }
    assert sum(map(len, kept.values())) == 5
    tracker = OnlineTracker(cfg())
    for frame in range(1, 10):
        assert tracker.step(frame, kept.get(frame, [])) == []
    step10 = tracker.step(10, kept[10])
    assert [(r.frame, r.box) for r in step10] == [(8, gt[1][8])]
    tail = tracker.flush()
    assert [r.frame for r in tail] == [9, 9, 10, 10]
    tracks = tracker.tracks()
    assert sorted(map(sorted, tracks.values())) == [[8, 9, 10], [9, 10]]
    for boxes in tracks.values():
        tid = 1 if 8 in boxes else 2
        assert boxes == {f: gt[tid][f] for f in boxes}


def test_frame_order_enforced():
    tracker = OnlineTracker(cfg())
    tracker.step(1, [])
    with pytest.raises(ValueError):
        tracker.step(3, [])
    dets, _ = synth_generate(noiseless(frames=4), seed=0)
    with pytest.raises(ValueError):
        tracker.step(2, dets[3])  # detection frame disagrees with step frame


def test_config_from_text():
    conf = TrackerConfig.from_text("window=5\nd0=7\nbypass_cost_tracked=9.4\n")
    assert conf.window == 5
    assert conf.d0 == 7
    assert conf.bypass_cost_tracked == pytest.approx(9.4)
    assert conf.miss_limit == 5  # defaults to the window
    with pytest.raises(ConfigError):
        TrackerConfig.from_text("no_such_key=1\n")
    with pytest.raises(ConfigError):
        TrackerConfig.from_text("window=abc\n")
    with pytest.raises(ConfigError):
        TrackerConfig.from_text("window=0\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        TrackerConfig.from_text("threads=2\n")
    for text in ("bypass_cost_tracked=nan\n", "gamma=nan\n", "eta=inf\n", "window=inf\n"):
        with pytest.raises(ConfigError, match="bad value"):
            TrackerConfig.from_text(text)
    for text in ("aggressiveness=0\n", "aggressiveness=-0.5\n"):
        with pytest.raises(ConfigError, match="aggressiveness must be positive"):
            TrackerConfig.from_text(text)


def test_config_rejects_non_finite_costs_and_nan_gamma():
    # Both used to pass: a NaN cost then failed the first window's pricing,
    # and a NaN gamma gated out every transition and tracked nothing.
    with pytest.raises(ConfigError, match="termination_cost must be finite"):
        TrackerConfig(termination_cost=float("nan"))
    with pytest.raises(ConfigError, match="bypass_cost_dummy must be finite"):
        cfg(bypass_cost_dummy=float("inf"))
    with pytest.raises(ConfigError, match="gamma must be positive"):
        cfg(gamma=float("nan"))


def test_config_file_takes_gamma_inf_as_no_spatial_gate():
    # TrackerConfig(gamma=inf) disables the spatial gate; a config file can now say so too
    assert TrackerConfig.from_text("gamma=inf\n").gating_config() == GatingConfig(gamma=math.inf)
    floats = [f.name for f in dataclasses.fields(TrackerConfig) if f.type == "float"]
    assert "gamma" in floats and len(floats) > 1
    for name in floats:
        for value in ("nan", "-inf") + (() if name == "gamma" else ("inf",)):
            with pytest.raises(ConfigError, match=f"bad value for '{name}'"):
                TrackerConfig.from_text(f"{name}={value}\n")


def test_diagnostics_lines_are_well_formed():
    dets, _ = synth_generate(noiseless(frames=8), seed=0)
    _, diags = run(dets, cfg())
    assert diags
    for d in diags:
        parts = d.format_line().split(",")
        assert len(parts) == 6
        int(parts[0]), int(parts[1])
        assert d.epsilon >= -1e-9
        assert d.v_lp <= d.v_int + 1e-9


def test_long_windows_converge_below_the_iteration_cap(monkeypatch):
    # The M scene at frames 30 and window 15, seed 3 (long.scenario and
    # long.config, which CI also runs through the installed CLI). With one
    # column per priced track path, 5 of its 16 windows stopped at the
    # 200-iteration cap, after 139,068 master pivots in all; pooling each
    # priced path's sub-paths took 13,178. No window may stop short, at the
    # cap or otherwise (a failed master solve, a round that pools nothing
    # new): each ends by the reduced-cost certificate, which CI's check of
    # the `--log` iteration column cannot see.
    scene = parse_scenario(FIXTURES / "long.scenario")
    config = TrackerConfig.from_text((FIXTURES / "long.config").read_text())
    assert (scene.frames, config.window, config.iter_max) == (30, 15, 200)
    real, results = tracker_module.column_generation, []

    def solve(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tracker_module, "column_generation", solve)
    dets, _ = synth_generate(scene, seed=3)
    _, diags = run(dets, config, max_frame=scene.frames)
    assert len(results) == len(diags) == 16
    assert not [r for r in results if r.status == "iteration-limit"]
    # dummy-only windows (pi None) take the exact flow solve
    solved = [r for r in results if r.pi is not None]
    assert solved and all(r.sigma is not None and colgen.optimality_check(r.zetas, r.sigma)
                          for r in solved)
    assert max(d.iterations for d in diags) < config.iter_max
    assert sum(r.pivots for r in results) <= 40_000


# The wide bench scene at its smoke size (12 frames), for the tests of what
# a tracked window builds.
WIDE_SMOKE = Scenario(targets=24, frames=12, clutter_rate=0.0, feature_dim=24, arena_h=3200.0,
                      lane_gap=120.0, miss_prob=0.05, feature_noise=0.1, pos_noise=1.0,
                      target_score_std=0.0)
WIDE_CONFIG = TrackerConfig(window=3, d0=8, bypass_cost_tracked=12.0, bypass_cost_dummy=19.5)


def test_tracking_builds_no_flow_array(monkeypatch):
    # The tracker reads each window's selection, never CGResult.flows, which
    # are built only when read.
    scene, config = WIDE_SMOKE, WIDE_CONFIG
    real, results = tracker_module.column_generation, []

    def solve(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    def unread(result):
        raise AssertionError("the tracker read a window's flows")

    monkeypatch.setattr(tracker_module, "column_generation", solve)
    monkeypatch.setattr(colgen.CGResult, "flows", property(unread))
    dets, _ = synth_generate(scene, seed=3)
    tracks, _ = run(dets, config, max_frame=scene.frames)
    assert len(results) == 10 and len(tracks) >= 20
    assert sum(len(r.selection) > 1 for r in results) == 9


def test_tracking_builds_no_edge_array(monkeypatch):
    # The tracker, cost assembly and column generation read a network's
    # transitions as arrays, so no window builds the per-edge arrays or the
    # list of pairs, which are built only when read.
    real, networks = tracker_module.build_network, []

    def build(*args, **kwargs):
        networks.append(real(*args, **kwargs))
        return networks[-1]

    monkeypatch.setattr(tracker_module, "build_network", build)
    dets, _ = synth_generate(WIDE_SMOKE, seed=3)
    tracks, _ = run(dets, WIDE_CONFIG, max_frame=WIDE_SMOKE.frames)
    assert len(networks) == 10 and len(tracks) >= 20
    assert all(net.num_shared > net.num_detections for net in networks)  # each has transitions
    built = {"tail", "head", "kind", "owner", "det_a", "det_b", "transitions"}
    assert [built & vars(net).keys() for net in networks] == [set()] * len(networks)
