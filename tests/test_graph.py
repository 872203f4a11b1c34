"""Network construction: gating, id layout, frame ranges, rebuild determinism."""

import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import make_det, random_instance, reference_transitions, unit_feature
from mcftrack import graph
from mcftrack.graph import (
    Detection,
    EdgeKind,
    GatingConfig,
    build_network,
    network_from_parts,
    permissible_transitions,
)
from mcftrack.io import Scenario, load_instance, synth_generate


def test_detection_rejects_bad_box():
    with pytest.raises(ValueError):
        make_det(0, 1, (0, 0, -5, 10))
    with pytest.raises(ValueError):
        make_det(0, 1, (0, 0, 10, 0))


def test_detection_rejects_non_finite_fields():
    # read_detections refuses such rows; the Python API must refuse them too
    nan, inf = float("nan"), float("inf")
    for box, score in (((nan, 0, 2, 2), 0.5), ((0, inf, 2, 2), 0.5), ((0, 0, 2, -inf), 0.5),
                       ((0, 0, inf, 2), 0.5), ((0, 0, 2, 2), nan), ((0, 0, 2, 2), inf)):
        with pytest.raises(ValueError, match="detection 7: non-finite"):
            make_det(7, 1, box, score)
    with pytest.raises(ValueError, match="detection 7: feature norm nan"):
        make_det(7, 1, (0, 0, 2, 2), feature=np.array([nan, 0.0, 0.0]))


def test_gating_rejects_nan_gamma_and_keeps_inf_ungated():
    # NaN compares false both ways, so a `gamma <= 0` check let it gate out
    # every transition; an infinite gamma means no spatial gate at all.
    with pytest.raises(ValueError, match="gamma must be positive"):
        GatingConfig(gamma=float("nan"))
    a, b = make_det(0, 1, (0, 0, 2, 2)), make_det(1, 2, (1e6, 0, 2, 2))
    assert permissible_transitions([a, b], GatingConfig(gamma=2.0)) == []
    assert permissible_transitions([a, b], GatingConfig(gamma=float("inf"))) == [(0, 1)]


class CountingMath:
    """The math module, counting its hypot calls."""

    def __init__(self) -> None:
        self.hypot_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def hypot(self, *args):
        self.hypot_calls += 1
        return math.hypot(*args)


def test_infinite_gamma_settles_no_pair_by_the_scalar_rule(monkeypatch):
    # An infinite reach admits every distance however it rounds, so no pair
    # may take the scalar math.hypot rule. The first window (frames 1-10) of
    # the M scene at clutter_rate 2.0 holds about 1,500 ungated pairs. A
    # finite reach too far for any pair to be near it re-gates none either:
    # the math.hypot calls it makes (the box diagonals) are the baseline.
    scene = Scenario(targets=5, frames=10, miss_prob=0.05, clutter_rate=2.0,
                     feature_noise=0.1, feature_dim=12, pos_noise=1.0, lane_gap=80.0,
                     target_score_std=0.0)
    by_frame, _ = synth_generate(scene, seed=3)
    dets = [d for f in range(1, 11) for d in by_frame.get(f, [])]
    ungated = GatingConfig(gamma=math.inf)
    want = reference_transitions(dets, ungated)
    counting = CountingMath()
    monkeypatch.setattr(graph, "math", counting)
    calls = {}
    for gamma in (1e9, math.inf):
        counting.hypot_calls = 0
        assert permissible_transitions(dets, GatingConfig(gamma=gamma)) == want
        calls[gamma] = counting.hypot_calls
    assert len(dets) > 60 and len(want) > 1000
    assert calls[math.inf] == calls[1e9]


def test_detection_rejects_non_unit_feature():
    with pytest.raises(ValueError):
        Detection(det_id=0, frame=1, box=(0, 0, 1, 1), score=0.5,
                  feature=np.array([1.0, 1.0]))


def test_transitions_same_center_consecutive_frames_included():
    a = make_det(0, 1, (0, 0, 10, 10))
    b = make_det(1, 2, (0, 0, 10, 10))
    assert (0, 1) in permissible_transitions([a, b], GatingConfig())


def test_transitions_same_frame_excluded():
    a = make_det(0, 3, (0, 0, 10, 10))
    b = make_det(1, 3, (0, 0, 10, 10))
    assert permissible_transitions([a, b], GatingConfig()) == []


def test_transitions_distance_gate():
    # centers 100 apart, 10x10 boxes: 100 > 2.0 * 1 * 10*sqrt(2)
    a = make_det(0, 1, (-5, -5, 10, 10))
    b = make_det(1, 2, (95, -5, 10, 10))
    assert permissible_transitions([a, b], GatingConfig(max_gap=3, gamma=2.0)) == []


def test_transitions_gap_gate():
    a = make_det(0, 1, (0, 0, 10, 10))
    b = make_det(1, 5, (0, 0, 10, 10))
    assert permissible_transitions([a, b], GatingConfig(max_gap=3)) == []
    assert permissible_transitions([a, b], GatingConfig(max_gap=4)) == [(0, 1)]


def test_transitions_radius_scales_with_gap():
    # gap 2 doubles the allowed distance relative to gap 1
    a = make_det(0, 1, (-5, -5, 10, 10))
    b = make_det(1, 3, (35, -5, 10, 10))  # distance 40 < 2.0*2*14.14
    c = make_det(2, 2, (35, -5, 10, 10))  # same distance at gap 1: 40 > 28.3
    got = permissible_transitions([a, c, b], GatingConfig(max_gap=3, gamma=2.0))
    assert (0, 2) in got and (0, 1) not in got


def test_transitions_sorted_and_deterministic():
    rng = np.random.default_rng(0)
    dets = [make_det(i, int(rng.integers(1, 4)),
                     (rng.uniform(0, 60), rng.uniform(0, 60), 10, 10))
            for i in range(8)]
    dets.sort(key=lambda d: d.frame)
    dets = [make_det(i, d.frame, d.box) for i, d in enumerate(dets)]
    one = permissible_transitions(dets, GatingConfig())
    two = permissible_transitions(dets, GatingConfig())
    assert one == two == sorted(one)


def random_scene(rng, grid: bool):
    """Frame-sorted detections; on a grid, 3x4 boxes make exact-reach ties common."""
    n = int(rng.integers(0, 40))
    frames = np.sort(rng.integers(1, int(rng.integers(1, 9)) + 1, size=n))
    dets = []
    for i, f in enumerate(frames):
        if grid:
            w, h = (3.0, 4.0) if rng.random() < 0.5 else (6.0, 8.0)
            x, y = float(rng.integers(0, 12)), float(rng.integers(0, 12))
        else:
            w, h = rng.uniform(1, 20), rng.uniform(1, 20)
            x, y = rng.uniform(0, 80), rng.uniform(0, 80)
        dets.append(make_det(i, int(f), (x, y, w, h)))
    return dets


def test_transitions_match_scalar_reference_on_random_scenes():
    rng = np.random.default_rng(12)
    admitted = 0
    for scene in range(200):
        dets = random_scene(rng, grid=scene % 2 == 0)
        gating = GatingConfig(max_gap=int(rng.integers(1, 5)),
                              gamma=float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 3)])))
        got = permissible_transitions(dets, gating)
        assert got == reference_transitions(dets, gating), scene
        assert all(type(i) is int and type(j) is int for i, j in got)
        admitted += len(got)
    assert admitted > 1000


def test_transitions_admit_distance_equal_to_reach():
    # 3x4 boxes have diagonal 5; centers 3-4-5 apart at gap 1 with gamma 1: reach 5.
    a = make_det(0, 1, (0, 0, 3, 4))
    b = make_det(1, 2, (3, 4, 3, 4))
    beyond = make_det(1, 2, (3, 4.000001, 3, 4))
    gating = GatingConfig(max_gap=1, gamma=1.0)
    assert permissible_transitions([a, b], gating) == [(0, 1)]
    assert permissible_transitions([a, beyond], gating) == []
    assert reference_transitions([a, b], gating) == [(0, 1)]


def test_transitions_settle_hypot_rounding_by_the_scalar_rule():
    """Where np.hypot and math.hypot round apart, a reach equal to the smaller
    of the two flips the decision; the gate must follow math.hypot."""
    rng = np.random.default_rng(1)
    a = make_det(0, 1, (0, 0, 2, 2))
    diag = a.diagonal
    outcomes = []
    for _ in range(20_000):
        if len(outcomes) == 20:
            break
        dx, dy = rng.integers(1, 1 << 16, size=2) / 1024.0  # exact center offsets
        exact, vectorised = math.hypot(dx, dy), float(np.hypot(dx, dy))
        if exact == vectorised:
            continue
        target = min(exact, vectorised)
        gamma = target / diag
        for _ in range(4):  # nudge gamma until the reach is exactly the target
            reach = gamma * 1 * 0.5 * (diag + diag)
            if reach == target:
                break
            gamma = float(np.nextafter(gamma, np.inf if reach < target else -np.inf))
        if reach != target:
            continue
        b = make_det(1, 2, (dx, dy, 2, 2))
        gating = GatingConfig(max_gap=1, gamma=gamma)
        want = reference_transitions([a, b], gating)
        assert permissible_transitions([a, b], gating) == want, (dx, dy, gamma)
        outcomes.append(bool(want))
    if not outcomes:
        pytest.skip("np.hypot rounds as math.hypot does on this platform")


def test_transitions_gap_at_and_past_max_gap():
    gating = GatingConfig(max_gap=2)
    a = make_det(0, 1, (0, 0, 10, 10))
    at = make_det(1, 3, (0, 0, 10, 10))
    past = make_det(2, 4, (0, 0, 10, 10))
    assert permissible_transitions([a, at, past], gating) == [(0, 1), (1, 2)]
    assert permissible_transitions([a, past], gating) == []


def test_transitions_degenerate_windows():
    gating = GatingConfig()
    same = [make_det(i, 4, (0, 0, 10, 10)) for i in range(3)]
    assert permissible_transitions(same, gating) == []
    assert permissible_transitions([], gating) == []
    assert permissible_transitions(same[:1], gating) == []


def test_unsorted_frames_raise():
    dets = [make_det(0, 2, (0, 0, 10, 10)), make_det(1, 1, (0, 0, 10, 10))]
    with pytest.raises(ValueError):
        permissible_transitions(dets, GatingConfig())
    with pytest.raises(ValueError):
        reference_transitions(dets, GatingConfig())
    with pytest.raises(ValueError):
        network_from_parts(dets, [], [1])


def test_empty_window_network():
    net = build_network([], [], [20], GatingConfig())
    assert net.num_commodities == 1
    assert net.num_nodes == 2
    assert net.num_edges == 1
    assert EdgeKind(net.kind[net.bypass_edge(0)]) == EdgeKind.BYPASS


def test_counts_three_dets_two_tracked():
    # one-frame gating: exactly the 2 consecutive transitions
    dets = [make_det(i, i + 1, (5.0 * i, 0, 10, 10)) for i in range(3)]
    net = build_network(dets, [object(), object()], [20, 1, 1], GatingConfig(max_gap=1))
    assert net.num_commodities == 3
    assert net.num_nodes == 2 * 3 + 2 * 3
    n_obs = sum(1 for e in range(net.num_edges)
                if EdgeKind(net.kind[e]) == EdgeKind.OBSERVATION)
    n_trans = sum(1 for e in range(net.num_edges)
                  if EdgeKind(net.kind[e]) == EdgeKind.TRANSITION)
    assert (n_obs, n_trans) == (3, 2)
    for k in range(3):
        block = [e for e in range(net.num_edges) if not net.is_shared(e)
                 and net.owner[e] == k]
        kinds = [EdgeKind(net.kind[e]) for e in block]
        assert kinds.count(EdgeKind.START) == 3
        assert kinds.count(EdgeKind.TERMINATION) == 3
        assert kinds.count(EdgeKind.BYPASS) == 1
    assert net.num_edges == 5 + 3 * 7


def test_edge_id_layout():
    dets = [make_det(i, i + 1, (5.0 * i, 0, 10, 10)) for i in range(3)]
    net = build_network(dets, [object()], [20, 1], GatingConfig())
    # shared edges first: observation 0..2 then transitions
    for i in range(3):
        assert EdgeKind(net.kind[i]) == EdgeKind.OBSERVATION
        assert net.tail[i] == net.u_node(i) == 2 * i
        assert net.head[i] == net.v_node(i) == 2 * i + 1
    shared = [e for e in range(net.num_edges) if net.is_shared(e)]
    assert shared == list(range(len(shared)))
    # per-commodity blocks are contiguous and identically shaped
    for k in range(net.num_commodities):
        start = net.block_start(k)
        assert net.start_edge(k, 0) == start
        assert EdgeKind(net.kind[net.term_edge(k, 0)]) == EdgeKind.TERMINATION
        assert net.bypass_edge(k) == start + 2 * 3
        assert net.tail[net.bypass_edge(k)] == net.source(k)
        assert net.head[net.bypass_edge(k)] == net.sink(k)


def test_demands_are_taken_as_given():
    dets = [make_det(0, 1, (0, 0, 10, 10))]
    net = build_network(dets, [object(), object()], [20, 1, 1], GatingConfig())
    assert list(net.demands) == [20, 1, 1]
    net2 = build_network(dets, [object()], [3, 1], GatingConfig())
    assert list(net2.demands) == [3, 1]
    with pytest.raises(ValueError, match="demands length 1 != commodity count 2"):
        build_network(dets, [object()], [3], GatingConfig())


def test_duplicate_det_id_rejected():
    a = make_det(0, 1, (0, 0, 10, 10))
    b = make_det(0, 2, (0, 0, 10, 10))
    with pytest.raises(ValueError):
        build_network([a, b], [], [20], GatingConfig())


def frame_ranges(net):
    """Per detection, the index of its frame's range; asserts the ranges are contiguous."""
    frames = np.array([d.frame for d in net.detections])
    rank = np.r_[0, np.cumsum(np.diff(frames) != 0)]
    assert rank[-1] + 1 == len(set(frames)), "a frame's detections are split"
    return rank


def test_frame_ranges_chain():
    dets = [make_det(0, 1, (0, 0, 10, 10))]
    net = build_network(dets, [], [1], GatingConfig())
    assert list(frame_ranges(net)) == [0]
    assert net.head[net.start_edge(0, 0)] == net.u_node(0)
    assert (net.tail[0], net.head[0]) == (net.u_node(0), net.v_node(0))
    assert net.tail[net.term_edge(0, 0)] == net.v_node(0)


def test_frame_ranges_all_edges_forward():
    layered = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        dets = [make_det(i, int(rng.integers(1, 5)),
                         (rng.uniform(0, 80), rng.uniform(0, 80), 15, 15),
                         feature=unit_feature(rng, 4))
                for i in range(n)]
        dets.sort(key=lambda d: d.frame)
        dets = [make_det(i, d.frame, d.box, d.score, np.asarray(d.feature))
                for i, d in enumerate(dets)]
        tracked = int(rng.integers(0, 3))
        net = build_network(dets, [object()] * tracked, [20] + [1] * tracked, GatingConfig())
        rank = frame_ranges(net)
        for i, j in net.transitions:
            assert rank[i] < rank[j]
        layered += len(net.transitions) > 0
    assert layered > 0


def test_every_commodity_has_a_path():
    dets = [make_det(0, 1, (0, 0, 10, 10))]
    net = build_network(dets, [object(), object()], [20, 1, 1], GatingConfig())
    for k in range(net.num_commodities):
        # bypass alone reaches the sink
        e = net.bypass_edge(k)
        assert net.tail[e] == net.source(k) and net.head[e] == net.sink(k)


def test_rebuild_bit_identical():
    rng = np.random.default_rng(3)
    dets = [make_det(i, int(rng.integers(1, 4)),
                     (rng.uniform(0, 50), rng.uniform(0, 50), 12, 12))
            for i in range(6)]
    dets.sort(key=lambda d: d.frame)
    dets = [make_det(i, d.frame, d.box) for i, d in enumerate(dets)]
    a = build_network(dets, [object()], [20, 1], GatingConfig())
    b = build_network(dets, [object()], [20, 1], GatingConfig())
    assert np.array_equal(a.tail, b.tail)
    assert np.array_equal(a.head, b.head)
    assert np.array_equal(a.kind, b.kind)
    assert np.array_equal(a.demands, b.demands)


def test_network_from_parts_validates():
    dets = [make_det(0, 1, (0, 0, 10, 10)), make_det(1, 2, (0, 0, 10, 10))]
    net = network_from_parts(dets, [(0, 1)], [1, 1])
    assert net.num_commodities == 2

    def rejects(message, detections, transitions, demands):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            network_from_parts(detections, transitions, demands)

    rejects("transition (1,0) does not advance in frame", dets, [(1, 0)], [1])
    rejects("transition (0,0) does not advance in frame", dets, [(0, 1), (0, 0)], [1])
    rejects("duplicate transition pairs", dets, [(0, 1), (0, 1)], [1])
    rejects("transition (0,5) out of range", dets, [(0, 5)], [1])
    rejects("transition (-1,1) out of range", dets, [(0, 1), (-1, 1)], [1])
    rejects(f"transition (0,{2**63}) out of range", dets, [(0, 1), (0, 2**63)], [1])
    # the first offending pair in sorted order is named, whatever its fault
    rejects("transition (0,5) out of range", dets, [(1, 0), (0, 5)], [1])
    rejects("transition (0,0) does not advance in frame", dets, [(1, 9), (0, 0)], [1])
    rejects("duplicate det_id 0", [dets[0], make_det(0, 2, (0, 0, 10, 10))], [], [1])
    rejects("detections must be sorted by frame", dets[::-1], [], [1])
    rejects("demands must be a nonempty 1-D sequence", dets, [(0, 1)], [])
    rejects("dummy demand must be nonnegative", dets, [(0, 1)], [-1])
    rejects("tracked commodity demands must all be 1", dets, [(0, 1)], [1, 2])


def test_out_edges_ascending():
    dets = [make_det(i, i + 1, (4.0 * i, 0, 10, 10)) for i in range(3)]
    net = build_network(dets, [object()], [20, 1], GatingConfig())
    for k in range(net.num_commodities):
        for node in range(net.num_nodes):
            out = list(net.out_edges(node, k))
            assert out == sorted(out)


def random_network(seed: int):
    rng = np.random.default_rng(seed)
    dets = random_scene(rng, grid=False)
    dets = [make_det(d.det_id, d.frame, d.box, float(rng.uniform(0, 1)),
                     unit_feature(rng, 3), dim=3) for d in dets]
    tracked = int(rng.integers(0, 4))
    net = build_network(dets, [object()] * tracked, [int(rng.integers(0, 4))] + [1] * tracked,
                        GatingConfig(max_gap=int(rng.integers(1, 4))))
    return dets, net


def test_edge_arrays_agree_with_id_arithmetic():
    for seed in range(30):
        dets, net = random_network(seed)
        n, ns, nc = len(dets), net.num_shared, net.num_commodities
        assert net.num_edges == ns + nc * (2 * n + 1)
        expect = {}  # edge id -> (tail, head, kind, owner, det_a, det_b)
        for i in range(n):
            expect[i] = (net.u_node(i), net.v_node(i), EdgeKind.OBSERVATION, -1, i, -1)
        for e, (i, j) in enumerate(net.transitions, start=n):
            expect[e] = (net.v_node(i), net.u_node(j), EdgeKind.TRANSITION, -1, i, j)
        for k in range(nc):
            assert net.block_start(k) == ns + k * (2 * n + 1)
            for i in range(n):
                expect[net.start_edge(k, i)] = (
                    net.source(k), net.u_node(i), EdgeKind.START, k, i, -1)
                expect[net.term_edge(k, i)] = (
                    net.v_node(i), net.sink(k), EdgeKind.TERMINATION, k, i, -1)
            expect[net.bypass_edge(k)] = (
                net.source(k), net.sink(k), EdgeKind.BYPASS, k, -1, -1)
        assert sorted(expect) == list(range(net.num_edges))
        arrays = (net.tail, net.head, net.kind, net.owner, net.det_a, net.det_b)
        for e, want in expect.items():
            assert tuple(int(a[e]) for a in arrays) == want, (seed, e)
        for a in arrays:
            assert a.dtype == np.int64 and not a.flags.writeable
        for k in range(nc):
            for node in range(net.num_nodes):
                visible = [e for e in range(net.num_edges)
                           if net.tail[e] == node and net.owner[e] in (-1, k)]
                assert list(net.out_edges(node, k)) == visible, (seed, k, node)


NETWORK_ARRAYS = ("demands", "trans_tail", "trans_head", "frames", "boxes", "features",
                  "tail", "head", "kind", "owner", "det_a", "det_b")


def assert_same_network(a, b):
    """Networks equal field for field: detections, arrays, read-only flags, pairs."""
    assert len(a.detections) == len(b.detections)
    assert all(x is y for x, y in zip(a.detections, b.detections))
    for name in NETWORK_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name
        assert x.flags.writeable == y.flags.writeable, name
    assert a.transitions == b.transitions
    assert (a.num_shared, a.num_edges) == (b.num_shared, b.num_edges)


def test_network_from_parts_agrees_with_build_network():
    for seed in range(30):
        dets, net = random_network(seed)
        pairs = net.transitions[::-1]  # any order
        rebuilt = network_from_parts(dets, pairs, net.demands)
        assert_same_network(net, rebuilt)
        assert rebuilt.trans_tail.dtype == np.int64 and not rebuilt.trans_tail.flags.writeable
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.instance")):
        loaded, _ = load_instance(path)
        built = build_network(loaded.detections, [object()] * loaded.num_tracked,
                              loaded.demands, GatingConfig())
        assert_same_network(built, loaded)


def test_cost_index_maps_each_commoditys_edges_onto_its_cost_vector():
    for seed in range(60):
        net, costs = random_instance(seed, max_dets=12, max_tracked=4, oracle_budget=None)
        n, ns = net.num_detections, net.num_shared
        assert net.cost_size == ns + 2 * n + 1
        for k in range(net.num_commodities):
            assert costs[k].shape == (net.cost_size,)
            usable = np.flatnonzero(np.isin(net.owner, (-1, k))).tolist()
            index = [net.cost_index(k, e) for e in usable]
            assert index == list(range(net.cost_size)), (seed, k)  # one to one, in id order
            for i in range(n):
                assert net.cost_index(k, net.start_edge(k, i)) == ns + i
                assert net.cost_index(k, net.term_edge(k, i)) == ns + n + i
            assert net.cost_index(k, net.bypass_edge(k)) == ns + 2 * n


def test_random_instance_cost_stream_is_unchanged():
    # random_instance draws every commodity's costs over all edge ids and
    # keeps the commodity's own entries. The digest pins the values that
    # the seeds draw, on which every seeded expectation in the tests rests.
    digest = hashlib.sha256()
    for seed in range(40):
        _, costs = random_instance(seed)
        for values in costs:
            digest.update(values.tobytes())
    assert digest.hexdigest() == (
        "206d7445b4d2b44a18401126e6c14c0b48cf825fc7e2c006eae245ab37e8568b")


def test_detection_arrays_match_detections():
    for seed in range(10):
        dets, net = random_network(seed)
        assert net.frames.tolist() == [d.frame for d in dets]
        assert [tuple(b) for b in net.boxes.tolist()] == [d.box for d in dets]
        assert net.boxes.shape == (len(dets), 4)
        if dets:
            assert np.array_equal(net.features, np.stack([d.feature for d in dets]))
        for a in (net.frames, net.boxes, net.features):
            assert not a.flags.writeable


def test_path_detections_reads_observation_edges():
    dets, net = random_network(4)
    assert net.transitions
    i, j = net.transitions[0]
    trans = len(dets)  # first transition edge id
    path = [net.start_edge(0, i), i, trans, j, net.term_edge(0, j)]
    assert net.path_detections(path) == [i, j]
    assert net.path_detections(tuple(path)) == [i, j]
    assert net.path_detections([net.bypass_edge(0)]) == []
    assert net.path_detections([]) == []
