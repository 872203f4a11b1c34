"""Edge cost rules: worked arithmetic, ranges, and vectorized assembly."""

import numpy as np
import pytest

from helpers import fake_track, make_det, unit_feature
from mcftrack.costs import (
    CostConfig,
    assemble_cost_vector,
    assemble_cost_vectors,
    dummy_observation_cost,
    dummy_transition_cost,
    iou,
    observation_cost,
    predict_box,
    start_cost,
    transition_cost,
)
from mcftrack.graph import EdgeKind, GatingConfig, build_network
from mcftrack.simlearn import SimilarityModel


@pytest.mark.parametrize("name", [
    "termination_cost", "dummy_start_cost", "bypass_cost_tracked", "bypass_cost_dummy",
])
def test_cost_config_rejects_non_finite_costs(name):
    # pricing needs a finite cost on every edge; refuse one at construction
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CostConfig(**{name: value})


def box_at(cx, cy, w=10.0, h=10.0):
    return (cx - w / 2, cy - h / 2, w, h)


# -- IoU ------------------------------------------------------------------------

def test_iou_identical_is_one():
    b = np.array([3.0, 4.0, 10.0, 20.0])
    assert iou(b, b) == 1.0


def test_iou_disjoint_is_zero():
    assert iou(np.array([0, 0, 10, 10.0]), np.array([20, 20, 10, 10.0])) == 0.0


def test_iou_half_overlap():
    a = np.array([0, 0, 10, 10.0])
    b = np.array([0, 0, 20, 10.0])  # intersection 100, union 200
    assert iou(a, b) == pytest.approx(0.5)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = np.array([rng.uniform(0, 50), rng.uniform(0, 50),
                      rng.uniform(1, 30), rng.uniform(1, 30)])
        b = np.array([rng.uniform(0, 50), rng.uniform(0, 50),
                      rng.uniform(1, 30), rng.uniform(1, 30)])
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


# -- observation / transition --------------------------------------------------

def test_observation_cost_identity_match():
    tr = fake_track(box_at(0, 0), 1, feature=[1.0, 0.0], dim=2)
    det = make_det(0, 2, box_at(0, 0), feature=np.array([1.0, 0.0]))
    assert observation_cost(tr, det) == pytest.approx(-1.0)


def test_observation_cost_orthogonal():
    tr = fake_track(box_at(0, 0), 1, feature=[1.0, 0.0], dim=2)
    det = make_det(0, 2, box_at(0, 0), feature=np.array([0.0, 1.0]))
    assert observation_cost(tr, det) == pytest.approx(0.0)


def test_observation_cost_learned_matrix():
    tr = fake_track(box_at(0, 0), 1, feature=[1.0, 0.0], dim=2)
    tr.model = SimilarityModel(W=np.array([[0.0, 1.0], [0.0, 1.0]]), aggressiveness=0.1)
    det = make_det(0, 2, box_at(0, 0), feature=np.array([0.0, 1.0]))
    assert observation_cost(tr, det) == pytest.approx(-1.0)


def test_observation_cost_linear_in_w():
    rng = np.random.default_rng(1)
    tr = fake_track(box_at(0, 0), 1, feature=unit_feature(rng, 4))
    det = make_det(0, 2, box_at(0, 0), feature=unit_feature(rng, 4))
    base = observation_cost(tr, det)
    tr.model = SimilarityModel(W=3.0 * tr.model.W, aggressiveness=0.1)
    assert observation_cost(tr, det) == pytest.approx(3.0 * base)


def test_dummy_observation_cost_is_negative_score():
    det = make_det(0, 1, box_at(0, 0), score=0.8)
    assert dummy_observation_cost(det) == pytest.approx(-0.8)
    assert dummy_observation_cost(make_det(0, 1, box_at(0, 0), score=0.0)) == 0.0
    assert dummy_observation_cost(make_det(0, 1, box_at(0, 0), score=-0.3)) == pytest.approx(0.3)


def test_transition_cost_worked_examples():
    tr = fake_track(box_at(0, 0), 1, feature=[1.0, 0.0], dim=2)
    a = make_det(0, 2, box_at(0, 0), feature=np.array([1.0, 0.0]))
    b = make_det(1, 3, box_at(0, 0), feature=np.array([1.0, 0.0]))
    assert transition_cost(tr, a, b) == pytest.approx(-1.0)
    c = make_det(2, 3, box_at(0, 0), feature=np.array([0.0, 1.0]))
    assert transition_cost(tr, a, c) == pytest.approx(0.0)
    tr.model = SimilarityModel(W=2.0 * np.eye(2), aggressiveness=0.1)
    assert transition_cost(tr, a, b) == pytest.approx(-2.0)


def test_dummy_transition_cost_cosine():
    a = make_det(0, 1, box_at(0, 0), feature=np.array([0.6, 0.8]))
    b = make_det(1, 2, box_at(0, 0), feature=np.array([1.0, 0.0]))
    assert dummy_transition_cost(a, b) == pytest.approx(-0.6)
    assert dummy_transition_cost(a, a) == pytest.approx(-1.0)
    c = make_det(2, 2, box_at(0, 0), feature=np.array([-0.8, 0.6]))
    assert dummy_transition_cost(a, c) == pytest.approx(0.0)


def test_dummy_transition_cost_bounded():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = make_det(0, 1, box_at(0, 0), feature=unit_feature(rng, 6))
        b = make_det(1, 2, box_at(0, 0), feature=unit_feature(rng, 6))
        assert -1.0 - 1e-12 <= dummy_transition_cost(a, b) <= 1.0 + 1e-12


# -- prediction / start ----------------------------------------------------------

def test_predict_linear_extrapolation():
    tr = fake_track(box_at(4, 0), 2, velocity=(4.0, 0.0))
    box = predict_box(tr, 4)
    cx = box[0] + box[2] / 2
    assert cx == pytest.approx(12.0)


def test_predict_single_observation_zero_velocity():
    tr = fake_track(box_at(7, 3), 5)
    box = predict_box(tr, 9)
    assert (box[0] + box[2] / 2, box[1] + box[3] / 2) == pytest.approx((7.0, 3.0))


def test_predict_velocity_gap_three():
    tr = fake_track(box_at(0, 0), 1, velocity=(-2.0, 1.0))
    box = predict_box(tr, 4)
    assert (box[0] + box[2] / 2, box[1] + box[3] / 2) == pytest.approx((-6.0, 3.0))


def test_predict_rejects_backward():
    tr = fake_track(box_at(0, 0), 5)
    with pytest.raises(ValueError):
        predict_box(tr, 5)


def test_start_cost_gap_one_perfect_overlap():
    tr = fake_track(box_at(0, 0), 1)
    det = make_det(0, 2, box_at(0, 0))
    assert start_cost(tr, det, CostConfig()) == pytest.approx(-0.95)


def test_start_cost_gap_two_half_overlap():
    tr = fake_track((0, 0, 10, 10), 1)
    det = make_det(0, 3, (0, 0, 20, 10))
    assert start_cost(tr, det, CostConfig()) == pytest.approx(-0.95 ** 2 * 0.5)
    assert start_cost(tr, det, CostConfig()) == pytest.approx(-0.45125)


def test_start_cost_zero_overlap():
    tr = fake_track(box_at(0, 0), 1)
    det = make_det(0, 2, box_at(500, 500))
    assert start_cost(tr, det, CostConfig()) == 0.0


def test_start_cost_in_range():
    rng = np.random.default_rng(4)
    for _ in range(100):
        tr = fake_track(box_at(rng.uniform(0, 30), rng.uniform(0, 30)), 1,
                        velocity=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        det = make_det(0, int(rng.integers(2, 6)),
                       box_at(rng.uniform(0, 30), rng.uniform(0, 30)))
        assert -1.0 <= start_cost(tr, det, CostConfig()) <= 0.0


# -- assembly --------------------------------------------------------------------

def test_assemble_dummy_constants():
    dets = [make_det(i, i + 1, box_at(3.0 * i, 0), score=0.5) for i in range(3)]
    net = build_network(dets, [], [2], GatingConfig())
    cv = assemble_cost_vector(net, 0, [], CostConfig())
    assert cv.values.shape == (net.cost_size,)
    for e in range(net.num_edges):
        kind = EdgeKind(net.kind[e])
        if kind == EdgeKind.START:
            assert cv.values[e] == 10.0
        elif kind == EdgeKind.TERMINATION:
            assert cv.values[e] == 10.0
        elif kind == EdgeKind.BYPASS and net.owner[e] == 0:
            assert cv.values[e] == 0.0


def test_assemble_tracked_constants():
    dets = [make_det(i, i + 1, box_at(3.0 * i, 0)) for i in range(2)]
    tr = fake_track(box_at(0, 0), 0)
    net = build_network(dets, [tr], None, GatingConfig())
    cv = assemble_cost_vector(net, 1, [tr], CostConfig())
    for e in range(net.num_edges):
        kind = EdgeKind(net.kind[e])
        if kind == EdgeKind.TERMINATION and net.owner[e] == 1:
            assert cv.values[net.cost_index(1, e)] == 10.0
        if kind == EdgeKind.BYPASS and net.owner[e] == 1:
            assert cv.values[net.cost_index(1, e)] == 5.0


def test_assemble_matches_scalar_rules():
    rng = np.random.default_rng(9)
    dets = []
    for i in range(6):
        dets.append(make_det(i, i // 2 + 1,
                             box_at(rng.uniform(0, 40), rng.uniform(0, 40)),
                             score=float(rng.uniform(0, 1)),
                             feature=unit_feature(rng, 4)))
    tracks = [fake_track(box_at(5, 5), 0, feature=unit_feature(rng, 4)),
              fake_track(box_at(30, 30), 0, feature=unit_feature(rng, 4))]
    net = build_network(dets, tracks, None, GatingConfig())
    cfg = CostConfig()
    for k in range(net.num_commodities):
        cv = assemble_cost_vector(net, k, tracks, cfg)
        for e in range(net.num_edges):
            kind = EdgeKind(net.kind[e])
            if kind == EdgeKind.OBSERVATION:
                det = dets[net.det_a[e]]
                want = (dummy_observation_cost(det) if k == 0
                        else observation_cost(tracks[k - 1], det))
            elif kind == EdgeKind.TRANSITION:
                a, b = dets[net.det_a[e]], dets[net.det_b[e]]
                want = (dummy_transition_cost(a, b) if k == 0
                        else transition_cost(tracks[k - 1], a, b))
            elif kind == EdgeKind.START and net.owner[e] == k:
                det = dets[net.det_a[e]]
                want = (cfg.dummy_start_cost if k == 0
                        else start_cost(tracks[k - 1], det, cfg))
            elif kind == EdgeKind.TERMINATION and net.owner[e] == k:
                want = cfg.termination_cost
            elif kind == EdgeKind.BYPASS and net.owner[e] == k:
                want = cfg.bypass_cost_dummy if k == 0 else cfg.bypass_cost_tracked
            else:
                continue
            got = cv.values[net.cost_index(k, e)]
            assert got == pytest.approx(want, abs=1e-12), (k, e, kind)


def test_assemble_requires_known_commodity():
    dets = [make_det(0, 1, box_at(0, 0))]
    net = build_network(dets, [], None, GatingConfig())
    with pytest.raises(ValueError):
        assemble_cost_vector(net, 1, [], CostConfig())


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_assembled_starts_are_bitwise_start_cost():
    # gaps 1-4 against a moving track; perfect, partial and zero overlap
    tracks = [fake_track((0, 0, 10, 10), 0, velocity=(3.0, 1.5)),
              fake_track((40, 7, 12, 9), 0, velocity=(-0.7, 0.0))]
    dets = []
    for gap in range(1, 5):
        dets += [make_det(len(dets), gap, (3.0 * gap, 1.5 * gap, 10, 10)),
                 make_det(len(dets) + 1, gap, (3.0 * gap + 4.3, 1.5 * gap - 2.1, 7, 13)),
                 make_det(len(dets) + 2, gap, (500, 500, 10, 10))]
    net = build_network(dets, tracks, None, GatingConfig())
    for eta in (0.95, 0.3, 1.0):
        cfg = CostConfig(eta=eta)
        for k in (1, 2):
            want = [start_cost(tracks[k - 1], d, cfg) for d in dets]
            if k == 1:
                assert any(w == 0.0 for w in want) and any(-1.0 < w < 0.0 for w in want)
            values = assemble_cost_vector(net, k, tracks, cfg).values
            got = values[[net.cost_index(k, net.start_edge(k, i)) for i in range(len(dets))]]
            assert np.array_equal(bits(got), bits(want)), (eta, k)


def test_assembled_starts_bitwise_on_random_scenes():
    rng = np.random.default_rng(11)
    for _ in range(40):
        last = int(rng.integers(0, 3))
        track = fake_track((rng.uniform(0, 30), rng.uniform(0, 30),
                            rng.uniform(5, 15), rng.uniform(5, 15)), last,
                           velocity=(rng.uniform(-4, 4), rng.uniform(-4, 4)))
        frames = np.sort(rng.integers(last + 1, last + 6, size=int(rng.integers(1, 12))))
        dets = [make_det(i, int(f), (rng.uniform(0, 40), rng.uniform(0, 40),
                                     rng.uniform(3, 20), rng.uniform(3, 20)))
                for i, f in enumerate(frames)]
        net = build_network(dets, [track], None, GatingConfig())
        cfg = CostConfig(eta=float(rng.uniform(0.05, 1.0)))
        values = assemble_cost_vector(net, 1, [track], cfg).values
        want = [start_cost(track, d, cfg) for d in dets]
        first = net.cost_index(1, net.start_edge(1, 0))
        got = values[first : first + len(dets)]
        assert np.array_equal(bits(got), bits(want))


def test_assemble_rejects_detection_not_after_last_frame():
    tr = fake_track(box_at(0, 0), 3)
    dets = [make_det(0, 3, box_at(0, 0)), make_det(1, 4, box_at(0, 0))]
    net = build_network(dets, [tr], None, GatingConfig())
    assemble_cost_vector(net, 0, [tr], CostConfig())  # the dummy has no prediction
    with pytest.raises(ValueError, match="does not follow frame 3"):
        assemble_cost_vector(net, 1, [tr], CostConfig())


def reference_rows(net, tracks, cfg):
    """Each commodity's vector by the scalar rules, one commodity at a time.

    The similarity entries use the per-commodity matrix products that
    assembly keeps (a scalar similarity() sums in another order); every
    other entry is a scalar rule's value.
    """
    n, ns = net.num_detections, net.num_shared
    a, b = net.det_a[n:ns], net.det_b[n:ns]
    rows = []
    for k in range(net.num_commodities):
        row = np.zeros(net.cost_size)
        if k == 0:
            obs = [dummy_observation_cost(d) for d in net.detections]
            gram = net.features @ net.features.T if n else None
            starts = [cfg.dummy_start_cost] * n
        else:
            t = tracks[k - 1]
            obs = -(net.features @ (t.model.W.T @ t.template)) if n else []
            gram = net.features @ t.model.W @ net.features.T if n else None
            starts = [start_cost(t, d, cfg) for d in net.detections]
        row[:n] = obs
        if n:
            row[n:ns] = -gram[a, b]
        row[ns : ns + n] = starts
        row[ns + n : ns + 2 * n] = cfg.termination_cost
        row[-1] = cfg.bypass_cost_dummy if k == 0 else cfg.bypass_cost_tracked
        rows.append(row)
    return rows


def test_assembled_rows_are_the_scalar_rules_bitwise_on_random_scenes():
    rng = np.random.default_rng(23)
    seen = {"no tracks": 0, "no detections": 0, "gap span > 4": 0}
    for trial in range(60):
        dim = int(rng.integers(2, 7))
        n_tracks = int(rng.integers(0, 5)) if trial % 6 else 0
        lasts = rng.integers(0, 4, size=n_tracks)  # trajectories end in different frames
        tracks = []
        for last in lasts:
            tr = fake_track((rng.uniform(0, 30), rng.uniform(0, 30), rng.uniform(5, 15),
                             rng.uniform(5, 15)), int(last), feature=unit_feature(rng, dim),
                            dim=dim, velocity=(rng.uniform(-4, 4), rng.uniform(-4, 4)))
            tr.model.W = np.eye(dim) + rng.normal(scale=0.5, size=(dim, dim))
            tracks.append(tr)
        n_dets = int(rng.integers(1, 14)) if trial % 5 else 0
        frames = np.sort(rng.integers(4, 9, size=n_dets))
        dets = [make_det(i, int(f), (rng.uniform(0, 40), rng.uniform(0, 40),
                                     rng.uniform(3, 20), rng.uniform(3, 20)),
                         score=float(rng.uniform(0, 1)), feature=unit_feature(rng, dim))
                for i, f in enumerate(frames)]
        net = build_network(dets, tracks, None, GatingConfig(max_gap=3, gamma=float("inf")))
        cfg = CostConfig(eta=float(rng.uniform(0.05, 1.0)),
                         termination_cost=float(rng.uniform(0, 20)),
                         bypass_cost_tracked=float(rng.uniform(0, 20)))
        vectors = assemble_cost_vectors(net, tracks, cfg)
        assert [cv.commodity for cv in vectors] == list(range(net.num_commodities))
        for k, (cv, want) in enumerate(zip(vectors, reference_rows(net, tracks, cfg))):
            assert np.array_equal(bits(cv.values), bits(want)), (trial, k)
            alone = assemble_cost_vector(net, k, tracks, cfg).values
            assert np.array_equal(bits(alone), bits(want)), (trial, k)
        seen["no tracks"] += not tracks
        seen["no detections"] += not dets
        seen["gap span > 4"] += bool(dets and tracks and frames[-1] - lasts.min() > 4)
    assert min(seen.values()) > 0, seen


def test_assembled_rows_name_the_first_trajectory_a_detection_does_not_follow():
    tracks = [fake_track(box_at(0, 0), 1), fake_track(box_at(0, 0), 4),
              fake_track(box_at(0, 0), 5)]
    dets = [make_det(0, 4, box_at(0, 0)), make_det(1, 6, box_at(0, 0))]
    net = build_network(dets, tracks, None, GatingConfig())
    with pytest.raises(ValueError, match="at frame 4 does not follow frame 4$"):
        assemble_cost_vectors(net, tracks, CostConfig())
    # each trajectory's own vector raises only for its own start candidates
    assemble_cost_vector(net, 1, tracks, CostConfig())
    with pytest.raises(ValueError, match="does not follow frame 5$"):
        assemble_cost_vector(net, 3, tracks, CostConfig())
