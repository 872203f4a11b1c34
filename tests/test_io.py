"""File formats, synthetic scenes, appearance features, instance files."""

import io

import numpy as np
import pytest

from mcftrack.colgen import column_generation
from mcftrack.io import (
    ParseError,
    Scenario,
    ScenarioError,
    extract_feature,
    feature_table,
    format_detections,
    format_tracks,
    load_instance,
    parse_kv,
    parse_scenario,
    read_detections,
    read_tracks,
    save_instance,
    sidecar_path,
    synth_generate,
    write_detections,
    write_tracks,
)

from helpers import random_instance, wrap_cost_vectors


def test_parse_single_detection_row():
    dets = read_detections(io.StringIO("1,-1,10.0,20.0,30.0,60.0,0.8,-1,-1,-1\n"))
    assert list(dets) == [1]
    (det,) = dets[1]
    assert det.frame == 1
    assert det.box == (10.0, 20.0, 30.0, 60.0)
    assert det.score == pytest.approx(0.8)
    assert np.linalg.norm(det.feature) == pytest.approx(1.0)


def test_empty_detection_file():
    assert read_detections(io.StringIO("")) == {}


def test_parse_errors_carry_line_numbers():
    bad_width = "1,-1,10,20,-5,60,0.8,-1,-1,-1\n"
    with pytest.raises(ParseError, match=":1:"):
        read_detections(io.StringIO(bad_width))
    two_rows = "1,-1,10,20,5,60,0.8,-1,-1,-1\n1,-1,1,2,3,x,0.8,-1,-1,-1\n"
    with pytest.raises(ParseError, match=":2:.*non-numeric"):
        read_detections(io.StringIO(two_rows))
    with pytest.raises(ParseError, match="10 columns"):
        read_detections(io.StringIO("1,-1,10,20,5,60,0.8\n"))
    with pytest.raises(ParseError, match="1-based"):
        read_detections(io.StringIO("0,-1,10,20,5,60,0.8,-1,-1,-1\n"))
    with pytest.raises(ParseError, match="integers"):
        read_detections(io.StringIO("1.5,-1,10,20,5,60,0.8,-1,-1,-1\n"))
    for row in ("inf,-1,10,20,5,60,0.8,-1,-1,-1", "1,-1,nan,20,5,60,0.8,-1,-1,-1",
                "1,-1,10,20,5,60,nan,-1,-1,-1", "1,-1,10,20,inf,60,0.8,-1,-1,-1"):
        with pytest.raises(ParseError, match=":2:.*non-finite"):
            read_detections(io.StringIO("1,-1,10,20,5,60,0.8,-1,-1,-1\n" + row + "\n"))
    with pytest.raises(ParseError, match=":1:.*non-finite"):
        read_tracks(io.StringIO("1,1,nan,20,5,60,1,-1,-1,-1\n"))


def test_track_round_trip_and_canonical_order(tmp_path):
    tracks = {
        2: {1: (5.0, 6.0, 7.0, 8.0), 3: (9.0, 6.0, 7.0, 8.0)},
        1: {2: (0.0, 0.0, 3.0, 4.0), 1: (1.0, 2.0, 3.0, 4.0)},
    }
    path = tmp_path / "tracks.txt"
    write_tracks(tracks, path)
    text = path.read_text()
    frames_ids = [tuple(map(float, line.split(",")[:2])) for line in text.splitlines()]
    assert frames_ids == sorted(frames_ids)
    assert read_tracks(str(path)) == tracks
    # canonical text is a fixed point
    assert format_tracks(read_tracks(io.StringIO(text))) == text


def test_track_rows_need_nonnegative_ids():
    with pytest.raises(ParseError, match="id >= 0"):
        read_tracks(io.StringIO("1,-1,1,2,3,4,1.0,-1,-1,-1\n"))
    dup = "1,4,1,2,3,4,1.0,-1,-1,-1\n1,4,9,2,3,4,1.0,-1,-1,-1\n"
    with pytest.raises(ParseError, match="duplicate"):
        read_tracks(io.StringIO(dup))


def test_detections_round_trip_with_sidecar(tmp_path):
    dets, _ = synth_generate(Scenario(targets=2, frames=4, clutter_rate=0.5), seed=9)
    path = tmp_path / "dets.txt"
    write_detections(dets, path)
    feats = np.load(sidecar_path(path))
    back = read_detections(str(path), features=feats)
    flat = [d for f in sorted(dets) for d in dets[f]]
    flat_back = [d for f in sorted(back) for d in back[f]]
    assert len(flat) == len(flat_back)
    for a, b in zip(flat, flat_back):
        assert a.frame == b.frame
        assert a.box == pytest.approx(b.box, abs=0.005)  # %.2f geometry
        assert a.score == pytest.approx(b.score, abs=5e-5)  # %.4f score
        assert a.feature == pytest.approx(b.feature, abs=1e-12)


def test_feature_table_matches_line_order():
    dets, _ = synth_generate(Scenario(targets=2, frames=3), seed=0)
    table = feature_table(dets)
    lines = format_detections(dets).splitlines()
    assert table.shape[0] == len(lines)
    flat = [d for f in sorted(dets) for d in dets[f]]
    for row, det in zip(table, flat):
        assert row == pytest.approx(det.feature)


def test_feature_mismatch_rejected():
    text = "1,-1,10,20,5,60,0.8,-1,-1,-1\n"
    with pytest.raises(ParseError, match="feature table"):
        read_detections(io.StringIO(text), features=np.eye(3))


def test_synth_deterministic():
    sc = Scenario(targets=3, frames=20, motion="crossing", miss_prob=0.1,
                  clutter_rate=0.5, feature_noise=0.2)
    a_det, a_gt = synth_generate(sc, seed=5)
    b_det, b_gt = synth_generate(sc, seed=5)
    assert a_gt == b_gt
    assert sorted(a_det) == sorted(b_det)
    for f in a_det:
        for x, y in zip(a_det[f], b_det[f]):
            assert x.box == y.box and x.score == y.score
            assert np.array_equal(x.feature, y.feature)
    c_det, _ = synth_generate(sc, seed=6)
    assert any(
        a_det.get(f, []) and c_det.get(f, [])
        and a_det[f][0].box != c_det[f][0].box
        for f in a_det
    )


def test_synth_zero_noise_matches_gt():
    sc = Scenario(targets=2, frames=6, miss_prob=0.0, clutter_rate=0.0,
                  pos_noise=0.0, feature_noise=0.0)
    dets, gt = synth_generate(sc, seed=1)
    boxes = {(f, d.box) for f in dets for d in dets[f]}
    gt_boxes = {(f, b) for tid in gt for f, b in gt[tid].items()}
    assert boxes == gt_boxes


def test_synth_full_miss_leaves_only_clutter():
    sc = Scenario(targets=2, frames=10, miss_prob=1.0, clutter_rate=1.0)
    dets, gt = synth_generate(sc, seed=2)
    gt_boxes = {b for tid in gt for b in gt[tid].values()}
    for f in dets:
        for d in dets[f]:
            assert d.box not in gt_boxes
    assert all(len(t) == 10 for t in gt.values())  # gt unaffected by misses


def test_synth_occlusion_interval_suppresses_targets():
    sc = Scenario(targets=2, frames=10, miss_prob=0.0, clutter_rate=0.0,
                  occlusion_start=4, occlusion_end=6)
    dets, _ = synth_generate(sc, seed=0)
    for f in (4, 5, 6):
        assert not dets.get(f)
    for f in (1, 2, 3, 7, 8, 9, 10):
        assert len(dets[f]) == 2


def test_scenario_parsing_and_validation():
    sc = parse_scenario(io.StringIO("targets=3\nframes=15\nmotion=crossing\n"))
    assert (sc.targets, sc.frames, sc.motion) == (3, 15, "crossing")
    with pytest.raises(ScenarioError, match="unknown scenario key"):
        parse_scenario(io.StringIO("tragets=3\n"))
    with pytest.raises(ScenarioError, match="bad value"):
        parse_scenario(io.StringIO("targets=three\n"))
    with pytest.raises(ScenarioError):
        parse_scenario(io.StringIO("targets=0\n"))
    with pytest.raises(ScenarioError, match="linear or crossing"):
        parse_scenario(io.StringIO("motion=spiral\n"))
    with pytest.raises(ScenarioError, match="feature_dim"):
        parse_scenario(io.StringIO("targets=5\nfeature_dim=3\n"))


def test_parse_kv_grammar():
    kv = parse_kv("# comment\n\na = 1\nb=two words\n")
    assert kv == {"a": "1", "b": "two words"}
    with pytest.raises(ParseError, match="key=value"):
        parse_kv("just text\n")
    with pytest.raises(ParseError, match="duplicate key"):
        parse_kv("a=1\na=2\n")


def test_extract_feature_gray_region():
    region = np.full((8, 8), 128, dtype=np.uint8)
    vec = extract_feature(region)
    assert vec.shape == (48,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
    nz = np.nonzero(vec)[0]
    assert len(nz) == 3  # one bin per replicated channel
    assert vec[nz] == pytest.approx(np.full(3, 1.0 / np.sqrt(3.0)))


def test_extract_feature_deterministic_and_scale_invariant():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(12, 7, 3)).astype(np.uint8)
    a = extract_feature(img)
    b = extract_feature(img)
    assert np.array_equal(a, b)
    scaled = extract_feature(img.astype(np.float64) / 255.0)
    assert a == pytest.approx(scaled, abs=1e-12)


def test_extract_feature_passthrough():
    v = np.array([3.0, 4.0])
    out = extract_feature(v)
    assert out == pytest.approx([0.6, 0.8])
    unit = np.array([1.0, 0.0])
    assert np.array_equal(extract_feature(unit), unit)
    with pytest.raises(ValueError):
        extract_feature(np.zeros(4))
    with pytest.raises(ValueError):
        extract_feature(np.zeros((0, 0, 3)))


def test_instance_file_round_trip():
    net, costs = random_instance(13)
    text = save_instance(net, wrap_cost_vectors(net, costs))
    net2, cvs = load_instance(io.StringIO(text))
    assert net2.num_edges == net.num_edges
    assert np.array_equal(net2.tail, net.tail)
    assert np.array_equal(net2.head, net.head)
    assert np.array_equal(net2.kind, net.kind)
    assert np.array_equal(net2.demands, net.demands)
    for k, cv in enumerate(cvs):
        assert cv.commodity == k
        assert np.array_equal(cv.values, costs[k])  # repr round trip is exact
    a = column_generation(net, wrap_cost_vectors(net, costs))
    b = column_generation(net2, cvs)
    assert a.v_int == pytest.approx(b.v_int, abs=1e-12)


def test_instance_file_structure_errors():
    with pytest.raises(ParseError, match="missing"):
        load_instance(io.StringIO("[meta]\ncommodities=1\ndemands=1\n"))
    net, costs = random_instance(13)
    text = save_instance(net, wrap_cost_vectors(net, costs))
    with pytest.raises(ParseError, match="content before any section"):
        load_instance(io.StringIO("stray\n" + text))
    with pytest.raises(ParseError, match="duplicate section"):
        load_instance(io.StringIO(text + "[meta]\n"))
    lines = text.splitlines()
    det, cost = lines.index("[detections]") + 1, lines.index("[costs]") + 1
    head, tail = lines[det].split(",", 1)[1], lines[det].rsplit(",", 1)[0]
    cost_head, cost_tail = lines[cost].split(",", 1)[1], lines[cost].rsplit(",", 1)[0]
    for at, row in ((det, "inf," + head), (det, tail + ",nan"),
                    (cost, "0:nan," + cost_head), (cost, cost_tail + ",-inf")):
        edited = lines[:at] + [row] + lines[at + 1:]
        with pytest.raises(ParseError, match=f":{at + 1}:.*non-finite"):
            load_instance(io.StringIO("\n".join(edited) + "\n"))
