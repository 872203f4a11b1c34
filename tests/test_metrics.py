"""CLEAR MOT scoring: definitions, identity switches, invariances."""

import numpy as np
import pytest

from mcftrack.metrics import MetricsReport, clear_mot


def box(x, y=0.0, w=10.0, h=10.0):
    return (float(x), float(y), float(w), float(h))


def straight_track(frames, x0=0.0, dx=5.0, y=0.0):
    return {f: box(x0 + dx * (f - 1), y) for f in frames}


def test_perfect_hypothesis():
    gt = {1: straight_track(range(1, 6)), 2: straight_track(range(1, 6), y=100.0)}
    rep = clear_mot(gt, gt)
    assert rep.mota == pytest.approx(1.0)
    assert rep.motp == pytest.approx(1.0)
    assert rep.ids == 0
    assert rep.fp == 0 and rep.fn == 0
    assert rep.mt_pct == pytest.approx(100.0)
    assert rep.ml_pct == pytest.approx(0.0)
    assert rep.fragments == 0


def test_one_spurious_box_gives_mota_point_nine():
    gt = {1: straight_track(range(1, 11))}  # 10 gt boxes
    hyp = {1: dict(gt[1]), 2: {3: box(500.0, 500.0)}}
    rep = clear_mot(gt, hyp)
    assert rep.fp == 1 and rep.fn == 0 and rep.ids == 0
    assert rep.mota == pytest.approx(0.9)


def test_missed_boxes_count_as_fn():
    gt = {1: straight_track(range(1, 11))}
    hyp = {1: {f: b for f, b in gt[1].items() if f <= 8}}
    rep = clear_mot(gt, hyp)
    assert rep.fn == 2 and rep.fp == 0
    assert rep.mota == pytest.approx(0.8)


def test_id_swap_counts_two_switches_no_fragments():
    frames = range(1, 9)
    gt = {1: straight_track(frames, y=0.0), 2: straight_track(frames, y=100.0)}
    hyp = {
        7: {f: gt[1][f] if f <= 4 else gt[2][f] for f in frames},
        8: {f: gt[2][f] if f <= 4 else gt[1][f] for f in frames},
    }
    rep = clear_mot(gt, hyp)
    assert rep.ids == 2
    assert rep.fragments == 0
    assert rep.fp == 0 and rep.fn == 0
    assert rep.mota == pytest.approx(1.0 - 2.0 / 16.0)


def test_relabeling_hypothesis_ids_is_invariant():
    rng = np.random.default_rng(0)
    gt = {1: straight_track(range(1, 7)), 2: straight_track(range(1, 7), y=60.0)}
    hyp = {
        5: {f: b for f, b in gt[1].items() if f != 3},
        9: dict(gt[2]),
        11: {2: box(400.0, 400.0)},
    }
    base = clear_mot(gt, hyp)
    relabeled = {tid * 7 + 1: frames for tid, frames in hyp.items()}
    rep = clear_mot(gt, relabeled)
    for attr in ("mota", "motp", "fp", "fn", "ids", "fragments"):
        assert getattr(rep, attr) == getattr(base, attr)


def test_count_identities():
    gt = {1: straight_track(range(1, 7)), 2: straight_track(range(1, 7), y=60.0)}
    hyp = {
        1: {f: b for f, b in gt[1].items() if f % 2},
        2: dict(gt[2]),
        3: {4: box(300.0, 300.0), 5: box(300.0, 300.0)},
    }
    rep = clear_mot(gt, hyp)
    matches = sum(len(fl.matches) for fl in rep.frame_log)
    hyp_total = sum(len(frames) for frames in hyp.values())
    assert rep.fp + matches == hyp_total
    assert rep.fn + matches == rep.gt_total


def test_sticky_correspondence_survives_jitter():
    # hyp 1 drifts but stays above threshold; no switch, motp < 1
    gt = {1: straight_track(range(1, 6), dx=0.0)}
    hyp = {1: {f: box(1.0, 0.0) for f in range(1, 6)}}
    rep = clear_mot(gt, hyp)
    assert rep.ids == 0
    assert 0.0 < rep.motp < 1.0
    assert rep.mota == pytest.approx(1.0)


def test_threshold_one_requires_exact_overlap():
    gt = {1: {1: box(0.0)}}
    hyp = {1: {1: box(0.5)}}
    rep = clear_mot(gt, hyp, iou_threshold=1.0)
    assert rep.fp == 1 and rep.fn == 1
    exact = clear_mot(gt, gt, iou_threshold=1.0)
    assert exact.mota == pytest.approx(1.0)


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_threshold_outside_unit_interval_rejected(threshold):
    # At threshold 0 a box 500 px from its ground truth, with no overlap at
    # all, would match it and score MOTA 1.
    gt = {1: {1: box(0.0)}}
    far = {1: {1: box(500.0)}}
    with pytest.raises(ValueError, match="iou_threshold"):
        clear_mot(gt, far, iou_threshold=threshold)


def test_faf_is_fp_per_frame():
    gt = {1: straight_track(range(1, 5))}
    hyp = {1: dict(gt[1]), 2: {1: box(900.0), 2: box(900.0)}}
    rep = clear_mot(gt, hyp)
    assert rep.num_frames == 4
    assert rep.faf == pytest.approx(2.0 / 4.0)


def test_mostly_tracked_mostly_lost():
    frames = range(1, 11)
    gt = {
        1: straight_track(frames),             # fully covered -> MT
        2: straight_track(frames, y=60.0),     # one frame covered -> ML
        3: straight_track(frames, y=120.0),    # half covered -> neither
    }
    hyp = {
        1: dict(gt[1]),
        2: {1: gt[2][1]},
        3: {f: gt[3][f] for f in range(1, 6)},
    }
    rep = clear_mot(gt, hyp)
    assert rep.mt_pct == pytest.approx(100.0 / 3.0)
    assert rep.ml_pct == pytest.approx(100.0 / 3.0)


def test_fragment_counts_coverage_gaps():
    gt = {1: straight_track(range(1, 10))}
    hyp = {1: {f: gt[1][f] for f in (1, 2, 3, 6, 7, 9)}}  # two gaps
    rep = clear_mot(gt, hyp)
    assert rep.fragments == 2
    assert rep.ids == 0


def test_duplicate_gt_id_same_frame_rejected():
    # row-triple input form: (frame, track id, box)
    rows = [(1, 1, box(0.0)), (1, 1, box(5.0)), (2, 1, box(5.0))]
    with pytest.raises(ValueError, match="duplicate id"):
        clear_mot(rows, {1: {1: box(0.0)}})


def test_row_triples_equal_mapping_input():
    gt = {1: straight_track(range(1, 5))}
    rows = [(f, 1, b) for f, b in gt[1].items()]
    assert clear_mot(rows, gt).mota == clear_mot(gt, gt).mota == pytest.approx(1.0)


def test_empty_ground_truth_rejected():
    with pytest.raises(ValueError):
        clear_mot({}, {1: {1: box(0.0)}})


def test_report_serialization_round_trip():
    gt = {1: straight_track(range(1, 6))}
    rep = clear_mot(gt, gt)
    text = rep.to_text()
    lines = text.splitlines()
    assert len(lines) == 2
    assert "MOTA" in lines[0]
    csv = rep.to_csv()
    head, row = csv.splitlines()
    assert len(head.split(",")) == len(row.split(","))
    assert float(dict(zip(head.split(","), row.split(",")))["MOTA"]) == pytest.approx(1.0)
