"""Command-line interface: pipeline wiring and the exit-code contract."""

import math
from pathlib import Path

import numpy as np
import pytest

from mcftrack import cli, colgen, tracker
from mcftrack.cli import main
from mcftrack.colgen import ColgenError, column_generation
from mcftrack.io import load_instance, read_tracks
from mcftrack.lp import LPInternalError

FIXTURES = Path(__file__).parent / "fixtures"

SCENARIO = """\
targets=1
frames=10
miss_prob=0.0
clutter_rate=0.0
feature_noise=0.0
pos_noise=0.0
target_score_std=0.0
arena_w=240.0
"""

CONFIG = """\
window=3
d0=5
bypass_cost_tracked=12.0
bypass_cost_dummy=19.5
"""


@pytest.fixture
def scene(tmp_path):
    scenario = tmp_path / "scene.scenario"
    scenario.write_text(SCENARIO)
    config = tmp_path / "tracker.config"
    config.write_text(CONFIG)
    det = tmp_path / "dets.txt"
    gt = tmp_path / "gt.txt"
    code = main(["synth", "--scenario", str(scenario), "--seed", "0",
                 "--out-det", str(det), "--out-gt", str(gt)])
    assert code == 0
    return tmp_path, det, gt, config


def test_synth_track_eval_pipeline(scene, capsys):
    tmp_path, det, gt, config = scene
    out = tmp_path / "hyp.txt"
    log = tmp_path / "diag.log"
    code = main(["track", "--det", str(det), "--out", str(out),
                 "--config", str(config), "--log", str(log)])
    assert code == 0
    assert read_tracks(out)  # non-empty, parseable
    for line in log.read_text().splitlines():
        assert len(line.split(",")) == 6

    code = main(["eval", "--gt", str(gt), "--hyp", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "MOTA" in text
    row = dict(zip(*(l.split() for l in text.splitlines())))
    assert float(row["MOTA"]) == pytest.approx(1.0)


def test_track_is_deterministic(scene):
    tmp_path, det, _, config = scene
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["track", "--det", str(det), "--out", str(out),
                     "--config", str(config)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_a_failed_master_solve_loses_no_frame(scene, monkeypatch):
    # Each window of the scene certifies at its first master solve, and none
    # solves warm. That solve raises in the third window with a tracked
    # commodity (window_t 4): column generation stops short there at its
    # bound, and the stream goes on.
    tmp_path, det, gt, config = scene
    real, solves = colgen.solve_lp, []

    def failing(prob, warm=None, basis=None, inverse=None):
        solves.append(warm is not None)
        if len(solves) == 3:
            raise LPInternalError("injected")
        return real(prob, warm=warm, basis=basis, inverse=inverse)

    monkeypatch.setattr(colgen, "solve_lp", failing)
    out, log = tmp_path / "hyp.txt", tmp_path / "diag.log"
    code = main(["track", "--det", str(det), "--out", str(out),
                 "--config", str(config), "--log", str(log)])
    assert code == 0 and not any(solves)
    hyp, truth = read_tracks(out), read_tracks(gt)
    frames = sorted(f for boxes in hyp.values() for f in boxes)
    assert frames == sorted(f for boxes in truth.values() for f in boxes) == list(range(1, 11))
    lines = [line.split(",") for line in log.read_text().splitlines()]
    assert [int(line[0]) for line in lines] == list(range(1, 9))
    v_lp, v_int = float(lines[3][2]), float(lines[3][3])
    assert math.isfinite(v_lp) and math.isfinite(v_int) and v_lp <= v_int


def test_window_override(scene):
    tmp_path, det, gt, config = scene
    out = tmp_path / "w1.txt"
    code = main(["track", "--det", str(det), "--out", str(out),
                 "--config", str(config), "--window", "1"])
    assert code == 0
    assert read_tracks(out)
    bad = main(["track", "--det", str(det), "--out", str(out),
                "--config", str(config), "--window", "0"])
    assert bad == 3  # config error


def test_missing_files_exit_2(tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = main(["track", "--det", str(tmp_path / "nope.txt"), "--out", str(out)])
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err
    code = main(["eval", "--gt", str(tmp_path / "gone.txt"),
                 "--hyp", str(tmp_path / "gone.txt")])
    assert code == 2
    assert "gone.txt" in capsys.readouterr().err


def test_missing_output_directory_exits_2_before_any_work(scene, capsys, monkeypatch):
    tmp_path, det, gt, config = scene

    def unused(*args, **kwargs):
        raise AssertionError("the tracker ran although an output directory is missing")

    monkeypatch.setattr(cli, "run", unused)
    out, log = tmp_path / "hyp.txt", tmp_path / "diag.log"
    missing = tmp_path / "nodir"
    for bad_out, bad_log in ((missing / "hyp.txt", log), (out, missing / "diag.log")):
        code = main(["track", "--det", str(det), "--out", str(bad_out),
                     "--config", str(config), "--log", str(bad_log)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
    assert not out.exists() and not log.exists()

    scenario = tmp_path / "scene.scenario"
    new_det, new_gt = tmp_path / "new_dets.txt", tmp_path / "new_gt.txt"
    for bad_det, bad_gt in ((missing / "dets.txt", new_gt), (new_det, missing / "gt.txt")):
        code = main(["synth", "--scenario", str(scenario), "--out-det", str(bad_det),
                     "--out-gt", str(bad_gt)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err
    assert not new_det.exists() and not new_gt.exists()


def broken_sidecars(tmp_path):
    """Feature files np.load cannot read as one array: empty, truncated, garbage, .npz."""
    good = tmp_path / "good.npy"
    np.save(good, np.eye(4))
    data = good.read_bytes()
    good.unlink()
    np.savez(tmp_path / "pair.npz", a=np.eye(4))
    pair = (tmp_path / "pair.npz").read_bytes()
    (tmp_path / "pair.npz").unlink()
    return {"empty": b"", "header": data[:40], "truncated": data[:-8],
            "garbage": b"frame,x,y\n" * 8, "npz": pair}


@pytest.mark.parametrize("explicit", [False, True])
def test_broken_feature_sidecar_exits_2(scene, capsys, explicit):
    tmp_path, det, _, config = scene
    sidecar = tmp_path / "feats.npy" if explicit else det.parent / (det.name + ".npy")
    for kind, content in broken_sidecars(tmp_path).items():
        sidecar.write_bytes(content)
        out = tmp_path / "hyp.txt"
        args = ["track", "--det", str(det), "--out", str(out), "--config", str(config)]
        code = main(args + (["--features", str(sidecar)] if explicit else []))
        err = capsys.readouterr().err
        assert code == 2, kind
        assert err.startswith("error: ") and str(sidecar) in err, (kind, err)
        assert not out.exists(), kind


def test_targets_with_one_identical_appearance_feature_are_tracked(tmp_path, capsys):
    # Two targets 300 px apart, every detection with the same unit feature:
    # each frame's learning step pairs one target's feature against the
    # other's equal one, a triplet with no update direction, which once
    # failed the whole stream with exit 1 and no output.
    det, out, config = tmp_path / "dets.txt", tmp_path / "hyp.txt", tmp_path / "t.config"
    det.write_text("".join(f"{f},-1,{x:.2f},100.00,40.00,80.00,0.9000,-1,-1,-1\n"
                           for f in range(1, 9) for x in (50.0, 350.0)))
    feature = np.zeros(48)
    feature[0] = 1.0
    np.save(tmp_path / "dets.txt.npy", np.tile(feature, (16, 1)))
    config.write_text("d0=8\nbypass_cost_tracked=12.0\nbypass_cost_dummy=19.5\nwindow=3\n")
    code = main(["track", "--det", str(det), "--out", str(out), "--config", str(config)])
    assert code == 0, capsys.readouterr().err
    tracks = read_tracks(out)
    assert len(tracks) == 2
    assert sorted({box[0] for frames in tracks.values() for box in frames.values()}) == [50.0, 350.0]
    assert all(len(frames) == 8 and len({box[0] for box in frames.values()}) == 1
               for frames in tracks.values())


def test_non_finite_frame_exits_2(tmp_path, capsys):
    det = tmp_path / "dets.txt"
    det.write_text("1,-1,10,20,5,60,0.8,-1,-1,-1\ninf,-1,10,20,5,60,0.8,-1,-1,-1\n")
    code = main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt")])
    assert code == 2
    assert "dets.txt:2:" in capsys.readouterr().err


def test_bad_config_exits_3(scene, capsys):
    tmp_path, det, _, _ = scene
    bad = tmp_path / "bad.config"
    bad.write_text("window=-2\n")
    code = main(["track", "--det", str(det), "--out", str(tmp_path / "o.txt"),
                 "--config", str(bad)])
    assert code == 3
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("gamma, code", [("inf", 0), ("-inf", 3), ("nan", 3)])
def test_config_gamma_inf_tracks_and_other_non_finite_gammas_exit_3(scene, gamma, code):
    tmp_path, det, _, _ = scene
    config = tmp_path / "gamma.config"
    config.write_text(CONFIG + f"gamma={gamma}\n")
    out = tmp_path / "o.txt"
    assert main(["track", "--det", str(det), "--out", str(out), "--config", str(config)]) == code
    assert out.exists() == (code == 0)


def test_bad_scenario_exits_3(tmp_path, capsys):
    sc = tmp_path / "bad.scenario"
    for text, named in (("no_such_knob=1\n", "no_such_knob"), ("lane_gap=inf\n", "lane_gap")):
        sc.write_text(text)
        code = main(["synth", "--scenario", str(sc), "--out-det",
                     str(tmp_path / "d.txt"), "--out-gt", str(tmp_path / "g.txt")])
        assert code == 3
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.scenario"]


@pytest.mark.parametrize("key", [
    "pos_noise", "feature_noise", "target_score_std", "clutter_score_std",
])
def test_negative_scenario_noise_exits_3_and_names_the_key(tmp_path, capsys, key):
    # each is a normal scale: negative, numpy's sampler would refuse it mid-scene
    sc = tmp_path / "bad.scenario"
    sc.write_text(f"clutter_rate=2.0\n{key}=-0.5\n")
    code = main(["synth", "--scenario", str(sc), "--out-det",
                 str(tmp_path / "d.txt"), "--out-gt", str(tmp_path / "g.txt")])
    assert code == 3
    assert f"{key} must be >= 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.scenario"]


@pytest.mark.parametrize("value", ["0", "-0.2", "1.01", "nan"])
def test_eval_refuses_iou_outside_unit_interval_exits_3(tmp_path, capsys, value):
    # refused before any file is read: these files do not exist
    code = main(["eval", "--gt", str(tmp_path / "gt.txt"), "--hyp", str(tmp_path / "hyp.txt"),
                 "--iou", value])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --iou") and err.count("\n") == 1


def test_eval_identical_files_mota_one(scene, capsys):
    _, _, gt, _ = scene
    code = main(["eval", "--gt", str(gt), "--hyp", str(gt), "--csv"])
    assert code == 0
    head, row = capsys.readouterr().out.strip().splitlines()
    cells = dict(zip(head.split(","), row.split(",")))
    assert float(cells["MOTA"]) == pytest.approx(1.0)
    assert float(cells["MOTP"]) == pytest.approx(1.0)
    assert int(cells["IDS"]) == 0


def test_solve_certified_instance(capsys):
    code = main(["solve", "--network", str(FIXTURES / "tiny.instance")])
    assert code == 0
    out = capsys.readouterr().out
    assert "status proven-optimal" in out
    assert "v_int 24.3" in out
    assert "epsilon 0.000e+00" in out
    # tiny's first master starts at its optimum and takes no pivot
    assert printed_pivots(out, "tiny.instance") == 0


def printed_pivots(out: str, name: str) -> int:
    """The pivots line of `mcftrack solve` output, checked against CGResult.pivots."""
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("iterations "))
    pivots = column_generation(*load_instance(FIXTURES / name)).pivots
    # the window's master pivots, on the line after the iterations
    assert lines[at + 1] == f"pivots {pivots}"
    return pivots


def test_solve_prints_the_master_pivots(capsys):
    assert main(["solve", "--network", str(FIXTURES / "m_window8.instance")]) == 0
    assert printed_pivots(capsys.readouterr().out, "m_window8.instance") > 0


def test_solve_dummy_only_window_by_one_assignment(capsys):
    code = main(["solve", "--network", str(FIXTURES / "m_window1.instance")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "status proven-optimal" in lines
    assert "epsilon 0.000e+00" in lines
    iterations = [int(line.split()[1]) for line in lines if line.startswith("iterations ")]
    assert iterations == [1]
    assert "pivots 0" in lines


def test_solve_with_oracle_cross_check(capsys):
    code = main(["solve", "--network", str(FIXTURES / "tiny.instance"), "--oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle 24.3" in out
    assert "oracle agreement ok" in out


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.instance"
    bad.write_text("[meta]\ncommodities=1\n")
    code = main(["solve", "--network", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, module, error", [
    ("solve", cli, ColgenError("integer master solution violates the pool's rows")),
    ("track", tracker, LPInternalError("feasibility lost; basis update diverged")),
])
def test_solver_failure_exits_1(scene, monkeypatch, capsys, command, module, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, "column_generation", fail)
    tmp, det, _, config = scene
    capsys.readouterr()
    if command == "solve":
        code = main(["solve", "--network", str(FIXTURES / "tiny.instance")])
    else:
        code = main(["track", "--det", str(det), "--out", str(tmp / "hyp.txt"),
                     "--config", str(config)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"
