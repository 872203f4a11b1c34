"""Command-line interface: pipeline wiring and the exit-code contract."""

from pathlib import Path

import numpy as np
import pytest

from mcftrack.cli import main
from mcftrack.io import read_tracks

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


def test_bad_scenario_exits_3(tmp_path, capsys):
    sc = tmp_path / "bad.scenario"
    sc.write_text("no_such_knob=1\n")
    code = main(["synth", "--scenario", str(sc), "--out-det",
                 str(tmp_path / "d.txt"), "--out-gt", str(tmp_path / "g.txt")])
    assert code == 3
    assert "no_such_knob" in capsys.readouterr().err


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
