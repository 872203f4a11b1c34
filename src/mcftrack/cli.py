"""Command line front end.

Subcommands: track (detections in, tracks out), eval (CLEAR MOT report),
synth (generate a synthetic scene), solve (solve one serialized window
instance, optionally cross-checked against the exhaustive oracle).

Exit codes: 0 success, 2 input parse errors, missing input files or missing
output directories (the message names the path), 3 configuration or
scenario errors, 1 solver failures and other runtime refusals such as an
oracle size guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .colgen import ColgenError, column_generation
from .lp import LPInternalError
from .metrics import clear_mot
from .oracle import OracleLimitError, brute_force_ilp
from .tracker import ConfigError, TrackerConfig, run

ORACLE_AGREEMENT_TOL = 1e-6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcftrack",
        description="multi-object tracking by min-cost multi-commodity flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the sliding-window tracker")
    p_track.add_argument("--det", required=True, help="detection file")
    p_track.add_argument("--out", required=True, help="output track file")
    p_track.add_argument("--config", help="key=value tracker config file")
    p_track.add_argument("--window", type=int, help="override window length")
    p_track.add_argument("--seed", type=int, default=0,
                         help="seed for fallback pseudo-features")
    p_track.add_argument("--features", help="feature sidecar (.npy); "
                         "defaults to <det>.npy when present")
    p_track.add_argument("--log", help="per-window diagnostics log path")

    p_eval = sub.add_parser("eval", help="CLEAR MOT metrics")
    p_eval.add_argument("--gt", required=True, help="ground-truth track file")
    p_eval.add_argument("--hyp", required=True, help="hypothesis track file")
    p_eval.add_argument("--iou", type=float, default=0.5, help="match threshold")
    p_eval.add_argument("--csv", action="store_true", help="emit CSV instead of text")

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--scenario", required=True, help="key=value scenario file")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-det", required=True, help="detections output")
    p_synth.add_argument("--out-gt", required=True, help="ground-truth output")

    p_solve = sub.add_parser("solve", help="solve one window instance file")
    p_solve.add_argument("--network", required=True, help="instance file")
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check against exhaustive search")
    return parser


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise mio.ParseError(f"missing input file: {path}")
    return p


def _require_out_dirs(*paths: str | None) -> None:
    """Refuse output paths whose directory does not exist, before any work."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise mio.ParseError(f"missing output directory: {path}")


def _load_features(path: Path) -> np.ndarray:
    """The feature sidecar's table; anything but one readable .npy array is a ParseError."""
    try:
        table = np.load(path)
    except (OSError, ValueError, EOFError) as exc:
        raise mio.ParseError(f"{path}: unreadable feature file: {exc}") from None
    if not isinstance(table, np.ndarray):
        table.close()
        raise mio.ParseError(f"{path}: feature file is not a single .npy array")
    return table


def _cmd_track(args: argparse.Namespace) -> int:
    _require_out_dirs(args.out, args.log)
    det_path = _require_file(args.det)
    if args.config is not None:
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise ConfigError(f"missing config file: {args.config}")
        config = TrackerConfig.from_text(cfg_path.read_text(), str(cfg_path))
    else:
        config = TrackerConfig()
    if args.window is not None:
        config = dataclasses.replace(config, window=args.window)

    features = None
    feat_path = Path(args.features) if args.features else mio.sidecar_path(det_path)
    if args.features and not feat_path.is_file():
        raise mio.ParseError(f"missing feature file: {args.features}")
    if feat_path.is_file():
        features = _load_features(feat_path)
    detections = mio.read_detections(det_path, features=features, seed=args.seed)
    tracks, _ = run(detections, config, log_path=args.log)
    mio.write_tracks(tracks, args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou <= 1.0:
        raise ConfigError(f"--iou must be in (0, 1], got {args.iou}")
    gt = mio.read_tracks(_require_file(args.gt))
    hyp = mio.read_tracks(_require_file(args.hyp))
    report = clear_mot(gt, hyp, iou_threshold=args.iou)
    print(report.to_csv() if args.csv else report.to_text())
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    _require_out_dirs(args.out_det, args.out_gt)
    scenario = mio.parse_scenario(_require_file(args.scenario))
    detections, gt = mio.synth_generate(scenario, seed=args.seed)
    mio.write_detections(detections, args.out_det)
    mio.write_tracks(gt, args.out_gt)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    network, vectors = mio.load_instance(_require_file(args.network))
    result = column_generation(network, vectors)
    print(f"status {result.status}")
    print(f"v_lp {result.v_lp:.9g}")
    print(f"v_int {result.v_int:.9g}")
    print(f"epsilon {result.epsilon:.3e}")
    print(f"iterations {result.iterations}")
    print(f"pivots {result.pivots}")
    for k, selected in enumerate(result.selection):
        for col, units in selected:
            edges = " ".join(str(e) for e in col.edges)
            print(f"commodity {k} units {units} cost {col.cost:.9g} edges {edges}")
    if args.oracle:
        values = [cv.values for cv in vectors]
        opt, _ = brute_force_ilp(network, values)
        print(f"oracle {opt:.9g}")
        if abs(result.v_int - opt) <= ORACLE_AGREEMENT_TOL:
            print("oracle agreement ok")
        else:
            print(f"oracle MISMATCH: |{result.v_int:.9g} - {opt:.9g}| > {ORACLE_AGREEMENT_TOL}")
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "track": _cmd_track,
        "eval": _cmd_eval,
        "synth": _cmd_synth,
        "solve": _cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except (mio.ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (mio.ScenarioError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OracleLimitError, ColgenError, LPInternalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
