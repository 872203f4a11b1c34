"""CLEAR MOT evaluation of hypothesis tracks against ground truth.

Per frame, correspondences persist from the previous frames when the boxes
still overlap at or above the IoU threshold; remaining boxes are matched by
a Hungarian assignment maximizing IoU among pairs at or above the threshold.
An identity switch is counted whenever a ground-truth track matches a
different hypothesis id than the last one it ever matched, including across
gaps. Coverage thresholds: mostly tracked above 80%, mostly lost below 20%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .costs import iou
from .graph import Box

Tracks = dict[int, dict[int, Box]]
TracksLike = Union[Mapping[int, Mapping[int, Box]], Iterable[tuple[int, int, Box]]]

_FORBIDDEN = 1e9


@dataclass(frozen=True)
class FrameLog:
    """Per-frame match record: (gt id, hyp id, IoU) plus the leftovers."""

    frame: int
    matches: tuple[tuple[int, int, float], ...]
    false_positives: tuple[int, ...]
    misses: tuple[int, ...]
    switches: tuple[tuple[int, int, int], ...]  # gt id, old hyp id, new hyp id


@dataclass
class MetricsReport:
    mota: float
    motp: float
    faf: float
    fp: int
    fn: int
    ids: int
    mt_pct: float
    ml_pct: float
    fragments: int
    gt_total: int
    num_frames: int
    frame_log: list[FrameLog] = field(repr=False, default_factory=list)

    _COLUMNS = (
        ("MOTA", "mota", "{:.4f}"),
        ("MOTP", "motp", "{:.4f}"),
        ("FAF", "faf", "{:.2f}"),
        ("FP", "fp", "{:d}"),
        ("FN", "fn", "{:d}"),
        ("IDS", "ids", "{:d}"),
        ("MT%", "mt_pct", "{:.1f}"),
        ("ML%", "ml_pct", "{:.1f}"),
        ("FG", "fragments", "{:d}"),
    )

    def _cells(self) -> list[tuple[str, str]]:
        return [
            (name, fmt.format(getattr(self, attr)))
            for name, attr, fmt in self._COLUMNS
        ]

    def to_text(self) -> str:
        cells = self._cells()
        widths = [max(len(n), len(v)) for n, v in cells]
        head = "  ".join(n.ljust(w) for (n, _), w in zip(cells, widths))
        row = "  ".join(v.ljust(w) for (_, v), w in zip(cells, widths))
        return f"{head}\n{row}"

    def to_csv(self) -> str:
        cells = self._cells()
        return ",".join(n for n, _ in cells) + "\n" + ",".join(v for _, v in cells)


def _as_tracks(tracks: TracksLike, label: str) -> Tracks:
    if isinstance(tracks, Mapping):
        return {
            int(tid): {int(f): b for f, b in frames.items()}
            for tid, frames in tracks.items()
        }
    out: Tracks = {}
    for frame, tid, box in tracks:
        per = out.setdefault(int(tid), {})
        if int(frame) in per:
            raise ValueError(
                f"malformed {label}: duplicate id {tid} in frame {frame}"
            )
        per[int(frame)] = box
    return out


def clear_mot(
    gt: TracksLike, hyp: TracksLike, iou_threshold: float = 0.5
) -> MetricsReport:
    """Evaluate hypothesis tracks against ground truth at an IoU threshold in (0, 1]."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    gt_tracks = _as_tracks(gt, "ground truth")
    hyp_tracks = _as_tracks(hyp, "hypotheses")
    gt_total = sum(len(frames) for frames in gt_tracks.values())
    if gt_total == 0:
        raise ValueError("empty ground truth; metrics are undefined")

    by_frame_gt: dict[int, dict[int, Box]] = {}
    for tid, frames in gt_tracks.items():
        for f, box in frames.items():
            by_frame_gt.setdefault(f, {})[tid] = box
    by_frame_hyp: dict[int, dict[int, Box]] = {}
    for tid, frames in hyp_tracks.items():
        for f, box in frames.items():
            by_frame_hyp.setdefault(f, {})[tid] = box

    frames = sorted(set(by_frame_gt) | set(by_frame_hyp))
    last_match: dict[int, int] = {}  # gt id -> last hyp id it ever matched
    fp = fn = ids = 0
    match_count = 0
    iou_sum = 0.0
    coverage: dict[int, list[bool]] = {tid: [] for tid in gt_tracks}
    log: list[FrameLog] = []

    for frame in frames:
        gts = by_frame_gt.get(frame, {})
        hyps = by_frame_hyp.get(frame, {})
        matches: dict[int, tuple[int, float]] = {}
        taken: set[int] = set()

        # Keep surviving correspondences first.
        for gid in sorted(gts):
            hid = last_match.get(gid)
            if hid is None or hid not in hyps or hid in taken:
                continue
            overlap = iou(gts[gid], hyps[hid])
            if overlap >= iou_threshold:
                matches[gid] = (hid, overlap)
                taken.add(hid)

        rem_gt = sorted(g for g in gts if g not in matches)
        rem_hyp = sorted(h for h in hyps if h not in taken)
        if rem_gt and rem_hyp:
            cost = np.full((len(rem_gt), len(rem_hyp)), _FORBIDDEN)
            for a, gid in enumerate(rem_gt):
                for b, hid in enumerate(rem_hyp):
                    overlap = iou(gts[gid], hyps[hid])
                    if overlap >= iou_threshold:
                        cost[a, b] = 1.0 - overlap
            rows, cols = linear_sum_assignment(cost)
            for a, b in zip(rows, cols):
                if cost[a, b] < _FORBIDDEN:
                    gid, hid = rem_gt[a], rem_hyp[b]
                    matches[gid] = (hid, 1.0 - cost[a, b])
                    taken.add(hid)

        switches: list[tuple[int, int, int]] = []
        for gid in sorted(matches):
            hid, overlap = matches[gid]
            prev = last_match.get(gid)
            if prev is not None and prev != hid:
                ids += 1
                switches.append((gid, prev, hid))
            last_match[gid] = hid
            match_count += 1
            iou_sum += overlap

        frame_fp = sorted(h for h in hyps if h not in taken)
        frame_fn = sorted(g for g in gts if g not in matches)
        fp += len(frame_fp)
        fn += len(frame_fn)
        for gid in gts:
            coverage[gid].append(gid in matches)
        log.append(
            FrameLog(
                frame=frame,
                matches=tuple((g, matches[g][0], matches[g][1]) for g in sorted(matches)),
                false_positives=tuple(frame_fp),
                misses=tuple(frame_fn),
                switches=tuple(switches),
            )
        )

    mt = ml = fragments = 0
    for gid, flags in coverage.items():
        if not flags:
            continue
        ratio = sum(flags) / len(flags)
        if ratio > 0.8:
            mt += 1
        if ratio < 0.2:
            ml += 1
        runs = sum(
            1 for i, f in enumerate(flags) if f and (i == 0 or not flags[i - 1])
        )
        if runs > 1:
            fragments += runs - 1

    num_tracks = len(gt_tracks)
    return MetricsReport(
        mota=1.0 - (fp + fn + ids) / gt_total,
        motp=(iou_sum / match_count) if match_count else 0.0,
        faf=fp / len(frames) if frames else 0.0,
        fp=fp,
        fn=fn,
        ids=ids,
        mt_pct=100.0 * mt / num_tracks,
        ml_pct=100.0 * ml / num_tracks,
        fragments=fragments,
        gt_total=gt_total,
        num_frames=len(frames),
        frame_log=log,
    )
