"""File formats, synthetic scene generation, and appearance features.

Detection and track files use the ten-column comma layout
`frame,id,x,y,w,h,score,-1,-1,-1` with 1-based frames; id is -1 for raw
detections and the track id for track files. The canonical writer emits
geometry with two decimals and scores with four. The last three columns are
parsed as numbers but otherwise ignored, so ground-truth files that carry
extra per-box data there still load.

Detection files cannot carry appearance features, so a detections file
`dets.txt` may have a sidecar `dets.txt.npy` holding one feature row per
line of the file. Without a sidecar, deterministic seeded pseudo-features
are synthesized per line; they carry no appearance information and leave
the tracker to rely on geometry and scores.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Collection, Sequence, TextIO, Union

import numpy as np

from .costs import CostVector
from .graph import Box, Detection, FlowNetwork, network_from_parts

Source = Union[str, Path, TextIO]

DEFAULT_FEATURE_DIM = 48
HIST_BINS = 16


class ParseError(ValueError):
    """Malformed input file; message includes path and line number."""


class ScenarioError(ValueError):
    """Invalid scenario key or value."""


def _read_text(source: Source) -> tuple[str, str]:
    if hasattr(source, "read"):
        return source.read(), getattr(source, "name", "<stream>")
    path = Path(source)
    return path.read_text(), str(path)


def parse_kv(text: str, origin: str = "<config>") -> dict[str, str]:
    """Flat key=value lines; '#' comments and blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{origin}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ParseError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def typed_fields(
    cls: type, kv: dict[str, str], origin: str, kind: str, error: type[Exception],
    unbounded: Collection[str] = (),
) -> dict[str, object]:
    """Keyword arguments for dataclass `cls` from parse_kv output.

    Values take the type of their field (int, float or str). An unknown key,
    a value that does not parse or a non-finite float raises `error`; the
    float fields named in `unbounded` also take +inf.
    """
    types = {f.name: f.type for f in fields(cls)}
    kwargs: dict[str, object] = {}
    for key, value in kv.items():
        if key not in types:
            raise error(f"{origin}: unknown {kind} key {key!r}")
        try:
            if types[key] == "int":
                kwargs[key] = int(value)
            elif types[key] == "float":
                kwargs[key] = float(value)
                if not (np.isfinite(kwargs[key])
                        or (key in unbounded and kwargs[key] == np.inf)):
                    raise ValueError(value)
            else:
                kwargs[key] = value
        except ValueError:
            raise error(f"{origin}: bad value for {key!r}: {value!r}") from None
    return kwargs


# -- detection and track files ------------------------------------------------


def _parse_row(origin: str, lineno: int, line: str) -> tuple[int, int, Box, float]:
    parts = line.split(",")
    if len(parts) != 10:
        raise ParseError(f"{origin}:{lineno}: expected 10 columns, got {len(parts)}")
    try:
        nums = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"{origin}:{lineno}: non-numeric field: {exc}") from None
    if not np.isfinite(nums[:7]).all():
        raise ParseError(f"{origin}:{lineno}: non-finite number in columns 1-7")
    frame_f, id_f, x, y, w, h, score = nums[:7]
    if frame_f != int(frame_f) or id_f != int(id_f):
        raise ParseError(f"{origin}:{lineno}: frame and id must be integers")
    frame, tid = int(frame_f), int(id_f)
    if frame < 1:
        raise ParseError(f"{origin}:{lineno}: frames are 1-based, got {frame}")
    if w <= 0 or h <= 0:
        raise ParseError(f"{origin}:{lineno}: nonpositive box size {w}x{h}")
    return frame, tid, (x, y, w, h), score


def _fallback_feature(seed: int, index: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def read_detections(
    source: Source,
    features: np.ndarray | None = None,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    seed: int = 0,
) -> dict[int, list[Detection]]:
    """Parse a detection file into frame-indexed Detection lists.

    The id column is ignored. `features` attaches one unit-norm row per file
    line in order; when absent, seeded pseudo-features of `feature_dim` are
    synthesized. Detection det_ids number the file lines from 0.
    """
    text, origin = _read_text(source)
    rows: list[tuple[int, int, Box, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        frame, _, box, score = _parse_row(origin, lineno, line)
        rows.append((lineno, frame, box, score))
    if features is not None:
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != len(rows):
            raise ParseError(
                f"{origin}: feature table has shape {feats.shape}, "
                f"need ({len(rows)}, dim)"
            )
    out: dict[int, list[Detection]] = {}
    for idx, (lineno, frame, box, score) in enumerate(rows):
        if features is None:
            feat = _fallback_feature(seed, idx, feature_dim)
        else:
            try:
                feat = extract_feature(feats[idx])
            except ValueError as exc:
                raise ParseError(f"{origin}:{lineno}: feature row {idx}: {exc}") from None
        out.setdefault(frame, []).append(
            Detection(det_id=idx, frame=frame, box=box, score=score, feature=feat)
        )
    return out


def read_tracks(source: Source) -> dict[int, dict[int, Box]]:
    """Parse a track file into id -> frame -> box; ids must be >= 0."""
    text, origin = _read_text(source)
    out: dict[int, dict[int, Box]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        frame, tid, box, _ = _parse_row(origin, lineno, line)
        if tid < 0:
            raise ParseError(f"{origin}:{lineno}: track rows need an id >= 0")
        per = out.setdefault(tid, {})
        if frame in per:
            raise ParseError(f"{origin}:{lineno}: duplicate id {tid} in frame {frame}")
        per[frame] = box
    return out


def format_tracks(tracks: dict[int, dict[int, Box]]) -> str:
    """Canonical track rows, sorted by (frame, id), score fixed at 1."""
    rows = []
    for tid, frames in tracks.items():
        for frame, box in frames.items():
            rows.append((frame, tid, box))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [
        f"{frame},{tid},{box[0]:.2f},{box[1]:.2f},{box[2]:.2f},{box[3]:.2f},1.0000,-1,-1,-1"
        for frame, tid, box in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_tracks(tracks: dict[int, dict[int, Box]], path: str | Path) -> None:
    Path(path).write_text(format_tracks(tracks))


def format_detections(dets_by_frame: dict[int, list[Detection]]) -> str:
    """Canonical detection rows (id -1), sorted by frame then file order."""
    lines = []
    for frame in sorted(dets_by_frame):
        for det in dets_by_frame[frame]:
            x, y, w, h = det.box
            lines.append(
                f"{frame},-1,{x:.2f},{y:.2f},{w:.2f},{h:.2f},{det.score:.4f},-1,-1,-1"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def feature_table(dets_by_frame: dict[int, list[Detection]]) -> np.ndarray:
    """Feature rows in the same order as format_detections lines."""
    feats = [
        det.feature for frame in sorted(dets_by_frame) for det in dets_by_frame[frame]
    ]
    if not feats:
        return np.zeros((0, DEFAULT_FEATURE_DIM))
    return np.stack(feats)


def sidecar_path(det_path: str | Path) -> Path:
    return Path(str(det_path) + ".npy")


def write_detections(
    dets_by_frame: dict[int, list[Detection]], path: str | Path
) -> None:
    """Write detection rows plus the feature sidecar next to them."""
    Path(path).write_text(format_detections(dets_by_frame))
    np.save(sidecar_path(path), feature_table(dets_by_frame))


# -- appearance features ------------------------------------------------------


def extract_feature(region: np.ndarray, bins: int = HIST_BINS) -> np.ndarray:
    """Unit-norm appearance feature.

    A 1-D input is treated as an already computed feature and passed through
    (renormalized if needed). A 2-D (grayscale) or HxWx3 raster is reduced to
    per-channel `bins`-bin intensity histograms, concatenated and
    L2-normalized; grayscale rasters are replicated to three channels.
    Floating-point input is read as [0, 1], any other dtype as [0, 255].
    """
    arr = np.asarray(region)
    if arr.ndim == 1:
        vec = arr.astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm <= 0 or not np.isfinite(norm):
            raise ValueError("feature vector must be nonzero and finite")
        return vec if abs(norm - 1.0) <= 1e-9 else vec / norm
    if arr.size == 0:
        raise ValueError("empty image region")
    if arr.ndim == 2:
        arr = np.stack([arr, arr, arr], axis=-1)
    if arr.ndim != 3 or arr.shape[-1] != 3:
        raise ValueError(f"expected HxWx3 region, got shape {arr.shape}")
    vals = arr.astype(np.float64)
    if arr.dtype.kind == "f":
        vals = vals * 255.0
    parts = [
        np.histogram(vals[..., c], bins=bins, range=(0.0, 256.0))[0].astype(np.float64)
        for c in range(3)
    ]
    vec = np.concatenate(parts)
    return vec / np.linalg.norm(vec)


# -- synthetic scenes ----------------------------------------------------------


@dataclass
class Scenario:
    """Flat synthetic-scene description; mirrors the key=value file format."""

    targets: int = 2
    frames: int = 60
    motion: str = "linear"  # linear | crossing
    miss_prob: float = 0.0
    clutter_rate: float = 0.0  # expected clutter boxes per frame
    feature_noise: float = 0.1
    feature_dim: int = DEFAULT_FEATURE_DIM
    pos_noise: float = 1.0
    occlusion_start: int = 0  # inclusive 1-based; 0 disables
    occlusion_end: int = 0
    arena_w: float = 640.0
    arena_h: float = 480.0
    box_w: float = 24.0
    box_h: float = 48.0
    lane_gap: float = 60.0
    target_score_mean: float = 0.9
    target_score_std: float = 0.03
    clutter_score_mean: float = 0.4
    clutter_score_std: float = 0.1

    def __post_init__(self) -> None:
        if self.targets < 1:
            raise ScenarioError(f"targets must be >= 1, got {self.targets}")
        if self.frames < 1:
            raise ScenarioError(f"frames must be >= 1, got {self.frames}")
        if self.motion not in ("linear", "crossing"):
            raise ScenarioError(f"motion must be linear or crossing, got {self.motion!r}")
        if not (0.0 <= self.miss_prob <= 1.0):
            raise ScenarioError(f"miss_prob must be in [0, 1], got {self.miss_prob}")
        if self.clutter_rate < 0:
            raise ScenarioError(f"clutter_rate must be >= 0, got {self.clutter_rate}")
        if self.feature_dim < self.targets:
            raise ScenarioError(
                "feature_dim must be at least targets (one prototype axis each)"
            )
        if self.box_w <= 0 or self.box_h <= 0:
            raise ScenarioError("box sizes must be positive")


def parse_scenario(source: Source) -> Scenario:
    text, origin = _read_text(source)
    kv = parse_kv(text, origin)
    return Scenario(**typed_fields(Scenario, kv, origin, "scenario", ScenarioError))


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm <= 1e-12:
        out = np.zeros_like(vec)
        out[0] = 1.0
        return out
    return vec / norm


def synth_generate(
    scenario: Scenario, seed: int = 0
) -> tuple[dict[int, list[Detection]], dict[int, dict[int, Box]]]:
    """Generate (detections by frame, ground-truth tracks) deterministically.

    Targets move on horizontal lanes; with motion=crossing, odd-indexed
    targets run right to left so trajectories meet mid-sequence. Target
    features are unit-normalized identity prototypes plus Gaussian noise;
    clutter features are isotropic noise. The occlusion interval suppresses
    every target's detections in those frames (clutter still fires).
    """
    rng = np.random.default_rng(seed)
    sc = scenario
    margin = sc.box_w
    span = max(sc.arena_w - 2 * margin - sc.box_w, 0.0)
    lane0 = sc.arena_h / 2.0 - (sc.targets - 1) / 2.0 * sc.lane_gap

    gt: dict[int, dict[int, Box]] = {}
    for i in range(sc.targets):
        track: dict[int, Box] = {}
        y_top = lane0 + i * sc.lane_gap - sc.box_h / 2.0
        for t in range(1, sc.frames + 1):
            frac = (t - 1) / (sc.frames - 1) if sc.frames > 1 else 0.0
            if sc.motion == "crossing" and i % 2 == 1:
                x = margin + span * (1.0 - frac)
            else:
                x = margin + span * frac
            track[t] = (x, y_top, sc.box_w, sc.box_h)
        gt[i + 1] = track

    prototypes = np.eye(sc.feature_dim)[: sc.targets]
    occluded = (
        range(sc.occlusion_start, sc.occlusion_end + 1)
        if sc.occlusion_start >= 1
        else range(0)
    )

    dets: dict[int, list[Detection]] = {t: [] for t in range(1, sc.frames + 1)}
    det_id = 0
    for t in range(1, sc.frames + 1):
        for i in range(sc.targets):
            if t in occluded:
                continue
            if rng.random() < sc.miss_prob:
                continue
            x, y, w, h = gt[i + 1][t]
            jx, jy = rng.normal(0.0, sc.pos_noise, size=2)
            score = float(
                np.clip(rng.normal(sc.target_score_mean, sc.target_score_std), 0.05, 1.0)
            )
            feat = _unit(prototypes[i] + sc.feature_noise * rng.standard_normal(sc.feature_dim))
            dets[t].append(
                Detection(det_id, t, (x + jx, y + jy, w, h), score, feat)
            )
            det_id += 1
        for _ in range(rng.poisson(sc.clutter_rate)):
            w = sc.box_w * rng.uniform(0.7, 1.3)
            h = sc.box_h * rng.uniform(0.7, 1.3)
            x = rng.uniform(0.0, max(sc.arena_w - w, 1.0))
            y = rng.uniform(0.0, max(sc.arena_h - h, 1.0))
            score = float(
                np.clip(rng.normal(sc.clutter_score_mean, sc.clutter_score_std), 0.05, 1.0)
            )
            feat = _unit(rng.standard_normal(sc.feature_dim))
            dets[t].append(Detection(det_id, t, (x, y, w, h), score, feat))
            det_id += 1
    return dets, gt


# -- solver instance files -----------------------------------------------------


def save_instance(network: FlowNetwork, cost_vectors: Sequence[CostVector]) -> str:
    """Serialize one window instance: structure, demands, each CostVector's values by repr."""
    lines = ["[meta]"]
    lines.append(f"commodities={network.num_commodities}")
    lines.append("demands=" + ",".join(str(int(d)) for d in network.demands))
    lines.append("[detections]")
    for det in network.detections:
        x, y, w, h = det.box
        lines.append(f"{det.frame},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{det.score:.4f}")
    lines.append("[transitions]")
    for i, j in network.transitions:
        lines.append(f"{i},{j}")
    lines.append("[costs]")
    for cv in cost_vectors:
        body = ",".join(repr(float(v)) for v in cv.values)
        lines.append(f"{cv.commodity}:{body}")
    return "\n".join(lines) + "\n"


def load_instance(source: Source) -> tuple[FlowNetwork, list[CostVector]]:
    """Parse a window instance file back into a network and cost vectors.

    Boxes and scores are provenance only; the solver reads structure and
    costs. Loaded detections get a placeholder one-dimensional feature.
    """
    text, origin = _read_text(source)
    sections: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in sections:
                raise ParseError(f"{origin}:{lineno}: duplicate section {name!r}")
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ParseError(f"{origin}:{lineno}: content before any section")
        current.append((lineno, line))

    for required in ("meta", "detections", "transitions", "costs"):
        if required not in sections:
            raise ParseError(f"{origin}: missing [{required}] section")

    meta = parse_kv("\n".join(line for _, line in sections["meta"]), origin)
    try:
        num_comm = int(meta["commodities"])
        demands = [int(v) for v in meta["demands"].split(",")]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{origin}: bad [meta] section: {exc}") from None
    if len(demands) != num_comm:
        raise ParseError(f"{origin}: demands count != commodities")

    placeholder = np.array([1.0])
    detections = []
    for idx, (lineno, line) in enumerate(sections["detections"]):
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"{origin}:{lineno}: detection rows need 6 fields")
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{origin}:{lineno}: non-numeric detection field") from None
        if not np.isfinite(nums).all():
            raise ParseError(f"{origin}:{lineno}: non-finite detection field")
        if nums[0] != int(nums[0]):
            raise ParseError(f"{origin}:{lineno}: frame must be an integer")
        frame = int(nums[0])
        if frame < 1:
            raise ParseError(f"{origin}:{lineno}: frames are 1-based, got {frame}")
        x, y, w, h, score = nums[1:]
        try:
            detections.append(Detection(idx, frame, (x, y, w, h), score, placeholder))
        except ValueError as exc:
            raise ParseError(f"{origin}:{lineno}: {exc}") from None

    transitions = []
    for lineno, line in sections["transitions"]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{origin}:{lineno}: transition rows are i,j")
        try:
            transitions.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"{origin}:{lineno}: non-integer transition") from None

    try:
        network = network_from_parts(detections, transitions, demands)
    except ValueError as exc:
        raise ParseError(f"{origin}: {exc}") from None

    cost_vectors: list[CostVector | None] = [None] * num_comm
    for lineno, line in sections["costs"]:
        head, _, body = line.partition(":")
        try:
            k = int(head)
            values = np.array([float(v) for v in body.split(",")], dtype=np.float64)
        except ValueError:
            raise ParseError(f"{origin}:{lineno}: bad cost row") from None
        if not np.isfinite(values).all():
            raise ParseError(f"{origin}:{lineno}: non-finite cost")
        if not (0 <= k < num_comm):
            raise ParseError(f"{origin}:{lineno}: commodity {k} out of range")
        if cost_vectors[k] is not None:
            raise ParseError(f"{origin}:{lineno}: duplicate costs for commodity {k}")
        if values.shape[0] != network.cost_size:
            raise ParseError(
                f"{origin}:{lineno}: commodity {k} has {values.shape[0]} costs, "
                f"expected {network.cost_size} (shared edges, then its own block)"
            )
        cost_vectors[k] = CostVector(commodity=k, values=values)
    missing = [k for k, cv in enumerate(cost_vectors) if cv is None]
    if missing:
        raise ParseError(f"{origin}: missing cost rows for commodities {missing}")
    return network, [cv for cv in cost_vectors if cv is not None]
