"""Online bilinear similarity learning with passive-aggressive updates.

The similarity between unit feature vectors a and b is the bilinear form
a^T W b. W starts at the identity (cosine similarity) and is adapted online
from triplets (anchor, positive, negative): the anchored hinge loss

    L = max(0, 1 - a^T W a_pos + a^T W a_neg)

is driven to zero by the smallest Frobenius step, clipped by the
aggressiveness C:

    V = outer(a, a_pos - a_neg),  alpha = min(C, L / ||V||_F^2),  W += alpha V.

Each applied update is rank one. alpha = L / ||V||_F^2 is the exact
minimizer of ||W' - W||_F^2 / 2 subject to zero loss; the C clip bounds the
step against noisy triplets.

A frame's triplets for one trajectory share the anchor and the positive, so
they travel as one TripletSet, whose negatives are the rows of one array,
applied in order. The row u = a^T W and a^T W a_pos = u . a_pos are kept
between triplets and recomputed only after an applied step, which is the
only thing that changes W. Most triplets already meet the margin, so the
remaining negatives are screened by one product neg @ u, and only those the
screen cannot show to have zero loss are evaluated, in order, by u.dot(n).
The screen's cutoff leaves more room than the two products can round apart
(_screen_margin), so every triplet it skips would have been a no-op. Each
evaluated step computes exactly the expressions of the single-triplet
update (a @ W, then the dot products, the hinge, ||a||^2 ||delta||^2 and
W += alpha outer(a, delta)) on the same arrays, so a set leaves W and
update_count bit for bit where the same triplets applied one by one would.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


class DegenerateTripletError(ValueError):
    """Positive loss with a zero update direction (positive == negative)."""


def _as_unit_vector(name: str, vec: np.ndarray, dim: int) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise ValueError(f"{name} must be a 1-D vector of length {dim}")
    return arr


def _as_unit_rows(name: str, rows: Sequence[np.ndarray] | np.ndarray, dim: int) -> np.ndarray:
    """rows as one (m, dim) array, each row checked as _as_unit_vector checks a vector."""
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except ValueError:  # rows of different lengths
        raise ValueError(f"{name} must be a 1-D vector of length {dim}") from None
    if arr.ndim and not arr.shape[0]:
        return arr.reshape(0, dim)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{name} must be a 1-D vector of length {dim}")
    return arr


def _checked(anchor: np.ndarray, positive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(anchor, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("anchor must be a 1-D vector")
    return a, _as_unit_vector("positive", positive, a.shape[0])


@dataclass(frozen=True)
class Triplet:
    """Anchor with a should-match positive and a should-not-match negative."""

    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self) -> None:
        a, p = _checked(self.anchor, self.positive)
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "positive", p)
        object.__setattr__(self, "negative", _as_unit_vector("negative", self.negative, a.shape[0]))


@dataclass(frozen=True)
class TripletSet:
    """The triplets (anchor, positive, n) for each row n of negatives, in order.

    negatives is kept as one (m, d) array; any sequence of m vectors is
    accepted. Validated as each Triplet would be; len() counts the triplets.
    """

    anchor: np.ndarray
    positive: np.ndarray
    negatives: np.ndarray

    def __post_init__(self) -> None:
        a, p = _checked(self.anchor, self.positive)
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "positive", p)
        object.__setattr__(self, "negatives", _as_unit_rows("negative", self.negatives, a.shape[0]))

    def __len__(self) -> int:
        return len(self.negatives)


@dataclass
class SimilarityModel:
    """Bilinear similarity a^T W b with per-model aggressiveness C."""

    W: np.ndarray
    aggressiveness: float = 0.1
    update_count: int = 0

    def __post_init__(self) -> None:
        w = np.array(self.W, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"W must be square, got shape {w.shape}")
        if self.aggressiveness <= 0:
            raise ValueError(f"aggressiveness must be positive, got {self.aggressiveness}")
        self.W = w

    @classmethod
    def identity(cls, dim: int, aggressiveness: float = 0.1) -> "SimilarityModel":
        return cls(W=np.eye(dim), aggressiveness=aggressiveness)

    @property
    def dim(self) -> int:
        return self.W.shape[0]


def similarity(model: SimilarityModel, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.asarray(a, dtype=np.float64) @ model.W @ np.asarray(b, dtype=np.float64))


def hinge_loss(model: SimilarityModel, triplet: Triplet) -> float:
    margin = similarity(model, triplet.anchor, triplet.positive) - similarity(
        model, triplet.anchor, triplet.negative
    )
    return max(0.0, 1.0 - margin)


_EPS = float(np.finfo(np.float64).eps)


def _screen_margin(u: np.ndarray, sp: float, frob2: float) -> float:
    """More than neg @ u and u.dot(n) may round apart, and room to round sp - 1 - it.

    Every row n of neg has ||n||^2 <= frob2 (its squared Frobenius norm),
    so sum|u_i n_i| <= B = sqrt(u.u frob2). Either product lies within
    gamma_d B of the exact u.n (gamma_d = d eps/2 / (1 - d eps/2) in any
    summation order, d = len(u)). The returned (d + 4) eps (1 + |sp| + B)
    exceeds twice that plus the rounding of the cutoff sp - 1 - margin for
    any d < 10^6, so (neg @ u)[j] <= cutoff gives u.dot(n) <= sp - 1: a zero
    hinge loss.
    """
    return (u.shape[0] + 4) * _EPS * (1.0 + abs(sp) + math.sqrt(float(u @ u) * frob2))


def _pa_steps(model: SimilarityModel, a: np.ndarray, p: np.ndarray, neg: np.ndarray) -> float:
    """PA steps on (a, p, n) for each row n of neg in order, in place; returns the last alpha.

    Between steps the remaining rows are screened by one product; only the
    rows it cannot show to be no-ops are evaluated, in order.
    """
    m = neg.shape[0]
    if not m:
        return 0.0
    frob2 = float(np.vdot(neg, neg))
    alpha, last = 0.0, -1  # the last applied step and its triplet
    start = 0
    while start < m:
        u = a @ model.W
        sp = float(u @ p)
        cutoff = sp - 1.0 - _screen_margin(u, sp, frob2)
        # a NaN product compares false both ways, so it is evaluated, not screened out
        rest = start + np.flatnonzero(~(neg[start:] @ u <= cutoff))
        start = m
        for j in rest.tolist():
            n = neg[j]
            # hinge_loss's expression; u.dot(n) is u @ n with less call overhead
            loss = max(0.0, 1.0 - (sp - float(u.dot(n))))
            if loss <= 0.0:
                continue
            delta = p - n
            # ||outer(a, delta)||_F^2 factorizes; no need to materialize V for the norm.
            vnorm = float(a @ a) * float(delta @ delta)
            if vnorm <= 0.0:
                raise DegenerateTripletError(
                    "positive == negative: loss is positive but the step direction is zero"
                )
            alpha, last = min(model.aggressiveness, loss / vnorm), j
            model.W += alpha * np.outer(a, delta)
            model.update_count += 1
            start = j + 1
            break
    return alpha if last == m - 1 else 0.0


def pa_update(
    model: SimilarityModel, triplet: Triplet
) -> tuple[SimilarityModel, float]:
    """Apply one passive-aggressive step in place; returns (model, alpha).

    No-op exactly when the triplet already satisfies the unit margin.
    Raises DegenerateTripletError when the loss is positive but the update
    direction vanishes (positive equals negative).
    """
    return model, _pa_steps(model, triplet.anchor, triplet.positive, triplet.negative[None, :])


def update_model(model: SimilarityModel, triplets: TripletSet) -> SimilarityModel:
    """Apply the set's triplets strictly in order, as successive pa_update calls.

    A DegenerateTripletError leaves W with the steps taken before it.
    """
    _pa_steps(model, triplets.anchor, triplets.positive, triplets.negatives)
    return model


def build_triplets(
    trajectories: Sequence[object], associations: Mapping[int, np.ndarray]
) -> dict[int, TripletSet]:
    """Per-trajectory triplet sets from one frame's co-associations.

    associations maps trajectory index -> the feature newly associated to it.
    Trajectory k's set pairs its template (anchor) and new feature (positive)
    against every other associated feature (negatives), in index order, less
    those exactly equal to its positive: such a triplet has no update
    direction. Fewer than two associations yield empty sets.
    """
    keys = sorted(associations)
    if not keys:
        return {}
    feats = np.array([associations[k] for k in keys], dtype=np.float64)
    # other[i, j]: feature j is a negative of set i; equal features share a first entry
    other = ~np.eye(len(keys), dtype=bool)
    if len(set(feats[:, 0].tolist())) < len(keys):
        other &= ~(feats[:, None] == feats).all(axis=2)
    return {
        k: TripletSet(
            anchor=trajectories[k].template,  # type: ignore[attr-defined]
            positive=feats[i],
            negatives=feats.compress(other[i], axis=0),
        )
        for i, k in enumerate(keys)
    }


_HEADER = struct.Struct("<I d")  # dim, aggressiveness


def save_model(model: SimilarityModel, path: str) -> None:
    """Binary snapshot: uint32 dim, float64 C, row-major float64 W."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(model.dim, model.aggressiveness))
        fh.write(np.ascontiguousarray(model.W, dtype="<f8").tobytes())


def load_model(path: str) -> SimilarityModel:
    """Inverse of save_model. update_count is not persisted and restarts at 0."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"model snapshot {path!r} is truncated")
    dim, aggressiveness = _HEADER.unpack_from(blob)
    expected = _HEADER.size + 8 * dim * dim
    if len(blob) != expected:
        raise ValueError(
            f"model snapshot {path!r} has {len(blob)} bytes, expected {expected}"
        )
    w = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(dim, dim)
    return SimilarityModel(W=w.copy(), aggressiveness=aggressiveness)
