"""Passive-aggressive bilinear similarity learning: closed form and properties."""

import numpy as np
import pytest

from helpers import unit_feature
from mcftrack import simlearn, tracker
from mcftrack.io import Scenario, synth_generate
from mcftrack.simlearn import (
    DegenerateTripletError,
    SimilarityModel,
    Triplet,
    TripletSet,
    build_triplets,
    hinge_loss,
    load_model,
    pa_update,
    save_model,
    similarity,
    update_model,
)


def model(w, c=1.0):
    return SimilarityModel(W=np.asarray(w, dtype=np.float64), aggressiveness=c)


E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


# -- similarity and loss --------------------------------------------------------

def test_similarity_identity_cases():
    m = model(np.eye(2))
    assert similarity(m, E1, E1) == 1.0
    assert similarity(m, E1, E2) == 0.0


def test_similarity_learned_matrix():
    m = model([[0.0, 1.0], [0.0, 1.0]])
    assert similarity(m, E1, E2) == 1.0


def test_similarity_dimension_mismatch():
    m = model(np.eye(2))
    with pytest.raises(ValueError):
        similarity(m, np.array([1.0, 0.0, 0.0]), E1)


def test_hinge_loss_satisfied():
    m = model(np.eye(2))
    assert hinge_loss(m, Triplet(E1, E1, E2)) == 0.0


def test_hinge_loss_worked_example():
    m = model(np.eye(2))
    assert hinge_loss(m, Triplet(E1, E2, E1)) == pytest.approx(2.0)


def test_hinge_loss_margin_boundary():
    # engineered so phi(a,a+) - phi(a,a-) == 1 exactly
    m = model([[1.0, 0.0], [0.0, 0.0]])
    assert hinge_loss(m, Triplet(E1, E1, E2)) == 0.0


# -- pa_update -------------------------------------------------------------------

def test_pa_update_noop_at_zero_loss():
    m = model(np.eye(2))
    before = m.W.copy()
    m2, alpha = pa_update(m, Triplet(E1, E1, E2))
    assert alpha == 0.0
    assert np.array_equal(m2.W, before)


def test_pa_update_worked_example():
    m = model(np.eye(2), c=1.0)
    m2, alpha = pa_update(m, Triplet(E1, E2, E1))
    assert alpha == pytest.approx(1.0)
    assert np.allclose(m2.W, [[0.0, 1.0], [0.0, 1.0]])
    assert hinge_loss(m2, Triplet(E1, E2, E1)) == pytest.approx(0.0)


def test_pa_update_clipped_by_aggressiveness():
    m = model(np.eye(2), c=0.25)
    m2, alpha = pa_update(m, Triplet(E1, E2, E1))
    assert alpha == pytest.approx(0.25)
    # residual loss L - alpha*||V||^2 = 2 - 0.25*2
    assert hinge_loss(m2, Triplet(E1, E2, E1)) == pytest.approx(1.5)


def test_pa_update_degenerate_triplet():
    # anchor orthogonal to equal positive/negative: L = 1 > 0 but V = 0
    m = model(np.eye(2))
    with pytest.raises(DegenerateTripletError):
        pa_update(m, Triplet(E1, E2, E2))


def test_pa_update_rank_one_increment():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        m = model(rng.normal(size=(dim, dim)), c=float(rng.uniform(0.05, 2)))
        t = Triplet(unit_feature(rng, dim), unit_feature(rng, dim), unit_feature(rng, dim))
        m2, alpha = pa_update(m, t)
        delta = m2.W - m.W
        assert 0.0 <= alpha <= m.aggressiveness + 1e-15
        assert np.linalg.matrix_rank(delta, tol=1e-10) <= 1


def test_pa_update_residual_loss_formula():
    rng = np.random.default_rng(12)
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        m = model(rng.normal(size=(dim, dim)), c=float(rng.uniform(0.01, 3)))
        t = Triplet(unit_feature(rng, dim), unit_feature(rng, dim), unit_feature(rng, dim))
        before = hinge_loss(m, t)
        a = np.asarray(t.anchor)
        delta = np.asarray(t.positive) - np.asarray(t.negative)
        vnorm = float(a @ a) * float(delta @ delta)
        m2, alpha = pa_update(m, t)
        assert hinge_loss(m2, t) == pytest.approx(max(0.0, before - alpha * vnorm), abs=1e-10)
        assert (alpha == 0.0) == (before == 0.0)


def test_pa_update_is_constraint_projection():
    # the closed form minimizes ||W'-W||_F^2 + C*slack; random perturbations
    # of the answer never do better
    rng = np.random.default_rng(13)
    for _ in range(30):
        dim = 3
        m = model(rng.normal(size=(dim, dim)), c=float(rng.uniform(0.05, 2)))
        w0 = m.W.copy()  # pa_update works in place
        t = Triplet(unit_feature(rng, dim), unit_feature(rng, dim), unit_feature(rng, dim))
        m2, _ = pa_update(m, t)

        def objective(w):
            cand = SimilarityModel(W=w, aggressiveness=m.aggressiveness)
            return (0.5 * np.sum((w - w0) ** 2)
                    + m.aggressiveness * hinge_loss(cand, t))

        best = objective(m2.W)
        for _ in range(80):
            pert = m2.W + rng.normal(scale=0.05, size=(dim, dim))
            assert objective(pert) >= best - 1e-8


# -- triplet construction ---------------------------------------------------------

class _Traj:
    def __init__(self, track_id, template):
        self.track_id = track_id
        self.template = np.asarray(template, dtype=np.float64)


def test_build_triplets_three_associated():
    # associations are keyed by position in the trajectory sequence
    trajs = [_Traj(1, E1), _Traj(2, E2), _Traj(3, [0.6, 0.8])]
    feats = {0: E1, 1: E2, 2: np.array([0.6, 0.8])}
    out = build_triplets(trajs, feats)
    assert set(out) == {0, 1, 2}
    assert all(len(v) == 2 for v in out.values())
    # anchor is the trajectory template, positive its own detection
    t = out[0]
    assert np.array_equal(t.anchor, E1) and np.array_equal(t.positive, E1)
    # negatives are the other associations in index order
    assert np.array_equal(t.negatives[0], E2)
    assert np.array_equal(t.negatives[1], [0.6, 0.8])


def test_build_triplets_single_association():
    trajs = [_Traj(1, E1), _Traj(2, E2)]
    out = build_triplets(trajs, {0: E1})
    assert len(out[0]) == 0


def test_build_triplets_unassociated_gets_none():
    trajs = [_Traj(1, E1), _Traj(2, E2)]
    out = build_triplets(trajs, {0: E1, 1: E2})
    assert len(out[0]) == 1 and len(out[1]) == 1
    out2 = build_triplets(trajs, {})
    assert out2 == {}


@pytest.mark.parametrize("anchor, positive, negatives, message", [
    (np.eye(2), E1, (E2,), "anchor must be a 1-D vector"),
    (np.float64(1.0), E1, (E2,), "anchor must be a 1-D vector"),
    (E1, np.ones(3), (E2,), "positive must be a 1-D vector of length 2"),
    (E1, E2, (E2, np.ones(3)), "negative must be a 1-D vector of length 2"),
    (E1, E2, (np.eye(2),), "negative must be a 1-D vector of length 2"),
])
def test_triplet_set_rejects_what_triplet_rejects(anchor, positive, negatives, message):
    with pytest.raises(ValueError, match=message):
        TripletSet(anchor, positive, negatives)
    with pytest.raises(ValueError, match=message):
        for n in negatives:
            Triplet(anchor, positive, n)


# -- update_model and persistence -------------------------------------------------

def test_update_model_empty_is_identity():
    m = model(np.eye(3))
    m2 = update_model(m, TripletSet(np.ones(3), np.ones(3), ()))
    assert np.array_equal(m2.W, np.eye(3))
    assert m2.update_count == 0


def test_update_model_single_equals_pa_update():
    rng = np.random.default_rng(14)
    t = Triplet(unit_feature(rng, 3), unit_feature(rng, 3), unit_feature(rng, 3))
    m = model(rng.normal(size=(3, 3)), c=0.5)
    base = SimilarityModel(W=m.W.copy(), aggressiveness=0.5)
    ref, _ = pa_update(base, t)
    got = update_model(model(m.W.copy(), c=0.5), TripletSet(t.anchor, t.positive, (t.negative,)))
    assert np.allclose(got.W, ref.W)


def test_update_model_order_deterministic():
    rng = np.random.default_rng(15)
    ts = TripletSet(unit_feature(rng, 3), unit_feature(rng, 3),
                    tuple(unit_feature(rng, 3) for _ in range(4)))
    a = update_model(model(np.eye(3), c=0.3), ts)
    b = update_model(model(np.eye(3), c=0.3), ts)
    assert np.array_equal(a.W, b.W)


# -- a triplet set equals its triplets applied one by one ---------------------------

def reference_update(m, triplets):
    """The passive-aggressive step written out per Triplet, as a reference."""
    for t in triplets:
        loss = max(0.0, 1.0 - (float(t.anchor @ m.W @ t.positive)
                               - float(t.anchor @ m.W @ t.negative)))
        if loss <= 0.0:
            continue
        delta = t.positive - t.negative
        vnorm = float(t.anchor @ t.anchor) * float(delta @ delta)
        if vnorm <= 0.0:
            raise DegenerateTripletError("positive == negative")
        m.W += min(m.aggressiveness, loss / vnorm) * np.outer(t.anchor, delta)
        m.update_count += 1
    return m


def reference_build(trajectories, associations):
    keys = sorted(associations)
    return {
        k: [Triplet(trajectories[k].template, associations[k], associations[l])
            for l in keys if l != k]
        for k in keys
    }


def as_triplets(ts):
    return [Triplet(ts.anchor, ts.positive, n) for n in ts.negatives]


def test_triplet_set_update_is_bit_identical_to_per_triplet_steps():
    rng = np.random.default_rng(18)
    kinds = {"noop": 0, "full": 0, "clipped": 0}
    for _ in range(400):
        dim = int(rng.integers(2, 25))
        c = float(rng.uniform(0.01, 3.0))
        w0 = np.eye(dim) + rng.normal(scale=rng.uniform(0.0, 1.5), size=(dim, dim))
        anchor = unit_feature(rng, dim)
        positive = unit_feature(rng, dim) if rng.random() < 0.5 else anchor.copy()
        ts = TripletSet(anchor, positive,
                        tuple(unit_feature(rng, dim) for _ in range(int(rng.integers(0, 31)))))
        assert len(ts) == len(ts.negatives)
        got = update_model(model(w0, c), ts)
        ref = model(w0, c)
        for t in as_triplets(ts):
            before = ref.W.copy()
            loss = hinge_loss(ref, t)
            reference_update(ref, [t])
            if np.array_equal(ref.W, before):
                kinds["noop"] += 1
            elif loss > c * float(t.anchor @ t.anchor) * float(
                    (t.positive - t.negative) @ (t.positive - t.negative)):
                kinds["clipped"] += 1
            else:
                kinds["full"] += 1
        assert np.array_equal(got.W, ref.W)
        assert got.update_count == ref.update_count
    assert min(kinds.values()) > 100, kinds


def near_zero_loss_set(rng, w, dim, count, spread=1e-12):
    """A set whose triplets' hinge losses under w lie within +-spread of zero."""
    anchor, positive = unit_feature(rng, dim), unit_feature(rng, dim)
    u = anchor @ w
    sp = float(u @ positive)
    negatives = []
    for _ in range(count):
        n = unit_feature(rng, dim)
        # move n along u until 1 - (sp - u.n) equals a loss drawn within the spread
        n = n + (sp - 1.0 + rng.uniform(-spread, spread) - float(u @ n)) / float(u @ u) * u
        negatives.append(n)
    return TripletSet(anchor, positive, tuple(negatives))


@pytest.mark.parametrize("w_scale", [1.0, 1e6])
def test_screened_steps_are_bit_identical_at_the_margin(w_scale):
    # Losses within 1e-12 of zero are where a screen by neg @ u could disagree
    # with u.dot(n); a tiny C keeps W (nearly) fixed, so every triplet of a set
    # stays at the margin, and a large-norm W scales the rounding up.
    rng = np.random.default_rng(20 + int(w_scale))
    applied = skipped = 0
    for trial in range(300):
        dim = int(rng.integers(2, 25))
        w0 = w_scale * (np.eye(dim) + rng.normal(scale=0.3, size=(dim, dim)))
        c = 1e-300 if trial % 2 else float(rng.uniform(0.01, 1.0))
        ts = near_zero_loss_set(rng, w0, dim, int(rng.integers(1, 31)))
        got = model(w0, c)
        got_alpha = simlearn._pa_steps(got, ts.anchor, ts.positive, ts.negatives)
        one_by_one, alpha = model(w0, c), 0.0
        for t in as_triplets(ts):
            _, alpha = pa_update(one_by_one, t)
        ref = reference_update(model(w0, c), as_triplets(ts))
        for other in (one_by_one, ref):
            assert np.array_equal(got.W, other.W)
            assert got.update_count == other.update_count
        assert got_alpha == alpha
        applied += got.update_count
        skipped += len(ts) - got.update_count
    assert applied > 500 and skipped > 500, (applied, skipped)


def test_build_triplets_gives_each_set_one_negatives_array():
    rng = np.random.default_rng(21)
    trajs = [_Traj(k, unit_feature(rng, 5)) for k in range(6)]
    feats = {k: unit_feature(rng, 5) for k in (0, 2, 3, 5)}
    out = build_triplets(trajs, feats)
    for i, k in enumerate(sorted(feats)):
        ts = out[k]
        assert isinstance(ts.negatives, np.ndarray) and ts.negatives.shape == (3, 5)
        others = [feats[j] for j in sorted(feats) if j != k]
        assert np.array_equal(ts.negatives, others)
        assert np.array_equal(ts.anchor, trajs[k].template)
        assert np.array_equal(ts.positive, feats[k])


def test_degenerate_negative_mid_set_keeps_the_steps_before_it():
    rng = np.random.default_rng(19)
    raised = 0
    for _ in range(100):
        dim = int(rng.integers(2, 25))
        c = float(rng.uniform(0.01, 3.0))
        w0 = np.eye(dim) + rng.normal(size=(dim, dim))
        anchor, positive = unit_feature(rng, dim), unit_feature(rng, dim)
        negatives = [unit_feature(rng, dim) for _ in range(int(rng.integers(1, 31)))]
        j = int(rng.integers(0, len(negatives)))
        negatives[j] = positive.copy()
        ts = TripletSet(anchor, positive, tuple(negatives))
        ref = model(w0, c)
        reference_update(ref, as_triplets(ts)[:j])
        if hinge_loss(ref, as_triplets(ts)[j]) <= 0.0:
            continue  # a zero-loss degenerate triplet is a no-op, not an error
        got = model(w0, c)
        with pytest.raises(DegenerateTripletError):
            update_model(got, ts)
        assert np.array_equal(got.W, ref.W)
        assert got.update_count == ref.update_count
        raised += 1
    assert raised > 50


def test_tracker_learns_the_same_with_sets_as_with_triplets(monkeypatch):
    # the gated `wide` benchmark scene, cut to 12 frames
    scene = Scenario(targets=24, frames=12, clutter_rate=0.0, feature_dim=24,
                     arena_h=3200.0, lane_gap=120.0, miss_prob=0.05, feature_noise=0.1,
                     pos_noise=1.0, target_score_std=0.0)
    dets, _ = synth_generate(scene, seed=3)
    config = tracker.TrackerConfig(window=3, d0=8, bypass_cost_tracked=12.0,
                                   bypass_cost_dummy=19.5)

    def track():
        trk = tracker.OnlineTracker(config)
        records = []
        for f in range(1, scene.frames + 1):
            records += trk.step(f, dets.get(f, []))
        return trk, records

    shipped, shipped_records = track()
    monkeypatch.setattr(tracker, "build_triplets", reference_build)
    monkeypatch.setattr(tracker, "update_model", reference_update)
    ref, ref_records = track()

    assert shipped_records == ref_records
    assert [d.v_int for d in shipped.diagnostics] == [d.v_int for d in ref.diagnostics]
    assert len(shipped.trajectories) == len(ref.trajectories) >= 24
    assert sum(t.model.update_count for t in shipped.trajectories) > 0
    for a, b in zip(shipped.trajectories, ref.trajectories):
        assert a.track_id == b.track_id
        assert np.array_equal(a.model.W, b.model.W)
        assert a.model.update_count == b.model.update_count


def test_model_updates_are_independent():
    rng = np.random.default_rng(16)
    m1 = SimilarityModel.identity(3, aggressiveness=0.4)
    m2 = SimilarityModel.identity(3, aggressiveness=0.4)
    snapshot = m2.W.copy()
    t = Triplet(unit_feature(rng, 3), unit_feature(rng, 3), unit_feature(rng, 3))
    pa_update(m1, t)
    assert np.array_equal(m2.W, snapshot)


def test_identity_constructor():
    m = SimilarityModel.identity(5, aggressiveness=0.7)
    assert np.array_equal(m.W, np.eye(5))
    assert m.aggressiveness == 0.7


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    m = model(rng.normal(size=(4, 4)), c=0.9)
    path = str(tmp_path / "model.bin")
    save_model(m, path)
    back = load_model(path)
    assert back.aggressiveness == m.aggressiveness
    assert np.array_equal(back.W, m.W)
