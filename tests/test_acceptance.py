"""Acceptance gate: the nine release criteria, one test and PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance here is part of the release contract; loosening one
is a release decision, not a test fix.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    check_flow_constraints,
    random_instance,
    random_lp,
    unit_feature,
    vertex_lp_oracle,
    wrap_cost_vectors,
)
from mcftrack.colgen import column_generation
from mcftrack.io import Scenario, parse_scenario, synth_generate
from mcftrack.lp import solve_lp
from mcftrack.metrics import clear_mot
from mcftrack.oracle import brute_force_ilp
from mcftrack.simlearn import SimilarityModel, Triplet, hinge_loss, pa_update
from mcftrack.tracker import OnlineTracker, TrackerConfig, run

FIXTURES = Path(__file__).parent / "fixtures"


def report(n: int, name: str) -> None:
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(200):
        net, costs = random_instance(seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        opt, _ = brute_force_ilp(net, costs)
        assert abs(res.v_int - opt) <= 1e-6, (seed, res.v_int, opt)
        assert res.v_lp <= opt + 1e-9, (seed, res.v_lp, opt)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"200-instance oracle equivalence in {elapsed:.1f}s")


def test_criterion_2_certificate_soundness():
    # random adversarial instances: certificate sign and proven-optimal claim
    for seed in range(10_000, 10_150):
        net, costs = random_instance(seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        assert res.epsilon >= -1e-9, seed
        if res.status == "proven-optimal":
            opt, _ = brute_force_ilp(net, costs)
            assert abs(res.v_int - opt) <= 1e-9, (seed, res.v_int, opt)

    # non-contested regime: targets too far apart to share gated detections
    scenario = Scenario(
        targets=2, frames=50, miss_prob=0.05, clutter_rate=0.0,
        feature_noise=0.1, feature_dim=12, pos_noise=1.0, lane_gap=340.0,
        target_score_std=0.0,
    )
    dets, _ = synth_generate(scenario, seed=7)
    config = TrackerConfig(window=5, d0=5, bypass_cost_tracked=12.0,
                           bypass_cost_dummy=19.5)
    _, diags = run(dets, config)
    assert diags
    eps = np.array([d.epsilon for d in diags])
    assert (eps >= -1e-9).all()
    share = float(np.mean(eps <= 1e-9))
    assert share >= 0.95, f"only {share:.1%} of windows certified exact"
    report(2, f"certificates sound; {share:.1%} exact in non-contested regime")


def test_criterion_3_flow_feasibility_thousand_solves():
    for seed in range(20_000, 21_000):
        net, costs = random_instance(seed, oracle_budget=None)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        check_flow_constraints(net, res.selection)
    report(3, "1000 solves, all flows feasible edge by edge")


def test_criterion_4_lp_duality_thousand_problems():
    for seed in range(1000):
        prob = random_lp(seed)
        sol = solve_lp(prob)
        dual = -float(sol.pi @ prob.b_ub) + float(sol.sigma @ prob.b_eq)
        assert abs(sol.objective - dual) <= 1e-7 * (1 + abs(sol.objective)), seed
        ref = vertex_lp_oracle(prob)
        assert ref is not None, seed
        assert abs(sol.objective - ref) <= 1e-6, (seed, sol.objective, ref)
    report(4, "1000 LPs: strong duality and vertex-oracle agreement")


def test_criterion_5_pa_closed_form():
    rng = np.random.default_rng(42)
    n_perturb = 1000
    for trial in range(1000):
        dim = int(rng.integers(2, 9))
        w0 = rng.normal(scale=rng.uniform(0.2, 2.0), size=(dim, dim))
        c_aggr = float(rng.uniform(0.01, 2.0))
        anchor = unit_feature(rng, dim)
        pos = unit_feature(rng, dim)
        neg = unit_feature(rng, dim)
        if np.allclose(pos, neg):
            continue
        model = SimilarityModel(W=w0.copy(), aggressiveness=c_aggr)
        trip = Triplet(anchor=anchor, positive=pos, negative=neg)
        loss_before = hinge_loss(model, trip)
        _, alpha = pa_update(model, trip)

        if loss_before == 0.0:
            assert alpha == 0.0
            assert np.array_equal(model.W, w0)  # no-op exactly when L = 0
            continue
        assert alpha > 0.0

        delta = trip.positive - trip.negative
        vnorm = float(anchor @ anchor) * float(delta @ delta)
        expected_post = max(0.0, loss_before - alpha * vnorm)
        assert abs(hinge_loss(model, trip) - expected_post) <= 1e-10

        # optimality among random perturbations of the updated point
        def objective(w_batch: np.ndarray) -> np.ndarray:
            diff = w_batch - w0
            ssq = 0.5 * np.einsum("pij,pij->p", diff, diff)
            margin = np.einsum("i,pij,j->p", anchor, w_batch, delta)
            return ssq + c_aggr * np.maximum(0.0, 1.0 - margin)

        scales = np.geomspace(1e-4, 1.0, n_perturb)
        noise = rng.normal(size=(n_perturb, dim, dim)) * scales[:, None, None]
        j_star = objective(model.W[None])[0]
        j_others = objective(model.W[None] + noise)
        assert (j_star <= j_others + 1e-8).all(), trial
    report(5, "1000 PA updates optimal vs 1000 perturbations each")


def test_criterion_6_window_length_trend():
    t0 = time.perf_counter()
    scenario = parse_scenario(str(FIXTURES / "crossing.scenario"))
    config = TrackerConfig.from_text(
        (FIXTURES / "crossing.config").read_text(), "crossing.config")
    dets, gt = synth_generate(scenario, seed=7)

    tracks_wide, _ = run(dets, config)
    wide = clear_mot(gt, tracks_wide)
    assert wide.ids == 0, f"window=5 produced {wide.ids} id switches"
    assert wide.mota >= 0.9, f"window=5 MOTA {wide.mota:.4f}"

    tracks_local, _ = run(dets, replace(config, window=1))
    local = clear_mot(gt, tracks_local)
    assert local.ids >= 1, "window=1 should fragment identities at the crossing"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(6, f"window=5 MOTA {wide.mota:.3f}/IDS 0 vs window=1 IDS {local.ids}; "
              f"{elapsed:.1f}s")


def test_criterion_7_latency_contract():
    scenario = Scenario(targets=1, frames=16, miss_prob=0.0, clutter_rate=0.0,
                        feature_noise=0.0, pos_noise=0.0, target_score_std=0.0,
                        arena_w=240.0)
    dets, _ = synth_generate(scenario, seed=0)
    observed = {}
    for window in (1, 3, 10):
        config = TrackerConfig(window=window, d0=5, bypass_cost_tracked=12.0,
                               bypass_cost_dummy=19.5)
        tracker = OnlineTracker(config)
        emitted = set()
        for frame in range(1, 17):
            for rec in tracker.step(frame, dets.get(frame, [])):
                assert rec.frame == frame - (window - 1), (window, frame, rec)
                emitted.add(rec.frame)
        assert emitted == set(range(1, 17 - (window - 1)))
        flushed = {rec.frame for rec in tracker.flush()}
        assert flushed == set(range(17 - (window - 1), 17)) - emitted
        observed[window] = window - 1
    report(7, f"latency exactly window-1 for windows {sorted(observed)}")


def test_criterion_8_metrics_sanity():
    track = {f: (5.0 * f, 0.0, 10.0, 10.0) for f in range(1, 11)}
    other = {f: (5.0 * f, 100.0, 10.0, 10.0) for f in range(1, 11)}

    perfect = clear_mot({1: track, 2: other}, {1: dict(track), 2: dict(other)})
    assert perfect.mota == pytest.approx(1.0)
    assert perfect.motp == pytest.approx(1.0)
    assert perfect.ids == 0

    spurious = clear_mot(
        {1: track}, {1: dict(track), 2: {3: (900.0, 900.0, 10.0, 10.0)}})
    assert spurious.mota == pytest.approx(0.9)

    swap = clear_mot(
        {1: track, 2: other},
        {
            7: {f: (track[f] if f <= 5 else other[f]) for f in range(1, 11)},
            8: {f: (other[f] if f <= 5 else track[f]) for f in range(1, 11)},
        },
    )
    assert swap.ids == 2
    report(8, "metrics fixtures: perfect 1.0/1.0/0, +1 FP -> 0.9, swap -> IDS 2")


def test_criterion_9_throughput_recorded(tmp_path):
    scenario = Scenario(targets=5, frames=40, miss_prob=0.05, clutter_rate=0.5,
                        feature_noise=0.1, feature_dim=12, pos_noise=1.0,
                        lane_gap=80.0, target_score_std=0.0)
    dets, _ = synth_generate(scenario, seed=3)
    config = TrackerConfig(window=5, d0=8, bypass_cost_tracked=12.0,
                           bypass_cost_dummy=19.5)
    log = tmp_path / "diagnostics.log"
    _, diags = run(dets, config, log_path=str(log))
    assert diags
    lines = log.read_text().splitlines()
    assert len(lines) == len(diags)
    assert all(len(line.split(",")) == 6 for line in lines)
    times = np.array([d.solve_ms for d in diags])
    # recorded, not gated: surface the numbers in the test output
    report(9, f"5-target windows solve in mean {times.mean():.1f} ms, "
              f"max {times.max():.1f} ms (not gated)")
