"""Column generation: pricing, certificates, integer extraction, full loop, and the
dummy-only flow solve."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import (
    check_flow_constraints,
    fake_track,
    make_det,
    random_instance,
    stacked,
    wrap_cost_vectors,
)
from mcftrack.colgen import (
    CERT_TOL,
    INT_TOL,
    CGResult,
    ColgenError,
    PathColumn,
    PricingTables,
    _Pool,
    _bounded_columns,
    _dummy_flow,
    column_generation,
    extract_integer,
    lagrangian_lower_bound,
    optimality_check,
    price,
)
from mcftrack.costs import CostVector, assemble_cost_vector
from mcftrack.graph import build_network, network_from_parts
from mcftrack import colgen
from mcftrack import lp as lp_module
from mcftrack.io import Scenario, load_instance, synth_generate
from mcftrack.lp import FEAS_TOL, LPInternalError, LPProblem, solve_lp
from mcftrack.oracle import brute_force_ilp, enumerate_paths
from mcftrack.tracker import TrackerConfig

FIXTURES = Path(__file__).parent / "fixtures"

# The births bench scene and config: dummy-only windows of 5 frames, d0 8.
BIRTHS_SCENE = Scenario(targets=5, frames=120, clutter_rate=0.5, feature_dim=12,
                        lane_gap=80.0, miss_prob=0.05, feature_noise=0.1,
                        pos_noise=1.0, target_score_std=0.0)
BIRTHS_CONFIG = TrackerConfig(window=5, d0=8, bypass_cost_tracked=12.0,
                              bypass_cost_dummy=19.5)
# The wide bench scene, and its config with a dummy demand of 20.
WIDE_SCENE = Scenario(targets=24, frames=110, clutter_rate=0.0, feature_dim=24,
                      arena_h=3200.0, lane_gap=120.0, miss_prob=0.05, feature_noise=0.1,
                      pos_noise=1.0, target_score_std=0.0)
WIDE_CONFIG = TrackerConfig(window=3, d0=20, bypass_cost_tracked=12.0, bypass_cost_dummy=19.5)


def full_row_master(net, cols):
    """Master LP over cols with one coupling row per shared edge, built by hand."""
    ns = net.num_shared
    a_ub = np.zeros((ns, len(cols)))
    a_eq = np.zeros((net.num_commodities, len(cols)))
    for j, col in enumerate(cols):
        for e in col.edges:
            if e < ns:
                a_ub[e, j] = 1.0
        a_eq[col.commodity, j] = 1.0
    return LPProblem(
        obj=np.array([c.cost for c in cols]),
        a_ub=a_ub, b_ub=np.ones(ns), a_eq=a_eq, b_eq=net.demands.astype(float),
    )


def price_one(net, costs, pi=None):
    """Column and zeta of the only commodity of `net`."""
    cols, zetas = price(PricingTables.build(net, [costs]), pi)
    return cols[0], zetas[0]


def births_windows(starts, seed=3, tracked=False):
    """Windows of the births scene, one per start frame: dummy-only by default.

    With `tracked`, each window also carries one trajectory that ended in the
    frame before it, at the box and feature of the first frame's
    highest-scoring detection, so column generation solves it.
    """
    dets, _ = synth_generate(BIRTHS_SCENE, seed=seed)
    cfg = BIRTHS_CONFIG
    windows = []
    for lo in starts:
        window = [d for f in range(lo, lo + cfg.window) for d in dets[f]]
        tracks = []
        if tracked:
            top = max(dets[lo], key=lambda d: d.score)
            tracks = [fake_track(top.box, lo - 1, top.feature, dim=top.feature.size)]
        net = build_network(window, tracks, [cfg.d0] + [1] * len(tracks), cfg.gating_config())
        windows.append((net, [assemble_cost_vector(net, k, tracks, cfg.cost_config())
                              for k in range(net.num_commodities)]))
    return windows


def tracked_instances(count, **kwargs):
    """The first `count` random instances, by seed, with a tracked commodity."""
    found = []
    seed = 0
    while len(found) < count:
        net, costs = random_instance(seed, **kwargs)
        if net.num_tracked:
            found.append((seed, net, costs))
        seed += 1
    return found


def single_det_network():
    return network_from_parts([make_det(0, 1, (0, 0, 10, 10))], [], [1])


def single_det_costs(bypass: float) -> np.ndarray:
    # edge ids: 0 obs, 1 start, 2 termination, 3 bypass
    return np.array([-1.0, -0.5, 10.0, bypass])


def test_price_bypass_wins():
    net = single_det_network()
    col, zeta = price_one(net, single_det_costs(5.0))
    assert zeta == pytest.approx(5.0)
    assert col.edges == (3,)
    assert col.cost == pytest.approx(5.0)


def test_price_detection_path_wins():
    net = single_det_network()
    col, zeta = price_one(net, single_det_costs(20.0))
    assert zeta == pytest.approx(8.5)
    assert col.edges == (1, 0, 2)
    assert col.cost == pytest.approx(8.5)


def test_price_dual_shift_additive():
    net = single_det_network()
    pi = np.array([2.0])
    col, zeta = price_one(net, single_det_costs(20.0), pi)
    assert zeta == pytest.approx(10.5)
    assert col.cost == pytest.approx(8.5)  # column keeps the unshifted cost
    # bypass untouched by duals on shared edges
    _, zeta_b = price_one(net, single_det_costs(5.0), pi)
    assert zeta_b == pytest.approx(5.0)


def test_shortest_path_tie_breaks_lexicographically():
    # two detections in the same frame, identical costs: path via det 0 wins
    net = network_from_parts([make_det(0, 1, (0, 0, 2, 2)), make_det(1, 1, (5, 0, 7, 2))], [], [1])
    costs = np.zeros(net.num_edges)
    costs[net.bypass_edge(0)] = 1.0
    col, val = price_one(net, costs)
    edges = col.edges
    assert val == 0.0
    assert edges == (net.start_edge(0, 0), 0, net.term_edge(0, 0))

    # equal-cost paths through two frame-1 detections meet at the head of
    # their transitions into one frame-2 detection: the path via det 0 wins
    dets = [make_det(0, 1, (0, 0, 10, 10)), make_det(1, 1, (12, 0, 10, 10)),
            make_det(2, 2, (6, 0, 10, 10))]
    net = network_from_parts(dets, [(0, 2), (1, 2)], [1])
    costs = np.zeros(net.num_edges)
    costs[:3] = -1.0  # observations
    costs[net.term_edge(0, 0)] = costs[net.term_edge(0, 1)] = 5.0
    costs[net.start_edge(0, 2)] = 5.0
    costs[net.bypass_edge(0)] = 1.0
    col, val = price_one(net, costs)
    edges = col.edges
    assert val == -2.0
    via_0 = net.num_detections + net.transitions.index((0, 2))
    assert edges == (net.start_edge(0, 0), 0, via_0, 2, net.term_edge(0, 2))


def first_cheapest_path(net, k, paths, weights):
    """First of commodity k's `paths` (lexicographic order) with the least
    left-to-right sum of `weights`, a cost vector of k."""
    best, best_val = None, float("inf")
    for p in paths:
        val = 0.0
        for e in p:
            val += weights[net.cost_index(k, e)]
        if val < best_val:
            best, best_val = p, val
    return best, best_val


def test_price_matches_enumerated_paths():
    # Half-unit and unit grids make exact ties common; enumerate_paths lists
    # paths lexicographically, so its first cheapest path is the tie winner.
    rng = np.random.default_rng(7)
    for seed in range(150):
        net, raw = random_instance(seed, max_dets=14, max_frames=5, oracle_budget=None)
        ns = net.num_shared
        paths = [enumerate_paths(net, k) for k in range(net.num_commodities)]
        for costs in (raw, [np.round(2.0 * c) / 2.0 for c in raw], [np.round(c) for c in raw]):
            tables = PricingTables.build(net, costs)
            for pi in (None, -np.round(4.0 * rng.random(ns)) / 2.0, -rng.random(ns)):
                cols, zetas = price(tables, pi)
                for k, (col, zeta) in enumerate(zip(cols, zetas)):
                    weights = costs[k].copy()
                    if pi is not None:
                        weights[:ns] += pi
                    best, best_val = first_cheapest_path(net, k, paths[k], weights)
                    assert col.commodity == k
                    assert col.edges == best, (seed, k)
                    assert float(zeta).hex() == float(best_val).hex(), (seed, k)
                    cost = float(sum(costs[k][net.cost_index(k, e)] for e in best))
                    assert col.cost == cost, (seed, k)


def test_price_without_detections_takes_every_bypass():
    net = network_from_parts([], [], [2, 1])
    costs = [np.array([1.5]), np.array([0.25])]  # each commodity's bypass alone
    cols, zetas = price(PricingTables.build(net, costs), None)
    assert [c.edges for c in cols] == [(0,), (1,)]
    assert [c.cost for c in cols] == [1.5, 0.25]
    assert list(zetas) == [1.5, 0.25]


def test_price_across_an_empty_frame():
    # frame 2 holds no detection; the gap-2 transition (0, 1) spans it
    net = network_from_parts([make_det(0, 1, (0, 0, 10, 10)), make_det(1, 3, (4, 0, 10, 10))],
                             [(0, 1)], [1])
    costs = np.array([-1.0, -1.0, 0.5, 0.25, 0.25, 0.25, 0.25, 1.0])
    start0, start1, term0, term1 = (net.start_edge(0, 0), net.start_edge(0, 1),
                                    net.term_edge(0, 0), net.term_edge(0, 1))
    col, zeta = price_one(net, costs)
    assert col.edges == (start0, 0, 2, 1, term1)
    assert zeta == -1.0
    # a dual of 1 on the transition ties both single-detection paths
    col, zeta = price_one(net, costs, np.array([0.0, 0.0, 1.0]))
    assert col.edges == (start0, 0, term0)
    assert zeta == -0.5 and col.cost == -0.5


def test_bounded_columns_are_the_paths_under_the_reduced_cost_limit(monkeypatch):
    rng = np.random.default_rng(15)
    checked = 0
    for seed in range(120):
        net, costs = random_instance(seed, max_dets=14, max_frames=5, oracle_budget=None)
        ns = net.num_shared
        tables = PricingTables.build(net, costs)
        pi = rng.uniform(0.0, 1.5, size=ns) * (rng.random(ns) < 0.5)
        _, zetas = price(tables, pi)
        gap = float(rng.uniform(0.0, 3.0))
        cols = _bounded_columns(tables, pi, zetas, gap)
        found = {(c.commodity, c.edges) for c in cols}
        for k in range(net.num_commodities):
            weights = costs[k].copy()
            weights[:ns] += pi
            limit = zetas[k] + gap
            for p in enumerate_paths(net, k):
                shifted = float(sum(weights[net.cost_index(k, e)] for e in p))
                if shifted < limit - 1e-9:
                    assert (k, p) in found, (seed, k, p)
                elif shifted >= limit + 1e-9:
                    assert (k, p) not in found, (seed, k, p)
        assert len(found) == len(cols), seed  # each path once
        for c in cols:
            k = c.commodity
            assert c.cost == float(sum(costs[k][net.cost_index(k, e)] for e in c.edges)), seed
        if len(cols) > 1:
            monkeypatch.setattr(colgen, "ENUM_COLUMN_CAP", len(cols))
            assert _bounded_columns(tables, pi, zetas, gap) == cols
            monkeypatch.setattr(colgen, "ENUM_COLUMN_CAP", len(cols) - 1)
            assert _bounded_columns(tables, pi, zetas, gap) is None, seed
            monkeypatch.undo()
            checked += 1
    assert checked >= 60


def test_optimality_check():
    assert optimality_check([1.0, 2.0], [1.0, 2.0])  # boundary
    assert not optimality_check([1.0, 1.0], [1.0, 2.0])  # one short by 1
    assert optimality_check([5.0], [5.0])
    assert optimality_check([1.0 - 1e-8], [1.0])  # inside tolerance
    assert not optimality_check([1.0 - 1e-6], [1.0])


def test_lagrangian_lower_bound():
    assert lagrangian_lower_bound(7.0, [2.0, 3.0], [1.0, 3.0], [1, 1]) == 7.0
    assert lagrangian_lower_bound(7.0, [0.5], [1.0], [1]) == pytest.approx(6.5)
    assert lagrangian_lower_bound(7.0, [0.8], [1.0], [20]) == pytest.approx(3.0)
    # never exceeds v_rmlp
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(size=3)
        s = rng.normal(size=3)
        d = rng.integers(1, 5, size=3)
        assert lagrangian_lower_bound(1.0, z, s, d) <= 1.0 + 1e-12


def test_extract_integer_identity_on_integral_pool():
    net = single_det_network()
    pool = [PathColumn(0, (1, 0, 2), -2.0), PathColumn(0, (3,), 5.0)]
    val, sel = extract_integer(net, pool)
    assert val == pytest.approx(-2.0)
    assert sel == [(pool[0], 1)]


def test_extract_integer_two_commodity_contention():
    # both commodities want the single detection; one must bypass
    net = network_from_parts([make_det(0, 1, (0, 0, 2, 2))], [], [1, 1])
    pool = [
        PathColumn(0, (net.start_edge(0, 0), 0, net.term_edge(0, 0)), 1.0),
        PathColumn(0, (net.bypass_edge(0),), 2.0),
        PathColumn(1, (net.start_edge(1, 0), 0, net.term_edge(1, 0)), 1.0),
        PathColumn(1, (net.bypass_edge(1),), 2.0),
    ]
    val, sel = extract_integer(net, pool)
    assert val == pytest.approx(3.0)
    used = sorted((c.commodity, c.edges) for c, _ in sel)
    assert len(used) == 2
    # exactly one commodity rides the detection
    on_det = [c for c, _ in sel if 0 in c.edges]
    assert len(on_det) == 1


def test_extract_integer_closes_fractional_gap():
    # LP relaxation of this pool is 2.5; best integer point costs 3
    d0 = make_det(0, 1, (0, 0, 2, 2))
    d1 = make_det(1, 2, (1, 0, 3, 2))
    net = network_from_parts([d0, d1], [(0, 1)], [1, 1])
    # shared ids: obs0=0, obs1=1, transition=2
    pool = [
        PathColumn(0, (net.start_edge(0, 0), 0, net.term_edge(0, 0)), 0.5),
        PathColumn(0, (net.start_edge(0, 1), 1, net.term_edge(0, 1)), 0.5),
        PathColumn(0, (net.bypass_edge(0),), 2.0),
        PathColumn(1, (net.start_edge(1, 0), 0, 2, 1, net.term_edge(1, 1)), 1.0),
        PathColumn(1, (net.bypass_edge(1),), 3.0),
    ]
    relax = solve_lp(full_row_master(net, pool))
    assert relax.objective == pytest.approx(2.5)
    val, _ = extract_integer(net, pool)
    assert val == pytest.approx(3.0)


def test_extract_integer_odd_cycle_behind_an_untouched_row():
    # Three tracks on an odd cycle A-B, B-C, A-C behind a detection no
    # column visits: the LP takes each cycle path at one half, and the
    # integer optimum must still hold the A-only path of track 3 to the
    # capacity on A, whose row sits after the untouched detection's edge.
    dets = [make_det(i, f, (20.0 * i, 0, 2, 2)) for i, f in enumerate((1, 1, 2, 3))]
    net = network_from_parts(dets, [(1, 2), (1, 3), (2, 3)], [1, 1, 1, 1])
    obs_a, obs_b, obs_c, t_ab, t_ac, t_bc = 1, 2, 3, 4, 5, 6

    def path(k, first, mids, last, cost):
        return PathColumn(k, (net.start_edge(k, first), *mids, net.term_edge(k, last)), cost)

    pool = [
        path(1, 1, (obs_a, t_ab, obs_b), 2, -1.2),
        path(2, 2, (obs_b, t_bc, obs_c), 3, -1.0),
        path(3, 1, (obs_a, t_ac, obs_c), 3, -1.0),
        path(3, 1, (obs_a,), 1, -0.3),
    ] + [PathColumn(k, (net.bypass_edge(k),), 0.0) for k in range(4)]
    prob = _Pool(net, pool).master()
    # a row per detection, the unvisited one's all zero: transitions get no row
    assert prob.a_ub.shape == (4, len(pool)) and not prob.a_ub[0].any()
    assert solve_lp(full_row_master(net, pool)).objective == pytest.approx(-1.6)
    assert solve_lp(prob).objective == pytest.approx(-1.6)
    val, sel = extract_integer(net, pool)
    assert val == pytest.approx(-1.3)
    assert sorted(pool.index(c) for c, _ in sel if c.cost < 0) == [1, 3]


def test_extract_integer_matches_brute_force_over_every_path():
    # Half-unit costs make equal-value optima common; the value must still be
    # the exact optimum and the selection a feasible, reproducible one.
    for seed in range(50):
        net, costs = random_instance(seed)
        costs = [np.round(2.0 * c) / 2.0 for c in costs]
        pool = [PathColumn(k, p, float(sum(costs[k][net.cost_index(k, e)] for e in p)))
                for k in range(net.num_commodities) for p in enumerate_paths(net, k)]
        val, sel = extract_integer(net, pool)
        ref, _ = brute_force_ilp(net, costs)
        assert val == pytest.approx(ref, abs=1e-9), seed
        check_flow_constraints(
            net, [[(c, u) for c, u in sel if c.commodity == k] for k in range(net.num_commodities)]
        )
        assert sum(c.cost * u for c, u in sel) == pytest.approx(val, abs=1e-12), seed
        assert extract_integer(net, pool) == (val, sel), seed


def test_extract_integer_rejects_pool_without_integer_solution():
    # two tracks whose only pooled path is the same one: no bypass to fall back on
    net = network_from_parts([make_det(0, 1, (0, 0, 2, 2))], [], [1, 1, 1])
    pool = [PathColumn(0, (net.bypass_edge(0),), 0.0)] + [
        PathColumn(k, (net.start_edge(k, 0), 0, net.term_edge(k, 0)), -1.0) for k in (1, 2)
    ]
    with pytest.raises(ColgenError, match="no integer solution"):
        extract_integer(net, pool)


def test_extract_integer_rejects_unfinished_or_infeasible_solver_results(monkeypatch):
    net = single_det_network()
    pool = [PathColumn(0, (1, 0, 2), -2.0), PathColumn(0, (3,), 5.0)]
    for status, x, match in ((1, None, "status 1"), (0, [1.0, 1.0], "violates"),
                             (0, [2.0, -1.0], "violates")):
        result = SimpleNamespace(status=status, x=np.array(x), message="stub")
        monkeypatch.setattr(colgen, "milp", lambda *args, **kwargs: result)
        with pytest.raises(ColgenError, match=match):
            extract_integer(net, pool)


def test_pool_keeps_each_column_once():
    net = single_det_network()
    path, rest = PathColumn(0, (1, 0, 2), -2.0), PathColumn(0, (3,), 5.0)
    pool = _Pool(net, [path, rest, path])
    assert list(pool) == [path, rest]
    assert not pool.add(PathColumn(0, (1, 0, 2), -2.0)) and len(pool) == 2
    prob = pool.master()
    assert prob.obj.tolist() == [-2.0, 5.0] and prob.a_ub.shape == (1, 2)
    assert extract_integer(net, [path, rest, path]) == (-2.0, [(path, 1)])


def test_master_over_touched_rows_is_exact():
    # Dummy-only networks take the flow solve, whose pi is not a master dual.
    untouched_total = 0
    for seed, net, costs in tracked_instances(40):
        res = column_generation(net, wrap_cost_vectors(net, costs))
        pool, n, ns = res.columns, net.num_detections, net.num_shared
        prob = _Pool(net, pool).master()
        assert prob.a_ub.shape[0] == n
        rows = np.flatnonzero(prob.a_ub.any(axis=1))
        assert list(rows) == sorted({e for c in pool for e in c.edges if e < n})
        full = solve_lp(full_row_master(net, pool))
        pruned = solve_lp(prob)
        assert pruned.objective == pytest.approx(full.objective, abs=1e-9), seed
        assert res.pi.shape == (ns,)
        untouched = np.setdiff1d(np.arange(ns), rows)
        assert (res.pi[untouched] == 0.0).all(), seed
        untouched_total += untouched.size
    assert untouched_total > 0


def test_reported_duals_certify_the_full_row_master():
    # The master carries one row per visited detection. A transition's load
    # never exceeds its tail detection's, so its row is implied, and the
    # reported pi (0 on every transition) must be an optimal dual of the
    # master with a row for every shared edge.
    cases = [(seed, net, wrap_cost_vectors(net, costs))
             for seed, net, costs in tracked_instances(40)]
    cases += [(name, *load_instance(FIXTURES / f"{name}.instance"))
              for name in ("m_window8", "m_window15", "contested_window19")]
    proven = 0
    for case, net, vectors in cases:
        res = column_generation(net, vectors)
        n, ns = net.num_detections, net.num_shared
        assert res.pi.shape == (ns,) and (res.pi >= 0.0).all(), case
        assert (res.pi[n:] == 0.0).all(), case
        for col in res.columns:
            load = sum(res.pi[e] for e in col.edges if e < ns)
            assert col.cost + load - res.sigma[col.commodity] >= -CERT_TOL, (case, col)
        if res.status == "proven-optimal":
            proven += 1
            full = solve_lp(full_row_master(net, res.columns))
            assert full.objective == pytest.approx(res.v_lp, abs=1e-9), case
    assert proven >= len(cases) // 2


def test_every_master_solve_warm_starts_over_one_row_per_detection(monkeypatch):
    # The coupling rows are fixed from the first master solve, so every later
    # solve of the window is warm-started from the previous one's solution,
    # whose inverse is still as that solve returned it.
    real = colgen.solve_lp
    for name in ("m_window8", "m_window15", "contested_window19"):
        net, vectors = load_instance(FIXTURES / f"{name}.instance")
        calls = []

        def spy(prob, warm=None, basis=None, inverse=None):
            sol = real(prob, warm=warm, basis=basis, inverse=inverse)
            calls.append((prob.a_ub.shape[0], warm, sol, sol.inverse.copy()))
            return sol

        monkeypatch.setattr(colgen, "solve_lp", spy)
        res = column_generation(net, vectors)
        monkeypatch.undo()
        assert len(calls) == res.iterations >= 2, name
        assert all(rows == net.num_detections for rows, *_ in calls), name
        assert calls[0][1] is None, name
        for (*_, prev, returned), (_, warm, _, _) in zip(calls, calls[1:]):
            assert warm is prev, name
            assert np.array_equal(warm.inverse, returned), name


# The MILP runs where the final master solution does not certify: on
# contested_window19, whose LP optimum leaves a gap, once over the pool and
# once over the enumerated columns.
EXTRACTIONS = {"contested_window19.instance": 2}


def certified(res):
    """Whether column generation ended by the reduced-cost certificate."""
    return res.sigma is not None and optimality_check(res.zetas, res.sigma)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.instance")), ids=lambda p: p.name)
def test_frozen_fixtures_certify_warm_and_extract_only_uncertified(monkeypatch, path):
    # Every master solve after the first is warm, and a window with a tracked
    # commodity ends by the reduced-cost certificate, not stopped short. A
    # dummy-only window (m_window1) solves no master.
    net, vectors = load_instance(path)
    real_solve, real_extract = colgen.solve_lp, colgen.extract_integer
    warm_starts, extractions = [], []

    def solve(prob, warm=None, basis=None, inverse=None):
        warm_starts.append(warm is not None)
        return real_solve(prob, warm=warm, basis=basis, inverse=inverse)

    def extract(network, pool):
        extractions.append(len(pool))
        return real_extract(network, pool)

    monkeypatch.setattr(colgen, "solve_lp", solve)
    monkeypatch.setattr(colgen, "extract_integer", extract)
    res = column_generation(net, vectors)
    solves = res.iterations if net.num_commodities > 1 else 0
    assert warm_starts == [False] * min(solves, 1) + [True] * (solves - 1)
    assert len(extractions) == EXTRACTIONS.get(path.name, 0)
    assert certified(res) == (net.num_commodities > 1)


def test_carried_inverses_invert_their_bases(monkeypatch):
    # A run limit of 1 perturbs the right-hand side on every degenerate
    # pivot; the refactorization cadence runs on across the window's solves.
    monkeypatch.setattr(lp_module, "DEGENERATE_RUN_LIMIT", 1)
    net, vectors = load_instance(FIXTURES / "contested_window19.instance")
    seen = {"perturbed": 0, "refactored": 0}

    def checked(prob, warm=None, basis=None, inverse=None):
        sol = solve_lp(prob, warm=warm, basis=basis, inverse=inverse)
        basis_matrix = stacked(prob)[:, list(sol.basis)]
        assert np.abs(sol.inverse @ basis_matrix - np.eye(len(sol.basis))).max() <= 1e-9
        seen["perturbed"] += np.abs(prob.a_eq @ sol.x - prob.b_eq).max() > FEAS_TOL
        # every pivot ages the inverse unless it refactors
        seen["refactored"] += (
            warm is not None and sol.factor_age < warm.factor_age + sol.iterations
        )
        return sol

    monkeypatch.setattr(colgen, "solve_lp", checked)
    res = column_generation(net, vectors)
    assert res.v_int == pytest.approx(168.86628779093667, abs=1e-9)
    assert seen["perturbed"] > 0 and seen["refactored"] > 0


def stop_short_cases():
    """Tracked instances and their ceilings on a sound bound, as (case, network, vectors,
    ceiling): tracked_instances(40) under the brute-force optimum, and the tracked
    fixtures under their certified LP optimum."""
    cases = [(seed, net, wrap_cost_vectors(net, costs), brute_force_ilp(net, costs)[0])
             for seed, net, costs in tracked_instances(40)]
    for path in sorted(FIXTURES.glob("*.instance")):
        net, vectors = load_instance(path)
        if net.num_commodities > 1:
            ref = column_generation(net, vectors)
            assert certified(ref), path.name
            cases.append((path.name, net, vectors, ref.v_lp))
    return cases


def initial_bound(net, vectors):
    """The initial pricing's values and its Lagrangian bound L(0) = sum_k d_k zeta_k."""
    _, zetas = price(PricingTables.build(net, [cv.values for cv in vectors]), None)
    return zetas, float(net.demands @ zetas)


def assert_stopped_soundly(net, res, floor, ceiling, case):
    """A stopped-short result: L(0) <= v_lp <= ceiling, epsilon >= 0, a selection that
    meets the pool's rows and every demand, and no certified status."""
    assert res.epsilon >= 0.0 and res.epsilon == res.v_int - res.v_lp, case
    assert floor - 1e-9 <= res.v_lp <= ceiling + 1e-9, case
    picks = [pick for group in res.selection for pick in group]
    assert colgen._group_selection(net, picks) == res.selection, case
    pool = _Pool(net, res.columns)
    units = np.zeros(len(pool))
    for col, n in picks:
        units[pool.index[col.key]] += n
    assert colgen._meets_rows(pool.master(), units), case
    assert res.v_int == pytest.approx(sum(col.cost * n for col, n in picks), abs=1e-9), case
    assert res.status == ("proven-optimal" if res.epsilon <= INT_TOL else "iteration-limit"), case


def test_a_failed_master_solve_stops_short_at_a_sound_bound(monkeypatch):
    # LPInternalError at the first master solve, and in turn at each warm
    # solve: the loop ends at the failed solve, on its best Lagrangian bound.
    # With no master solved the bound is L(0), and pi, zetas are the
    # initial pricing's.
    stopped = 0
    for case, net, vectors, ceiling in stop_short_cases():
        zetas, floor = initial_bound(net, vectors)
        for fail_at in range(column_generation(net, vectors).iterations):
            calls = []

            def failing(prob, warm=None, basis=None, inverse=None):
                calls.append(warm is not None)
                if len(calls) == fail_at + 1:
                    raise LPInternalError("injected")
                return solve_lp(prob, warm=warm, basis=basis, inverse=inverse)

            monkeypatch.setattr(colgen, "solve_lp", failing)
            res = column_generation(net, vectors)
            monkeypatch.undo()
            assert calls == [False] + [True] * fail_at, (case, fail_at)
            assert res.iterations == fail_at + 1, (case, fail_at)
            assert_stopped_soundly(net, res, floor, ceiling, (case, fail_at))
            if fail_at == 0:
                assert res.sigma is None and res.pivots == 0, case
                assert not res.pi.any() and np.array_equal(res.zetas, zetas), case
                assert res.v_lp == min(floor, res.v_int), case
            stopped += res.status == "iteration-limit"
    assert stopped >= 20


def test_a_round_that_pools_nothing_new_stops_short_at_a_sound_bound(monkeypatch):
    # At the first round that misses the certificate by more than 1e-6, a
    # price spy hands back each priced commodity's initial column, which is
    # pooled, in place of its new one, and from then on the dummy's flow
    # offers no path. The round pools nothing, and the loop stops there.
    real_price, real_flow = colgen.price, colgen._dummy_flow
    forced = 0
    for case, net, vectors, ceiling in stop_short_cases():
        _, floor = initial_bound(net, vectors)
        initial, calls, at = {}, [], []

        def spy_price(tables, pi, sigma=None):
            cols, zetas = real_price(tables, pi, sigma)
            calls.append(sigma is not None)
            if sigma is None:
                initial.update((col.commodity, col) for col in cols)
            elif not at and cols and (zetas - sigma).min() < -1e-6:
                at.append(len(calls) - 1)  # the round's number: its master solves
                cols = [initial[col.commodity] for col in cols]
            return cols, zetas

        def spy_flow(network, values, pi=None):
            return [] if at else real_flow(network, values, pi)

        monkeypatch.setattr(colgen, "price", spy_price)
        monkeypatch.setattr(colgen, "_dummy_flow", spy_flow)
        res = column_generation(net, vectors)
        monkeypatch.undo()
        if not at:
            continue
        forced += 1
        assert res.iterations == len(calls) - 1 == at[0], case
        assert not certified(res), case
        assert_stopped_soundly(net, res, floor, ceiling, case)
    assert forced >= 20


def first_master(monkeypatch, net, vectors):
    """Run column generation; return its result, first master and start basis."""
    real, firsts = colgen.solve_lp, []

    def spy(prob, warm=None, basis=None, inverse=None):
        if warm is None:
            firsts.append((prob, basis))
        return real(prob, warm=warm, basis=basis, inverse=inverse)

    monkeypatch.setattr(colgen, "solve_lp", spy)
    res = column_generation(net, vectors)
    monkeypatch.undo()
    return (res, *firsts[0])


def test_tiny_first_master_starts_at_its_optimum():
    res = column_generation(*load_instance(FIXTURES / "tiny.instance"))
    assert (res.status, res.iterations, res.pivots) == ("proven-optimal", 1, 0)


def test_start_holds_disjoint_priced_paths_and_their_drop_one_members(monkeypatch):
    # Detections 0, 1, 2 in frames 1-3 with every forward transition, and 3
    # alone in frame 3. Observations cost -5 and transitions 0; a start or
    # termination edge costs 0 where a commodity's path should begin or end
    # and 20 elsewhere. Commodity 1 prices 0-1-2, commodity 2 prices 1-2,
    # which meets commodity 1's path, and commodity 3 prices 3 alone.
    dets = [make_det(i, f, (0, 0, 10, 10)) for i, f in enumerate((1, 2, 3, 3))]
    net = network_from_parts(dets, [(0, 1), (0, 2), (1, 2)], [1, 1, 1, 1])
    n, ns = net.num_detections, net.num_shared

    def vector(k, first, last, bypass=12.0):
        values = np.full(net.cost_size, 20.0)
        values[:n], values[n:ns], values[-1] = -5.0, 0.0, bypass
        if first is not None:
            values[ns + first] = values[ns + n + last] = 0.0
        return CostVector(k, values)

    vectors = [vector(0, None, None, 19.5), vector(1, 0, 2), vector(2, 1, 2), vector(3, 3, 3)]
    res, prob, start = first_master(monkeypatch, net, vectors)

    def named(j):
        if j < n:
            return "slack", j
        col = res.columns[j - n]
        return col.commodity, tuple(e for e in col.edges if e < n)

    # P over rows d_1..d_m, then its drop-one members over rows d_2..d_m and
    # n + k; commodity 2 keeps its slacks and its bypass
    assert [named(j) for j in start] == [
        (1, (0, 1, 2)), (1, (1, 2)), (1, (0, 2)), (3, (3,)),
        (0, ()), (1, (0, 1)), (2, ()), (3, ()),
    ]
    # the start's duals are the drop-one prices c(P without d_x) - c(P)
    c = np.concatenate([np.zeros(n), prob.obj])
    pi = -(c[start] @ np.linalg.inv(stacked(prob)[:, start]))[:n]
    cost = {named(j): c[j] for j in start}
    assert pi == pytest.approx([cost[1, (1, 2)] - cost[1, (0, 1, 2)],
                                cost[1, (0, 2)] - cost[1, (0, 1, 2)],
                                cost[1, (0, 1)] - cost[1, (0, 1, 2)],
                                cost[3, ()] - cost[3, (3,)]], abs=1e-12)
    assert (pi > 0).all() and res.status == "proven-optimal"


def tracked_cases():
    """tracked_instances(40) and the tracked fixtures, as (case, network, vectors)."""
    cases = [(seed, net, wrap_cost_vectors(net, costs)) for seed, net, costs in tracked_instances(40)]
    cases += [(path.name, *load_instance(path)) for path in sorted(FIXTURES.glob("*.instance"))]
    return [case for case in cases if case[1].num_commodities > 1]


def test_the_start_basis_keeps_converged_bounds_and_proven_values(monkeypatch):
    # Against runs forced onto the slack-and-bypass start for every first master.
    def default_start(prob, warm=None, basis=None, inverse=None):
        return solve_lp(prob, warm=warm)

    started = 0
    for case, net, vectors in tracked_cases():
        res, _, start = first_master(monkeypatch, net, vectors)
        started += max(start[: net.num_detections]) >= net.num_detections
        monkeypatch.setattr(colgen, "solve_lp", default_start)
        ref = column_generation(net, vectors)
        monkeypatch.undo()
        if "iteration-limit" not in (res.status, ref.status):
            assert abs(res.v_lp - ref.v_lp) <= 1e-9, case
        if ref.status == "proven-optimal":
            assert res.status == "proven-optimal", case
            assert abs(res.v_int - ref.v_int) <= 1e-9, case
    assert started >= 40


def test_the_written_start_inverse_is_the_factored_one(monkeypatch):
    # Column generation hands the first master its start basis with the
    # inverse written down from the start's blocks; it must be the inverse
    # that factoring the same start gives.
    real, written = colgen.solve_lp, 0
    for case, net, vectors in tracked_cases():
        firsts = []

        def spy(prob, warm=None, basis=None, inverse=None):
            if warm is None:
                firsts.append((prob, basis, inverse))
            return real(prob, warm=warm, basis=basis, inverse=inverse)

        monkeypatch.setattr(colgen, "solve_lp", spy)
        column_generation(net, vectors)
        monkeypatch.undo()
        prob, basis, inverse = firsts[0]
        factored = lp_module._basis_inverse(stacked(prob), basis, prob.a_ub.shape[0])
        assert np.abs(inverse - factored).max() <= 1e-12, case
        written += not np.array_equal(inverse, np.eye(len(basis)))
    assert written >= 40


def decoded_rounds(monkeypatch, net, vectors):
    """Run column generation; per pricing call, its pi, sigma, zetas, columns and the
    commodities whose paths were walked (`_path_to_v`) in the call."""
    real_price, real_walk, real_lp = colgen.price, colgen._path_to_v, colgen.solve_lp
    rounds, sigma, walked = [], [None], set()

    def spy_price(tables, pi, sigma_=None):
        walked.clear()
        cols, zetas = real_price(tables, pi, sigma_)
        assert sigma_ is sigma[0]
        rounds.append(dict(pi=pi, sigma=sigma_, zetas=zetas, cols=cols, walked=set(walked)))
        return cols, zetas

    def spy_walk(network, pred, k, i):
        walked.add(k)
        return real_walk(network, pred, k, i)

    def spy_lp(prob, warm=None, basis=None, inverse=None):
        sol = real_lp(prob, warm=warm, basis=basis, inverse=inverse)
        sigma[0] = sol.sigma
        return sol

    monkeypatch.setattr(colgen, "price", spy_price)
    monkeypatch.setattr(colgen, "_path_to_v", spy_walk)
    monkeypatch.setattr(colgen, "solve_lp", spy_lp)
    res = column_generation(net, vectors)
    monkeypatch.undo()
    return res, rounds


def test_a_round_decodes_only_the_columns_that_price_below_sigma(monkeypatch):
    # The initial pricing decodes every commodity's column; a round decodes
    # and returns exactly those with zeta_k < sigma_k - CERT_TOL (a bypass
    # column walks no path), and a converged round none.
    converged = partial = 0
    for case, net, vectors in tracked_cases():
        res, rounds = decoded_rounds(monkeypatch, net, vectors)
        for r, rnd in enumerate(rounds):
            read = (np.ones(net.num_commodities, dtype=bool) if r == 0
                    else rnd["zetas"] < rnd["sigma"] - CERT_TOL)
            assert [c.commodity for c in rnd["cols"]] == np.flatnonzero(read).tolist(), (case, r)
            want = {c.commodity for c in rnd["cols"] if len(c.edges) > 1}
            assert rnd["walked"] == want, (case, r)
            if r and not read.any():
                converged += 1
            partial += bool(r and read.any() and not read.all())
        assert certified(res), case  # no tracked case stops short
    assert converged >= 40 and partial > 0


def test_price_at_sigma_returns_the_columns_below_it_under_forced_ties(monkeypatch):
    # Half-unit and unit grids make exact ties common. At sigma, price
    # returns, in commodity order, exactly the commodities with
    # zeta_k < sigma_k - CERT_TOL, each with the column price at no sigma
    # gives it; a commodity at zeta_k == sigma_k - CERT_TOL exactly is left out.
    rng = np.random.default_rng(11)
    ties = at_edge = 0
    tied = {"ends": False, "heads": False}  # in the last call, over its decodes
    real_decode = colgen._decode

    def spy_decode(tables, k, i, hit, pred, tied_heads, cand, ends_tied):
        tied["ends"] |= ends_tied
        tied["heads"] |= bool(tied_heads)
        return real_decode(tables, k, i, hit, pred, tied_heads, cand, ends_tied)

    monkeypatch.setattr(colgen, "_decode", spy_decode)
    for seed in range(120):
        net, raw = random_instance(seed, max_dets=14, max_frames=5, oracle_budget=None)
        ns, nc = net.num_shared, net.num_commodities
        for costs in ([np.round(2.0 * c) / 2.0 for c in raw], [np.round(c) for c in raw]):
            tables = PricingTables.build(net, costs)
            for pi in (None, np.round(4.0 * rng.random(ns)) / 2.0):
                tied.update(ends=False, heads=False)
                every, zetas = price(tables, pi)
                ties += tied["ends"] + tied["heads"]
                assert [c.commodity for c in every] == list(range(nc))
                # sigma_k lands below, at and above zeta_k + CERT_TOL
                sigma = zetas + CERT_TOL + rng.choice([-0.5, 0.0, 0.5], nc)
                sigma[0] = zetas[0] + CERT_TOL  # a commodity exactly at the edge
                at_edge += sigma[0] - CERT_TOL == zetas[0]
                cols, again = price(tables, pi, sigma)
                assert np.array_equal(again, zetas)
                want = [k for k in range(nc) if zetas[k] < sigma[k] - CERT_TOL]
                assert [c.commodity for c in cols] == want, seed
                for col in cols:
                    assert (col.key, col.cost.hex()) == (every[col.commodity].key,
                                                         every[col.commodity].cost.hex()), seed
    assert ties > 50 and at_edge > 100


def test_single_commodity_converges_in_one_iteration():
    net = single_det_network()
    res = column_generation(net, [CostVector(0, single_det_costs(20.0))])
    assert res.status == "proven-optimal"
    assert res.iterations == 1
    assert res.v_int == pytest.approx(8.5)
    assert res.epsilon == pytest.approx(0.0, abs=1e-12)
    assert res.selection[0] == [(res.selection[0][0][0], 1)]
    assert res.selection[0][0][0].edges == (1, 0, 2)


def test_cost_vector_validation():
    net = single_det_network()
    good = CostVector(0, single_det_costs(5.0))
    with pytest.raises(ValueError):
        column_generation(net, [])
    with pytest.raises(ValueError):
        column_generation(net, [CostVector(1, single_det_costs(5.0))])
    with pytest.raises(ValueError):
        column_generation(net, [CostVector(0, np.zeros(3))])
    with pytest.raises(ValueError):
        column_generation(net, [good], iter_max=0)
    with pytest.raises(ValueError, match="finite"):
        column_generation(net, [CostVector(0, np.array([-1.0, np.inf, 10.0, 5.0]))])


def test_matches_brute_force_on_random_instances():
    mismatches = []
    for seed in range(100):
        net, costs = random_instance(seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        ref, _ = brute_force_ilp(net, costs)
        if abs(res.v_int - ref) > 1e-6:
            mismatches.append((seed, res.v_int, ref))
        check_flow_constraints(net, res.selection)
        assert res.epsilon >= -1e-9, seed
        assert res.v_lp <= res.v_int + 1e-9, seed
        if res.status == "proven-optimal":
            assert res.epsilon <= 1e-9, seed
    assert not mismatches, mismatches


def test_epsilon_is_never_negative():
    # Before the bound was clamped to the selection's value, seeds 57 and 73
    # reported epsilon at -3.6e-15 and -1.8e-15.
    for seed in range(200):
        net, costs = random_instance(seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        assert res.epsilon >= 0.0, seed
        assert res.epsilon == res.v_int - res.v_lp, seed


def test_integer_value_below_the_bound_is_refused(monkeypatch):
    net, costs = random_instance(6)  # its LP optimum is fractional: extraction runs
    real = colgen.extract_integer
    monkeypatch.setattr(colgen, "extract_integer", lambda n, pool: (-100.0, real(n, pool)[1]))
    with pytest.raises(ColgenError, match="exceeds integer value"):
        column_generation(net, wrap_cost_vectors(net, costs))


def test_certificate_zero_iff_proven():
    for seed in range(40):
        net, costs = random_instance(5000 + seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        if res.epsilon <= 1e-9:
            assert res.status == "proven-optimal", seed
        else:
            assert res.status in ("near-optimal", "iteration-limit"), seed


def test_selected_paths_recompute_their_cost():
    for seed in (3, 17, 29):
        net, costs = random_instance(seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        total = 0.0
        for k, picks in enumerate(res.selection):
            for col, units in picks:
                recomputed = float(sum(costs[k][net.cost_index(k, e)] for e in col.edges))
                assert col.cost == pytest.approx(recomputed, abs=1e-12)
                total += recomputed * units
        assert total == pytest.approx(res.v_int, abs=1e-9)


def test_flows_mirror_selection():
    net, costs = random_instance(11)
    res = column_generation(net, wrap_cost_vectors(net, costs))
    for k, picks in enumerate(res.selection):
        rebuilt = np.zeros(net.num_edges)
        for col, units in picks:
            for e in col.edges:
                rebuilt[e] += units
        assert np.array_equal(rebuilt, res.flows[k])


def priced_rounds(monkeypatch, net, vectors):
    """Run column generation, splitting its pricing into rounds.

    A round is one pricing call over every commodity plus the dummy flows
    routed after it. Each round records the coupling duals pi it priced at
    and the convexity duals sigma of the master solve before it (both None
    in the initial round), the columns and zetas of its pricing call, the pi
    of each dummy flow and the columns it pooled (the pool's growth up to
    the next master build, or for the last round up to the extraction over
    the pool, so that no enumerated column counts as priced).
    """
    events = []
    real_price, real_master = colgen.price, colgen._Pool.master
    real_lp, real_flow = colgen.solve_lp, colgen._dummy_flow
    real_extract = colgen.extract_integer

    def spy_price(tables, pi, sigma=None):
        cols, zetas = real_price(tables, pi, sigma)
        events.append(("price", None if pi is None else pi.copy(),
                       {col.commodity: col for col in cols}, zetas))
        return cols, zetas

    def spy_master(pool):
        events.append(("pool", len(pool)))
        return real_master(pool)

    def spy_lp(prob, warm=None, basis=None, inverse=None):
        sol = real_lp(prob, warm=warm, basis=basis, inverse=inverse)
        events.append(("lp", sol.sigma))
        return sol

    def spy_flow(network, values, pi=None):
        events.append(("flow", None if pi is None else pi.copy()))
        return real_flow(network, values, pi)

    def spy_extract(network, pool):
        if isinstance(pool, _Pool):
            events.append(("pool", len(pool)))
        return real_extract(network, pool)

    monkeypatch.setattr(colgen, "price", spy_price)
    monkeypatch.setattr(colgen._Pool, "master", spy_master)
    monkeypatch.setattr(colgen, "solve_lp", spy_lp)
    monkeypatch.setattr(colgen, "_dummy_flow", spy_flow)
    monkeypatch.setattr(colgen, "extract_integer", spy_extract)
    res = column_generation(net, vectors)
    monkeypatch.undo()

    rounds, sigma, pooled = [], None, 0
    for event in events:
        if event[0] == "lp":
            sigma = event[1]
        elif event[0] == "pool":
            pooled = event[1]
            if rounds and rounds[-1]["end"] is None:
                rounds[-1]["end"] = pooled
        elif event[0] == "price":
            assert len(event[3]) == net.num_commodities
            rounds.append(dict(pi=event[1], sigma=sigma, first=event[2], zetas=event[3],
                               flows=[], start=pooled, end=None))
        elif event[1] is None:
            assert net.num_commodities == 1, "only the flow solve routes without duals"
        else:
            rounds[-1]["flows"].append(event[1])
    for rnd in rounds:
        end = len(res.columns) if rnd["end"] is None else rnd["end"]
        rnd["added"] = res.columns[rnd["start"] : end]
    return res, rounds


def detection_path(net, k, dets):
    """Edge ids of commodity k's path over detections `dets`, or None without a transition."""
    n = net.num_detections
    index = {pair: n + p for p, pair in enumerate(net.transitions)}
    edges = [net.start_edge(k, dets[0]), dets[0]]
    for a, b in zip(dets, dets[1:]):
        if (a, b) not in index:
            return None
        edges += [index[a, b], b]
    return tuple(edges + [net.term_edge(k, dets[-1])])


def sub_path_family(net, vectors, col):
    """The sub-path family of a tracked commodity's path, built from its detections.

    The path less each one detection (an interior one only where a
    transition bridges it), then for more than two detections the paths
    over its first and its last detection alone, each costed by cost_index.
    """
    k, dets = col.commodity, net.path_detections(col.edges)
    subs = [dets[:x] + dets[x + 1 :] for x in range(len(dets))] if len(dets) > 1 else []
    if len(dets) > 2:
        subs += [dets[:1], dets[-1:]]
    paths = [p for p in (detection_path(net, k, d) for d in subs) if p is not None]
    values = vectors[k].values
    return [PathColumn(k, p, float(sum(values[net.cost_index(k, e)] for e in p))) for p in paths]


def is_path(net, k, edges):
    """Whether `edges` lead from commodity k's source to its sink, edge after edge."""
    nodes = [net.tail[edges[0]]] + [net.head[e] for e in edges]
    return (all(net.tail[e] == u for e, u in zip(edges, nodes)) and nodes[0] == net.source(k)
            and nodes[-1] == net.sink(k) and all(net.owner[e] in (-1, k) for e in edges))


def check_family_rounds(net, vectors, res, rounds):
    """Assert each round's tracked columns: the priced one and its family's new members.

    A round pools a tracked commodity's priced column when it is new and
    prices negatively (in the initial round, whenever it is new), and with
    it, in order, every member of its sub-path family not pooled before:
    each a path of the commodity at its recomputed cost. Returns the
    priced columns pooled and the family members pooled with them.
    """
    bypass = {(k, (net.bypass_edge(k),)) for k in range(net.num_commodities)}
    heads, members = [], 0
    for r, rnd in enumerate(rounds):
        pooled = {c.key for c in res.columns[: rnd["start"]]}
        added = [c for c in rnd["added"] if r > 0 or c.key not in bypass]
        for k in range(1, net.num_commodities):
            col = rnd["first"].get(k)
            want = []
            negative = r == 0 or rnd["zetas"][k] < rnd["sigma"][k] - CERT_TOL
            assert (col is not None) == negative
            if negative and col.key not in pooled:
                want = [c for c in [col] + sub_path_family(net, vectors, col)
                        if c.key not in pooled and (r > 0 or c.key not in bypass)]
            got = [c for c in added if c.commodity == k]
            assert [(c.key, c.cost) for c in got] == [(c.key, c.cost) for c in want]
            for sub in got[1:]:
                assert is_path(net, k, sub.edges)
            heads += got[:1]
            members += len(got[1:])
    return heads, members


def check_dummy_rounds(net, vectors, res, rounds):
    """Assert the extra dummy columns' contract; returns how many there were."""
    ns, values = net.num_shared, [cv.values for cv in vectors]
    bypass = {(k, (net.bypass_edge(k),)) for k in range(net.num_commodities)}
    bypass_costs = np.array([values[k][net.cost_index(k, net.bypass_edge(k))]
                             for k in range(net.num_commodities)])
    extras = 0
    for r, rnd in enumerate(rounds):
        cutoffs = bypass_costs if r == 0 else rnd["sigma"] - CERT_TOL
        pi = np.zeros(ns) if rnd["pi"] is None else rnd["pi"]
        negative = rnd["zetas"] < cutoffs
        # one flow, at the round's duals, exactly when the dummy prices
        # negatively
        assert len(rnd["flows"]) == int(negative[0])
        assert all(np.array_equal(flow_pi, pi) for flow_pi in rnd["flows"])
        # the initial round also pools every commodity's bypass column
        added = [c for c in rnd["added"] if r > 0 or c.key not in bypass]
        first = rnd["first"].get(0)
        assert (first is not None) == (r == 0 or negative[0])
        first_key = first and first.key
        dummy = [c for c in added if c.commodity == 0]
        extra = [c for c in dummy if c.key != first_key]
        extras += len(extra)

        def shifted(col):
            return col.cost + sum(pi[e] for e in col.edges if e < ns)

        # the extras are the flow's paths at pi below the cutoff, less those pooled
        want = []
        if rnd["flows"]:
            pooled = {c.key for c in res.columns[: rnd["start"]]} | {first_key}
            flow = _dummy_flow(net, values[0], pi)
            want = [c for c in flow if shifted(c) < cutoffs[0] and c.key not in pooled]
        assert [(c.key, c.cost) for c in extra] == [(c.key, c.cost) for c in want]
        claimed = set()
        for col in extra:
            dets = set(net.path_detections(col.edges))
            assert dets and not dets & claimed, "extra dummy path shares a detection"
            claimed |= dets
        for col in dummy:
            if r == 0:
                assert col.cost < bypass_costs[0]
            else:
                assert shifted(col) - rnd["sigma"][0] < -CERT_TOL
    return extras


def test_extra_dummy_columns_are_disjoint_and_price_negative(monkeypatch):
    extras = 0
    # The 74 dummy-only instances of these 300 take the flow solve and price
    # no round.
    for seed in range(300):
        net, costs = random_instance(seed, max_dets=14, max_frames=5, oracle_budget=None)
        vectors = wrap_cost_vectors(net, costs)
        res, rounds = priced_rounds(monkeypatch, net, vectors)
        extras += check_dummy_rounds(net, vectors, res, rounds)
        check_family_rounds(net, vectors, res, rounds)
    (net, vectors), = births_windows([1], tracked=True)
    res, rounds = priced_rounds(monkeypatch, net, vectors)
    births_extras = check_dummy_rounds(net, vectors, res, rounds)
    check_family_rounds(net, vectors, res, rounds)
    assert res.status == "proven-optimal"
    assert extras > 0 and births_extras > 0


@pytest.mark.parametrize("name", ["m_window15.instance", "contested_window19.instance"])
def test_dummy_flow_is_pooled_while_a_tracked_commodity_prices_negative(monkeypatch, name):
    net, vectors = load_instance(FIXTURES / name)
    res, rounds = priced_rounds(monkeypatch, net, vectors)
    assert check_dummy_rounds(net, vectors, res, rounds) > 0
    shared = 0
    for rnd in rounds[1:]:
        tracked = (rnd["zetas"][1:] < rnd["sigma"][1:] - CERT_TOL).any()
        first = rnd["first"].get(0)
        first_key = first and first.key
        extra = [c for c in rnd["added"] if c.commodity == 0 and c.key != first_key]
        shared += bool(tracked and rnd["flows"] and extra)
    assert shared > 0


@pytest.mark.parametrize("name", [
    "m_window8.instance", "m_window15.instance", "m_window29.instance",
    "contested_window19.instance",
])
def test_each_round_pools_the_priced_column_and_its_new_sub_paths(monkeypatch, name):
    net, vectors = load_instance(FIXTURES / name)
    res, rounds = priced_rounds(monkeypatch, net, vectors)
    heads, members = check_family_rounds(net, vectors, res, rounds)
    assert members > 0
    # both kinds of interior detection occur: bridged by a transition, and not
    bridged = unbridged = 0
    for col in heads:
        dets = net.path_detections(col.edges)
        for x in range(1, len(dets) - 1):
            if detection_path(net, col.commodity, dets[:x] + dets[x + 1 :]) is None:
                unbridged += 1
            else:
                bridged += 1
    assert bridged > 0 and unbridged > 0, (bridged, unbridged)


def test_m_window1_is_proven_within_80_iterations():
    # Window 1 (frames 1-10) of the Baseline M scene in ROADMAP.md (targets 5,
    # frames 60, seed 3, window 10): dummy only, d0 8, 55 detections, 533
    # shared edges. The flow solve is one assignment solve. Column generation
    # took 46 iterations here, and 200 (the limit, epsilon 3.51, about 20 s)
    # with one dummy path per round.
    net, vectors = load_instance(FIXTURES / "m_window1.instance")
    res = column_generation(net, vectors)
    assert res.status == "proven-optimal"
    assert res.epsilon == 0.0
    assert res.iterations <= 80


@pytest.mark.parametrize("name, v_int", [
    ("m_window8.instance", 106.45621497559856),
    ("m_window15.instance", 123.38373776188382),
])
def test_m_stall_windows_are_proven_within_1000_pivots(name, v_int):
    # M windows 8 and 15: set-partitioning-like masters whose degenerate
    # runs stalled the master LP. A Bland's-rule fallback took 80,126 and
    # 51,105 master pivots here, perturbing the right-hand side about 10,000.
    # With a row for every transition as well as every detection the masters
    # were about 4x taller and took 11,638 and 11,535; one row per visited
    # detection took 1,631 and 2,351. Pooling each priced track path's
    # sub-paths took 239 and 560 pricing passes; routing the dummy's whole
    # flow in every round where it prices negatively takes 188 and 258
    # pivots.
    net, vectors = load_instance(FIXTURES / name)
    res = column_generation(net, vectors)
    assert res.status == "proven-optimal"
    assert res.v_int == pytest.approx(v_int, abs=1e-9)
    assert res.pivots <= 1_000


def test_contested_window19_extracts_the_integer_optimum_over_every_path():
    # contested seed 3, window_t 19: v_lp 168.8065202209866 leaves a true
    # integrality gap. The first MILP over the pool read v_int
    # 169.05355386010658 until each priced track path pooled its sub-paths,
    # and the columns under the reduced-cost limit lowered it to the optimum;
    # now the first MILP reads the optimum, and the rerun over those columns
    # confirms it.
    net, vectors = load_instance(FIXTURES / "contested_window19.instance")
    res = column_generation(net, vectors)
    assert res.v_lp == pytest.approx(168.8065202209866, abs=1e-9)
    assert res.v_int == pytest.approx(168.86628779093667, abs=1e-9)
    assert res.epsilon >= 0.0
    check_flow_constraints(net, res.selection)


def test_rerun_over_the_incumbent_keeps_v_int_without_the_dummys_columns(monkeypatch):
    # Random instance 228: the first MILP over the pool reads v_int
    # -13.318560902679545, and the rerun over the enumerated columns and the
    # incumbent's lowers it to -13.618788331757742. Without the dummy's
    # enumerated paths a cheaper selection has no dummy column to use: the
    # rerun, which meets the dummy's demand only through the incumbent's
    # columns, finds the incumbent again, and its v_int stands.
    net, costs = random_instance(228)
    assert net.demands[0] > 0
    vectors = wrap_cost_vectors(net, costs)
    assert column_generation(net, vectors).v_int == pytest.approx(-13.618788331757742, abs=1e-9)
    real_bounded, real_extract = colgen._bounded_columns, colgen.extract_integer
    extractions = []

    def no_dummy(*args):
        return [col for col in real_bounded(*args) if col.commodity != 0]

    def extract(network, pool):
        val, sel = real_extract(network, pool)
        extractions.append(({col.key for col in pool}, val, sel))
        return val, sel

    monkeypatch.setattr(colgen, "_bounded_columns", no_dummy)
    monkeypatch.setattr(colgen, "extract_integer", extract)
    res = column_generation(net, vectors)
    assert len(extractions) == 2
    (_, first, incumbent), (rerun_keys, rerun, _) = extractions
    assert first == pytest.approx(-13.318560902679545, abs=1e-9)
    assert {col.key for col, _ in incumbent} <= rerun_keys
    assert any(col.commodity == 0 for col, _ in incumbent)
    assert rerun == pytest.approx(first, abs=1e-12)
    assert res.status == "near-optimal"
    assert res.v_int == first
    check_flow_constraints(net, res.selection)


def test_final_master_solution_is_decoded_within_round_tol(monkeypatch):
    # M window 29 (frames 29-38 of the Baseline M scene in ROADMAP.md) with a
    # degenerate run limit of 1: its master solves perturb their right-hand
    # side, and the last one leaves lam about 2e-7 off an integral vertex.
    # Rounded within ROUND_TOL, that solution meets the true rows and
    # certifies, so it is decoded with no MILP; tested at 1e-9, it would not.
    monkeypatch.setattr(lp_module, "DEGENERATE_RUN_LIMIT", 1)
    net, vectors = load_instance(FIXTURES / "m_window29.instance")
    real_solve, real_decode = colgen.solve_lp, colgen._decode_selection
    solved, offsets = [], []

    def solve(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        solved.append(sol.x)
        return sol

    def decode(pool, units):
        offsets.append(np.abs(solved[-1] - units).max())
        return real_decode(pool, units)

    monkeypatch.setattr(colgen, "solve_lp", solve)
    monkeypatch.setattr(colgen, "_decode_selection", decode)
    monkeypatch.setattr(colgen, "extract_integer", None)  # certified without the MILP
    res = column_generation(net, vectors)
    assert res.status == "proven-optimal"
    assert res.v_int == pytest.approx(106.05840734822411, abs=1e-9)
    assert len(offsets) == 1  # the final master solution alone decodes
    assert 1e-9 < offsets[0] <= colgen.ROUND_TOL


def test_rounded_master_solution_must_meet_the_true_rows():
    prob = LPProblem(
        obj=np.array([1.0, 1.0, 1.0]),
        a_ub=np.array([[1.0, 1.0, 0.0]]), b_ub=np.array([1.0]),
        a_eq=np.array([[0.0, 1.0, 1.0]]), b_eq=np.array([1.0]),
    )
    assert colgen._meets_rows(prob, np.array([1.0, 0.0, 1.0]))
    assert not colgen._meets_rows(prob, np.array([1.0, 1.0, 0.0]))  # coupling row
    assert not colgen._meets_rows(prob, np.array([0.0, 0.0, 0.0]))  # convexity row
    assert not colgen._meets_rows(prob, np.array([-1.0, 1.0, 0.0]))


def test_births_windows_take_few_iterations():
    # Dummy-only: the flow solve is one assignment solve a window.
    # Column generation took 76 iterations over these windows, and 308 with
    # one dummy path per round.
    results = [column_generation(net, vectors, iter_max=BIRTHS_CONFIG.iter_max)
               for net, vectors in births_windows(range(1, 110, 12))]
    assert all(r.status == "proven-optimal" for r in results)
    assert sum(r.iterations for r in results) <= 120


def detection_row_master(net, cols):
    """Master LP over cols with one coupling row per detection, by hand."""
    n = net.num_detections
    a_ub = np.zeros((n, len(cols)))
    a_eq = np.zeros((net.num_commodities, len(cols)))
    for j, col in enumerate(cols):
        for e in col.edges:
            if e < n:
                a_ub[e, j] = 1.0
        a_eq[col.commodity, j] = 1.0
    return LPProblem(obj=np.array([c.cost for c in cols], dtype=float), a_ub=a_ub,
                     b_ub=np.ones(n), a_eq=a_eq, b_eq=net.demands.astype(float))


def test_master_record_matches_a_from_scratch_build(monkeypatch):
    # Every master build of column generation, and the MILP's, comes from the
    # record kept as the pool grows; each must equal a build from the columns.
    real = colgen._Pool.master
    builds = []

    def checked(pool):
        prob = real(pool)
        ref = detection_row_master(pool.network, list(pool))
        for name in ("obj", "a_ub", "b_ub", "a_eq", "b_eq"):
            got, want = getattr(prob, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        builds.append(len(pool))
        return prob

    monkeypatch.setattr(colgen._Pool, "master", checked)
    grown = 0
    for seed, net, costs in tracked_instances(40):
        before = len(builds)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        assert len(builds) - before >= res.iterations, seed
        grown += builds[-1] > builds[before]
    assert grown > 0


def dummy_only_cases():
    """Dummy-only networks with costs: random ones with d0 up to 8, d0 = 0, no detections."""
    cases = [random_instance(seed, max_tracked=0, d0_max=8) for seed in range(300)]
    net, costs = cases[0]
    cases.append((network_from_parts(net.detections, net.transitions, [0]), costs))
    cases.append((network_from_parts([], [], [3]), [np.array([0.75])]))
    return cases


def test_flow_solve_matches_brute_force(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("the flow solve needs no master LP and no MILP")

    monkeypatch.setattr(colgen, "solve_lp", unused)
    monkeypatch.setattr(colgen, "milp", unused)
    demands = set()
    for case, (net, costs) in enumerate(dummy_only_cases()):
        d0 = int(net.demands[0])
        demands.add(d0)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        ref, _ = brute_force_ilp(net, costs)
        assert abs(res.v_int - ref) <= 1e-9, (case, res.v_int, ref)
        assert res.status == "proven-optimal" and res.epsilon == 0.0, case
        assert res.v_lp == res.v_int, case
        assert res.iterations == 1, case
        assert res.pi is None and res.sigma is None and res.zetas is None, case
        check_flow_constraints(net, res.selection)
        paths = [col for col, _ in res.selection[0] if len(col.edges) > 1]
        firsts = [net.path_detections(col.edges)[0] for col in paths]
        assert firsts == sorted(firsts), case
        assert sum(c.cost * u for c, u in res.selection[0]) == pytest.approx(res.v_int, abs=1e-12)
    assert demands == set(range(9))


def test_dummy_only_windows_build_no_pricing_tables(monkeypatch):
    # The flow solve reads the dummy's cost vector alone.
    def unused(*args, **kwargs):
        raise AssertionError("a dummy-only window needs no pricing tables")

    births = [(net, [cv.values for cv in vectors])
              for net, vectors in births_windows(range(1, 110, 12))]
    monkeypatch.setattr(colgen.PricingTables, "build", unused)
    for case, (net, costs) in enumerate(dummy_only_cases() + births):
        res = column_generation(net, wrap_cost_vectors(net, costs))
        assert res.status == "proven-optimal" and res.iterations == 1, case
        check_flow_constraints(net, res.selection)


def per_edge_flows(net, selection):
    """Per-commodity edge flows of (column, units) pairs, one edge at a time."""
    flows = [np.zeros(net.num_edges, dtype=np.int64) for _ in range(net.num_commodities)]
    for col, units in selection:
        for e in col.edges:
            flows[col.commodity][e] += units
    return flows


def test_group_selection_flows_match_a_per_edge_loop():
    results = [(net, column_generation(net, vectors))
               for net, vectors in births_windows(range(1, 110, 12))
               + births_windows([1, 25], tracked=True)]
    results += [(net, column_generation(net, wrap_cost_vectors(net, costs)))
                for _, net, costs in tracked_instances(30, d0_max=8)]
    tracked = several = 0
    for net, res in results:
        selection = [entry for group in res.selection for entry in group]
        assert colgen._group_selection(net, selection) == res.selection
        want = per_edge_flows(net, selection)
        assert len(res.flows) == len(want)
        for got, ref in zip(res.flows, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        tracked += any(flow.any() for flow in res.flows[1:])
        several += any(len(col.edges) == 1 and units > 1 for col, units in selection)
    assert tracked > 0 and several > 0


def arc_lp_optimum(net, values):
    """Min-cost flow of d0 units over the dummy's edges: the arc LP, by HiGHS.

    `values` is the dummy's cost vector. Its block comes first, so the
    dummy's edges are the ids 0 .. cost_size - 1, each at its own position.
    """
    edges = np.arange(net.cost_size)
    conservation = np.zeros((net.num_nodes, net.cost_size))
    conservation[net.head[edges], edges] += 1.0
    conservation[net.tail[edges], edges] -= 1.0
    supply = np.zeros(net.num_nodes)
    supply[net.source(0)], supply[net.sink(0)] = -net.demands[0], net.demands[0]
    bounds = [(0.0, 1.0) if e < net.num_shared else (0.0, None) for e in edges]
    res = linprog(values, A_eq=conservation, b_eq=supply, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


def check_dummy_flow(net, costs, pi):
    """Assert that `_dummy_flow` under pi routes d0 units at least pi-shifted cost.

    `costs` is the dummy's cost vector. The flow's paths must be
    detection-disjoint and carry their unshifted costs, and with the rest on
    the bypass they must meet the arc LP's optimum. Returns the paths.
    """
    ns, d0 = net.num_shared, int(net.demands[0])
    flow = _dummy_flow(net, costs, pi)
    assert len(flow) <= d0
    dets = [i for col in flow for i in net.path_detections(col.edges)]
    assert len(dets) == len(set(dets))
    for col in flow:
        assert col.cost == pytest.approx(sum(costs[e] for e in col.edges), abs=1e-12)
    v = sum(c.cost + sum(pi[e] for e in c.edges if e < ns) for c in flow)
    v += (d0 - len(flow)) * costs[net.bypass_edge(0)]
    values = costs.copy()
    values[:ns] += pi
    ref = arc_lp_optimum(net, values)
    assert abs(v - ref) <= 1e-9 * (1.0 + abs(ref)), (v, ref)
    return flow


def test_dummy_flow_is_optimal_under_the_duals():
    # Column generation pools the dummy's flow paths at the round's duals;
    # with the rest on the bypass they must route d0 units at least cost
    # under the pi-shifted costs.
    rng = np.random.default_rng(7)
    routed = 0
    for seed, net, costs in tracked_instances(60, d0_max=8):
        ns = net.num_shared
        pi = rng.uniform(0.0, 1.5, ns) * (rng.random(ns) < 0.6)
        routed += len(check_dummy_flow(net, costs[0], pi)) > 1
    assert routed > 0


def test_births_windows_match_the_arc_lp():
    for net, vectors in births_windows(range(1, 110, 12)):
        res = column_generation(net, vectors)
        ref = arc_lp_optimum(net, vectors[0].values)
        assert abs(res.v_int - ref) <= 1e-9 * (1.0 + abs(ref)), (res.v_int, ref)


def test_wide_dummy_only_window_matches_the_arc_lp():
    # The wide bench scene's first 10 frames at d0 20: a dummy-only window at
    # tracker scale, unshifted and under random duals.
    dets, _ = synth_generate(WIDE_SCENE, seed=3)
    cfg = WIDE_CONFIG
    window = [d for f in range(1, 11) for d in dets[f]]
    net = build_network(window, [], [cfg.d0], cfg.gating_config())
    values = assemble_cost_vector(net, 0, [], cfg.cost_config()).values
    ns = net.num_shared
    assert net.num_detections >= 200

    res = column_generation(net, [CostVector(0, values)])
    ref = arc_lp_optimum(net, values)
    assert res.status == "proven-optimal" and res.iterations == 1
    assert abs(res.v_int - ref) <= 1e-9 * (1.0 + abs(ref)), (res.v_int, ref)
    check_flow_constraints(net, res.selection)

    rng = np.random.default_rng(11)
    for _ in range(3):
        pi = rng.uniform(0.0, 1.5, ns) * (rng.random(ns) < 0.6)
        assert check_dummy_flow(net, values, pi)


def test_flow_solve_refuses_bad_input():
    (net, (cv,)), = births_windows([1])
    n, b = net.num_detections, net.block_start(0)
    for edge in (0, n, b, b + n, net.bypass_edge(0)):
        for bad in (np.nan, np.inf, -np.inf):
            vals = cv.values.copy()
            vals[edge] = bad
            with pytest.raises(ValueError, match="finite"):
                column_generation(net, [CostVector(0, vals)])
    with pytest.raises(ValueError, match="labeled"):
        column_generation(net, [CostVector(1, cv.values)])
    with pytest.raises(ValueError, match="2 cost vectors"):
        column_generation(net, [cv, cv])
    with pytest.raises(ValueError, match="iter_max"):
        column_generation(net, [cv], iter_max=0)
