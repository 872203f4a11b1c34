"""Column generation: pricing, certificates, integer extraction, full loop."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    check_flow_constraints,
    make_det,
    random_instance,
    wrap_cost_vectors,
)
from mcftrack.colgen import (
    CGResult,
    ColgenError,
    PathColumn,
    _enrichment_columns,
    _grow_basis,
    _master_problem,
    column_generation,
    extract_integer,
    lagrangian_lower_bound,
    optimality_check,
    price,
    shortest_path,
)
from mcftrack.costs import CostVector
from mcftrack.graph import network_from_parts
from mcftrack import colgen
from mcftrack.lp import LPInternalError, LPProblem, solve_lp
from mcftrack.oracle import brute_force_ilp, enumerate_paths


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


def single_det_network():
    return network_from_parts([make_det(0, 1, (0, 0, 10, 10))], [], [1])


def single_det_costs(bypass: float) -> np.ndarray:
    # edge ids: 0 obs, 1 start, 2 termination, 3 bypass
    return np.array([-1.0, -0.5, 10.0, bypass])


def test_price_bypass_wins():
    net = single_det_network()
    col, zeta = price(net, 0, single_det_costs(5.0), None)
    assert zeta == pytest.approx(5.0)
    assert col.edges == (3,)
    assert col.cost == pytest.approx(5.0)


def test_price_detection_path_wins():
    net = single_det_network()
    col, zeta = price(net, 0, single_det_costs(20.0), None)
    assert zeta == pytest.approx(8.5)
    assert col.edges == (1, 0, 2)
    assert col.cost == pytest.approx(8.5)


def test_price_dual_shift_additive():
    net = single_det_network()
    pi = np.array([2.0])
    col, zeta = price(net, 0, single_det_costs(20.0), pi)
    assert zeta == pytest.approx(10.5)
    assert col.cost == pytest.approx(8.5)  # column keeps the unshifted cost
    # bypass untouched by duals on shared edges
    _, zeta_b = price(net, 0, single_det_costs(5.0), pi)
    assert zeta_b == pytest.approx(5.0)


def test_shortest_path_tie_breaks_lexicographically():
    # two detections in the same frame, identical costs: path via det 0 wins
    net = network_from_parts([make_det(0, 1, (0, 0, 2, 2)), make_det(1, 1, (5, 0, 7, 2))], [], [1])
    costs = np.zeros(net.num_edges)
    costs[net.bypass_edge(0)] = 1.0
    edges, val = shortest_path(net, 0, costs)
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
    edges, val = shortest_path(net, 0, costs)
    assert val == -2.0
    via_0 = net.num_detections + net.transitions.index((0, 2))
    assert edges == (net.start_edge(0, 0), 0, via_0, 2, net.term_edge(0, 2))


def test_enrichment_columns_at_budget_boundary():
    dets = [make_det(0, 1, (0, 0, 10, 10)), make_det(1, 2, (2, 0, 10, 10))]
    net = network_from_parts(dets, [(0, 1)], [1, 1])
    rng = np.random.default_rng(0)
    values = [rng.normal(size=net.num_edges) for _ in range(net.num_commodities)]
    paths = [(k, p) for k in range(net.num_commodities) for p in enumerate_paths(net, k)]
    cols = _enrichment_columns(net, values, len(paths))
    assert [(c.commodity, c.edges) for c in cols] == paths
    for c in cols:
        assert c.cost == pytest.approx(sum(values[c.commodity][e] for e in c.edges))
    assert _enrichment_columns(net, values, len(paths) - 1) is None


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
    assert list(_master_problem(net, pool)[1]) == [1, 2, 3, 4, 5, 6]
    assert solve_lp(full_row_master(net, pool)).objective == pytest.approx(-1.6)
    val, sel = extract_integer(net, pool)
    assert val == pytest.approx(-1.3)
    assert sorted(pool.index(c) for c, _ in sel if c.cost < 0) == [1, 3]


def test_extract_integer_matches_brute_force_over_every_path():
    # Half-unit costs make equal-value optima common; the value must still be
    # the exact optimum and the selection a feasible, reproducible one.
    for seed in range(50):
        net, costs = random_instance(seed)
        costs = [np.round(2.0 * c) / 2.0 for c in costs]
        pool = [PathColumn(k, p, float(sum(costs[k][e] for e in p)))
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


def test_master_over_touched_rows_is_exact():
    untouched_total = 0
    for seed in range(40):
        net, costs = random_instance(seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        pool, ns = res.columns, net.num_shared
        prob, rows = _master_problem(net, pool)
        assert list(rows) == sorted({e for c in pool for e in c.edges if e < ns})
        full = solve_lp(full_row_master(net, pool))
        pruned = solve_lp(prob)
        assert pruned.objective == pytest.approx(full.objective, abs=1e-9), seed
        assert res.pi.shape == (ns,)
        untouched = np.setdiff1d(np.arange(ns), rows)
        assert (res.pi[untouched] == 0.0).all(), seed
        untouched_total += untouched.size
    assert untouched_total > 0


def test_grow_basis_warm_starts_grown_master():
    grown_cases = 0
    for seed in range(40):
        net, costs = random_instance(seed)
        pool = column_generation(net, wrap_cost_vectors(net, costs)).columns
        ns = net.num_shared
        bypass = [c for c in pool if not any(e < ns for e in c.edges)]
        paths = [c for c in pool if any(e < ns for e in c.edges)]
        first = bypass + paths[: len(paths) // 2]
        grown = first + paths[len(paths) // 2 :]
        first_prob, rows = _master_problem(net, first)
        prob, more = _master_problem(net, grown)
        if more.size == rows.size:
            continue
        grown_cases += 1
        sol = solve_lp(first_prob)
        assert sol.status == "optimal", seed
        basis = _grow_basis(sol.basis, rows, more)

        mi, me, n = more.size, net.num_commodities, len(grown)
        m = mi + me
        full = np.zeros((m, mi + n))
        full[:mi, :mi] = np.eye(mi)
        full[:mi, mi:] = prob.a_ub
        full[mi:, mi:] = prob.a_eq
        rhs = np.concatenate([prob.b_ub, prob.b_eq])
        assert len(basis) == m and len(set(basis)) == m, seed
        b_mat = full[:, list(basis)]
        assert np.linalg.matrix_rank(b_mat) == m, seed
        assert np.linalg.solve(b_mat, rhs).min() >= -1e-9, seed

        warm = solve_lp(prob, warm_basis=basis)
        cold = solve_lp(prob)
        assert warm.status == cold.status == "optimal", seed
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9), seed
    assert grown_cases >= 10


def test_failed_warm_master_solve_retries_cold(monkeypatch):
    net, costs = random_instance(5)
    vectors = wrap_cost_vectors(net, costs)
    ref = column_generation(net, vectors)
    assert ref.iterations >= 2 and ref.status == "proven-optimal"
    calls = []

    def warm_fails_once(prob, warm_basis=None):
        calls.append(warm_basis is not None)
        if warm_basis is not None and calls.count(True) == 1:
            raise LPInternalError("injected")
        return solve_lp(prob, warm_basis=warm_basis)

    monkeypatch.setattr(colgen, "solve_lp", warm_fails_once)
    res = column_generation(net, vectors)
    assert calls[:3] == [False, True, False]
    assert res.v_lp == pytest.approx(ref.v_lp, abs=1e-9)
    assert res.v_int == pytest.approx(ref.v_int, abs=1e-9)

    def cold_fails(prob, warm_basis=None):
        raise LPInternalError("injected")

    monkeypatch.setattr(colgen, "solve_lp", cold_fails)
    with pytest.raises(LPInternalError):
        column_generation(net, vectors)


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
                recomputed = float(sum(costs[k][e] for e in col.edges))
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
