"""Revised simplex solver: worked examples, duality, warm starts, edge cases."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import (
    master_lp,
    random_instance,
    random_lp,
    stacked,
    vertex_lp_oracle,
    wrap_cost_vectors,
)
from mcftrack import colgen
from mcftrack import lp as lp_module
from mcftrack.colgen import INT_TOL, column_generation
from mcftrack.lp import (
    FEAS_TOL,
    OPT_TOL,
    REFACTOR_EVERY,
    LPInternalError,
    LPProblem,
    LPSolution,
    solve_lp,
)
from mcftrack.oracle import brute_force_ilp


def lp(obj, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    n = len(obj)
    return LPProblem(
        obj=np.asarray(obj, dtype=float),
        a_ub=np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float),
        b_ub=np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float),
        a_eq=np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float),
        b_eq=np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float),
    )


def test_two_column_convexity_row():
    sol = solve_lp(lp([3.0, 5.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert sol.objective == pytest.approx(3.0)
    assert sol.x == pytest.approx([1.0, 0.0])
    assert sol.sigma == pytest.approx([3.0])


def test_two_commodity_coupling():
    # columns A1(cost 1, uses e), A2(cost 2), B1(cost 1, uses e), B2(cost 2)
    prob = lp(
        [1.0, 2.0, 1.0, 2.0],
        a_ub=[[1.0, 0.0, 1.0, 0.0]], b_ub=[1.0],
        a_eq=[[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], b_eq=[1.0, 1.0],
    )
    sol = solve_lp(prob)
    assert sol.objective == pytest.approx(3.0)


def test_single_zero_cost_column():
    sol = solve_lp(lp([0.0], a_eq=[[1.0]], b_eq=[1.0]))
    assert sol.objective == pytest.approx(0.0)
    assert sol.sigma == pytest.approx([0.0])


def test_cold_start_names_row_without_solo_column():
    # second equality row has no support, so no crash basis exists
    prob = lp([1.0], a_eq=[[1.0], [0.0]], b_eq=[1.0, 2.0])
    with pytest.raises(ValueError, match="equality row 1 "):
        solve_lp(prob)


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        lp_ = lp([1.0], a_eq=[[1.0]], b_eq=[-1.0])
        solve_lp(lp_)


def test_iteration_limit_status(monkeypatch):
    # A solve that needs more than MAX_PIVOTS pivots raises; random LP 0
    # takes 4 pivots from the cold start.
    prob = random_lp(0)
    assert solve_lp(prob).iterations == 4
    monkeypatch.setattr(lp_module, "MAX_PIVOTS", 4)
    assert solve_lp(prob).iterations == 4
    for limit in (1, 3):
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", limit)
        with pytest.raises(LPInternalError, match="MAX_PIVOTS"):
            solve_lp(prob)


def test_iterations_count_the_pivots(monkeypatch):
    # one rank-one update of the basis inverse per pivot, and none in the
    # pricing pass that finds no entering column
    calls = []
    real_dger = lp_module.dger

    def counted(*args, **kwargs):
        calls.append(1)
        return real_dger(*args, **kwargs)

    monkeypatch.setattr(lp_module, "dger", counted)
    for seed in range(20):
        prob = random_lp(seed)
        calls.clear()
        cold = solve_lp(prob)
        assert cold.iterations == len(calls), seed
        calls.clear()
        assert solve_lp(prob, warm=cold).iterations == len(calls) == 0, seed


def reversed_columns(prob):
    """The same LP with its columns in reverse order."""
    return LPProblem(obj=prob.obj[::-1], a_ub=prob.a_ub[:, ::-1], b_ub=prob.b_ub,
                     a_eq=prob.a_eq[:, ::-1], b_eq=prob.b_eq)


def test_duals_match_vertex_oracle():
    for seed in range(120):
        base = random_lp(seed)
        ref = vertex_lp_oracle(base)
        assert ref is not None
        # reversed, the guaranteed solo columns come last and the crash basis
        # may pick another solo column of the same row
        for prob in (base, reversed_columns(base)):
            check_optimal_duals(prob, ref, seed)


def check_optimal_duals(prob, ref, seed, basis=None):
    sol = solve_lp(prob, basis=basis)
    assert sol.objective == pytest.approx(ref, abs=1e-6), seed

    # strong duality: c'x == -b'pi + d'sigma
    dual_val = -float(sol.pi @ prob.b_ub) + float(sol.sigma @ prob.b_eq)
    assert abs(sol.objective - dual_val) <= 1e-7 * (1 + abs(sol.objective)), seed

    # dual feasibility over every column: -pi'r + sigma_k <= c
    red = prob.obj + (sol.pi @ prob.a_ub if prob.a_ub.size else 0.0) - sol.sigma @ prob.a_eq
    assert red.min() >= -1e-7, seed

    # pi sign convention
    assert (sol.pi >= -1e-12).all(), seed
    return sol


def test_complementary_slackness():
    for seed in range(40):
        prob = random_lp(1000 + seed)
        sol = solve_lp(prob)
        a_ub = np.asarray(prob.a_ub)
        if a_ub.size == 0:
            continue
        slack = np.asarray(prob.b_ub) - a_ub @ sol.x
        assert (np.abs(sol.pi * slack) <= 1e-7).all()


def test_primal_feasibility_residuals():
    for seed in range(40):
        prob = random_lp(2000 + seed)
        sol = solve_lp(prob)
        a_eq = np.asarray(prob.a_eq)
        assert np.abs(a_eq @ sol.x - np.asarray(prob.b_eq)).max() <= 1e-9
        a_ub = np.asarray(prob.a_ub)
        if a_ub.size:
            assert (a_ub @ sol.x - np.asarray(prob.b_ub)).max() <= 1e-9
        assert sol.x.min() >= -1e-9


def test_warm_start_after_column_append():
    # solve, then add columns and re-solve warm; optimum matches cold solve
    rng = np.random.default_rng(7)
    for seed in range(25):
        prob = random_lp(3000 + seed)
        first = solve_lp(prob)
        n = np.asarray(prob.obj).size
        extra = 3
        a_ub = np.asarray(prob.a_ub)
        a_eq = np.asarray(prob.a_eq)
        new_ub = rng.random((a_ub.shape[0], extra)) < 0.3 if a_ub.size else np.zeros((0, extra))
        new_eq = np.zeros((a_eq.shape[0], extra))
        for j in range(extra):
            new_eq[int(rng.integers(0, a_eq.shape[0])), j] = 1.0
        grown = LPProblem(
            obj=np.concatenate([prob.obj, rng.uniform(-5, 5, size=extra)]),
            a_ub=np.hstack([a_ub, new_ub.astype(float)]) if a_ub.size else np.zeros((0, n + extra)),
            b_ub=prob.b_ub,
            a_eq=np.hstack([a_eq, new_eq]),
            b_eq=prob.b_eq,
        )
        warm = solve_lp(grown, warm=first)
        cold = solve_lp(grown)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


def test_solution_is_basic():
    prob = random_lp(42)
    sol = solve_lp(prob)
    m = np.asarray(prob.b_ub).size + np.asarray(prob.b_eq).size
    assert len(sol.basis) == m
    # at most m nonzero structural variables
    assert int(np.sum(sol.x > 1e-9)) <= m


def assert_block_inverse_matches_dense(prob, basis):
    M = stacked(prob)
    dense = np.linalg.inv(M[:, basis])
    block = lp_module._basis_inverse(M, basis, prob.a_ub.shape[0])
    assert np.abs(block - dense).max() <= 1e-10


def random_nonsingular_bases(M, pool, count, rng):
    """Up to `count` bases drawn from the column indices in `pool`."""
    m = M.shape[0]
    found = []
    for _ in range(50 * count):
        basis = [int(j) for j in rng.choice(pool, size=m, replace=False)]
        if np.linalg.cond(M[:, basis]) < 1e8:
            found.append(basis)
            if len(found) == count:
                break
    return found


def test_block_inverse_of_all_slack_bases():
    # coupling rows alone: the structural block is empty
    prob = master_lp(0)
    no_eq = LPProblem(obj=prob.obj, a_ub=prob.a_ub, b_ub=prob.b_ub,
                      a_eq=np.zeros((0, prob.num_cols)), b_eq=np.zeros(0))
    mi = prob.a_ub.shape[0]
    assert_block_inverse_matches_dense(no_eq, list(range(mi)))
    assert_block_inverse_matches_dense(no_eq, list(range(mi))[::-1])
    # every slack basic plus the bypasses (the crash basis)
    assert_block_inverse_matches_dense(prob, lp_module._crash_basis(prob))


def test_block_inverse_of_all_structural_and_mixed_bases():
    rng = np.random.default_rng(11)
    counts = {"structural": 0, "mixed": 0}
    for seed in range(20):
        prob = master_lp(seed, rows=8, cols=40, commodities=3, frames=4)
        M = stacked(prob)
        mi = prob.a_ub.shape[0]
        structural = np.arange(mi, M.shape[1])
        for basis in random_nonsingular_bases(M, structural, 3, rng):
            assert_block_inverse_matches_dense(prob, basis)
            counts["structural"] += 1
        for basis in random_nonsingular_bases(M, np.arange(M.shape[1]), 3, rng):
            assert_block_inverse_matches_dense(prob, basis)
            counts["mixed"] += int(min(basis) < mi <= max(basis))
    assert counts["structural"] >= 20 and counts["mixed"] >= 20


def test_block_inverse_of_degenerate_optimal_bases():
    degenerate = 0
    for seed in range(8):
        prob = master_lp(seed)
        sol = solve_lp(prob)
        basis = list(sol.basis)
        assert_block_inverse_matches_dense(prob, basis)
        mi = prob.a_ub.shape[0]
        degenerate += int(np.sum(sol.x[[j - mi for j in basis if j >= mi]] == 0.0))
    assert degenerate > 0  # some basic structural columns sit at 0


# One coupling row, one convexity row with demand 2; columns: a bypass and
# two identical columns that use the coupling row. Layout indices: 0 is the
# slack, 1 the bypass, 2 and 3 the twins.
TWINS = lp([0.0, -1.0, -1.0], a_ub=[[0.0, 1.0, 1.0]], b_ub=[1.0],
           a_eq=[[1.0, 1.0, 1.0]], b_eq=[2.0])


def test_block_inverse_raises_on_a_singular_structural_block():
    with pytest.raises(np.linalg.LinAlgError):
        lp_module._basis_inverse(stacked(TWINS), [2, 3], 1)
    # slack basic: the block is the convexity row over one twin, and is fine
    assert_block_inverse_matches_dense(TWINS, [0, 2])


def test_warm_start_over_another_row_count_raises():
    other = solve_lp(lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))  # one row, TWINS has two
    with pytest.raises(ValueError, match="warm start over 1 rows, the problem has 2"):
        solve_lp(TWINS, warm=other)


def test_infeasible_warm_start_raises():
    # Slack and twin basic is nonsingular but infeasible: the twin takes 2
    # units of row 0.
    infeasible = replace(solve_lp(TWINS), basis=(0, 2),
                         inverse=lp_module._basis_inverse(stacked(TWINS), [0, 2], 1))
    with pytest.raises(LPInternalError, match="warm basis is infeasible"):
        solve_lp(TWINS, warm=infeasible)


def test_feasible_warm_basis_is_used():
    # warm from the cold solve's own optimum: no pivot
    cold = solve_lp(TWINS)
    warm = solve_lp(TWINS, warm=cold)
    assert cold.iterations > 0 and warm.iterations == 0
    assert (warm.objective, warm.basis) == (cold.objective, cold.basis)
    assert warm.inverse is not cold.inverse  # the solve pivots on a copy


def path_start(prob, rng, per_commodity):
    """The slack-and-bypass start with detection-disjoint paths in it.

    Each path takes the place of the slack of its first coupling row, up to
    `per_commodity` paths per convexity row. Its row then holds the path at
    1, so the start is feasible while no commodity takes more paths than its
    demand; the bypasses carry the rest.
    """
    mi = prob.a_ub.shape[0]
    basis = lp_module._crash_basis(prob)
    taken, used = np.zeros(prob.a_eq.shape[0], dtype=int), set()
    for j in rng.permutation(prob.num_cols).tolist():
        rows = np.flatnonzero(prob.a_ub[:, j])
        k = int(np.flatnonzero(prob.a_eq[:, j])[0])
        if rows.size and taken[k] < per_commodity and used.isdisjoint(rows.tolist()):
            used.update(rows.tolist())
            taken[k] += 1
            basis[rows[0]] = mi + j
    return basis


def test_a_feasible_start_basis_reaches_the_optimum_with_certifying_duals():
    rng = np.random.default_rng(5)
    for seed in range(8):
        prob = master_lp(seed)
        ref = solve_lp(prob)
        start = path_start(prob, rng, per_commodity=1)
        assert (start >= prob.a_ub.shape[0]).sum() > prob.a_eq.shape[0], seed
        sol = check_optimal_duals(prob, ref.objective, seed, basis=start)
        assert abs(sol.objective - ref.objective) <= 1e-9, seed
        # the default start is the slack-and-bypass basis
        default = solve_lp(prob, basis=lp_module._crash_basis(prob))
        assert (default.objective, default.basis) == (ref.objective, ref.basis), seed
        # an optimal basis as start: no pivot
        assert solve_lp(prob, basis=ref.basis).iterations == 0, seed


def test_an_infeasible_start_basis_raises():
    # Two paths of one demand-1 commodity leave its bypass at -1.
    prob = master_lp(0)
    start = path_start(prob, np.random.default_rng(5), per_commodity=2)
    with pytest.raises(LPInternalError, match="start basis is infeasible"):
        solve_lp(prob, basis=start)
    # slack and twin: the twin takes 2 units of row 0
    with pytest.raises(LPInternalError, match="start basis is infeasible"):
        solve_lp(TWINS, basis=[0, 2])


def test_a_start_basis_of_the_wrong_length_or_singular_raises():
    for bad in ([0], [0, 1, 2], [0, 4]):  # too short, too long, no column 4
        with pytest.raises(ValueError, match="one column id below 4 for each of 2 rows"):
            solve_lp(TWINS, basis=bad)
    for singular in ([2, 3], [0, 0]):  # the twins; a slack twice
        with pytest.raises(ValueError, match="singular"):
            solve_lp(TWINS, basis=singular)
    with pytest.raises(ValueError, match="carries its own basis"):
        solve_lp(TWINS, warm=solve_lp(TWINS), basis=[0, 1])


def test_a_start_basis_given_with_its_inverse_is_checked_not_factored(monkeypatch):
    rng = np.random.default_rng(5)
    for seed in range(8):
        prob = master_lp(seed)
        start = path_start(prob, rng, per_commodity=1)
        inverse = lp_module._basis_inverse(stacked(prob), start, prob.a_ub.shape[0])
        given = inverse.copy()
        ref = solve_lp(prob, basis=start)
        sol = solve_lp(prob, basis=start, inverse=inverse)
        assert (sol.objective, sol.basis, sol.iterations) == (ref.objective, ref.basis,
                                                              ref.iterations), seed
        assert np.array_equal(inverse, given), seed  # the solve pivots on a copy
    # the slack and the bypass, given with their inverse: nothing is factored on entry
    entry = []
    real = lp_module._basis_inverse
    monkeypatch.setattr(lp_module, "_basis_inverse", lambda *a: entry.append(a) or real(*a))
    sol = solve_lp(TWINS, basis=[0, 1], inverse=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not entry and sol.objective == pytest.approx(-1.0)


def test_a_start_basis_given_with_a_wrong_or_singular_inverse_raises():
    start = [0, 1]  # the slack and the bypass: B is the identity
    for bad in (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]),  # off by more than INVERSE_TOL
                np.array([[0.0, 1.0], [1.0, 0.0]]),  # rows swapped
                np.zeros((2, 2)),  # singular
                np.ones((2, 2))):  # singular
        with pytest.raises(ValueError, match="does not invert the start basis"):
            solve_lp(TWINS, basis=start, inverse=bad)
    with pytest.raises(ValueError, match="inverse is 2 x 2"):
        solve_lp(TWINS, basis=start, inverse=np.eye(3))
    # a singular start has no inverse to give
    with pytest.raises(ValueError, match="does not invert the start basis"):
        solve_lp(TWINS, basis=[2, 3], inverse=np.eye(2))
    with pytest.raises(ValueError, match="with its start basis"):
        solve_lp(TWINS, inverse=np.eye(2))
    with pytest.raises(ValueError, match="carries its own basis"):
        solve_lp(TWINS, warm=solve_lp(TWINS), inverse=np.eye(2))


def test_refactorization_onto_a_singular_basis_raises(monkeypatch):
    # Convexity rows only, so the basis is the structural block. Column 2
    # duplicates column 0. A drifted inverse (rows swapped) sends the pivot
    # that enters column 2 out through column 1, which leaves the twins
    # basic; the refactorization right after it must refuse them.
    monkeypatch.setattr(lp_module, "REFACTOR_EVERY", 1)
    prob = lp([0.0, 0.0, -1.0], a_eq=[[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], b_eq=[1.0, 1.0])
    M = stacked(prob)
    drifted = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(LPInternalError, match="singular basis during refactorization"):
        lp_module._iterate(M, 0, prob.obj, prob.b_eq, np.array([0, 1]), drifted, 0)


def test_long_solves_refactor_and_stay_optimal():
    for seed in range(8):
        prob = master_lp(seed)
        sol = solve_lp(prob)
        assert sol.iterations > REFACTOR_EVERY, seed
        ref = linprog(prob.obj, A_ub=prob.a_ub, b_ub=prob.b_ub, A_eq=prob.a_eq,
                      b_eq=prob.b_eq, method="highs")
        assert ref.status == 0
        assert abs(sol.objective - ref.fun) <= 1e-7, seed
        check_optimal_duals(prob, ref.fun, seed)


def perturbed(prob, sol):
    """Whether the solve moved the right-hand side: every perturbation raises
    each convexity row's value, so x no longer meets the true demands."""
    return bool(np.abs(prob.a_eq @ sol.x - prob.b_eq).max() > FEAS_TOL)


def test_forced_stalls_end_at_the_optimum_with_a_dual_bound(monkeypatch):
    # A run limit of 1 perturbs on every degenerate pivot, again and again.
    monkeypatch.setattr(lp_module, "DEGENERATE_RUN_LIMIT", 1)
    count = 0
    for seed in range(300):
        prob = random_lp(seed)
        ref = vertex_lp_oracle(prob)
        sol = solve_lp(prob)
        assert (sol.pi >= 0.0).all(), seed
        reduced = prob.obj + sol.pi @ prob.a_ub - sol.sigma @ prob.a_eq
        assert reduced.min() >= -OPT_TOL, seed
        assert abs(sol.objective - ref) <= 1e-9, seed
        assert sol.objective <= ref + 1e-12 * (1.0 + abs(ref)), seed
        count += perturbed(prob, sol)
    assert count > 0


def test_forced_stalls_keep_column_generation_exact(monkeypatch):
    monkeypatch.setattr(lp_module, "DEGENERATE_RUN_LIMIT", 1)
    count = 0

    def spy(prob, warm=None, basis=None, inverse=None):
        nonlocal count
        sol = solve_lp(prob, warm=warm, basis=basis, inverse=inverse)
        count += perturbed(prob, sol)
        return sol

    monkeypatch.setattr(colgen, "solve_lp", spy)
    for seed in range(200):
        net, costs = random_instance(seed)
        res = column_generation(net, wrap_cost_vectors(net, costs))
        ref, _ = brute_force_ilp(net, costs)
        assert abs(res.v_int - ref) <= 1e-6, seed
        assert res.v_lp <= ref + INT_TOL, seed
    assert count > 0
