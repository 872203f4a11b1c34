"""Revised simplex solver: worked examples, duality, warm starts, edge cases."""

import numpy as np
import pytest

from helpers import random_lp, vertex_lp_oracle
from mcftrack.lp import LPProblem, LPSolution, solve_lp


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
    assert sol.status == "optimal"
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
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)


def test_single_zero_cost_column():
    sol = solve_lp(lp([0.0], a_eq=[[1.0]], b_eq=[1.0]))
    assert sol.status == "optimal"
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


def test_iteration_limit_status():
    prob = random_lp(123)
    sol = solve_lp(prob, max_iter=1)
    assert sol.status in ("iteration-limit", "optimal")
    full = solve_lp(prob)
    assert full.status == "optimal"


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


def check_optimal_duals(prob, ref, seed):
    sol = solve_lp(prob)
    assert sol.status == "optimal", seed
    assert sol.objective == pytest.approx(ref, abs=1e-6), seed

    # strong duality: c'x == -b'pi + d'sigma
    dual_val = -float(sol.pi @ prob.b_ub) + float(sol.sigma @ prob.b_eq)
    assert abs(sol.objective - dual_val) <= 1e-7 * (1 + abs(sol.objective)), seed

    # dual feasibility over every column: -pi'r + sigma_k <= c
    red = prob.obj + (sol.pi @ prob.a_ub if prob.a_ub.size else 0.0) - sol.sigma @ prob.a_eq
    assert red.min() >= -1e-7, seed

    # pi sign convention
    assert (sol.pi >= -1e-12).all(), seed


def test_complementary_slackness():
    for seed in range(40):
        prob = random_lp(1000 + seed)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
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
        assert first.status == "optimal"
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
        warm = solve_lp(grown, warm_basis=first.basis)
        cold = solve_lp(grown)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


def test_solution_is_basic():
    prob = random_lp(42)
    sol = solve_lp(prob)
    m = np.asarray(prob.b_ub).size + np.asarray(prob.b_eq).size
    assert len(sol.basis) == m
    # at most m nonzero structural variables
    assert int(np.sum(sol.x > 1e-9)) <= m
