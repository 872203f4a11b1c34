"""Dense revised simplex for restricted master problems.

Solves   min c^T x   s.t.   A x <= b  (coupling rows),
                            E x  = d  (convexity rows),
                            x >= 0,

with explicit dual extraction: pi >= 0 for the coupling rows and free sigma
for the convexity rows, so that at optimality

    c^T x* = -b^T pi* + d^T sigma*   (b is all ones in the master problem).

Right-hand sides must be nonnegative (true for coupling rows with b = 1 and
for demands), and every equality row needs a column whose only nonzero is a
positive entry in it (the bypass column in the master). A cold start then
begins at a known feasible basis with no phase 1: every slack plus, for each
equality row, its lowest-index such column; that basis is diagonal, so
x_B = (b_ub, b_eq / coef). The basis is kept as explicit column indices over
the layout [slacks | structural columns], so appending structural columns
never invalidates a previous basis.

Starts: `solve_lp(problem, basis=ids)` starts cold from a caller's basis
instead, one column id over [slacks | structural columns] per row, in basis
order. Both cold starts take one path: the basis is factored on entry and
must be feasible, so no phase 1 is needed. A start of another length, or a
singular one, raises ValueError, and one that is infeasible for the
right-hand side raises LPInternalError. `solve_lp(problem, basis=ids,
inverse=b_inv)` gives the start's inverse too (rows in basis order), which
is then checked, not factored: B b_inv must be the identity within
INVERSE_TOL, or ValueError is raised, as for a singular start.

`solve_lp(problem, warm=sol)` pivots on from a previous solution `sol` over
the same rows: from its basis, a copy of the basis inverse it ended on and
that inverse's factor age (the pivots applied since it was factored), so
the refactorization cadence spans solves. Nothing is factored on entry and
nothing falls back: a warm start over another row count raises ValueError,
and one whose basis is infeasible for the problem's right-hand side raises
LPInternalError; the caller decides whether to start cold.

Numerics: an explicit basis inverse, updated in place by one rank-one step
per pivot and rebuilt every REFACTOR_EVERY pivots. Only a cold start
without a given inverse is factored on entry, and the optimum is read off
the carried inverse with no final re-inversion. Every factorization is
built through the basis's structural block: a basic slack column is a unit
vector, so with S the rows whose slack is basic, R the other rows and J the
basic structural columns (|R| = |J|), B^-1 is K^-1 at (J, R) for
K = M[R, J], the identity at (slacks, S) and -M[S, J] K^-1 at (slacks, R).
Only K is factored. The slack-and-bypass start's K is one bypass column per
commodity; a refactorization within a column-generation solve finds about
95% of the basis structural on the `wide` and M bench scenes, so K is then
most of it.
Pricing is Dantzig's rule. Each run of DEGENERATE_RUN_LIMIT pivots of step
at most FEAS_TOL raises every basic value by a distinct amount near PERTURB
and sets the right-hand side to B x_B, which breaks the ties and keeps B
feasible. A perturbed solve reports that problem's x and, as objective, the
dual value -b^T pi + d^T sigma at the true b and d: a lower bound, since the
final basis is dual feasible for any right-hand side. An unbounded master
(impossible when every column lies in a convexity row) raises
LPInternalError, as does a solve that needs more than MAX_PIVOTS pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.blas import dger

FEAS_TOL = 1e-9
OPT_TOL = 1e-7
PIVOT_TOL = 1e-10
DEGENERATE_RUN_LIMIT = 50
PERTURB = 1e-7
REFACTOR_EVERY = 64
MAX_PIVOTS = 50_000
# Largest entry of B @ inverse - I that a start basis given with its inverse may leave.
INVERSE_TOL = 1e-9


class LPInternalError(RuntimeError):
    """Numerical corruption or structurally impossible outcome (unbounded)."""


@dataclass(frozen=True)
class LPProblem:
    """min obj @ x with a_ub x <= b_ub, a_eq x = b_eq, x >= 0; rhs >= 0."""

    obj: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self) -> None:
        obj = np.atleast_1d(np.asarray(self.obj, dtype=np.float64))
        n = obj.shape[0]
        a_ub = np.asarray(self.a_ub, dtype=np.float64).reshape(-1, n)
        a_eq = np.asarray(self.a_eq, dtype=np.float64).reshape(-1, n)
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=np.float64))
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=np.float64))
        if b_ub.shape[0] != a_ub.shape[0] or b_eq.shape[0] != a_eq.shape[0]:
            raise ValueError("right-hand side lengths do not match row counts")
        if (b_ub < 0).any() or (b_eq < 0).any():
            raise ValueError("right-hand sides must be nonnegative")
        for name, val in (
            ("obj", obj), ("a_ub", a_ub), ("b_ub", b_ub), ("a_eq", a_eq), ("b_eq", b_eq),
        ):
            object.__setattr__(self, name, val)

    @property
    def num_cols(self) -> int:
        return self.obj.shape[0]


@dataclass(frozen=True)
class LPSolution:
    """An optimal primal/dual solution and the basis it ends on.

    After a perturbed solve, x solves the perturbed problem and objective is
    a dual bound at the true right-hand side (module docstring). iterations
    counts the solve's pivots. inverse is the basis inverse the solve ended
    on, rows in basis order, and factor_age the pivots applied to it since
    it was last factored; `solve_lp(problem, warm=sol)` pivots on from
    basis, inverse and factor_age.
    """

    objective: float
    x: np.ndarray
    pi: np.ndarray
    sigma: np.ndarray
    basis: tuple[int, ...]
    iterations: int
    inverse: np.ndarray
    factor_age: int


def _crash_basis(problem: LPProblem) -> np.ndarray:
    """The cold-start basis of the module docstring."""
    mi = problem.a_ub.shape[0]
    a_eq = problem.a_eq
    solo = ~problem.a_ub.any(axis=0) & (np.count_nonzero(a_eq, axis=0) == 1)
    usable = solo & (a_eq > 0)  # per equality row
    found = usable.any(axis=1)
    if not found.all():
        raise ValueError(
            f"equality row {int(np.argmin(found))} has no column whose only nonzero is a "
            "positive entry in it"
        )
    return np.concatenate((np.arange(mi), mi + usable.argmax(axis=1))).astype(np.intp)


def _basis_inverse(M: np.ndarray, basis: Sequence[int], mi: int) -> np.ndarray:
    """Inverse of M[:, basis] built through its structural block.

    Columns 0..mi-1 of M are the coupling rows' slacks (see the module
    docstring for the block layout). Raises np.linalg.LinAlgError when the
    structural block is singular, or not square (a slack listed twice).
    """
    m = M.shape[0]
    basis_arr = np.asarray(basis, dtype=np.intp)
    slack = basis_arr < mi
    slack_pos = np.flatnonzero(slack)
    struct_pos = np.flatnonzero(~slack)
    s_rows = basis_arr[slack_pos]
    cols = basis_arr[struct_pos]
    in_r = np.ones(m, dtype=bool)
    in_r[s_rows] = False
    r_rows = np.flatnonzero(in_r)
    k_inv = np.linalg.inv(M[np.ix_(r_rows, cols)])
    b_inv = np.zeros((m, m))
    b_inv[np.ix_(struct_pos, r_rows)] = k_inv
    b_inv[np.ix_(slack_pos, r_rows)] = -(M[np.ix_(s_rows, cols)] @ k_inv)
    b_inv[slack_pos, s_rows] = 1.0
    return b_inv


def _iterate(M, mi, c, rhs, basis, b_inv, age):
    """Simplex loop from a feasible basis to the optimum; returns (pivots, age).

    basis is an np.intp array; it, b_inv and rhs are updated in place. age
    counts the pivots applied to b_inv since it was factored, and the
    refactorization cadence continues from it. pivots counts the pivots
    taken: the pricing pass that finds no entering column takes none.
    """
    m = M.shape[0]
    xb = b_inv @ rhs
    c_b = c[basis]  # follows basis pivot by pivot
    degen_run = 0
    pivots = 0
    while True:
        y = c_b @ b_inv
        reduced = c - y @ M
        reduced[basis] = 0.0
        enter = int(reduced.argmin())
        if reduced[enter] >= -OPT_TOL:
            return pivots, age
        if pivots >= MAX_PIVOTS:
            raise LPInternalError(f"no optimum within MAX_PIVOTS ({MAX_PIVOTS}) pivots")
        direction = b_inv @ M[:, enter]
        pos = (direction > PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            raise LPInternalError(
                "unbounded master LP; every column must lie in a convexity row"
            )
        ratios = xb[pos] / direction[pos]
        theta = ratios.min()
        ties = pos[ratios <= theta + 1e-12]
        leave = int(ties[basis[ties].argmin()])  # lowest basis index on ties
        theta = max(xb[leave] / direction[leave], 0.0)

        piv_row = b_inv[leave] / direction[leave]
        # b_inv -= outer(direction, piv_row), in place on the C-ordered array
        dger(-1.0, piv_row, direction, a=b_inv.T, overwrite_a=True)
        b_inv[leave] = piv_row
        xb -= theta * direction
        xb[leave] = theta
        np.maximum(xb, 0.0, out=xb)
        basis[leave] = enter
        c_b[leave] = c[enter]
        pivots += 1

        # A step within FEAS_TOL is rounding noise on a degenerate vertex, not
        # progress: it must not end the run in the middle of a stall.
        degen_run = degen_run + 1 if theta <= FEAS_TOL else 0
        if degen_run >= DEGENERATE_RUN_LIMIT:
            # distinct raises break the ties; rhs = B x_B keeps B feasible
            xb += PERTURB * (1.0 + np.modf(0.618 * np.arange(m))[0])
            rhs[:] = M[:, basis] @ xb
            degen_run = 0

        age += 1
        if age >= REFACTOR_EVERY:
            age = 0
            try:
                b_inv[:, :] = _basis_inverse(M, basis, mi)
            except np.linalg.LinAlgError as exc:
                raise LPInternalError("singular basis during refactorization") from exc
            xb = b_inv @ rhs
            if m and xb.min() < -1e-6:
                raise LPInternalError("feasibility lost; basis update diverged")
            np.maximum(xb, 0.0, out=xb)


def solve_lp(
    problem: LPProblem,
    warm: LPSolution | None = None,
    basis: Sequence[int] | None = None,
    inverse: np.ndarray | None = None,
) -> LPSolution:
    """Solve the master-shaped LP; see module docstring for conventions.

    warm is a solution returned by a previous call over the same rows;
    extra structural columns may have been appended since. The solve pivots
    on from its basis, a copy of its inverse and its factor age. A warm
    start over another row count raises ValueError, and one whose basis is
    infeasible for the right-hand side raises LPInternalError.

    Without warm the solve starts cold from basis: one column id over
    [slacks | structural columns] per row, which is factored on entry. It
    defaults to the slack-and-bypass basis, and then an equality row without
    a column whose only nonzero is a positive entry in it raises ValueError.
    A basis of another length, with an id out of range, or singular raises
    ValueError; an infeasible one raises LPInternalError.

    inverse, given with basis, is the start's inverse, rows in basis order.
    Nothing is then factored: the solve checks that the basis matrix times
    inverse is the identity within INVERSE_TOL, and a copy of it is carried.
    One of another shape, or one that fails the check (as every matrix
    does for a singular basis), raises ValueError. Passing warm with basis
    or inverse, or inverse without basis, raises ValueError.
    """
    mi = problem.a_ub.shape[0]
    me = problem.a_eq.shape[0]
    n = problem.num_cols
    m = mi + me
    M = np.zeros((m, mi + n))
    M[:mi, :mi] = np.eye(mi)
    M[:mi, mi:] = problem.a_ub
    M[mi:, mi:] = problem.a_eq
    b = np.concatenate([problem.b_ub, problem.b_eq])
    rhs = b.copy()
    c = np.concatenate([np.zeros(mi), problem.obj])

    if warm is None:
        if basis is None and inverse is not None:
            raise ValueError("an inverse is given with its start basis")
        basis = _crash_basis(problem) if basis is None else np.array(basis, dtype=np.intp)
        if basis.shape != (m,) or not ((basis >= 0) & (basis < mi + n)).all():
            raise ValueError(
                f"a start basis holds one column id below {mi + n} for each of {m} rows"
            )
        if inverse is None:
            try:
                b_inv = _basis_inverse(M, basis, mi)
            except np.linalg.LinAlgError as exc:
                raise ValueError("the start basis is singular") from exc
        else:
            b_inv = np.array(inverse, dtype=np.float64)  # _iterate updates it in place
            if b_inv.shape != (m, m):
                raise ValueError(f"a start basis's inverse is {m} x {m}")
            residual = M[:, basis] @ b_inv
            residual.flat[:: m + 1] -= 1.0  # B B^-1 - I
            if m and np.abs(residual).max() > INVERSE_TOL:
                raise ValueError("the given inverse does not invert the start basis")
        age = 0
        kind = "start"
    else:
        if basis is not None or inverse is not None:
            raise ValueError("a warm start carries its own basis")
        if len(warm.basis) != m:
            raise ValueError(f"warm start over {len(warm.basis)} rows, the problem has {m}")
        basis = np.array(warm.basis, dtype=np.intp)  # _iterate pivots on it in place
        b_inv, age = warm.inverse.copy(), warm.factor_age
        kind = "warm"
    if m and (b_inv @ rhs).min() < -FEAS_TOL:
        raise LPInternalError(f"{kind} basis is infeasible for the right-hand side")

    pivots, age = _iterate(M, mi, c, rhs, basis, b_inv, age)
    xb = b_inv @ rhs
    if m and xb.min() < -1e-7:
        raise LPInternalError(f"infeasible optimum: min basic value {xb.min():.3e}")
    np.clip(xb, 0.0, None, out=xb)
    x_full = np.zeros(mi + n)
    x_full[basis] = xb
    x = x_full[mi:]
    y = c[basis] @ b_inv
    pi = -y[:mi]
    if mi and pi.min() < -OPT_TOL:
        raise LPInternalError(f"coupling dual sign violation: min pi {pi.min():.3e}")
    np.clip(pi, 0.0, None, out=pi)
    sigma = y[mi:]
    objective = float(problem.obj @ x)
    dual_obj = float(-rhs[:mi] @ pi + rhs[mi:] @ sigma)
    if abs(objective - dual_obj) > 1e-6 * (1.0 + abs(objective)):
        raise LPInternalError(
            f"strong duality violated: primal {objective!r} vs dual {dual_obj!r}"
        )
    if (rhs != b).any():
        objective = float(-problem.b_ub @ pi + problem.b_eq @ sigma)
    return LPSolution(
        objective=objective,
        x=x,
        pi=pi,
        sigma=sigma,
        basis=tuple(basis.tolist()),
        iterations=pivots,
        inverse=b_inv,
        factor_age=age,
    )
