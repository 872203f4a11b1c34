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
never invalidates a previous basis: warm starts pivot on directly from the
old optimal basis.

Numerics: an explicit basis inverse, updated in place by one rank-one step
per pivot and rebuilt every REFACTOR_EVERY pivots. The inverse is carried
from one solve to the next: a solution returns the inverse it ended on and
the pivots since that inverse was factored, and a warm start that passes
both back pivots on from them, so the refactorization cadence spans solves.
Only a warm basis that arrives without an inverse, and a cold start, are
factored on entry, and the optimum is read off the carried inverse with no
final re-inversion. Every factorization is built through the basis's
structural block: a basic slack column is a unit vector, so with S the rows
whose slack is basic, R the other rows and J the basic structural columns
(|R| = |J|), B^-1 is K^-1 at (J, R) for K = M[R, J], the identity at
(slacks, S) and -M[S, J] K^-1 at (slacks, R).
Only K is factored. A cold start's K is one bypass column per commodity; a
refactorization within a column-generation solve finds about 95% of the
basis structural on the `wide` and M bench scenes, so K is then most of it.
Pricing is Dantzig's rule. Each run of DEGENERATE_RUN_LIMIT pivots of step
at most FEAS_TOL raises every basic value by a distinct amount near PERTURB
and sets the right-hand side to B x_B, which breaks the ties and keeps B
feasible. A perturbed solve reports that problem's x and, as objective, the
dual value -b^T pi + d^T sigma at the true b and d: a lower bound, since the
final basis is dual feasible for any right-hand side. An unbounded master
(impossible when every column lies in a convexity row) raises.
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

_OPTIMAL = 0
_UNBOUNDED = 1
_ITERLIMIT = 2


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
    """Primal/dual solution; status is 'optimal' or 'iteration-limit'.

    x, pi, sigma, basis and inverse are None unless status is 'optimal'.
    After a perturbed solve, x solves the perturbed problem and objective is
    a dual bound at the true right-hand side (module docstring). inverse is
    the basis inverse the solve ended on, rows in basis order, and
    factor_age the pivots applied to it since it was last factored: pass
    both back with basis to warm-start the next solve.
    """

    status: str
    objective: float
    x: np.ndarray | None
    pi: np.ndarray | None
    sigma: np.ndarray | None
    basis: tuple[int, ...] | None
    iterations: int
    inverse: np.ndarray | None = None
    factor_age: int = 0


def _crash_basis(problem: LPProblem) -> np.ndarray:
    """The cold-start basis of the module docstring."""
    mi = problem.a_ub.shape[0]
    a_eq = problem.a_eq
    solo = ~problem.a_ub.any(axis=0) & (np.count_nonzero(a_eq, axis=0) == 1)
    basis = list(range(mi))
    for r in range(a_eq.shape[0]):
        cols = np.flatnonzero(solo & (a_eq[r] > 0))
        if cols.size == 0:
            raise ValueError(
                f"equality row {r} has no column whose only nonzero is a positive entry in it"
            )
        basis.append(mi + int(cols[0]))
    return np.asarray(basis, dtype=np.intp)


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


def _iterate(M, mi, c, rhs, basis, b_inv, max_iter, age=0):
    """Simplex loop from a feasible basis; returns (code, iters, age).

    basis is an np.intp array; it, b_inv and rhs are updated in place. age
    counts the pivots applied to b_inv since it was factored, and the
    refactorization cadence continues from it.
    """
    m = M.shape[0]
    xb = b_inv @ rhs
    c_b = c[basis]  # follows basis pivot by pivot
    degen_run = 0
    iters = 0
    while iters < max_iter:
        iters += 1
        y = c_b @ b_inv
        reduced = c - y @ M
        reduced[basis] = 0.0
        enter = int(reduced.argmin())
        if reduced[enter] >= -OPT_TOL:
            return _OPTIMAL, iters, age
        direction = b_inv @ M[:, enter]
        pos = (direction > PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return _UNBOUNDED, iters, age
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
    return _ITERLIMIT, iters, age


def solve_lp(
    problem: LPProblem,
    warm_basis: Sequence[int] | None = None,
    max_iter: int = 50_000,
    warm_inverse: np.ndarray | None = None,
    factor_age: int = 0,
) -> LPSolution:
    """Solve the master-shaped LP; see module docstring for conventions.

    warm_basis is a basis returned by a previous call on the same row
    structure; extra structural columns may have been appended since.
    warm_inverse, when given, is that basis's inverse (a returned
    `LPSolution.inverse`) and factor_age its pivots since factorization; the
    solve pivots on a copy of it. Without it the warm basis is factored. A
    stale or infeasible warm basis falls back to a cold start silently. A
    cold start raises ValueError naming an equality row without a column
    whose only nonzero is a positive entry in it.
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

    basis: np.ndarray | None = None
    b_inv: np.ndarray | None = None
    age = 0
    if warm_basis is not None and len(warm_basis) == m:
        cand = np.array(warm_basis, dtype=np.intp)  # _iterate pivots on it in place
        if ((cand >= 0) & (cand < mi + n)).all() and np.unique(cand).size == m:
            if warm_inverse is not None:
                inv, age = np.array(warm_inverse), factor_age
            else:
                try:
                    inv = _basis_inverse(M, cand, mi)
                except np.linalg.LinAlgError:
                    inv = None
            if inv is not None and (m == 0 or (inv @ rhs).min() >= -FEAS_TOL):
                basis, b_inv = cand, inv

    if basis is None:
        basis = _crash_basis(problem)
        b_inv = _basis_inverse(M, basis, mi)
        age = 0

    code, iters, age = _iterate(M, mi, c, rhs, basis, b_inv, max_iter, age)
    if code == _UNBOUNDED:
        raise LPInternalError(
            "unbounded master LP; every column must lie in a convexity row"
        )
    if code == _ITERLIMIT:
        return LPSolution("iteration-limit", float("nan"), None, None, None, None, iters)

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
        status="optimal",
        objective=objective,
        x=x,
        pi=pi,
        sigma=sigma,
        basis=tuple(basis.tolist()),
        iterations=iters,
        inverse=b_inv,
        factor_age=age,
    )
