"""Dense two-phase revised simplex for restricted master problems.

Solves   min c^T x   s.t.   A x <= b  (coupling rows),
                            E x  = d  (convexity rows),
                            x >= 0,

with explicit dual extraction: pi >= 0 for the coupling rows and free sigma
for the convexity rows, so that at optimality

    c^T x* = -b^T pi* + d^T sigma*   (b is all ones in the master problem).

Right-hand sides must be nonnegative (true for coupling rows with b = 1 and
for demands). The basis is kept as explicit column indices over the layout
[slacks | structural columns], so appending structural columns never
invalidates a previous basis: warm starts re-enter phase 2 directly from the
old optimal basis. A caller that also adds inequality rows must map the old
basis onto the new layout itself and enter each new row with its slack
basic.

Numerics: explicit basis-inverse updates with periodic refactorization,
Dantzig pricing with a Bland's-rule fallback after a run of degenerate
pivots. Unboundedness cannot occur in well-formed master problems (every
column belongs to a convexity row with finite demand) and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

FEAS_TOL = 1e-9
OPT_TOL = 1e-7
PIVOT_TOL = 1e-10
DEGENERATE_RUN_LIMIT = 50
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
    """Primal/dual solution. pi/sigma/basis are only meaningful at 'optimal'.

    infeasible_row is the index of an equality row whose phase-1 artificial
    stayed positive (a Farkas-style witness) when status is 'infeasible'.
    """

    status: str
    objective: float
    x: np.ndarray | None
    pi: np.ndarray | None
    sigma: np.ndarray | None
    basis: tuple[int, ...] | None
    iterations: int
    infeasible_row: int | None = None


def _iterate(M, c, rhs, basis, b_inv, max_iter):
    """Phase 2 core loop. Mutates basis/b_inv; returns (code, iters)."""
    m = M.shape[0]
    xb = b_inv @ rhs
    bland = False
    degen_run = 0
    since_refactor = 0
    iters = 0
    while iters < max_iter:
        iters += 1
        y = c[basis] @ b_inv
        reduced = c - y @ M
        reduced[basis] = 0.0
        if bland:
            cands = np.flatnonzero(reduced < -OPT_TOL)
            if cands.size == 0:
                return _OPTIMAL, iters
            enter = int(cands[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -OPT_TOL:
                return _OPTIMAL, iters
        direction = b_inv @ M[:, enter]
        pos = np.flatnonzero(direction > PIVOT_TOL)
        if pos.size == 0:
            return _UNBOUNDED, iters
        ratios = xb[pos] / direction[pos]
        theta = ratios.min()
        ties = pos[ratios <= theta + 1e-12]
        basis_arr = np.asarray(basis)
        leave = int(ties[np.argmin(basis_arr[ties])])  # Bland-compatible
        theta = max(xb[leave] / direction[leave], 0.0)

        piv_row = b_inv[leave] / direction[leave]
        b_inv -= np.outer(direction, piv_row)
        b_inv[leave] = piv_row
        xb -= theta * direction
        xb[leave] = theta
        np.clip(xb, 0.0, None, out=xb)
        basis[leave] = enter

        if theta <= 1e-12:
            degen_run += 1
            if degen_run >= DEGENERATE_RUN_LIMIT:
                bland = True
        else:
            degen_run = 0
            bland = False

        since_refactor += 1
        if since_refactor >= REFACTOR_EVERY:
            since_refactor = 0
            try:
                b_inv[:, :] = np.linalg.inv(M[:, basis])
            except np.linalg.LinAlgError as exc:
                raise LPInternalError("singular basis during refactorization") from exc
            xb = b_inv @ rhs
            if m and xb.min() < -1e-6:
                raise LPInternalError("feasibility lost; basis update diverged")
            np.clip(xb, 0.0, None, out=xb)
    return _ITERLIMIT, iters


def _drive_out_artificials(M1, rhs, basis, b_inv, n_real):
    """Pivot zero-level artificials out of the basis where possible.

    Returns equality-row indices (positions in the basis) that are linearly
    dependent: their artificial cannot be replaced by any real column.
    """
    dependent: list[int] = []
    in_basis = set(basis)
    for pos in range(len(basis)):
        if basis[pos] < n_real:
            continue
        pivot_row = b_inv[pos] @ M1[:, :n_real]
        chosen = -1
        for col in np.flatnonzero(np.abs(pivot_row) > PIVOT_TOL):
            if int(col) not in in_basis:
                chosen = int(col)
                break
        if chosen < 0:
            dependent.append(pos)
            continue
        direction = b_inv @ M1[:, chosen]
        piv_row = b_inv[pos] / direction[pos]
        b_inv -= np.outer(direction, piv_row)
        b_inv[pos] = piv_row
        in_basis.discard(basis[pos])
        in_basis.add(chosen)
        basis[pos] = chosen
    return dependent


def solve_lp(
    problem: LPProblem,
    warm_basis: Sequence[int] | None = None,
    max_iter: int = 50_000,
) -> LPSolution:
    """Solve the master-shaped LP; see module docstring for conventions.

    warm_basis is a basis returned by a previous call on the same row
    structure; extra structural columns may have been appended since. A
    stale or infeasible warm basis falls back to a cold start silently.
    """
    mi = problem.a_ub.shape[0]
    me = problem.a_eq.shape[0]
    n = problem.num_cols
    m = mi + me
    M = np.zeros((m, mi + n))
    M[:mi, :mi] = np.eye(mi)
    M[:mi, mi:] = problem.a_ub
    M[mi:, mi:] = problem.a_eq
    rhs = np.concatenate([problem.b_ub, problem.b_eq])
    c = np.concatenate([np.zeros(mi), problem.obj])
    total_iters = 0

    basis: list[int] | None = None
    b_inv: np.ndarray | None = None
    if warm_basis is not None and len(warm_basis) == m:
        cand = [int(j) for j in warm_basis]
        if all(0 <= j < mi + n for j in cand) and len(set(cand)) == m:
            try:
                inv = np.linalg.inv(M[:, cand])
            except np.linalg.LinAlgError:
                inv = None
            if inv is not None and (m == 0 or (inv @ rhs).min() >= -FEAS_TOL):
                basis, b_inv = cand, inv

    if basis is None:
        # Phase 1: slacks cover the inequality rows, artificials the equalities.
        art = np.zeros((m, me))
        art[mi:, :] = np.eye(me)
        M1 = np.hstack([M, art])
        c1 = np.zeros(mi + n + me)
        c1[mi + n :] = 1.0
        basis = list(range(mi)) + list(range(mi + n, mi + n + me))
        b_inv = np.eye(m)
        code, iters = _iterate(M1, c1, rhs, basis, b_inv, max_iter)
        total_iters += iters
        if code == _UNBOUNDED:
            raise LPInternalError("phase 1 unbounded; objective is bounded below by 0")
        if code == _ITERLIMIT:
            return LPSolution("iteration-limit", float("nan"), None, None, None, None, total_iters)
        xb = b_inv @ rhs
        if float(c1[basis] @ xb) > OPT_TOL:
            bad_row = 0
            for pos, col in enumerate(basis):
                if col >= mi + n and xb[pos] > OPT_TOL:
                    bad_row = basis[pos] - (mi + n)
                    break
            return LPSolution(
                "infeasible", float("nan"), None, None, None, None, total_iters,
                infeasible_row=int(bad_row),
            )
        dependent = _drive_out_artificials(M1, rhs, basis, b_inv, mi + n)
        if dependent:
            # Consistent redundant equality rows: re-solve without them and
            # report zero duals on the removed rows.
            drop = sorted(basis[pos] - (mi + n) for pos in dependent)
            keep = [r for r in range(me) if r not in drop]
            reduced = LPProblem(
                obj=problem.obj,
                a_ub=problem.a_ub,
                b_ub=problem.b_ub,
                a_eq=problem.a_eq[keep],
                b_eq=problem.b_eq[keep],
            )
            sol = solve_lp(reduced, max_iter=max_iter)
            if sol.status != "optimal" or sol.sigma is None:
                return sol
            sigma = np.zeros(me)
            sigma[keep] = sol.sigma
            return LPSolution(
                sol.status, sol.objective, sol.x, sol.pi, sigma, None, sol.iterations,
            )

    code, iters = _iterate(M, c, rhs, basis, b_inv, max_iter)
    total_iters += iters
    if code == _UNBOUNDED:
        raise LPInternalError(
            "unbounded master LP; every column must lie in a convexity row"
        )
    if code == _ITERLIMIT:
        return LPSolution("iteration-limit", float("nan"), None, None, None, None, total_iters)

    try:
        b_inv = np.linalg.inv(M[:, basis])
    except np.linalg.LinAlgError as exc:
        raise LPInternalError("singular optimal basis") from exc
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
    dual_obj = float(-problem.b_ub @ pi + problem.b_eq @ sigma)
    if abs(objective - dual_obj) > 1e-6 * (1.0 + abs(objective)):
        raise LPInternalError(
            f"strong duality violated: primal {objective!r} vs dual {dual_obj!r}"
        )
    return LPSolution(
        status="optimal",
        objective=objective,
        x=x,
        pi=pi,
        sigma=sigma,
        basis=tuple(basis),
        iterations=total_iters,
    )
