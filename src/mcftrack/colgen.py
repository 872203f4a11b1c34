"""Column generation for the window network's path-flow master problem.

Each commodity's flow is a convex-integer combination of source-sink paths.
The restricted master problem (RMLP) couples path columns through unit
capacities on shared edges and per-commodity convexity rows at demand d_k.
It carries a coupling row only for the shared edges that some pooled column
uses; the row set grows as columns arrive. An untouched edge's slack sits at
its capacity 1 > 0 in every basic solution, so it is always basic and
complementary slackness makes its dual 0: reporting pi = 0 there is exact,
and the RMLP optimum is that of the master with every row.
Pricing solves a DAG shortest path per commodity under costs shifted by the
coupling duals pi on shared edges; the loop stops when every priced value
zeta_k clears its convexity dual sigma_k (the reduced-cost certificate), at
an iteration cap, or when pricing can only repeat pooled columns.

The certificate gap is epsilon = v_int - v_lp, where v_lp is the converged
RMLP value or, when stopping early, the Lagrangian bound
v_rmlp + sum_k d_k * min(0, zeta_k - sigma_k), which is dual-feasible and
therefore a true lower bound on the integer optimum. epsilon <= 1e-9 proves
the returned integer solution optimal.

The integer solution is the retained integral RMLP incumbent when it already
certifies, otherwise the exact integer optimum over the generated pool from
one MILP solve (price-and-branch: no pricing happens after the LP phase, so
v_lp stays the bound and v_int the cost of a checked selection). When the
gap stays open and the network is small enough to enumerate every
source-sink path within a fixed budget, the pool is enriched with the full
path set and extraction reruns once; larger networks keep the certified gap
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import LinearConstraint, milp

from .costs import CostVector
from .graph import FlowNetwork
from .lp import LPInternalError, LPProblem, LPSolution, solve_lp
from .oracle import OracleLimitError, enumerate_paths

CERT_TOL = 1e-7
INT_TOL = 1e-9
ITER_MAX_DEFAULT = 200

# Total path budget for the enrichment fallback; beyond it the certified
# near-optimal answer stands. Window networks of realistic size blow past
# this immediately, so enrichment effectively runs only on tiny instances.
ENRICH_PATH_BUDGET = 2048

# A pooled column repricing below sigma signals dual/tolerance inconsistency,
# but only beyond an order of magnitude of the certificate tolerance; smaller
# violations are float jitter between the LP's reduced costs and our recompute.
DUPLICATE_GUARD_TOL = 1e-6


class ColgenError(RuntimeError):
    pass


@dataclass(frozen=True)
class PathColumn:
    """One source-sink path of a commodity, as an ordered edge-id tuple."""

    commodity: int
    edges: tuple[int, ...]
    cost: float

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.commodity, self.edges)


@dataclass
class CGResult:
    status: str  # proven-optimal | near-optimal | iteration-limit
    v_lp: float
    v_int: float
    epsilon: float
    iterations: int
    columns: list[PathColumn]
    selection: list[list[tuple[PathColumn, int]]]  # per commodity: (path, units)
    flows: list[np.ndarray]  # per commodity integer edge flows
    pi: np.ndarray | None
    sigma: np.ndarray | None
    zetas: np.ndarray | None


def _path_edges(pred: list[int], tails: np.ndarray, node: int, source: int) -> tuple[int, ...]:
    edges: list[int] = []
    while node != source:
        e = pred[node]
        edges.append(e)
        node = int(tails[e])
    edges.reverse()
    return tuple(edges)


def shortest_path(
    network: FlowNetwork, commodity: int, costs: np.ndarray, pi: np.ndarray | None = None
) -> tuple[tuple[int, ...], float]:
    """Min-cost source-sink path for one commodity under pi-shifted costs.

    Exact-value ties resolve to the lexicographically smallest edge-id
    sequence. Returns (edge ids, shifted path cost); the bypass edge makes
    the sink always reachable.
    """
    ns = network.num_shared
    weights = np.asarray(costs, dtype=np.float64).copy()
    if pi is not None:
        weights[:ns] += pi
    inf = float("inf")
    dist = [inf] * network.num_nodes
    pred: list[int] = [-1] * network.num_nodes
    src = network.source(commodity)
    dist[src] = 0.0
    tails = network.tail
    heads = network.head
    for node in network.topological_order():
        base = dist[node]
        if base == inf:
            continue
        for e in network.out_edges(node, commodity):
            cand = base + weights[e]
            h = int(heads[e])
            if cand < dist[h]:
                dist[h] = cand
                pred[h] = e
            elif cand == dist[h] and pred[h] >= 0:
                old = _path_edges(pred, tails, h, src)
                new = _path_edges(pred, tails, node, src) + (e,)
                if new < old:
                    pred[h] = e
    sink = network.sink(commodity)
    return _path_edges(pred, tails, sink, src), dist[sink]


def price(
    network: FlowNetwork,
    commodity: int,
    values: np.ndarray,
    pi: np.ndarray | None,
) -> tuple[PathColumn, float]:
    """Price one commodity: shortest pi-shifted path and its value zeta_k.

    The returned column carries the unshifted path cost.
    """
    edges, zeta = shortest_path(network, commodity, values, pi)
    cost = float(sum(values[e] for e in edges))
    return PathColumn(commodity=commodity, edges=edges, cost=cost), zeta


def optimality_check(
    zetas: Sequence[float], sigmas: Sequence[float], tol: float = CERT_TOL
) -> bool:
    """Reduced-cost certificate: every zeta_k clears sigma_k within tol."""
    return bool(np.all(np.asarray(zetas) >= np.asarray(sigmas) - tol))


def lagrangian_lower_bound(
    v_rmlp: float,
    zetas: Sequence[float],
    sigmas: Sequence[float],
    demands: Sequence[int],
) -> float:
    """Valid lower bound on the master optimum from one pricing round."""
    gaps = np.minimum(0.0, np.asarray(zetas) - np.asarray(sigmas))
    return float(v_rmlp + np.asarray(demands) @ gaps)


def _master_problem(
    network: FlowNetwork, pool: Sequence[PathColumn]
) -> tuple[LPProblem, np.ndarray]:
    """Restricted master over the pooled columns, and its coupling rows.

    Coupling row i is the capacity of shared edge rows[i], where `rows` holds
    the sorted shared edges that some pooled column uses. Other shared edges
    carry no row: no column can load them, so their slack stays basic and
    their dual is 0.
    """
    ns = network.num_shared
    n = len(pool)
    a_eq = np.zeros((network.num_commodities, n))
    obj = np.zeros(n)
    hit_edges: list[int] = []
    hit_cols: list[int] = []
    for j, col in enumerate(pool):
        obj[j] = col.cost
        a_eq[col.commodity, j] = 1.0
        for e in col.edges:
            if e < ns:
                hit_edges.append(e)
                hit_cols.append(j)
    rows, row_of = np.unique(np.asarray(hit_edges, dtype=np.intp), return_inverse=True)
    a_ub = np.zeros((len(rows), n))
    a_ub[row_of, np.asarray(hit_cols, dtype=np.intp)] = 1.0
    d = network.demands.astype(np.float64)
    return LPProblem(obj=obj, a_ub=a_ub, b_ub=np.ones(len(rows)), a_eq=a_eq, b_eq=d), rows


def _grow_basis(
    basis: tuple[int, ...] | None, rows: np.ndarray, grown: np.ndarray
) -> tuple[int, ...] | None:
    """Carry a master basis over from coupling rows `rows` to `grown`.

    `grown` is sorted and contains `rows`; the rows it adds must be used
    only by columns that are nonbasic in `basis` (columns appended since).
    Each old slack follows its row to the row's new position, structural
    columns shift by the number of added rows, and each added row enters
    with its slack basic. The slacks of the added rows sit at b > 0, and the
    basis matrix is block triangular, so the result stays feasible and
    nonsingular. With no row added the basis maps to itself.
    """
    if basis is None or len(grown) == len(rows):
        return basis
    mi, added = len(rows), len(grown) - len(rows)
    slack_at = np.searchsorted(grown, rows)
    fresh = np.ones(len(grown), dtype=bool)
    fresh[slack_at] = False
    carried = [int(slack_at[j]) if j < mi else j + added for j in basis]
    return tuple(carried) + tuple(int(r) for r in np.flatnonzero(fresh))


def extract_integer(
    network: FlowNetwork, pool: Sequence[PathColumn]
) -> tuple[float, list[tuple[PathColumn, int]]]:
    """Exact integer optimum over the pooled columns, by one MILP solve.

    HiGHS (scipy.optimize.milp) solves the pooled master with every column
    integral at zero relative gap. The rounded units are re-checked exactly
    against the coupling and convexity rows, and the returned value is the
    cost of that checked selection. Among equal-value optima the selection
    is whichever HiGHS returns, which may differ from the one a depth-first
    branch and bound would reach first. Raises ColgenError when the check
    fails, the solver does not finish, or the pool admits no integer
    solution (unreachable when every commodity's bypass column is pooled).
    """
    prob, _ = _master_problem(network, pool)
    res = milp(
        prob.obj,
        integrality=np.ones(len(pool)),
        constraints=[
            LinearConstraint(prob.a_ub, -np.inf, prob.b_ub),
            LinearConstraint(prob.a_eq, prob.b_eq, prob.b_eq),
        ],
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        raise ColgenError("column pool admits no integer solution")
    if res.status != 0:
        raise ColgenError(f"integer master ended with status {res.status}: {res.message}")
    units = np.round(res.x)
    if (
        (units < 0).any()
        or (prob.a_ub @ units > prob.b_ub).any()
        or (prob.a_eq @ units != prob.b_eq).any()
    ):
        raise ColgenError("integer master solution violates the pool's rows")
    selection = [(pool[j], int(u)) for j, u in enumerate(units) if u > 0]
    return float(sum(col.cost * u for col, u in selection)), selection


def _decode_selection(
    pool: Sequence[PathColumn], lam: np.ndarray
) -> list[tuple[PathColumn, int]]:
    out = []
    for idx, val in enumerate(lam):
        units = int(round(float(val)))
        if units > 0:
            out.append((pool[idx], units))
    return out


def _group_selection(
    network: FlowNetwork, selection: Sequence[tuple[PathColumn, int]]
) -> tuple[list[list[tuple[PathColumn, int]]], list[np.ndarray]]:
    grouped: list[list[tuple[PathColumn, int]]] = [
        [] for _ in range(network.num_commodities)
    ]
    flows = [
        np.zeros(network.num_edges, dtype=np.int64)
        for _ in range(network.num_commodities)
    ]
    for col, units in selection:
        grouped[col.commodity].append((col, units))
        for e in col.edges:
            flows[col.commodity][e] += units
    for k, dem in enumerate(network.demands):
        carried = sum(units for _, units in grouped[k])
        if carried != int(dem):
            raise ColgenError(
                f"commodity {k} carries {carried} units, demand is {int(dem)}"
            )
    return grouped, flows


def _enrichment_columns(
    network: FlowNetwork, values: Sequence[np.ndarray], budget: int
) -> list[PathColumn] | None:
    """Every source-sink path of every commodity, or None over budget.

    Used only by the enrichment fallback; each commodity's enumeration stops
    as soon as the running path count crosses the budget.
    """
    cols: list[PathColumn] = []
    for k in range(network.num_commodities):
        try:
            paths = enumerate_paths(network, k, limit=budget - len(cols))
        except OracleLimitError:
            return None
        cols.extend(PathColumn(k, p, float(sum(values[k][e] for e in p))) for p in paths)
    return cols


def column_generation(
    network: FlowNetwork,
    cost_vectors: Sequence[CostVector],
    iter_max: int = ITER_MAX_DEFAULT,
) -> CGResult:
    """Run the full loop; see module docstring for the protocol.

    cost_vectors must be ordered by commodity and cover every edge id.
    """
    nc = network.num_commodities
    if iter_max < 1:
        raise ValueError(f"iter_max must be >= 1, got {iter_max}")
    if len(cost_vectors) != nc:
        raise ValueError(f"{len(cost_vectors)} cost vectors for {nc} commodities")
    for k, cv in enumerate(cost_vectors):
        if cv.commodity != k:
            raise ValueError(f"cost vector at position {k} labeled {cv.commodity}")
        if cv.values.shape[0] != network.num_edges:
            raise ValueError("cost vector length does not match edge count")
    values = [cv.values for cv in cost_vectors]
    ns = network.num_shared

    pool: list[PathColumn] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def add_column(col: PathColumn) -> bool:
        if col.key in seen:
            return False
        seen.add(col.key)
        pool.append(col)
        return True

    for k in range(nc):
        col, _ = price(network, k, values[k], None)
        add_column(col)
        bypass = network.bypass_edge(k)
        add_column(
            PathColumn(commodity=k, edges=(bypass,), cost=float(values[k][bypass]))
        )

    demands = network.demands
    incumbent: list[tuple[PathColumn, int]] | None = None
    v_incumbent = float("inf")
    best_bound = -float("inf")
    basis: tuple[int, ...] | None = None
    rows = np.zeros(0, dtype=np.intp)
    pi = np.zeros(ns)
    converged = False
    v_lp = float("nan")
    iterations = 0
    last: LPSolution | None = None
    zetas = np.zeros(nc)

    for _ in range(iter_max):
        iterations += 1
        prob, grown = _master_problem(network, pool)
        basis = _grow_basis(basis, rows, grown)
        rows = grown
        try:
            sol = solve_lp(prob, warm_basis=basis)
        except LPInternalError:
            if basis is None:
                raise
            # Long degenerate runs from a warm basis can drift the explicit
            # inverse; a cold start from the slack-and-bypass basis takes
            # another pivot path.
            sol = solve_lp(prob)
        if sol.status != "optimal":
            raise ColgenError(f"master LP ended with status {sol.status!r}")
        last = sol
        basis = sol.basis
        pi = np.zeros(ns)
        pi[rows] = sol.pi
        lam = sol.x
        if np.abs(lam - np.round(lam)).max() <= INT_TOL:
            cand = _decode_selection(pool, lam)
            cand_val = float(sum(c.cost * u for c, u in cand))
            if cand_val < v_incumbent:
                incumbent, v_incumbent = cand, cand_val

        priced = [price(network, k, values[k], pi) for k in range(nc)]
        zetas = np.array([z for _, z in priced])
        best_bound = max(
            best_bound,
            lagrangian_lower_bound(sol.objective, zetas, sol.sigma, demands),
        )
        if optimality_check(zetas, sol.sigma):
            v_lp = sol.objective
            converged = True
            break
        added = 0
        for k in range(nc):
            col, zeta = priced[k]
            if zeta >= sol.sigma[k] - CERT_TOL:
                continue
            if add_column(col):
                added += 1
            elif zeta - sol.sigma[k] < -DUPLICATE_GUARD_TOL:
                raise ColgenError(
                    f"pricing repeated a pooled column for commodity {k} "
                    f"with violation {zeta - sol.sigma[k]:.3e}; duals inconsistent"
                )
        if added == 0:
            # Only within-noise duplicates: fall back to the bound.
            v_lp = best_bound
            converged = True
            break
    else:
        v_lp = best_bound

    if incumbent is not None and v_incumbent - v_lp <= INT_TOL:
        v_int, selection = v_incumbent, incumbent
    else:
        mip_val, mip_sel = extract_integer(network, pool)
        if incumbent is not None and v_incumbent <= mip_val:
            v_int, selection = v_incumbent, incumbent
        else:
            v_int, selection = mip_val, mip_sel
        if v_int - v_lp > INT_TOL:
            # The pool may simply be missing the right columns; on a small
            # network the whole path set fits in the budget, making the
            # second extraction exact. Over budget, the certificate stands.
            extra = _enrichment_columns(network, values, ENRICH_PATH_BUDGET)
            if extra is not None:
                for col in extra:
                    add_column(col)
                rich_val, rich_sel = extract_integer(network, pool)
                if rich_val < v_int:
                    v_int, selection = rich_val, rich_sel

    epsilon = v_int - v_lp
    if epsilon <= INT_TOL:
        status = "proven-optimal"
    elif converged:
        status = "near-optimal"
    else:
        status = "iteration-limit"
    grouped, flows = _group_selection(network, selection)
    return CGResult(
        status=status,
        v_lp=v_lp,
        v_int=v_int,
        epsilon=epsilon,
        iterations=iterations,
        columns=pool,
        selection=grouped,
        flows=flows,
        pi=None if last is None else pi,
        sigma=None if last is None else last.sigma,
        zetas=zetas,
    )
