"""Column generation for the window network's path-flow master problem.

Each commodity's flow is a convex-integer combination of source-sink paths.
The restricted master problem (RMLP) couples path columns through unit
capacities on shared edges and per-commodity convexity rows at demand d_k.
It carries one coupling row per detection of the window, in detection order
and fixed from the first master solve, and none for transitions: the only
edge into v_i is u_i -> v_i, so a transition's load never exceeds its tail's.
Those rows are implied, so the RMLP duals with pi = 0 on every transition
are exact: optimal for the master with every row, at the same optimum. A
detection that no pooled column visits has an all-zero row, whose slack
stays basic at 1 with dual 0; on the bench scenes 0.6-2.4% of the rows are
such. Since the rows never change, a round only appends columns, and each
master solve warm-starts from the previous one's basis and inverse as they
are.
Pricing finds every commodity's shortest path under costs shifted by the
coupling duals pi on shared edges, in one numpy sweep over the frame layers
of the window (detections of one frame form a contiguous range, and every
transition leaves an earlier one); the loop stops when every priced value
zeta_k clears its convexity dual sigma_k (the reduced-cost certificate), at
an iteration cap, or when pricing can only repeat pooled columns. The dummy
commodity carries up to d0 units, so when its shortest path is the only one
that prices negative, the round also routes all d0 of them under the
pi-shifted costs as one min-cost assignment (`_dummy_flow`, the routine that
solves dummy-only windows below). Every path of that flow whose shifted cost
prices negative joins the pool, so one round can add up to d0
detection-disjoint dummy paths. The bound and the certificate read only the
pricing sweep.

Each time a tracked commodity's priced column joins the pool (in the initial
pricing and in every round), its sub-path family joins with it
(`_sub_paths`): for a path over detections d_1..d_m, the path without d_x
for each x (an interior d_x only where the transition d_{x-1} -> d_{x+1}
exists), and for m > 2 the single-detection paths [d_1] and [d_m]. The
master's duals are degenerate: a round's vertex tends to put a track path's
whole dual on one of its detections, and the next round then prices that
path less the detection, round after round at an unchanged master value.
Pooling the family up front is the primal side of the dual-optimal
inequalities of Ben Amor, Desrosiers and Valerio de Carvalho (Operations
Research 54(3), 2006). It is sound because every member is a real
source-sink path of its commodity at its true cost: the master stays a
restriction of the full path master, so v_lp, the certificate, L(pi) and
the enumeration below keep their meaning. The dummy's columns, the
enumerated columns and the members themselves bring no family.

The certificate gap is epsilon = v_int - v_lp, where v_lp is the converged
RMLP value v_rmlp or, when stopping early, the Lagrangian bound
v_rmlp + sum_k d_k * min(0, zeta_k - sigma_k), which is dual-feasible and
therefore a true lower bound on the integer optimum. v_rmlp is the master
solve's objective: the RMLP optimum, or, when the solve perturbed its
right-hand side to leave a degenerate stall, the duals' value at the true
right-hand side, a lower bound on that optimum (see `lp`), so v_lp stays a
lower bound. epsilon <= 1e-9 proves the returned integer solution optimal.
A bound above v_int by at most 1e-9 is rounding and reported as v_int, so
epsilon >= 0; a larger excess raises.

The integer solution is the retained integral RMLP incumbent when it already
certifies (the best master solution whose rounding moves no value by more
than ROUND_TOL and meets the true rows exactly), otherwise the exact integer
optimum over the generated pool from one MILP solve (price-and-branch: no
pricing happens after the LP phase, so v_lp stays the bound and v_int the
cost of a checked selection). When that leaves v_int - v_lp > INT_TOL, the
last pricing round's duals pi >= 0 and values zeta_k bound every selection
x, with x_p units on path p of commodity k(p):

    cost(x) >= L(pi) + sum_p rc_p x_p,  L(pi) = -sum(pi) + sum_k d_k zeta_k,

where rc_p >= 0 is p's pi-shifted cost less zeta_k(p): the shifted costs
add pi_e times each shared edge's load, which is at most 1, and each
commodity's x_p sum to d_k. So every column of a selection cheaper than
v_int has rc_p < v_int - L(pi). `_bounded_columns` enumerates exactly those
paths, and when one of them is new to the pool extraction reruns over the
enumerated paths alone: a cheaper selection uses no other column, and when
they admit no integer solution v_int stands. Either way v_int is then the
integer optimum over all paths, and an epsilon left is a true integrality
gap against the LP bound. Past ENUM_COLUMN_CAP columns the enumeration gives
up and the certified gap stands.

A window whose only commodity is the dummy (every stream start, every window
with no tracked target) skips all of this. It is a single-commodity
min-cost flow of d0 units with unit capacity on the shared edges, whose LP
is integral, so `_dummy_flow` at pi = 0 solves it exactly by one assignment
solve: no pricing tables, no master LP, no pricing round and no MILP. The
assignment reads the dummy's cost vector directly. It reports
proven-optimal with epsilon 0, one iteration, no pivots and no duals.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import LinearConstraint, linear_sum_assignment, milp

from .costs import CostVector
from .graph import FlowNetwork
from .lp import PERTURB, LPInternalError, LPProblem, solve_lp

CERT_TOL = 1e-7
INT_TOL = 1e-9
ITER_MAX_DEFAULT = 200

# A master solve that perturbed its right-hand side leaves lam off an integral
# vertex by a few PERTURB per perturbation (up to about 2e-6 on the M scene's
# windows); a fractional vertex of these masters sits far beyond this.
ROUND_TOL = 1e3 * PERTURB

# Most columns the reduced-cost enumeration may return; beyond it the
# certified gap stands.
ENUM_COLUMN_CAP = 2048

# A pooled column repricing below sigma signals dual/tolerance inconsistency,
# but only beyond an order of magnitude of the certificate tolerance; smaller
# violations are float jitter between the LP's reduced costs and our recompute.
DUPLICATE_GUARD_TOL = 1e-6

class ColgenError(RuntimeError):
    pass


class NoIntegerSolution(ColgenError):
    """The column pool admits no integer solution."""


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
    pivots: int  # master LP pivots, summed over the window's solves
    columns: list[PathColumn]
    selection: list[list[tuple[PathColumn, int]]]  # per commodity: (path, units)
    flows: list[np.ndarray]  # per commodity integer edge flows
    # the last pricing round's duals and values; None for a dummy-only window
    pi: np.ndarray | None
    sigma: np.ndarray | None
    zetas: np.ndarray | None


@dataclass
class _Layer:
    """Detections [lo, hi) of one frame and their slice of the candidates.

    `buf` is the layer's slice of the candidate buffer and `seg` its segment
    starts, relative to the layer. Transition columns `pos` are refilled on
    every round, from tail detections `tails` and the transitions [ta, tb)
    of the head-sorted order.
    """

    lo: int
    hi: int
    buf: np.ndarray
    seg: np.ndarray
    pos: np.ndarray
    tails: np.ndarray
    ta: int
    tb: int


@dataclass
class PricingTables:
    """One window's edge costs split by kind, and its frame layers.

    values stacks the cost vectors, one CostVector per row; shared (nc x
    num_shared), term (nc x N) and bypass (nc) are its slices, and rows
    holds each row as a list, from which path costs are summed. The candidate
    buffer `buf` holds, per head u_j in detection order, a segment of its
    incoming transitions by edge id followed by its start edge; `seg` are
    the segment starts (then the end), `seg_of` each column's head and
    `edge` each column's edge id (-1 for a start). Start columns hold
    0.0 + start cost, as does bypass: the first step of a sum from the
    source. trans_edges lists the transition edge ids by head, then edge id.
    """

    network: FlowNetwork
    values: np.ndarray
    rows: list[list[float]]
    shared: np.ndarray
    term: np.ndarray
    bypass: np.ndarray
    buf: np.ndarray
    seg: np.ndarray
    seg_of: np.ndarray
    edge: np.ndarray
    trans_edges: np.ndarray
    layers: list[_Layer]

    @classmethod
    def build(cls, network: FlowNetwork, values: Sequence[np.ndarray]) -> PricingTables:
        """Tables for the commodities' cost vectors, ordered by commodity.

        Detections are frame-sorted and transitions advance in frame
        (network_from_parts enforces both), so each frame is a contiguous
        detection range whose incoming transitions all leave earlier ones.
        """
        nc, n, ns = network.num_commodities, network.num_detections, network.num_shared
        stack = np.stack(values)
        if not np.isfinite(stack).all():
            raise ValueError("pricing needs finite costs on every edge")
        shared, term = stack[:, :ns], stack[:, ns + n : ns + 2 * n]
        start, bypass = stack[:, ns : ns + n] + 0.0, stack[:, -1] + 0.0

        order = np.argsort(network.det_b[n:ns], kind="stable")  # by head, then edge id
        t_tail, t_head, t_edge = network.det_a[n + order], network.det_b[n + order], n + order
        into = np.bincount(t_head, minlength=n)
        before = np.r_[0, np.cumsum(into)]  # transitions into earlier heads
        seg = np.arange(n + 1) + before
        pos = np.arange(t_head.size) + t_head
        edge = np.full(seg[-1], -1, dtype=np.intp)
        edge[pos] = t_edge
        buf = np.empty((nc, seg[-1]))
        buf[:, seg[1:] - 1] = start

        cuts = np.flatnonzero(np.diff(network.frames)) + 1
        layers = []
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]) if n else ():
            c0, c1, a, b = seg[lo], seg[hi], before[lo], before[hi]
            layers.append(_Layer(
                lo=int(lo), hi=int(hi), buf=buf[:, c0:c1], seg=seg[lo:hi] - c0,
                pos=pos[a:b] - c0, tails=t_tail[a:b], ta=int(a), tb=int(b),
            ))
        seg_of = np.repeat(np.arange(n), into + 1)
        return cls(network, stack, stack.tolist(), shared, term, bypass, buf, seg, seg_of, edge,
                   t_edge, layers)


def _path_cost(row: list[float], network: FlowNetwork, k: int, edges: Sequence[int]) -> float:
    """Commodity k's cost of a path, summed in path order from its cost vector as a list.

    Edge e sits at FlowNetwork.cost_index(k, e). Every column's cost is
    summed here, so a path pooled twice carries the same cost both times.
    """
    ns, shift = network.num_shared, k * (2 * network.num_detections + 1)
    total = 0.0
    for e in edges:
        total += row[e] if e < ns else row[e - shift]
    return total


def _path_to_v(network: FlowNetwork, pred: list[int], k: int, i: int) -> list[int]:
    """Edge ids of commodity k's chosen path from its source to v_i.

    pred[j] is the transition edge into u_j, or -1 for the start edge.
    """
    edges = [i]
    e = pred[i]
    while e >= 0:
        i = network.transitions[e - network.num_detections][0]
        edges += (e, i)
        e = pred[i]
    edges.append(network.start_edge(k, i))
    edges.reverse()
    return edges


def _sweep(tables: PricingTables, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every commodity's shortest distances from its source to each u and v node.

    `w` holds the shared-edge costs, one row per commodity. A head's
    distance is the segment minimum over its candidates (each tail distance
    plus the transition cost, and the start edge), as a per-node DAG sweep
    would compute it; the transition candidates are written into
    `tables.buf`.
    """
    n = tables.network.num_detections
    w_trans = w[:, tables.trans_edges]
    nc = w.shape[0]
    reach = np.empty((nc, n))  # at the u nodes
    dist = np.empty((nc, n))  # at the v nodes
    for lay in tables.layers:
        lo, hi = lay.lo, lay.hi
        if lay.pos.size:
            lay.buf[:, lay.pos] = dist[:, lay.tails] + w_trans[:, lay.ta : lay.tb]
        np.minimum.reduceat(lay.buf, lay.seg, axis=1, out=reach[:, lo:hi])
        np.add(reach[:, lo:hi], w[:, lo:hi], out=dist[:, lo:hi])
    return reach, dist


def price(
    tables: PricingTables, pi: np.ndarray | None
) -> tuple[list[PathColumn], np.ndarray]:
    """Price every commodity: shortest pi-shifted path and its value zeta_k.

    One sweep over the frame layers relaxes all commodities at once under
    the pi-shifted shared costs. Exact-value ties resolve to the
    lexicographically smallest edge-id sequence; only truly tied
    (commodity, node) entries compare paths. Returns one column per
    commodity, carrying its unshifted path cost, and the zetas; the bypass
    makes every sink reachable.
    """
    net = tables.network
    n = net.num_detections
    nc = tables.shared.shape[0]
    reach, dist = _sweep(tables, tables.shared if pi is None else tables.shared + pi)

    via = np.full(nc, -1)  # detection each commodity terminates from, -1: bypass
    zetas = tables.bypass.copy()
    if n:
        # The edge into each u node (-1: start). A start loses every tie: a
        # path through a transition begins at the start edge of a lower
        # detection. So a head takes its one minimizing transition, else
        # the start; where several transitions tie, paths are compared, in
        # detection order so that every tail's path is settled first.
        hit_edge = np.where(tables.buf == reach[:, tables.seg_of], tables.edge, -1)
        pred = np.maximum.reduceat(hit_edge, tables.seg[:-1], axis=1)
        hits = hit_edge >= 0
        if np.count_nonzero(hits) > np.count_nonzero(pred >= 0):
            tied = np.add.reduceat(hits, tables.seg[:-1], axis=1, dtype=np.intp) > 1
            for k in np.flatnonzero(tied.any(axis=1)):
                pred_k = pred[k].tolist()
                for h in np.flatnonzero(tied[k]).tolist():
                    c0, c1 = tables.seg[h], tables.seg[h + 1]
                    pred_k[h] = min(
                        tables.edge[c0:c1][hits[k, c0:c1]].tolist(),
                        key=lambda e: _path_to_v(net, pred_k, k, net.transitions[e - n][0]) + [e],
                    )
                pred[k] = pred_k

        cand = dist + tables.term
        via = cand.argmin(axis=1)
        ends = cand[np.arange(nc), via]
        # on an exact tie a detection path precedes the bypass edge
        wins = ends <= zetas
        zetas[wins] = ends[wins]
        via[~wins] = -1
        preds = pred.tolist()
        tied = wins & ((cand == ends[:, None]).sum(axis=1) > 1)
        for k in np.flatnonzero(tied):
            pred_k = preds[k]
            via[k] = min(
                np.flatnonzero(cand[k] == ends[k]).tolist(),
                key=lambda i: _path_to_v(net, pred_k, k, i) + [net.term_edge(k, i)],
            )

    columns = []
    for k in range(nc):
        i = int(via[k])
        if i < 0:
            edges: tuple[int, ...] = (net.bypass_edge(k),)
        else:
            edges = tuple(_path_to_v(net, preds[k], k, i)) + (net.term_edge(k, i),)
        columns.append(PathColumn(k, edges, _path_cost(tables.rows[k], net, k, edges)))
    return columns, zetas


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


class _Pool:
    """Pooled columns, each once, and what the master LP reads of each.

    Per column it records the cost, the commodity, and the detections the
    column visits (as parallel hit lists), so building the master walks no
    column's edges again. Indexing and iteration give the columns.
    """

    def __init__(self, network: FlowNetwork, columns: Sequence[PathColumn] = ()) -> None:
        self.network = network
        self.num_detections = network.num_detections
        self.columns: list[PathColumn] = []
        self.keys: set[tuple[int, tuple[int, ...]]] = set()
        self.costs: list[float] = []
        self.owners: list[int] = []
        self.hit_dets: list[int] = []
        self.hit_cols: list[int] = []
        for col in columns:
            self.add(col)

    def add(self, col: PathColumn) -> bool:
        """Pool `col` unless the same path of its commodity is pooled; True if added."""
        key = col.key
        if key in self.keys:
            return False
        self.keys.add(key)
        j = len(self.columns)
        self.columns.append(col)
        self.costs.append(col.cost)
        self.owners.append(col.commodity)
        n = self.num_detections
        hits = [e for e in col.edges if e < n]  # e < n: the observation edge of detection e
        self.hit_dets += hits
        self.hit_cols += [j] * len(hits)
        return True

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, j: int) -> PathColumn:
        return self.columns[j]

    def __iter__(self):
        return iter(self.columns)

    def master(self) -> LPProblem:
        """Restricted master over the pooled columns.

        Coupling row i is the capacity of detection i, for every detection
        of the window, so the rows never change as columns join: a detection
        that no pooled column visits has an all-zero row. Other shared edges
        carry no row: their loads are bounded by these rows (module
        docstring), so their dual is 0.
        """
        net = self.network
        n = len(self.columns)
        a_eq = np.zeros((net.num_commodities, n))
        a_eq[np.asarray(self.owners, dtype=np.intp), np.arange(n)] = 1.0
        obj = np.asarray(self.costs, dtype=np.float64)
        hits = np.asarray(self.hit_dets, dtype=np.intp), np.asarray(self.hit_cols, dtype=np.intp)
        a_ub = np.zeros((self.num_detections, n))
        a_ub[hits] = 1.0
        d = net.demands.astype(np.float64)
        b_ub = np.ones(self.num_detections)
        return LPProblem(obj=obj, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=d)


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
    solution (NoIntegerSolution; unreachable when every commodity's bypass
    column is pooled).
    A plain sequence is pooled first, which drops repeated columns.
    """
    if not isinstance(pool, _Pool):
        pool = _Pool(network, pool)
    prob = pool.master()
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
        raise NoIntegerSolution("column pool admits no integer solution")
    if res.status != 0:
        raise ColgenError(f"integer master ended with status {res.status}: {res.message}")
    units = np.round(res.x)
    if not _meets_rows(prob, units):
        raise ColgenError("integer master solution violates the pool's rows")
    selection = _decode_selection(pool, units)
    return float(sum(col.cost * u for col, u in selection)), selection


def _meets_rows(prob: LPProblem, units: np.ndarray) -> bool:
    """Whether integral units satisfy the master's true rows exactly."""
    return not (
        (units < 0).any()
        or (prob.a_ub @ units > prob.b_ub).any()
        or (prob.a_eq @ units != prob.b_eq).any()
    )


def _decode_selection(
    pool: Sequence[PathColumn], lam: np.ndarray
) -> list[tuple[PathColumn, int]]:
    """The pooled columns with a positive rounded value, and their units."""
    units = np.round(lam)
    return [(pool[j], int(units[j])) for j in np.flatnonzero(units > 0).tolist()]


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
        flows[col.commodity][list(col.edges)] += units  # a path repeats no edge
    for k, dem in enumerate(network.demands):
        carried = sum(units for _, units in grouped[k])
        if carried != int(dem):
            raise ColgenError(
                f"commodity {k} carries {carried} units, demand is {int(dem)}"
            )
    return grouped, flows


def _bounded_columns(
    tables: PricingTables, pi: np.ndarray, zetas: np.ndarray, gap: float
) -> list[PathColumn] | None:
    """Every path whose pi-shifted cost is below zeta_k + gap, or None past the cap.

    Paths grow back from each commodity's sink by a DFS. A partial path
    from v_t to the sink is kept only while the shortest shifted distance
    from the source to v_t (the pricing sweep's) plus its own shifted cost
    stays below the limit, so every kept partial path completes to at least
    one listed path and the search visits little beyond its output. Columns
    carry their unshifted cost and come per commodity in edge-id order,
    bypass last. Returns None as soon as more than ENUM_COLUMN_CAP are found.
    """
    net = tables.network
    n = net.num_detections
    w = tables.shared + pi
    _, dist = _sweep(tables, w)
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (tail, edge) by head
    for p, (i, j) in enumerate(net.transitions):
        into[j].append((i, n + p))
    cols: list[PathColumn] = []
    for k in range(net.num_commodities):
        limit = float(zetas[k]) + gap
        w_k, dist_k = w[k].tolist(), dist[k].tolist()
        start = tables.values[k, net.num_shared : net.num_shared + n].tolist()
        term = tables.term[k].tolist()
        paths: list[tuple[int, ...]] = []
        budget = ENUM_COLUMN_CAP - len(cols)

        def grow(j: int, suffix: tuple[int, ...], s: float) -> None:
            # suffix runs from u_j to the sink at shifted cost s
            if len(paths) > budget:
                return
            if start[j] + s < limit:
                paths.append((net.start_edge(k, j),) + suffix)
            for t, e in into[j]:
                s_t = w_k[e] + s
                if dist_k[t] + s_t < limit:
                    grow(t, (t, e) + suffix, w_k[t] + s_t)

        for i in range(n):
            if dist_k[i] + term[i] < limit:
                grow(i, (i, net.term_edge(k, i)), w_k[i] + term[i])
        if tables.bypass[k] < limit:
            paths.append((net.bypass_edge(k),))
        if len(paths) > budget:
            return None
        row = tables.rows[k]
        cols.extend(PathColumn(k, p, _path_cost(row, net, k, p)) for p in sorted(paths))
    return cols


def _sub_paths(network: FlowNetwork, row: list[float], col: PathColumn) -> list[PathColumn]:
    """The sub-path family of a tracked commodity's path over detections d_1..d_m.

    It holds the path without d_x for each x (an interior d_x only where the
    transition d_{x-1} -> d_{x+1} exists), then, for m > 2, the
    single-detection paths [d_1] and [d_m]: each a source-sink path of the
    commodity, costed from its cost list `row` as `price` costs it. A path
    of fewer than two detections has none.
    """
    k, edges = col.commodity, col.edges
    m = (len(edges) - 1) // 2  # d_x is edge 2x - 1, and d_x -> d_x+1 is edge 2x
    if m < 2:
        return []
    trans = network.transitions
    paths = [(network.start_edge(k, edges[3]),) + edges[3:]]
    for x in range(2, m):
        pair = (edges[2 * x - 3], edges[2 * x + 1])
        p = bisect_left(trans, pair)
        if p < len(trans) and trans[p] == pair:  # transition p is edge n + p
            paths.append(edges[: 2 * x - 2] + (network.num_detections + p,) + edges[2 * x + 1 :])
    paths.append(edges[: 2 * m - 2] + (network.term_edge(k, edges[2 * m - 3]),))
    if m > 2:
        paths.append(edges[:2] + (network.term_edge(k, edges[1]),))
        paths.append((network.start_edge(k, edges[-2]),) + edges[-2:])
    return [PathColumn(k, p, _path_cost(row, network, k, p)) for p in paths]


def _dummy_flow(
    network: FlowNetwork, values: np.ndarray, pi: np.ndarray | None = None
) -> list[PathColumn]:
    """Route the dummy's d0 units by one assignment solve under pi-shifted costs.

    `values` is the dummy's cost vector. The dummy's flow is a min-cost flow
    of d0 units with unit capacity on the shared edges, each shifted by pi.
    Each detection carries at most one unit and every transition advances
    in frame, so the flow is a min-cost assignment, which
    `linear_sum_assignment` solves exactly. Rows are the v nodes, then
    d0 source units; columns are the u nodes, then d0 sink units. Row v_t
    picks u_j to leave along transition t -> j, a sink unit to terminate, or
    its own u_t (at cost 0) to carry nothing; a source unit picks u_j to
    start at j or a sink unit to take the bypass. A pick of u_j adds j's
    shifted observation cost, and a pair with no edge costs +inf.
    Transitions admit no cycle, so the picks chain each source unit to a
    sink unit along one path, and the paths are detection-disjoint.

    Returns the paths as columns with their unshifted costs, ordered by
    first detection.
    """
    n, ns = network.num_detections, network.num_shared
    d0 = int(network.demands[0])
    w = values[:ns] if pi is None else values[:ns] + pi
    tails, heads = network.det_a[n:ns], network.det_b[n:ns]
    cost = np.full((n + d0, n + d0), np.inf)
    cost[tails, heads] = w[n:] + w[heads]
    cost[n:, :n] = values[ns : ns + n] + w[:n]
    cost[:n, n:] = values[ns + n : ns + 2 * n, None]
    cost[n:, n:] = values[ns + 2 * n]
    cost[np.arange(n), np.arange(n)] = 0.0
    _, pick = linear_sum_assignment(cost)
    # the transition v_t -> u_pick[t], where there is one: keys sort as the ids
    via = (n + np.searchsorted(tails * n + heads, np.arange(n) * n + pick[:n])).tolist()
    pick, row = pick.tolist(), values.tolist()

    columns = []
    for j in sorted(j for j in pick[n:] if j < n):
        edges = [ns + j, j]  # the start edge into u_j, then j's observation edge
        while pick[j] < n:
            edges += (via[j], pick[j])
            j = pick[j]
        edges.append(ns + n + j)
        columns.append(PathColumn(0, tuple(edges), _path_cost(row, network, 0, edges)))
    return columns


def _flow_solve(network: FlowNetwork, values: np.ndarray) -> CGResult:
    """Exact solve of a window whose only commodity is the dummy.

    With one commodity the master is the dummy's min-cost flow, which
    `_dummy_flow` routes exactly at pi = 0 from the dummy's cost vector
    `values` alone (no pricing tables); the units it leaves take the bypass.
    The flow's LP is integral, so v_lp = v_int, epsilon is 0 and
    `iterations` is the one assignment solve. No duals are reported: pi,
    sigma and zetas are None. A cost that is not finite raises ValueError.
    """
    if not np.isfinite(values).all():
        raise ValueError("pricing needs finite costs on every edge")
    d0 = int(network.demands[0])
    columns = _dummy_flow(network, values)
    selection = [(col, 1) for col in columns]
    rest = network.bypass_edge(0)
    columns.append(PathColumn(0, (rest,), float(values[rest])))
    if len(selection) < d0:
        selection.append((columns[-1], d0 - len(selection)))
    v_int = float(sum(col.cost * u for col, u in selection))
    grouped, flows = _group_selection(network, selection)
    return CGResult(
        status="proven-optimal",
        v_lp=v_int,
        v_int=v_int,
        epsilon=0.0,
        iterations=1,
        pivots=0,
        columns=columns,
        selection=grouped,
        flows=flows,
        pi=None,
        sigma=None,
        zetas=None,
    )


def column_generation(
    network: FlowNetwork,
    cost_vectors: Sequence[CostVector],
    iter_max: int = ITER_MAX_DEFAULT,
) -> CGResult:
    """Run the full loop; see module docstring for the protocol.

    cost_vectors must be ordered by commodity, each in CostVector's layout. A
    network whose only commodity is the dummy is solved exactly by
    `_flow_solve` instead.
    """
    nc = network.num_commodities
    if iter_max < 1:
        raise ValueError(f"iter_max must be >= 1, got {iter_max}")
    if len(cost_vectors) != nc:
        raise ValueError(f"{len(cost_vectors)} cost vectors for {nc} commodities")
    for k, cv in enumerate(cost_vectors):
        if cv.commodity != k:
            raise ValueError(f"cost vector at position {k} labeled {cv.commodity}")
        if cv.values.shape[0] != network.cost_size:
            raise ValueError(f"cost vector {k}: {len(cv.values)} values, not {network.cost_size}")
    values = [cv.values for cv in cost_vectors]
    if nc == 1:
        return _flow_solve(network, values[0])
    tables = PricingTables.build(network, values)
    ns = network.num_shared

    pool = _Pool(network)

    def add_dummy_paths(zetas: np.ndarray, pi: np.ndarray, cutoffs: np.ndarray) -> int:
        """Pool the dummy's flow paths under `pi` that price below its cutoff.

        Only when the dummy alone has a zeta below its cutoff: while a
        tracked commodity still prices negatively, the duals on the
        detections it contests keep moving, and extra dummy paths through
        them mostly go unused. The flow's paths are detection-disjoint, and
        each one's pi-shifted cost is its reduced cost. Returns the paths
        pooled.
        """
        negative = zetas < cutoffs
        if not negative[0] or negative[1:].any():
            return 0
        flow = _dummy_flow(network, values[0], pi)
        return sum(
            pool.add(col) for col in flow
            if col.cost + sum(pi[e] for e in col.edges if e < ns) < cutoffs[0]
        )

    def add_priced(col: PathColumn) -> int:
        """Pool a priced column and, for a tracked commodity, its sub-path family.

        Returns the columns pooled: 0 when `col` is pooled already.
        """
        if not pool.add(col):
            return 0
        if col.commodity == 0:
            return 1
        family = _sub_paths(network, tables.rows[col.commodity], col)
        return 1 + sum(pool.add(sub) for sub in family)

    priced, zetas = price(tables, None)
    for k, col in enumerate(priced):
        add_priced(col)
        bypass = (network.bypass_edge(k),)
        pool.add(PathColumn(k, bypass, _path_cost(tables.rows[k], network, k, bypass)))
    pi = np.zeros(ns)
    add_dummy_paths(zetas, pi, tables.bypass)

    demands = network.demands
    incumbent: list[tuple[PathColumn, int]] | None = None
    v_incumbent = float("inf")
    best_bound = -float("inf")
    basis: tuple[int, ...] | None = None
    inverse: np.ndarray | None = None
    factor_age = 0
    converged = False
    iterations = 0
    pivots = 0

    for _ in range(iter_max):
        iterations += 1
        prob = pool.master()
        try:
            sol = solve_lp(prob, warm_basis=basis, warm_inverse=inverse, factor_age=factor_age)
        except LPInternalError:
            if basis is None:
                raise
            # A long degenerate run from a warm basis can carry rounding
            # error through the rank-one inverse updates until a
            # refactorization finds the basis singular or infeasible; a cold
            # start from the slack-and-bypass basis takes another pivot path.
            sol = solve_lp(prob)
        if sol.status != "optimal":
            raise ColgenError(f"master LP ended with status {sol.status!r}")
        basis, inverse, factor_age = sol.basis, sol.inverse, sol.factor_age
        pivots += sol.iterations
        pi = np.zeros(ns)
        pi[: network.num_detections] = sol.pi
        # Round, then check the true rows: after a perturbed solve an
        # integral vertex shows only to within ROUND_TOL.
        units = np.round(sol.x)
        if np.abs(sol.x - units).max() <= ROUND_TOL and _meets_rows(prob, units):
            cand = _decode_selection(pool, units)
            cand_val = float(sum(c.cost * u for c, u in cand))
            if cand_val < v_incumbent:
                incumbent, v_incumbent = cand, cand_val

        priced, zetas = price(tables, pi)
        best_bound = max(
            best_bound,
            lagrangian_lower_bound(sol.objective, zetas, sol.sigma, demands),
        )
        if optimality_check(zetas, sol.sigma):
            v_lp = sol.objective
            converged = True
            break
        added = 0
        for k, (col, zeta) in enumerate(zip(priced, zetas)):
            if zeta >= sol.sigma[k] - CERT_TOL:
                continue
            pooled = add_priced(col)
            added += pooled
            if not pooled and zeta - sol.sigma[k] < -DUPLICATE_GUARD_TOL:
                raise ColgenError(
                    f"pricing repeated a pooled column for commodity {k} "
                    f"with violation {zeta - sol.sigma[k]:.3e}; duals inconsistent"
                )
        added += add_dummy_paths(zetas, pi, sol.sigma - CERT_TOL)
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
            # Every column of a cheaper selection prices below
            # zeta_k + v_int - L(pi) (module docstring): pool them all.
            lower = float(demands @ zetas - pi.sum())
            extra = _bounded_columns(tables, pi, zetas, v_int - lower)
            if extra is not None and sum(pool.add(col) for col in extra):
                # a cheaper selection uses enumerated columns alone
                try:
                    rich_val, rich_sel = extract_integer(network, extra)
                except NoIntegerSolution:
                    rich_val = v_int
                if rich_val < v_int:
                    v_int, selection = rich_val, rich_sel

    if v_lp > v_int:
        if v_lp - v_int > INT_TOL:
            raise ColgenError(f"lower bound v_lp={v_lp!r} exceeds integer value v_int={v_int!r}")
        # The selection meets the bound up to rounding: it is the optimum.
        v_lp = v_int
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
        pivots=pivots,
        columns=pool.columns,
        selection=grouped,
        flows=flows,
        pi=pi,
        sigma=sol.sigma,
        zetas=zetas,
    )
