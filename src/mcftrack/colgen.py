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
master solve warm-starts from the previous one's solution as it is
(`solve_lp(prob, warm=sol)`: its basis, inverse and factor age). Pricing
finds every commodity's shortest path under costs shifted by the coupling
duals pi on shared edges, in one numpy sweep over the frame layers of the
window (detections of one frame form a contiguous range, and every
transition leaves an earlier one). The sweep gives every zeta_k, and
`price(tables, pi, sigma)` decodes only the columns with
zeta_k < sigma_k - CERT_TOL, which join the pool: none in a round that
certifies, and at the initial pricing, at no sigma, all of them. A priced
column is held as a detection row (its detections in path order, padded
with -1) until it is pooled. An exact-value tie is settled on such rows:
the tied paths are walked back and the lexicographically first row wins,
its pads read as detection N, which is the smallest edge-id sequence.
Then the returned paths are walked back from the sweep all at once. The
dummy commodity carries up to d0 units, so whenever its shortest path
prices negative, the round also routes all d0 of them under the
pi-shifted costs as one min-cost assignment (`_dummy_flow`, the routine
that solves dummy-only windows below). Every path of that flow whose
shifted cost prices negative joins the pool, so one round can add up to
d0 detection-disjoint dummy paths. The bound and the certificate read
only the pricing sweep.

Each time a tracked commodity's column is priced (in the initial pricing
and in every round), its sub-path family joins the pool with it, each
member not pooled before (`_families`), even where the priced column was
pooled earlier: for a path over detections d_1..d_m, the path without d_x
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

The pool holds its columns as arrays: per column its commodity, its edge
ids in path order padded with -1 to the window's longest possible path,
and its cost. The priced columns of a call, their families and (at the
initial pricing) every commodity's bypass are built in one array pass
from their detections, and join the pool in that order, each path once.
Every pooled column is costed by one rule, a sum in path order from 0.0 of
its commodity's edge costs (`_path_sums`; `_dummy_flow` sums its few paths
alike, one edge at a time), so a path pooled twice carries the same cost
both times. `CGResult.columns` is the pool itself, and a column is made a
PathColumn only when read: `pool[j]`, iteration, and the selection.

The first master starts from a basis built of those columns
(`solve_lp(prob, basis=start)`; Lübbecke and Desrosiers, "Selected Topics
in Column Generation", Operations Research 53(6), 2005). Tracked
commodities are taken in order. Write P_x for path P without d_x. Commodity
k >= 1 whose initially priced path P over d_1..d_m shares no detection with
an earlier start path, and whose drop-one members P_1..P_m are all pooled
(for m = 1 the member is k's bypass), puts P, P_1, ..., P_m at the rows of
d_1, ..., d_m and k's convexity row. Every other row keeps its slack, or
its commodity's bypass; the dummy's row always does. The start is feasible
and nonsingular: P - P_x is the unit vector of d_x, so the basis is
block-triangular, and x_P = 1 fills each d_x exactly with every member at
0. Its duals are the drop-one prices pi(d_x) = c(P_x) - c(P) >= 0 (P is the
shortest path at pi = 0), which a solve from the slack-and-bypass basis
reaches only through a run of degenerate pivots that install the members
at 0. P alone, without its members, would leave pi = 0 on its rows.

The start's inverse is written down, not factored
(`solve_lp(prob, basis=start, inverse=...)`, which checks it against the
basis). A slack or bypass in the start has its unit row. In a block, the
unit vector of d_x is P - P_x, and that of k's convexity row is
P_1 + ... + P_m - (m - 1) P. So P's row of the inverse (at d_1's position)
has 1 at every d_x and 1 - m at k's convexity row, and P_x's row (at its
position) has 1 at the convexity row and -1 at d_x. Every entry is an
integer, so the basis times the inverse is the identity exactly.

The loop ends one of two ways. It is certified when a round's pricing
returns no column: every zeta_k clears its convexity dual sigma_k (the
reduced-cost certificate), and v_lp is that master solve's objective
v_rmlp. It stops short at the iteration cap, when a master solve (the first
or a warm one) raises LPInternalError, or when a round pools no new column
whatever its violation. Then v_lp is the best Lagrangian bound seen: the
initial pricing's L(0) = sum_k d_k zeta_k, or a round's
v_rmlp + sum_k d_k * min(0, zeta_k - sigma_k), each dual-feasible and so a
true lower bound on the integer optimum. No LP failure ends the window.
v_rmlp is the master solve's objective: the RMLP optimum, or, when the
solve perturbed its right-hand side to leave a degenerate stall, the duals'
value at the true right-hand side, a lower bound on that optimum (see
`lp`), so v_lp stays a lower bound. The certificate gap is
epsilon = v_int - v_lp, and epsilon <= 1e-9 proves the returned integer
solution optimal. A bound above v_int by at most 1e-9 is rounding and
reported as v_int, so epsilon >= 0; a larger excess raises.

The integer solution is the last master solution, rounded, when the loop
certified and the rounding moves no value by more than ROUND_TOL, meets the
true rows exactly and costs at most v_lp + INT_TOL. (After a failed warm
solve the master holds columns that the last solution never saw, so a loop
that stopped short rounds nothing.) Otherwise it is the exact integer
optimum over the generated pool from one MILP solve
(price-and-branch: no pricing happens after the LP phase, so v_lp stays the
bound and v_int the cost of a checked selection). When that leaves
v_int - v_lp > INT_TOL, the last pricing round's duals pi >= 0 and values
zeta_k bound every selection x, with x_p units on path p of commodity k(p):

    cost(x) >= L(pi) + sum_p rc_p x_p,  L(pi) = -sum(pi) + sum_k d_k zeta_k,

where rc_p >= 0 is p's pi-shifted cost less zeta_k(p): the shifted costs
add pi_e times each shared edge's load, which is at most 1, and each
commodity's x_p sum to d_k. So every column of a selection cheaper than
v_int has rc_p < v_int - L(pi). `_bounded_columns` enumerates exactly those
paths as detection rows, built like the priced ones, and when one of them
is new to the pool extraction reruns over one pool of the enumerated paths
and then the incumbent selection's columns: a cheaper selection uses no
other column, and the incumbent keeps the rerun feasible. v_int is then
the integer optimum over all paths, and an epsilon left is a true
integrality gap against the LP bound. Past ENUM_COLUMN_CAP columns the
enumeration gives up and the certified gap stands.

A window whose only commodity is the dummy (every stream start, every window
with no tracked target) skips all of this. It is a single-commodity
min-cost flow of d0 units with unit capacity on the shared edges, whose LP
is integral, so `_dummy_flow` at pi = 0 solves it exactly by one assignment
solve: no pricing tables, no master LP, no pricing round and no MILP. The
assignment reads the dummy's cost vector directly. It reports
proven-optimal with epsilon 0, one iteration, no pivots and no duals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

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
    # proven-optimal | near-optimal | iteration-limit (stopped before the certificate)
    status: str
    v_lp: float
    v_int: float
    epsilon: float
    iterations: int
    pivots: int  # master LP pivots, summed over the window's solves
    # the pool: every pooled column, in pool order, each made a PathColumn
    # only when read
    columns: Sequence[PathColumn]
    selection: list[list[tuple[PathColumn, int]]]  # per commodity: (path, units)
    num_edges: int  # the window network's edges, the length of each flow
    # the last pricing round's duals and values; None for a dummy-only window,
    # and sigma None where no master solved
    pi: np.ndarray | None
    sigma: np.ndarray | None
    zetas: np.ndarray | None

    @cached_property
    def flows(self) -> list[np.ndarray]:
        """Per commodity integer edge flows of the selection, built when first read."""
        flows = [np.zeros(self.num_edges, dtype=np.int64) for _ in self.selection]
        for flow, group in zip(flows, self.selection):
            for col, units in group:
                flow[list(col.edges)] += units  # a path repeats no edge
        return flows


class _Columns(Sequence):
    """Columns held as arrays, read as PathColumns.

    Row j is commodity[j]'s path over edges[j] in path order, padded with
    -1 after its last edge, at cost[j]. Indexing and iteration make the
    PathColumns.
    """

    def __init__(self, commodity: np.ndarray, edges: np.ndarray, cost: np.ndarray) -> None:
        self.commodity = commodity
        self.edges = edges
        self.cost = cost

    @classmethod
    def of(cls, columns: Sequence[PathColumn], width: int) -> _Columns:
        """PathColumns as arrays of `width` edge positions; arrays as they are."""
        if isinstance(columns, _Columns):
            return columns
        return cls(np.array([col.commodity for col in columns], dtype=np.intp),
                   _padded([col.edges for col in columns], width),
                   np.array([col.cost for col in columns], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.commodity)

    def __getitem__(self, j: int) -> PathColumn:
        edges = self.edges[j].tolist()
        return PathColumn(int(self.commodity[j]), tuple(edges[: len(edges) - edges.count(-1)]),
                          float(self.cost[j]))

    def __iter__(self):
        for k, edges, cost in zip(self.commodity.tolist(), self.edges.tolist(), self.cost.tolist()):
            yield PathColumn(k, tuple(edges[: len(edges) - edges.count(-1)]), cost)

    def take(self, rows: np.ndarray) -> _Columns:
        return _Columns(self.commodity[rows], self.edges[rows], self.cost[rows])

    def keys(self) -> list[bytes]:
        """Each column's commodity and padded edges as bytes: equal for equal paths."""
        rows = np.concatenate([self.commodity[:, None], self.edges], axis=1)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


class _Priced(_Columns):
    """Priced paths held as their detections, as `PricingTables.paths` takes
    them; their edges and costs are built when first read."""

    def __init__(self, tables: PricingTables, commodity: np.ndarray, dets: np.ndarray) -> None:
        self.tables, self.commodity, self.dets = tables, commodity, dets

    @cached_property
    def built(self) -> _Columns:
        return self.tables.paths(self.commodity, self.dets)

    @property
    def edges(self) -> np.ndarray:
        return self.built.edges

    @property
    def cost(self) -> np.ndarray:
        return self.built.cost


def _padded(paths: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """Paths (edge ids or detections) as rows of `width` positions, padded with -1."""
    rows = [list(p) + [-1] * (width - len(p)) for p in paths]
    return np.array(rows, dtype=np.intp).reshape(len(rows), width)


def _path_width(network: FlowNetwork) -> int:
    """Edge positions of the network's longest possible path.

    Transitions advance in frame, so a path visits at most one detection
    per frame: F frames give at most 2F + 1 edges.
    """
    frames = network.frames
    return 2 * (int((frames[1:] != frames[:-1]).sum()) + 1 if frames.size else 0) + 1


def _path_sums(parts: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each row's sum over parts[r, 0..last[r]], in path order from 0.0.

    The running sum along each row adds one edge position at a time; the
    final + 0.0 is the sum's start, which changes only an all -0.0 sum.
    Every pooled column is costed by this sum (the dummy's flow paths by
    the same sum, one edge at a time), so a path pooled twice carries the
    same cost both times.
    """
    return parts.cumsum(axis=1)[np.arange(len(last)), last] + 0.0


def _linked(links: np.ndarray, n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Whether transition tails -> heads exists, elementwise."""
    keys = tails * n + heads
    at = np.searchsorted(links, keys)
    return links[np.minimum(at, len(links) - 1)] == keys if len(links) else at < 0


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

    values holds the cost vectors stacked, one CostVector per row, from
    which path costs are summed. shared (nc x num_shared), term (nc x N)
    and bypass (nc) are its slices. The candidate buffer `buf` holds, per
    head u_j in detection order, a segment of its incoming transitions by
    edge id followed by its start edge. Start columns hold 0.0 + start
    cost, as does bypass: the first step of a sum from the source.
    trans_edges lists the transition edge ids by head, then edge id;
    trans_pos are their columns in `buf`, trans_heads their heads and
    trans_tails their tails.
    links holds each transition's tail * N + head by edge id, and width
    the edge positions of the longest possible path (`_path_width`).
    """

    network: FlowNetwork
    values: np.ndarray
    shared: np.ndarray
    term: np.ndarray
    bypass: np.ndarray
    buf: np.ndarray
    trans_edges: np.ndarray
    trans_pos: np.ndarray
    trans_heads: np.ndarray
    trans_tails: np.ndarray
    layers: list[_Layer]
    links: np.ndarray
    width: int

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

        order = np.argsort(network.trans_head, kind="stable")  # by head, then edge id
        t_tail, t_head, t_edge = network.trans_tail[order], network.trans_head[order], n + order
        before = np.zeros(n + 1, dtype=np.intp)  # transitions into earlier heads
        np.cumsum(np.bincount(t_head, minlength=n), out=before[1:])
        seg = np.arange(n + 1) + before
        pos = np.arange(t_head.size) + t_head
        buf = np.empty((nc, seg[-1]))
        buf[:, seg[1:] - 1] = start

        bounds = [0, *(np.flatnonzero(np.diff(network.frames)) + 1).tolist(), n] if n else [0]
        layers = []
        for lo, hi in zip(bounds, bounds[1:]):
            c0, c1, a, b = int(seg[lo]), int(seg[hi]), int(before[lo]), int(before[hi])
            layers.append(_Layer(
                lo=lo, hi=hi, buf=buf[:, c0:c1], seg=seg[lo:hi] - c0,
                pos=pos[a:b] - c0, tails=t_tail[a:b], ta=a, tb=b,
            ))
        links = network.trans_tail * n + network.trans_head
        return cls(network, stack, shared, term, bypass, buf, t_edge, pos, t_head, t_tail,
                   layers, links, _path_width(network))

    def paths(self, commodity: np.ndarray, dets: np.ndarray) -> _Columns:
        """Each commodity's path over its detections, with its edges and cost.

        Row r is commodity[r]'s path over dets[r], its detections in path
        order followed by -1 pads; a row of pads is the bypass. Consecutive
        detections must be joined by a transition.
        """
        n, ns = self.network.num_detections, self.network.num_shared
        c, f = dets.shape
        size = (dets >= 0).sum(axis=1)
        # the edges' positions in their commodity's cost vector: k's edge is
        # ns + i for the start edge into u_i, ns + n + i for the termination
        # out of v_i and ns + 2n for the bypass
        at = np.full((c, 2 * f + 1), -1, dtype=np.intp)
        at[:, 0] = ns + 2 * n
        at[:, 1::2] = dets
        if f > 1:
            tails, heads = dets[:, :-1], dets[:, 1:]
            at[:, 2:-1:2] = np.where(heads >= 0, n + self.links.searchsorted(tails * n + heads), -1)
        rows = size.nonzero()[0]
        if rows.size:
            ends = 2 * size[rows]
            at[rows, 0] = ns + dets[rows, 0]
            at[rows, ends] = ns + n + dets[rows, size[rows] - 1]
        cost = _path_sums(self.values[commodity[:, None], at], 2 * size)
        # k's own edges (the first, and the termination) sit k blocks on
        shift = commodity * (2 * n + 1)
        at[:, 0] += shift
        if rows.size:
            at[rows, ends] += shift[rows]
        return _Columns(commodity, at, cost)


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


def _walk_back(tables: PricingTables, prev: np.ndarray, ks: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """The detections of each commodity ks[r]'s chosen path to v_{ends[r]}, all walked at once.

    prev[k, j] is the tail of the transition into u_j on k's chosen path,
    or -1 for the start edge; its last column, which -1 reads, is all -1.
    Row r holds the path's detections in path order, then -1 pads.
    """
    f = tables.width // 2
    back = np.empty((len(ks), f + 1), dtype=np.intp)  # from the last detection, then -1
    at = ends
    for step in range(f):
        back[:, step] = at
        at = prev[ks, at]
    back[:, f] = -1
    # position x of a path over m detections is back[m - 1 - x], for x < m
    src = (back >= 0).sum(axis=1)[:, None] - 1 - np.arange(f)
    src[src < 0] = f
    return back[np.arange(len(ks))[:, None], src]


def _first_path(tables: PricingTables, prev: np.ndarray, k: int, ends: np.ndarray) -> int:
    """The end among `ends` whose path of commodity k comes first.

    The paths are walked back (`_walk_back`) and compared as detection
    rows, with their -1 pads read as detection N (`price`).
    """
    rows = _walk_back(tables, prev, np.full(len(ends), k), ends)
    rows[rows < 0] = tables.network.num_detections
    return int(ends[np.lexsort(rows.T[::-1])[0]])


def price(
    tables: PricingTables, pi: np.ndarray | None, sigma: np.ndarray | None = None
) -> tuple[_Columns, np.ndarray]:
    """Price every commodity: shortest pi-shifted path and its value zeta_k.

    One sweep over the frame layers relaxes all commodities at once under
    the pi-shifted shared costs; the bypass makes every sink reachable.
    Returns, in commodity order, the columns (with their unshifted path
    costs, built when first read) of the commodities with
    zeta_k < sigma_k - CERT_TOL, or of all when `sigma` is None, and every
    zeta_k. Exact-value ties resolve to the lexicographically smallest
    edge-id sequence, which is the lexicographically first detection row
    with its -1 pads read as detection N: k's start edges ascend with the
    detection, transitions are sorted by (tail, head), every termination id
    exceeds every transition id, and a path's detections ascend. So each
    tied head of a returned commodity, in detection order, takes the tail
    whose path comes first, and so does a tied end (`_first_path`); then
    the returned commodities' paths are walked back all at once
    (`_walk_back`).
    """
    n = tables.network.num_detections
    nc = tables.shared.shape[0]
    reach, dist = _sweep(tables, tables.shared if pi is None else tables.shared + pi)

    via = np.full(nc, -1)  # detection each commodity terminates from, -1: bypass
    zetas = tables.bypass.copy()
    cand = dist + tables.term
    if n:
        via = cand.argmin(axis=1)
        ends = cand[np.arange(nc), via]
        # on an exact tie a detection path precedes the bypass edge
        wins = ends <= zetas
        zetas[wins] = ends[wins]
        via[~wins] = -1
    wanted = np.arange(nc) if sigma is None else np.flatnonzero(zetas < sigma - CERT_TOL)
    dets = np.full((wanted.size, tables.width // 2), -1, dtype=np.intp)
    walked = via[wanted] >= 0  # a bypass column walks no path
    if not walked.any():
        return _Priced(tables, wanted, dets), zetas
    ks, ends = wanted[walked], via[wanted[walked]]
    # whether each transition (by head, then edge id) reaches its head at the head's distance
    hit = tables.buf[:, tables.trans_pos] == reach[:, tables.trans_heads]
    # A start loses every tie: a path through a transition begins at the start
    # edge of a lower detection. So a head takes a hitting transition's tail,
    # else -1, the start.
    rows, cols = hit.nonzero()  # by commodity, then head
    heads, tails = tables.trans_heads[cols], tables.trans_tails[cols]
    prev = np.full((nc, n + 1), -1)
    prev[rows, heads] = tails
    keys = rows * n + heads  # ascending, so a tie is a run of equal keys
    if (keys[1:] == keys[:-1]).any():
        _, first, hits = np.unique(keys, return_index=True, return_counts=True)
        tied = (hits > 1) & np.isin(rows[first], ks)
        # in detection order, so that every tail's path is settled first
        for a, m in zip(first[tied].tolist(), hits[tied].tolist()):
            prev[rows[a], heads[a]] = _first_path(tables, prev, rows[a], tails[a : a + m])
    at_zeta = cand[ks] == zetas[ks, None]
    for r in (at_zeta.sum(axis=1) > 1).nonzero()[0].tolist():
        ends[r] = _first_path(tables, prev, ks[r], at_zeta[r].nonzero()[0])
    dets[walked] = _walk_back(tables, prev, ks, ends)
    return _Priced(tables, wanted, dets), zetas


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


class _Pool(_Columns):
    """Pooled columns as arrays, each path once, in the order they joined.

    The arrays are `_Columns`' at the network's path width, so building the
    master reads no column as a PathColumn; `position` maps each pooled
    column's key (`_Columns.keys`) to its row.
    """

    def __init__(self, network: FlowNetwork, columns: Sequence[PathColumn] = ()) -> None:
        self.network = network
        self.width = _path_width(network)
        super().__init__(np.empty(0, dtype=np.intp), np.empty((0, self.width), dtype=np.intp),
                         np.empty(0))
        self.position: dict[bytes, int] = {}
        if len(columns):
            self.extend(columns)

    def extend(self, columns: Sequence[PathColumn]) -> int:
        """Pool, in order, each column whose path its commodity has not pooled; returns how many.

        A column repeated in `columns` joins once.
        """
        cols = _Columns.of(columns, self.width)
        position, size, rows = self.position, len(self), []
        for r, key in enumerate(cols.keys()):
            if key not in position:
                position[key] = size + len(rows)
                rows.append(r)
        if len(rows) < len(cols):
            cols = cols.take(rows)
        self.commodity = np.concatenate([self.commodity, cols.commodity])
        self.edges = np.concatenate([self.edges, cols.edges])
        self.cost = np.concatenate([self.cost, cols.cost])
        return len(rows)

    def master(self) -> LPProblem:
        """Restricted master over the pooled columns.

        Coupling row i is the capacity of detection i, for every detection
        of the window, so the rows never change as columns join: a detection
        that no pooled column visits has an all-zero row. Other shared edges
        carry no row: their loads are bounded by these rows (module
        docstring), so their dual is 0.
        """
        net = self.network
        n, nd = len(self), net.num_detections
        a_eq = np.zeros((net.num_commodities, n))
        a_eq[self.commodity, np.arange(n)] = 1.0
        # e < N: the observation edge of detection e (a pad, -1, is the
        # largest unsigned value)
        cols, at = (self.edges.view(np.uintp) < nd).nonzero()
        a_ub = np.zeros((nd, n))
        a_ub[self.edges[cols, at], cols] = 1.0
        d = net.demands.astype(np.float64)
        return LPProblem(obj=self.cost.copy(), a_ub=a_ub, b_ub=np.ones(nd), a_eq=a_eq, b_eq=d)


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
        raise ColgenError("column pool admits no integer solution")
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


def _decode_selection(pool: _Pool, lam: np.ndarray) -> list[tuple[PathColumn, int]]:
    """The pooled columns with a positive rounded value, and their units."""
    units = np.round(lam)
    picked = (units > 0).nonzero()[0]
    return list(zip(pool.take(picked), units[picked].astype(int).tolist()))


def _group_selection(
    network: FlowNetwork, selection: Sequence[tuple[PathColumn, int]]
) -> list[list[tuple[PathColumn, int]]]:
    """The selection by commodity; raises ColgenError unless each meets its demand."""
    grouped: list[list[tuple[PathColumn, int]]] = [
        [] for _ in range(network.num_commodities)
    ]
    for col, units in selection:
        grouped[col.commodity].append((col, units))
    for k, dem in enumerate(network.demands):
        carried = sum(units for _, units in grouped[k])
        if carried != int(dem):
            raise ColgenError(
                f"commodity {k} carries {carried} units, demand is {int(dem)}"
            )
    return grouped


def _bounded_columns(
    tables: PricingTables, pi: np.ndarray, zetas: np.ndarray, gap: float
) -> _Columns | None:
    """Every path whose pi-shifted cost is below zeta_k + gap, or None past the cap.

    Paths grow back from each commodity's sink by a DFS, as detection
    suffixes. A suffix from v_t to the sink is kept only while the shortest
    shifted distance from the source to v_t (the pricing sweep's) plus its
    own shifted cost stays below the limit, so every kept suffix completes
    to at least one listed path and the search visits little beyond its
    output. The paths come per commodity in edge-id order, which is the
    order of their detections with a pad read as detection N (`price`), so
    the bypass comes last; `PricingTables.paths` builds them at their
    unshifted cost. Returns None as soon as more than ENUM_COLUMN_CAP are
    found.
    """
    net = tables.network
    n = net.num_detections
    w = tables.shared + pi
    _, dist = _sweep(tables, w)
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (tail, edge) by head
    for p, (i, j) in enumerate(zip(net.trans_tail.tolist(), net.trans_head.tolist())):
        into[j].append((i, n + p))
    owners: list[int] = []
    found: list[tuple[int, ...]] = []
    for k in range(net.num_commodities):
        limit = float(zetas[k]) + gap
        w_k, dist_k = w[k].tolist(), dist[k].tolist()
        start = tables.values[k, net.num_shared : net.num_shared + n].tolist()
        term = tables.term[k].tolist()
        paths: list[tuple[int, ...]] = []
        budget = ENUM_COLUMN_CAP - len(found)

        def grow(j: int, suffix: tuple[int, ...], s: float) -> None:
            # suffix holds the detections from u_j on, at shifted cost s to the sink
            if len(paths) > budget:
                return
            if start[j] + s < limit:
                paths.append(suffix)
            for t, e in into[j]:
                s_t = w_k[e] + s
                if dist_k[t] + s_t < limit:
                    grow(t, (t,) + suffix, w_k[t] + s_t)

        for i in range(n):
            if dist_k[i] + term[i] < limit:
                grow(i, (i,), w_k[i] + term[i])
        if tables.bypass[k] < limit:
            paths.append(())
        if len(paths) > budget:
            return None
        owners += [k] * len(paths)
        found += sorted(paths, key=lambda p: p + (n,))
    return tables.paths(np.array(owners, dtype=np.intp), _padded(found, tables.width // 2))


def _families(tables: PricingTables, priced: _Priced,
              bypass: bool) -> tuple[_Columns, np.ndarray]:
    """The priced columns with the columns that join with them, in pool order.

    Per priced column of commodity k over detections d_1..d_m: the column;
    for a tracked k, its sub-path family (module docstring): the path
    without d_x for each x in order (an interior d_x only where the
    transition d_{x-1} -> d_{x+1} exists), then for m > 2 the paths [d_1]
    and [d_m]; and with `bypass`, k's bypass unless the column is that
    bypass. Every member is a path of k at its true cost, whether or not
    the priced column was pooled before. Returns the batch and `at`: per
    priced column, the batch row of each slot (the column, the paths
    without d_1..d_F, [d_1], [d_m], the bypass), -1 where empty.
    """
    n, f = tables.network.num_detections, tables.width // 2
    ks = priced.commodity
    c = len(ks)
    # each slot's detections, then a -1 that the pads read
    slots = np.full((c, f + 4, f + 1), -1, dtype=np.intp)
    dets = slots[:, 0]
    dets[:, :f] = priced.dets
    size = (dets >= 0).sum(axis=1)
    x = np.arange(f)
    # without d_x: the detections before x, then those after it
    slots[:, 1 : f + 1, :f] = dets[:, x + (x >= x[:, None])]
    slots[:, f + 1, 0] = dets[:, 0]
    slots[:, f + 2, 0] = dets[np.arange(c), size - 1]
    family = (ks > 0) & (size >= 2)
    valid = np.zeros((c, f + 4), dtype=bool)
    valid[:, 0] = True
    drop = valid[:, 1 : f + 1]
    drop[:] = family[:, None] & (x < size[:, None])
    if f > 2:  # an interior d_x, where its skip transition exists
        drop[:, 1:-1] &= (x[1:-1] == size[:, None] - 1) | _linked(
            tables.links, n, dets[:, : f - 2], dets[:, 2:f])
    valid[:, f + 1 : f + 3] = (family & (size > 2))[:, None]
    valid[:, f + 3] = bypass & (size > 0)
    at = valid.cumsum().reshape(valid.shape) - 1
    at[~valid] = -1
    count = valid.sum(axis=1)
    return tables.paths(ks.repeat(count), slots[valid][:, :f]), at


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
    tails, heads = network.trans_tail, network.trans_head
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
        # The dummy's block comes first, so its edge ids are their cost
        # positions. Summed in path order from 0.0, as `_path_sums` sums; a
        # loop, since array calls would cost a dummy-only window more.
        cost = 0.0
        for e in edges:
            cost += row[e]
        columns.append(PathColumn(0, tuple(edges), cost))
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
    return CGResult(
        status="proven-optimal",
        v_lp=v_int,
        v_int=v_int,
        epsilon=0.0,
        iterations=1,
        pivots=0,
        columns=columns,
        selection=_group_selection(network, selection),
        num_edges=network.num_edges,
        pi=None,
        sigma=None,
        zetas=None,
    )


def _start_basis(network: FlowNetwork, pooled: _Columns,
                 at: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The first master's start basis over [slacks | columns] and its written inverse.

    `pooled` are the first columns pooled, the initial pricing's of every
    commodity with those that join with them, and `at` the pool row of each
    priced column's slots (`_families`). By row: slack i at detection i and
    commodity k's bypass at row n + k, except where a priced path P over
    d_1..d_m and its drop-one members P_1..P_m take rows d_1..d_m and n + k.
    The inverse is the identity but for those blocks' rows, whose entries
    are written down as (row, column, value) (module docstring).
    """
    n, nc = network.num_detections, network.num_commodities
    dets = pooled.edges[at[:, 0], 1::2]  # d_x is edge 2x - 1
    size = (dets >= 0).sum(axis=1)
    drops = (at[:, 1 : dets.shape[1] + 1] >= 0).sum(axis=1)
    bypass = np.where(at[:, -1] >= 0, at[:, -1], at[:, 0])  # a priced bypass is the bypass
    start = list(range(n)) + (n + bypass).tolist()
    # tracked paths with every drop-one member pooled; for m = 1 the member is the bypass
    whole = (np.arange(nc) > 0) & (size > 0) & ((size == 1) | (drops == size))
    dets, size, at, bypass = dets.tolist(), size.tolist(), at.tolist(), bypass.tolist()
    started: set[int] = set()  # the detections of the start paths
    blocks: dict[int, list[list[int]]] = {}  # the blocks' rows, by m
    for k in whole.nonzero()[0].tolist():
        m, ds = size[k], dets[k][: size[k]]
        if not started.isdisjoint(ds):
            continue
        started.update(ds)
        rows = ds + [n + k]
        members = at[k][1 : m + 1] if m > 1 else [bypass[k]]
        for row, j in zip(rows, [at[k][0]] + members):
            start[row] = n + j
        blocks.setdefault(m, []).append(rows)
    inverse = np.eye(n + nc)
    for m, rows in blocks.items():
        # over a block's rows d_1..d_m, n + k: P's row (at d_1) has 1 at
        # each d_x and 1 - m at n + k; P_x's row (at rows[x]) 1 at n + k,
        # -1 at d_x, and 0 on the diagonal unless it is n + k
        block = np.zeros((m + 1, m + 1))
        block[0] = 1.0
        block[0, m] = 1.0 - m
        block[1:, m] = 1.0
        block[np.arange(1, m + 1), np.arange(m)] = -1.0
        rows = np.array(rows)
        inverse[rows[:, :, None], rows[:, None, :]] = block
    return start, inverse


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

    def add_dummy_paths(zeta: float, pi: np.ndarray, cutoff: float) -> None:
        """Pool the dummy's flow paths under `pi` that price below `cutoff`.

        Only when the dummy's zeta is below the cutoff. The flow's paths are
        detection-disjoint, and each one's pi-shifted cost is its reduced
        cost.
        """
        if zeta < cutoff:
            pool.extend([col for col in _dummy_flow(network, values[0], pi)
                         if col.cost + sum(pi[e] for e in col.edges if e < ns) < cutoff])

    priced, zetas = price(tables, None)
    batch, at = _families(tables, priced, bypass=True)
    pool.extend(batch)  # the pool is empty, and the batch repeats no path: all of it joins
    start, inverse = _start_basis(network, batch, at)
    pi = np.zeros(ns)
    add_dummy_paths(zetas[0], pi, tables.bypass[0])

    demands = network.demands
    best_bound = float(demands @ zetas)  # L(0)
    sol = None
    certified = False
    pivots = 0

    # Certified, or stopped short at the best bound (module docstring).
    for iterations in range(1, iter_max + 1):
        prob = pool.master()
        try:
            if sol is None:
                sol = solve_lp(prob, basis=start, inverse=inverse)
            else:
                sol = solve_lp(prob, warm=sol)
        except LPInternalError:
            break
        pivots += sol.iterations
        pi = np.zeros(ns)
        pi[: network.num_detections] = sol.pi

        priced, zetas = price(tables, pi, sol.sigma)
        best_bound = max(
            best_bound,
            lagrangian_lower_bound(sol.objective, zetas, sol.sigma, demands),
        )
        if not priced:  # the reduced-cost certificate
            certified = True
            break
        size = len(pool)
        pool.extend(_families(tables, priced, bypass=False)[0])
        add_dummy_paths(zetas[0], pi, sol.sigma[0] - CERT_TOL)
        if len(pool) == size:
            break
    v_lp = sol.objective if certified else best_bound

    v_int, selection = float("inf"), []
    if certified:
        # Round, then check the true rows: after a perturbed solve an integral
        # vertex shows only to within ROUND_TOL. The master's columns are the
        # pool's.
        units = np.round(sol.x)
        if np.abs(sol.x - units).max() <= ROUND_TOL and _meets_rows(prob, units):
            selection = _decode_selection(pool, units)
            v_int = float(sum(col.cost * u for col, u in selection))
    if v_int - v_lp > INT_TOL:
        v_int, selection = extract_integer(network, pool)
        if v_int - v_lp > INT_TOL:
            # Every column of a cheaper selection prices below
            # zeta_k + v_int - L(pi) (module docstring): pool them all.
            lower = float(demands @ zetas - pi.sum())
            extra = _bounded_columns(tables, pi, zetas, v_int - lower)
            if extra is not None and pool.extend(extra):
                # a cheaper selection uses enumerated columns alone; the
                # incumbent's columns keep the rerun feasible
                rerun = _Pool(network, extra)
                rerun.extend([col for col, _ in selection])
                rich_val, rich_sel = extract_integer(network, rerun)
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
    elif certified:
        status = "near-optimal"
    else:
        status = "iteration-limit"
    return CGResult(
        status=status,
        v_lp=v_lp,
        v_int=v_int,
        epsilon=epsilon,
        iterations=iterations,
        pivots=pivots,
        columns=pool,
        selection=_group_selection(network, selection),
        num_edges=network.num_edges,
        pi=pi,
        sigma=None if sol is None else sol.sigma,
        zetas=zetas,
    )
