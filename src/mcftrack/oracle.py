"""Exhaustive reference solvers for small window instances.

Independent of the column-generation stack, which imports nothing from
here: the oracle is a reference for the tests and `mcftrack solve --oracle`.
Paths are enumerated by DFS over the network structure and the joint
assignment is found by brute-force search over per-commodity path choices
with shared-edge disjointness enforced by bitmask. Intended for instances
of a few detections; both entry points abort with OracleLimitError beyond an
explicit size guard rather than run unbounded searches.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graph import EdgeKind, FlowNetwork

PATH_LIMIT = 10**6
COMBO_LIMIT = 10**6


class OracleLimitError(RuntimeError):
    """The requested exhaustive search exceeds the configured guard."""


def enumerate_paths(
    network: FlowNetwork, commodity: int, limit: int = PATH_LIMIT
) -> list[tuple[int, ...]]:
    """All source-sink edge-id paths of one commodity, lexicographically.

    DFS visits out-edges in ascending id order, so the result is sorted by
    edge-id sequence; the bypass path comes last. Raises OracleLimitError
    when more than `limit` paths exist.
    """
    src = network.source(commodity)
    sink = network.sink(commodity)
    heads = network.head
    paths: list[tuple[int, ...]] = []
    stack: list[int] = []

    def visit(node: int) -> None:
        if node == sink:
            if len(paths) >= limit:
                raise OracleLimitError(
                    f"commodity {commodity} exceeds {limit} source-sink paths"
                )
            paths.append(tuple(stack))
            return
        for e in network.out_edges(node, commodity):
            stack.append(e)
            visit(int(heads[e]))
            stack.pop()

    visit(src)
    return paths


def _shared_mask(network: FlowNetwork, edges: Sequence[int]) -> int:
    mask = 0
    for e in edges:
        if e < network.num_shared:
            mask |= 1 << e
    return mask


def brute_force_ilp(
    network: FlowNetwork,
    cost_values: Sequence[np.ndarray],
    combo_limit: int = COMBO_LIMIT,
    path_limit: int = PATH_LIMIT,
) -> tuple[float, list[list[tuple[tuple[int, ...], int]]]]:
    """Exact integer optimum by exhaustive combination search.

    cost_values holds each commodity's CostVector values, in commodity order.
    Tracked commodities pick exactly one path (possibly the bypass); the dummy
    commodity picks a set of pairwise shared-edge-disjoint non-bypass paths
    of size at most d_0, padding with bypass units. Ties resolve to the
    lexicographically smallest tuple of per-commodity path-index choices.

    Returns (optimal value, per-commodity [(edge tuple, units), ...]).
    """
    nc = network.num_commodities
    if len(cost_values) != nc:
        raise ValueError(f"{len(cost_values)} cost arrays for {nc} commodities")
    demands = [int(d) for d in network.demands]

    all_paths: list[list[tuple[int, ...]]] = []
    costs: list[list[float]] = []
    masks: list[list[int]] = []
    for k in range(nc):
        paths = enumerate_paths(network, k, limit=path_limit)
        vals = np.asarray(cost_values[k], dtype=np.float64)
        all_paths.append(paths)
        costs.append([float(sum(vals[network.cost_index(k, e)] for e in p)) for p in paths])
        masks.append([_shared_mask(network, p) for p in paths])

    bypass_idx: list[int] = []
    for k in range(nc):
        bid = network.bypass_edge(k)
        bypass_idx.append(next(i for i, p in enumerate(all_paths[k]) if p == (bid,)))

    # Guard on the raw combination count before searching.
    total = 1
    for k in range(nc):
        if k == 0:
            p = len(all_paths[0]) - 1  # non-bypass choices
            total *= sum(math.comb(p, s) for s in range(min(demands[0], p) + 1))
        else:
            total *= len(all_paths[k])
        if total > combo_limit:
            raise OracleLimitError(
                f"combination count exceeds {combo_limit}; refusing exhaustive search"
            )

    # Lower bound on any completion from commodity k onward, ignoring
    # conflicts; needed because path costs can be negative.
    suffix_lb = [0.0] * (nc + 1)
    for k in range(nc - 1, -1, -1):
        if k == 0:
            base = demands[0] * costs[0][bypass_idx[0]]
            gain = sum(
                min(0.0, costs[0][i] - costs[0][bypass_idx[0]])
                for i in range(len(all_paths[0]))
                if i != bypass_idx[0]
            )
            own = base + gain
        else:
            own = min(costs[k]) if costs[k] else 0.0
        suffix_lb[k] = own + suffix_lb[k + 1]

    best_val = math.inf
    best_sel: list[list[tuple[int, int]]] | None = None
    current: list[list[tuple[int, int]]] = [[] for _ in range(nc)]

    def search(k: int, used: int, acc: float) -> None:
        nonlocal best_val, best_sel
        if acc + suffix_lb[k] >= best_val:
            return
        if k == nc:
            best_val = acc
            best_sel = [list(sel) for sel in current]
            return
        if k == 0:
            dummy_choices(0, 0, used, acc, demands[0])
            return
        for i, mask in enumerate(masks[k]):
            if mask & used:
                continue
            current[k] = [(i, 1)]
            search(k + 1, used | mask, acc + costs[k][i])
        current[k] = []

    def dummy_choices(start: int, taken: int, used: int, acc: float, budget: int) -> None:
        # Close out: pad the remaining demand with bypass units.
        pad = budget - taken
        if pad >= 0:
            sel = list(current[0])
            if pad > 0:
                sel = sel + [(bypass_idx[0], pad)]
            saved = current[0]
            current[0] = sel
            search(1, used, acc + pad * costs[0][bypass_idx[0]])
            current[0] = saved
        if taken >= budget:
            return
        for i in range(start, len(all_paths[0])):
            if i == bypass_idx[0]:
                continue
            if masks[0][i] & used:
                continue
            current[0].append((i, 1))
            dummy_choices(i + 1, taken + 1, used | masks[0][i], acc + costs[0][i], budget)
            current[0].pop()

    search(0, 0, 0.0)
    assert best_sel is not None  # bypass-only selection always feasible
    out: list[list[tuple[tuple[int, ...], int]]] = []
    for k in range(nc):
        out.append([(all_paths[k][i], units) for i, units in best_sel[k]])
    return best_val, out
