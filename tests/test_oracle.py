"""Exhaustive oracle: path enumeration and brute-force integer optimum."""

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import make_det, random_instance
from mcftrack.colgen import PricingTables, price
from mcftrack.graph import network_from_parts
from mcftrack.oracle import OracleLimitError, brute_force_ilp, enumerate_paths

SRC = Path(__file__).resolve().parent.parent / "src" / "mcftrack"


def test_empty_window_single_bypass_path():
    net = network_from_parts([], [], [1])
    paths = enumerate_paths(net, 0)
    assert paths == [(net.bypass_edge(0),)]


def test_chain_of_two_linked_detections_has_four_paths():
    d0 = make_det(0, 1, (0, 0, 2, 2))
    d1 = make_det(1, 2, (1, 0, 3, 2))
    net = network_from_parts([d0, d1], [(0, 1)], [1])
    paths = enumerate_paths(net, 0)
    assert len(paths) == 4
    as_sets = {p for p in paths}
    s0, s1 = net.start_edge(0, 0), net.start_edge(0, 1)
    t0, t1 = net.term_edge(0, 0), net.term_edge(0, 1)
    assert (net.bypass_edge(0),) in as_sets
    assert (s0, 0, t0) in as_sets  # d0 only
    assert (s1, 1, t1) in as_sets  # d1 only
    assert (s0, 0, 2, 1, t1) in as_sets  # the chain


def test_star_of_three_unlinked_detections_has_four_paths():
    dets = [make_det(i, 1, (10 * i, 0, 10 * i + 2, 2)) for i in range(3)]
    net = network_from_parts(dets, [], [1])
    paths = enumerate_paths(net, 0)
    assert len(paths) == 4  # three singletons plus bypass


def test_enumeration_is_deterministic_and_sorted():
    net, _ = random_instance(8)
    for k in range(net.num_commodities):
        a = enumerate_paths(net, k)
        b = enumerate_paths(net, k)
        assert a == b
        assert a == sorted(a)
        assert len(set(a)) == len(a)
        assert a[-1] == (net.bypass_edge(k),)  # bypass has the largest edge id


def test_enumeration_guard_trips():
    dets = [make_det(i, 1 + i // 3, (0, 0, 2, 2)) for i in range(9)]
    trans = [(i, j) for i in range(9) for j in range(9)
             if dets[j].frame == dets[i].frame + 1]
    net = network_from_parts(dets, trans, [1])
    with pytest.raises(OracleLimitError):
        enumerate_paths(net, 0, limit=10)


def test_two_commodity_contention_value():
    net = network_from_parts([make_det(0, 1, (0, 0, 2, 2))], [], [1, 1])
    costs = []
    for k in range(2):
        v = np.zeros(net.cost_size)
        v[0] = 1.0  # observation
        v[net.cost_index(k, net.start_edge(k, 0))] = 0.0
        v[net.cost_index(k, net.term_edge(k, 0))] = 0.0
        v[net.cost_index(k, net.bypass_edge(k))] = 2.0
        costs.append(v)
    val, assign = brute_force_ilp(net, costs)
    assert val == pytest.approx(3.0)
    riders = [k for k in range(2) if any(0 in p for p, _ in assign[k])]
    assert len(riders) == 1


def test_single_commodity_equals_shortest_path():
    for seed in range(30):
        net, costs = random_instance(seed, max_tracked=0, d0_max=1)
        assert net.num_commodities == 1
        val, _ = brute_force_ilp(net, costs)
        sp = price(PricingTables.build(net, costs), None)[1][0]
        assert val == pytest.approx(sp, abs=1e-12), seed


def test_tie_break_prefers_lexicographic_choice():
    # two same-frame detections with identical costs: oracle must pick det 0
    net = network_from_parts(
        [make_det(0, 1, (0, 0, 2, 2)), make_det(1, 1, (5, 0, 7, 2))], [], [1])
    v = np.zeros(net.num_edges)
    v[0] = v[1] = -1.0
    v[net.bypass_edge(0)] = 10.0
    val, assign = brute_force_ilp(net, [v])
    assert val == pytest.approx(-1.0)
    (path, units), = assign[0]
    assert units == 1
    assert 0 in path and 1 not in path


def test_combination_guard_refuses_loudly():
    net, costs = random_instance(2)
    with pytest.raises(OracleLimitError):
        brute_force_ilp(net, costs, combo_limit=1)


def test_assignment_respects_demands_and_disjointness():
    for seed in (4, 21, 60):
        net, costs = random_instance(seed)
        val, assign = brute_force_ilp(net, costs)
        seen_shared: set[int] = set()
        total = 0.0
        for k, picks in enumerate(assign):
            units = sum(u for _, u in picks)
            assert units == int(net.demands[k])
            for path, u in picks:
                total += u * float(sum(costs[k][net.cost_index(k, e)] for e in path))
                if path == (net.bypass_edge(k),):
                    continue
                shared = {e for e in path if e < net.num_shared}
                assert not (shared & seen_shared)
                seen_shared |= shared
        assert total == pytest.approx(val, abs=1e-9)


def oracle_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the statements in `tree` that import the oracle module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "oracle" or any(a.name == "oracle" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "oracle" for a in node.names):
                lines.append(node.lineno)
    return lines


def test_only_the_cli_and_the_package_import_the_oracle():
    # The oracle is a reference for tests and `mcftrack solve --oracle`; the
    # solver stack must not lean on it.
    modules = sorted(SRC.glob("*.py"))
    assert {"colgen.py", "cli.py", "oracle.py"} <= {p.name for p in modules}
    offenders = {
        p.name: lines
        for p in modules
        if p.name not in ("cli.py", "__init__.py")
        and (lines := oracle_imports(ast.parse(p.read_text(), str(p))))
    }
    assert not offenders, offenders
    for probe in ("from .oracle import enumerate_paths", "from . import oracle",
                  "import mcftrack.oracle", "from mcftrack.oracle import PATH_LIMIT"):
        assert oracle_imports(ast.parse(probe)) == [1], probe
