import itertools
import random

import networkx as nx
import pytest

from tcycle import generate
from tcycle.errors import InvalidConfiguration, SizeLimitExceeded
from tcycle.graph import EmbeddedGraph
from tcycle.kernel import is_minor_model
from tcycle.oracle import (
    IsolationOracle,
    all_cycles,
    brute_disjoint_paths,
    brute_isolation,
    brute_minor,
    brute_t_cycle,
    check_matching,
    enumerate_cheap_loops,
    is_t_loop,
    max_nested_cycles,
)


def test_all_cycles_counts():
    tri = generate.ring(3)
    assert len(all_cycles(tri)) == 1
    g = generate.grid(2, 3)
    # two unit squares and their union
    assert len(all_cycles(g)) == 3
    assert len(all_cycles(generate.path_graph(6))) == 0


def test_all_cycles_parallel_edges():
    g = EmbeddedGraph({1, 2}, {1: (1, 2), 2: (1, 2)}, {1: (1, 2), 2: (2, 1)})
    assert all_cycles(g) == {frozenset({1, 2})}


def test_is_t_loop_rejects_repeated_and_unknown_edge_ids():
    g = generate.ring(3)
    assert is_t_loop(g, {1, 2, 3}, [1, 2, 3])
    assert not is_t_loop(g, {1, 2, 3}, [1, 2, 3, 3])
    assert not is_t_loop(g, {1}, [1, 2, 99])


def test_brute_t_cycle_triangle():
    g = generate.ring(3, terminals={1, 2, 3})
    loop = brute_t_cycle(g)
    assert loop is not None and is_t_loop(g, {1, 2, 3}, loop)


def test_brute_t_cycle_none_on_tree():
    g = generate.path_graph(6, terminals={1, 6})
    assert brute_t_cycle(g) is None


def test_brute_t_cycle_grid_corners():
    g = generate.grid(3, 3, terminals={1, 3, 7, 9})
    loop = brute_t_cycle(g)
    assert loop is not None and is_t_loop(g, g.terminals, loop)


def test_brute_t_cycle_needs_terminals():
    g = generate.ring(4)
    with pytest.raises(InvalidConfiguration):
        brute_t_cycle(g, [])


def test_brute_t_cycle_size_guard():
    g = generate.grid(5, 4, terminals={1})
    with pytest.raises(SizeLimitExceeded):
        brute_t_cycle(g)


def test_matching_validation():
    g = generate.grid(2, 2)
    with pytest.raises(InvalidConfiguration):
        check_matching(g, [(1, 1)])
    with pytest.raises(InvalidConfiguration):
        check_matching(g, [(1, 2), (2, 3)])
    assert check_matching(g, [(1, 2), (3, 4)]) == [frozenset({1, 2}), frozenset({3, 4})]


def test_disjoint_paths_planar_crossing():
    g = generate.grid(2, 2)
    # opposite corners cannot be linked by two disjoint paths in a square
    assert brute_disjoint_paths(g, [(1, 4), (2, 3)]) is None
    got = brute_disjoint_paths(g, [(1, 2), (3, 4)])
    assert got == [[1, 2], [3, 4]]
    assert brute_disjoint_paths(g, []) == []


def test_disjoint_paths_interior_avoids_endpoints():
    g = generate.path_graph(3)
    # 1..3 exists only through 2; making 2 an endpoint of another pair is
    # impossible here, but as interior it is allowed
    assert brute_disjoint_paths(g, [(1, 3)]) == [[1, 2, 3]]


def test_minor_basics():
    c6 = generate.ring(6)
    tri = generate.ring(3)
    assert brute_minor(c6, tri) is not None
    assert brute_minor(tri, c6) is None
    g = generate.grid(3, 3)
    k4 = generate.from_networkx_planar(nx.complete_graph([1, 2, 3, 4]))
    assert is_minor_model(g, k4, brute_minor(g, k4))
    k5 = EmbeddedGraph(
        set(range(5)),
        {i * 5 + j: (i, j) for i in range(5) for j in range(i + 1, 5)},
        {
            v: tuple(i * 5 + j for i in range(5) for j in range(i + 1, 5) if v in (i, j))
            for v in range(5)
        },
    )
    assert brute_minor(g, k5) is None


def test_minor_isolated_pattern_vertices():
    g = generate.grid(2, 3)
    pat = EmbeddedGraph({1, 2, 3}, {1: (1, 2)}, {1: (1,), 2: (1,)})
    assert is_minor_model(g, pat, brute_minor(g, pat))
    assert brute_minor(g, EmbeddedGraph(set(), {}, {})) == {}


def minor_cases():
    """Seeded (host, pattern) pairs: random planar, grid, ring and path
    hosts, and random planar patterns of up to six vertices, some of them
    isolated."""
    rng = random.Random(4242)
    hosts = [generate.random_planar(rng.randrange(4, 12), seed=s + 9000) for s in range(60)]
    hosts += [generate.grid(2, 4), generate.grid(3, 3), generate.ring(7), generate.path_graph(8)]
    # sparse hosts, where dense patterns make the search run dry
    for s in range(24):
        tree = nx.Graph((v, rng.randrange(1, v)) for v in range(2, rng.randrange(6, 11)))
        if s % 2:
            tree.add_edge(1, max(tree))
        hosts.append(generate.from_networkx_planar(tree))
    for i in range(560):
        host = hosts[i % len(hosts)]
        k = rng.randrange(0, 7)
        labels = rng.sample(range(1, 40), k)
        pairs = list(itertools.combinations(labels, 2))
        gx = nx.Graph()
        gx.add_nodes_from(labels)
        gx.add_edges_from(p for p in pairs if rng.random() < rng.choice((0.3, 0.6, 0.9)))
        if not nx.check_planarity(gx)[0]:
            continue
        yield host, generate.from_networkx_planar(gx)


def test_minor_search_models_are_valid():
    cases = searched_no = isolated = 0
    for host, pattern in minor_cases():
        got = brute_minor(host, pattern)
        if got is not None:
            assert is_minor_model(host, pattern, got)
        elif len(pattern.vertices) <= len(host.vertices) and len(pattern.edges) <= len(host.edges):
            searched_no += 1  # a NO that the size tests do not settle
        cases += 1
        isolated += any(not pattern.neighbors(v) for v in pattern.vertices)
    assert cases >= 500 and searched_no >= 30 and isolated >= 100, (cases, searched_no, isolated)


def test_isolation_nested_rings():
    g = generate.nested_rings(3)
    rings = generate.ring_ids(3)
    T = {rings[2][0]}
    orc = IsolationOracle(g)
    v = rings[0][0]
    assert orc.query(v, T, 0)
    assert orc.query(v, T, 1)
    assert not orc.query(v, T, 2)
    # a terminal is never isolated from itself
    assert not orc.query(rings[2][0], T, 0)


def wheel_with_pendant():
    # hub 10 inside a triangle ring 1,2,3; pendant terminal 11 outside
    import math

    points = {10: (0.0, 0.0), 11: (2.0, 0.0)}
    for j, v in enumerate((1, 2, 3)):
        a = 2 * math.pi * j / 3
        points[v] = (math.cos(a), math.sin(a))
    edges = {
        1: (1, 2), 2: (2, 3), 3: (1, 3),
        4: (10, 1), 5: (10, 2), 6: (10, 3),
        7: (1, 11),
    }
    return generate.from_coordinates(points, edges, terminals={11})


def test_isolation_wheel():
    g = wheel_with_pendant()
    assert brute_isolation(g, {11}, 10, 0)
    assert not brute_isolation(g, {11}, 10, 1)


def test_isolation_rejects_a_negative_level():
    # the radial criterion calls every vertex (-1)-isolated; the oracle
    # refuses the level rather than answer it
    g = generate.ring(4, terminals={1})
    with pytest.raises(InvalidConfiguration):
        IsolationOracle(g).query(3, {1}, -1)
    with pytest.raises(InvalidConfiguration):
        brute_isolation(g, {1}, 3, -1)


def test_max_nested_cycles():
    assert max_nested_cycles(generate.nested_rings(3)) == 3
    assert max_nested_cycles(generate.path_graph(4)) == 0
    assert max_nested_cycles(generate.grid(3, 3)) == 1


def test_cheap_loops():
    import math

    rings = generate.ring_ids(2)
    t = 100
    points = {}
    for i in range(2):
        for j in range(3):
            a = 2 * math.pi * j / 3
            points[rings[i][j]] = ((i + 1) * math.cos(a), (i + 1) * math.sin(a))
    points[t] = (3 * math.cos(math.pi / 3), 3 * math.sin(math.pi / 3))
    edges = {}
    eid = 1
    for i in range(2):
        for j in range(3):
            edges[eid] = (rings[i][j], rings[i][(j + 1) % 3])
            eid += 1
    for j in range(3):
        edges[eid] = (rings[0][j], rings[1][j])
        eid += 1
    edges[eid] = (t, rings[1][0])
    edges[eid + 1] = (t, rings[1][1])
    g2 = generate.from_coordinates(
        points, edges, terminals={t},
        outer_hint=set(rings[1]) | {t},
    )
    ring_sets = [
        frozenset(e for e, (u, v) in g2.edges.items() if u in r and v in r)
        for r in rings
    ]
    cost, loops = enumerate_cheap_loops(g2, ring_sets)
    assert cost == 2
    assert all(is_t_loop(g2, {t}, list(l)) for l in loops)

    bad = g2.with_terminals({rings[0][0]})
    with pytest.raises(InvalidConfiguration):
        enumerate_cheap_loops(bad, ring_sets)
