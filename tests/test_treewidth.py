import heapq
import random
from collections import Counter

import networkx as nx
import pytest

from tcycle import generate
from tcycle.errors import (
    EdgeUncovered,
    InvalidDecomposition,
    VertexSubtreeDisconnected,
)
from tcycle.graph import unembedded
from tcycle.treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    _bfs_path,
    _greedy_fill,
    build,
    cheapest,
    from_pace_lines,
    lca_closure,
    make_nice,
    pace_lines,
)


def test_validate_single_bag():
    g = generate.grid(2, 3)
    td = TreeDecomposition({0: g.vertices}, [])
    assert td.validate(g) == len(g.vertices) - 1


def test_validate_path_of_two_bags():
    g = generate.path_graph(5)
    bags = {i: {i + 1, i + 2} for i in range(4)}
    td = TreeDecomposition(bags, [(i, i + 1) for i in range(3)])
    assert td.validate(g) == 1


def test_validate_uncovered_edge():
    g = generate.path_graph(3)
    td = TreeDecomposition({0: {1, 2}, 1: {3}}, [(0, 1)])
    with pytest.raises(EdgeUncovered):
        td.validate(g)


def test_validate_disconnected_occurrence():
    g = generate.path_graph(3)
    td = TreeDecomposition({0: {1, 2}, 1: {2, 3}, 2: {1, 2}}, [(0, 1), (1, 2)])
    with pytest.raises(VertexSubtreeDisconnected):
        td.validate(g)


def test_validate_missing_vertex():
    g = generate.path_graph(2).subgraph({1, 2}).without_edges({1})
    td = TreeDecomposition({0: {1}}, [])
    with pytest.raises(VertexSubtreeDisconnected):
        td.validate(g)


def test_validate_not_a_tree():
    g = generate.path_graph(2)
    with pytest.raises(InvalidDecomposition):
        TreeDecomposition(
            {0: {1, 2}, 1: {1, 2}, 2: {1, 2}}, [(0, 1), (1, 2), (2, 0)]
        ).validate(g)


def test_build_tree_width_one():
    g = generate.path_graph(8)
    td = build(g)
    assert td.validate(g) == 1


def test_build_cycle_width_two():
    g = generate.ring(7)
    assert build(g).validate(g) == 2


def test_build_grid_width():
    g = generate.grid(4, 4)
    w = build(g).validate(g)
    # regression baseline for the min-fill heuristic
    assert w <= 7


def test_min_degree_decomposition_is_a_second_valid_shape(min_degree_td):
    for g in (generate.grid(4, 5), generate.nested_rings(4)):
        td = min_degree_td(g)
        td.validate(g)
        assert td.bags != build(g).bags


def test_build_disconnected(min_degree_td):
    g = generate.ring(3)
    from tcycle.graph import EmbeddedGraph

    h = EmbeddedGraph(
        set(g.vertices) | {7, 8},
        {**g.edges, 99: (7, 8)},
        {**g.rotation, 7: (99,), 8: (99,)},
    )
    for td in (build(h), min_degree_td(h)):
        td.validate(h)


def test_make_nice_single_empty_bag():
    td = TreeDecomposition({0: frozenset()}, [])
    nice = make_nice(td)
    assert nice.kind[nice.root] == "leaf"
    assert len(nice.bags) == 1


def test_make_nice_preserves_width():
    for seed in range(6):
        g = generate.random_planar(11, seed=seed)
        td = build(g)
        nice = make_nice(td)
        assert nice.check_shape()
        assert nice.validate(g) == td.validate(g)


def test_make_nice_grid():
    g = generate.grid(3, 3)
    nice = make_nice(build(g))
    assert nice.check_shape()
    kinds = set(nice.kind.values())
    assert {"leaf", "introduce", "forget"} <= kinds
    # every vertex is introduced at least once and forgotten exactly once
    forgotten = [
        v
        for n, k in nice.kind.items()
        if k == "forget"
        for v in nice.bags[nice.children[n][0]] - nice.bags[n]
    ]
    assert sorted(forgotten) == sorted(g.vertices)


def test_check_shape_raises_on_broken_nodes():
    open_root = NiceTreeDecomposition(
        {0: set(), 1: {1}}, {0: "leaf", 1: "introduce"}, {0: [], 1: [0]}, 1
    )
    with pytest.raises(InvalidDecomposition):
        open_root.check_shape()  # the root bag is not empty
    bad_kind = NiceTreeDecomposition(
        {0: set(), 1: {1}, 2: set()},
        {0: "leaf", 1: "forget", 2: "forget"},
        {0: [], 1: [0], 2: [1]},
        2,
    )
    with pytest.raises(InvalidDecomposition):
        bad_kind.check_shape()  # node 1 grows its bag but claims to forget
    nice = make_nice(build(generate.grid(3, 3)))
    assert nice.check_shape()
    nice.kind[next(n for n, k in nice.kind.items() if k == "leaf")] = "join"
    with pytest.raises(InvalidDecomposition):
        nice.check_shape()


def naive_greedy_fill(graph):
    """Reference min-fill ordering: rescans every remaining vertex at each
    step, ties going to the smallest vertex."""
    adj = {v: set() for v in graph.vertices}
    for u, v in graph.edges.values():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    order = []
    bags = []
    left = set(adj)
    while left:
        best, best_fill = None, None
        for v in sorted(left):
            nb = adj[v]
            fill = sum(1 for a in nb for b in nb if a < b and b not in adj[a])
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        nb = set(adj[best])
        order.append(best)
        bags.append(frozenset({best} | nb))
        for a in nb:
            for b in nb:
                if a != b:
                    adj[a].add(b)
        for a in nb:
            adj[a].discard(best)
        del adj[best]
        left.discard(best)
    return order, bags


def differential_graphs():
    """Seeded random planar graphs, grids, 2/3/4-row ladders and ring
    towers."""
    rng = random.Random(2010)
    for seed in range(40):
        yield generate.random_planar(rng.randrange(6, 40), seed=seed, drop=rng.choice((0.0, 0.3, 0.6)))
    for rows, cols in ((3, 3), (4, 5), (5, 7), (6, 6), (7, 9)):
        yield generate.grid(rows, cols)
    for rows in (2, 3, 4):
        for cols in (2, 9, 31, 60):
            yield generate.grid(rows, cols)
    for rings, size, spoke in ((3, 3, 1), (5, 4, 1), (6, 6, 2), (9, 5, 3)):
        yield generate.nested_rings(rings, ring_size=size, spoke_every=spoke)


def test_greedy_fill_matches_naive_reference():
    for g in differential_graphs():
        assert _greedy_fill(g) == naive_greedy_fill(g)


def heap_greedy_fill(graph):
    """Reference min-fill ordering with the heap: after each elimination it
    recounts, pair by pair, the fill of every vertex within two steps of
    the eliminated one."""

    def fill_of(adj, v):
        nb = adj[v]
        return sum(1 for a in nb for b in nb if a < b and b not in adj[a])

    adj = {v: set() for v in graph.vertices}
    for u, v in graph.edges.values():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    fill = {v: fill_of(adj, v) for v in adj}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order = []
    bags = []
    while heap:
        f, best = heapq.heappop(heap)
        if best not in adj or fill[best] != f:
            continue
        nb = adj.pop(best)
        order.append(best)
        bags.append(frozenset({best} | nb))
        for a in nb:
            adj[a] |= nb
            adj[a].discard(a)
            adj[a].discard(best)
        touched = set(nb)
        for a in nb:
            touched |= adj[a]
        for w in touched:
            f = fill_of(adj, w)
            if f != fill[w]:
                fill[w] = f
                heapq.heappush(heap, (f, w))
    return order, bags


def test_greedy_fill_matches_heap_reference():
    graphs = list(differential_graphs())
    graphs += [generate.grid(rows, cols) for rows, cols in ((2, 200), (3, 120), (4, 75), (10, 10))]
    graphs += [generate.random_planar(n, seed=seed, k=4) for n in (60, 90, 120) for seed in (0, 1)]
    for g in graphs:
        want = heap_greedy_fill(g)
        assert _greedy_fill(g) == want
        # a limit stops it at its first bag that large, and nowhere else
        widest = max(map(len, want[1]))
        assert _greedy_fill(g, limit=widest) is None
        assert _greedy_fill(g, limit=widest + 1) == want


def several_components():
    """Disjoint unions of grids, rings, paths and isolated vertices."""
    parts = (generate.grid(3, 5), generate.ring(6), generate.path_graph(4), generate.grid(2, 7))
    for count in range(1, len(parts) + 1):
        for lonely in ((), (1000,), (0, 1000, 1001)):
            vertices = set(lonely)
            edges = {}
            for i, g in enumerate(parts[:count]):
                shift = 100 * (i + 1)
                vertices |= {v + shift for v in g.vertices}
                edges.update({eid + shift: (u + shift, v + shift) for eid, (u, v) in g.edges.items()})
            yield unembedded(vertices, edges)


def test_bfs_path_is_valid_on_several_components():
    for g in several_components():
        td = _bfs_path(g)
        assert td.validate(g) <= 3
        assert len(td.bags) == len(g.vertices)
        assert cheapest(g).validate(g) <= build(g).width
    for g in differential_graphs():
        _bfs_path(g).validate(g)


def test_bfs_path_runs_from_the_far_end():
    # the first sweep from 1 ends at 6; the second runs 6, 5, ..., 1
    td = _bfs_path(generate.path_graph(6))
    assert td.bags == {5: {6}, 4: {5, 6}, 3: {4, 5}, 2: {3, 4}, 1: {2, 3}, 0: {1, 2}}
    # bags numbered last to first: the default root is the second-last
    # bag, in memory and in the text form
    assert td.root == 1
    parsed = from_pace_lines(pace_lines(td, 6))
    assert parsed.bags[parsed.root] == {2, 3}


def test_cheapest_takes_the_path_unless_min_fill_is_narrower():
    ladder = generate.grid(3, 40)
    assert build(ladder).width == cheapest(ladder).width == 3
    assert cheapest(ladder).bags == _bfs_path(ladder).bags  # a tie
    tree = generate.from_networkx_planar(nx.balanced_tree(2, 4))
    assert _bfs_path(tree).width > 1
    assert cheapest(tree).bags == build(tree).bags
    assert cheapest(tree).links == build(tree).links
    # the 10x10 grid: min-fill gives width 13, the path 10
    assert cheapest(generate.grid_with_terminals(10, 10, 4, seed=0)).width <= 10


def reference_validate(td, graph):
    """The check that validate replaced: every edge in some bag, then a
    search over each vertex's bags."""
    if len(td.links) != len(td.bags) - 1:
        raise InvalidDecomposition("link count is wrong for a tree")
    td.rooted()
    occurrences = {v: set() for v in graph.vertices}
    for n, bag in td.bags.items():
        for v in bag:
            occurrences[v].add(n)
    for eid, (u, v) in graph.edges.items():
        if occurrences[u].isdisjoint(occurrences[v]):
            raise EdgeUncovered(f"edge {eid} is in no bag")
    for v, occ in occurrences.items():
        if not occ:
            raise VertexSubtreeDisconnected(f"vertex {v} is in no bag")
        seen = {min(occ)}
        stack = list(seen)
        while stack:
            for y in td.adj[stack.pop()]:
                if y in occ and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != occ:
            raise VertexSubtreeDisconnected(f"bags of vertex {v} are not connected")
    return td.width


def outcome(check, td, graph):
    try:
        return check(td, graph)
    except InvalidDecomposition as exc:
        return type(exc)


def test_validate_matches_reference(min_degree_td):
    rng = random.Random(31)
    checked = Counter()
    for g in differential_graphs():
        vs = sorted(g.vertices)
        for td in (build(g), min_degree_td(g)):
            for _ in range(6):
                bags = dict(td.bags)
                for _ in range(rng.randrange(3)):  # drop a vertex from a bag, or add one
                    n = rng.choice(sorted(bags))
                    bags[n] = bags[n] ^ {rng.choice(sorted(bags[n]) if bags[n] and rng.random() < 0.5 else vs)}
                changed = TreeDecomposition(bags, td.links, root=td.root)
                want = outcome(reference_validate, changed, g)
                got = outcome(TreeDecomposition.validate, changed, g)
                # an edge left uncovered by a vertex whose bags fell apart is
                # reported as the latter
                if want is EdgeUncovered and got is VertexSubtreeDisconnected:
                    want = got
                assert got == want
                checked[want if isinstance(want, type) else "valid"] += 1
    assert min(checked.values()) >= 20 and len(checked) == 3, checked


def random_tree_td(n, seed):
    rng = random.Random(seed)
    bags = {0: frozenset()}
    links = []
    for i in range(1, n):
        links.append((rng.randrange(i), i))
        bags[i] = frozenset()
    return TreeDecomposition(bags, links, root=0)


def brute_closure(td, marked):
    parent, children, order = td.rooted()
    depth = {td.root: 0}
    for node in order[1:]:
        depth[node] = depth[parent[node]] + 1

    def lca(a, b):
        while a != b:
            if depth[a] < depth[b]:
                b = parent[b]
            else:
                a = parent[a]
        return a

    out = set(marked)
    while True:
        extra = {lca(a, b) for a in out for b in out} - out
        if not extra:
            return frozenset(out)
        out |= extra


def test_lca_closure_trivial():
    td = random_tree_td(8, seed=1)
    assert lca_closure(td, set()) == frozenset()
    assert lca_closure(td, {5}) == frozenset({5})


def test_lca_closure_matches_brute():
    rng = random.Random(42)
    for seed in range(20):
        td = random_tree_td(12, seed=seed)
        nodes = sorted(td.bags)
        marked = set(rng.sample(nodes, rng.randrange(1, 6)))
        got = lca_closure(td, marked)
        assert got == brute_closure(td, marked)
        assert len(got) <= 2 * len(marked) - 1


def test_lca_closure_component_boundary():
    # removing the closure leaves components touching at most two of its nodes
    rng = random.Random(7)
    for seed in range(15):
        td = random_tree_td(12, seed=seed)
        marked = set(rng.sample(sorted(td.bags), 3))
        L = lca_closure(td, marked)
        left = set(td.bags) - L
        seen = set()
        for start in sorted(left):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in td.adj[x]:
                    if y in left and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            touching = {l for l in L if any(x in td.adj[l] for x in comp)}
            assert len(touching) <= 2


def test_pace_lines():
    g = generate.path_graph(3)
    td = build(g)
    lines = pace_lines(td, len(g.vertices))
    assert lines[0] == f"s td {len(td.bags)} {td.width + 1} 3"
    assert sum(1 for l in lines if l.startswith("b ")) == len(td.bags)
