import itertools
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcycle import dp, generate
from tcycle.dp import (
    _prepare,
    solve_disjoint_paths,
    solve_m_cycle,
    solve_t_cycle,
    subdivided_instance,
)
from tcycle.errors import InvalidConfiguration, InvalidDecomposition, TCycleError
from tcycle.graph import EmbeddedGraph
from tcycle.oracle import (
    brute_disjoint_paths,
    brute_t_cycle,
    is_t_loop,
)
from tcycle.treewidth import build, make_nice


def test_triangle_yes():
    g = generate.ring(3, terminals={1, 2, 3})
    loop = solve_t_cycle(g)
    assert loop is not None and is_t_loop(g, {1, 2, 3}, loop)


def test_path_no():
    g = generate.path_graph(5, terminals={1, 5})
    assert solve_t_cycle(g) is None


def test_empty_terminals_rejected():
    g = generate.ring(3)
    with pytest.raises(InvalidConfiguration):
        solve_t_cycle(g, set())
    with pytest.raises(InvalidConfiguration):
        solve_t_cycle(g, {77})


def test_two_cycle_through_parallel_edges():
    g = EmbeddedGraph({1, 2}, {1: (1, 2), 2: (1, 2)}, {1: (1, 2), 2: (2, 1)})
    loop = solve_t_cycle(g, {1, 2})
    assert sorted(loop) == [1, 2]


def test_witness_grid_corners():
    g = generate.grid(3, 4, terminals={1, 4, 9, 12})
    loop = solve_t_cycle(g)
    assert loop is not None and is_t_loop(g, g.terminals, loop)


def test_agreement_with_brute_t_cycle():
    for seed in range(80):
        g = generate.random_planar(11, seed=seed)
        rng = random.Random(seed)
        T = set(rng.sample(sorted(g.vertices), rng.randrange(1, 6)))
        got = solve_t_cycle(g, T)
        want = brute_t_cycle(g, T)
        assert (got is None) == (want is None), (seed, T)
        if got is not None:
            assert is_t_loop(g, T, got)


def test_agreement_with_brute_disjoint_paths():
    for seed in range(80):
        g = generate.random_planar(11, seed=seed + 5000)
        rng = random.Random(seed)
        vs = rng.sample(sorted(g.vertices), 6)
        M = [(vs[0], vs[1]), (vs[2], vs[3]), (vs[4], vs[5])][: rng.randrange(4)]
        got = solve_disjoint_paths(g, M)
        want = brute_disjoint_paths(g, M)
        assert got == (want is not None), (seed, M)


def test_star_center_consumed():
    import networkx as nx

    g = generate.from_networkx_planar(nx.star_graph(3))
    assert not solve_disjoint_paths(g, [(1, 2), (3, 0)])
    assert solve_disjoint_paths(g, [(1, 2)])


def test_decomposition_independence():
    for seed in (2, 9, 21):
        g = generate.random_planar(12, seed=seed)
        rng = random.Random(seed)
        T = set(rng.sample(sorted(g.vertices), 3))
        answers = {
            solve_t_cycle(g, T, build(g, mode=m)) is None
            for m in ("greedy", "radial")
        }
        assert len(answers) == 1


def test_invalid_decomposition_rejected():
    g = generate.ring(4)
    other = build(generate.path_graph(3))
    with pytest.raises(InvalidDecomposition):
        solve_t_cycle(g, {1, 2}, other)


def test_subdivided_instance_shape():
    g = generate.ring(4)
    gm, subs = subdivided_instance(g, [(1, 3)])
    assert len(subs) == 1
    (w,) = subs
    assert gm.degree(w) == 2
    assert {gm.other_end(e, w) for e in gm.incident_edges(w)} == {1, 3}


def test_m_cycle_examples():
    g = generate.ring(4)
    assert solve_m_cycle(g, [1], [])
    assert solve_m_cycle(g, [1, 2], [(1, 2)])
    assert solve_m_cycle(g, [1, 2, 3, 4], [(1, 3), (2, 4)])
    path = generate.path_graph(4)
    assert solve_m_cycle(path, [1, 4], [(1, 4)])
    assert not solve_m_cycle(path, [1, 2, 3, 4], [(1, 2), (3, 4)])
    with pytest.raises(InvalidConfiguration):
        solve_m_cycle(g, [1], [(1, 3)])


def test_m_cycle_with_supplied_decomposition():
    g = generate.grid(3, 3)
    td = build(g)
    B = [1, 3, 7, 9]
    for M in ([], [(1, 3)], [(1, 9), (3, 7)]):
        assert solve_m_cycle(g, B, M, td) == solve_m_cycle(g, B, M)


def test_loop_implies_linkage_of_split_pairs():
    # a T-loop on four terminals yields disjoint paths for any split of
    # the terminals into two disjoint pairs visited oppositely
    for seed in range(30):
        g = generate.random_planar(10, seed=seed + 300)
        rng = random.Random(seed)
        T = rng.sample(sorted(g.vertices), 4)
        if solve_t_cycle(g, set(T)) is None:
            continue
        splits = [
            [(T[0], T[1]), (T[2], T[3])],
            [(T[0], T[2]), (T[1], T[3])],
            [(T[0], T[3]), (T[1], T[2])],
        ]
        assert any(solve_disjoint_paths(g, M) for M in splits)


def test_loop_implies_m_cycle_on_pair():
    for seed in range(20):
        g = generate.random_planar(9, seed=seed + 700)
        vs = sorted(g.vertices)
        u, v = vs[0], vs[-1]
        if solve_t_cycle(g, {u, v}) is not None:
            assert solve_m_cycle(g, [u, v], [(u, v)])


def naive_assign(graph, td):
    """Reference edge assignment: scan every bag for each edge and take the
    holder closest to the root."""
    depth = {td.root: 0}
    stack = [td.root]
    while stack:
        x = stack.pop()
        for c in td.children[x]:
            depth[c] = depth[x] + 1
            stack.append(c)
    assign = {n: [] for n in td.bags}
    for eid in sorted(graph.edges):
        u, v = graph.edges[eid]
        if u == v:
            continue
        cands = [n for n, bag in td.bags.items() if u in bag and v in bag]
        assign[min(cands, key=lambda n: depth[n])].append(eid)
    return assign


def assignment_graphs():
    rng = random.Random(1997)
    for seed in range(30):
        yield generate.random_planar(rng.randrange(6, 36), seed=seed, drop=rng.choice((0.0, 0.3)))
    for rows, cols in ((3, 3), (4, 6), (6, 6)):
        yield generate.grid(rows, cols)
    for rows in (2, 3, 4):
        for cols in (2, 11, 40):
            yield generate.grid(rows, cols)
    for rings, size, spoke in ((3, 3, 1), (5, 4, 1), (7, 5, 2)):
        yield generate.nested_rings(rings, ring_size=size, spoke_every=spoke)


def test_prepare_assignment_matches_naive_reference():
    for g in assignment_graphs():
        for td in (None, build(g, mode="radial"), make_nice(build(g))):
            nice, assign = _prepare(g, td)
            assert assign == naive_assign(g, nice)


def test_long_ladder_solves():
    n = 10000
    g = generate.grid(2, n, terminals={1, n // 2, n, n + 1, 2 * n})
    loop = solve_t_cycle(g)
    assert loop is not None and is_t_loop(g, g.terminals, loop)
    assert len(loop) == 2 * n


def test_bad_witness_raises(monkeypatch):
    run = dp._TCycleDP.run
    monkeypatch.setattr(dp._TCycleDP, "run", lambda self: run(self)[1:])
    g = generate.grid(3, 4, terminals={1, 12})
    with pytest.raises(TCycleError):
        solve_t_cycle(g)


# -- the join before degree-vector grouping, kept as the reference ----------


def reference_components(pair_edges):
    """Split a union of endpoint pairs (a degree <= 2 multigraph) into
    components; returns (paths, cycle_count) with paths as (end, end)."""
    adj = {}
    for k, (a, b) in enumerate(pair_edges):
        adj.setdefault(a, []).append((k, b))
        adj.setdefault(b, []).append((k, a))
    seen = set()
    paths = []
    cycles = 0
    # walk open paths starting from their degree-one endpoints
    for start in sorted(adj, key=repr):
        if len(adj[start]) != 1 or adj[start][0][0] in seen:
            continue
        cur = start
        while True:
            step = [(k, w) for k, w in adj[cur] if k not in seen]
            if not step:
                break
            k, w = step[0]
            seen.add(k)
            cur = w
        paths.append((start, cur))
    # whatever is left closes on itself
    for k, (a, b) in enumerate(pair_edges):
        if k in seen:
            continue
        cycles += 1
        seen.add(k)
        cur = b
        while cur != a:
            k2, w = next((x, y) for x, y in adj[cur] if x not in seen)
            seen.add(k2)
            cur = w
    return paths, cycles


def reference_t_cycle_join(self, tables, node, bag):
    a, b = self.td.children[node]
    out = {}
    for (da, pa, ca), wa in tables[a].items():
        for (db, pb, cb), wb in tables[b].items():
            if ca and cb:
                continue
            degs = tuple(x + y for x, y in zip(da, db))
            if any(d > 2 for d in degs):
                continue
            paths, cycles = reference_components(
                [tuple(sorted(p)) for p in pa] + [tuple(sorted(p)) for p in pb]
            )
            if cycles > 1 or (cycles and (ca or cb)):
                continue
            closed = ca or cb or cycles == 1
            pairs = frozenset(frozenset(p) for p in paths)
            if closed and pairs:
                continue
            key = (degs, pairs, closed)
            out.setdefault(key, ("j", wa, wb))
    return out


def reference_linkage_join(self, tables, node, bag):
    a, b = self.td.children[node]
    out = set()
    for da, fa, za in tables[a]:
        for db, fb, zb in tables[b]:
            degs = tuple(x + y for x, y in zip(da, db))
            if any(d > self.cap(v) for d, v in zip(degs, bag)):
                continue
            paths, cycles = reference_components(
                [tuple(sorted(f, key=repr)) for f in fa]
                + [tuple(sorted(f, key=repr)) for f in fb]
            )
            if cycles:
                continue
            done = set(za | zb)
            frags = set()
            ok = True
            for x, y in paths:
                if x == y:
                    ok = False
                    break
                if x[0] == "a" and y[0] == "a":
                    pair = frozenset({x[1], y[1]})
                    if pair not in self.pairs:
                        ok = False
                        break
                    done.add(pair)
                else:
                    frags.add(frozenset({x, y}))
            if ok:
                out.add((degs, frozenset(frags), frozenset(done)))
    return out


def checked(dp_class, reference):
    """dp_class whose every join asserts that its key set is the
    reference join's; counts the joins and the states they produced."""

    class Checked(dp_class):
        joins = 0
        states = 0

        def _join(self, tables, node, bag):
            got = super()._join(tables, node, bag)
            want = reference(self, tables, node, bag)
            assert set(got) == set(want), (node, bag)
            Checked.joins += 1
            Checked.states += len(want)
            return got

    return Checked


def join_instances():
    """(graph, terminals, matching) on random planar graphs, grids and ring
    towers."""
    rng = random.Random(4242)
    for seed in range(84):
        g = generate.random_planar(rng.randrange(10, 31), seed=seed + 9000)
        vs = sorted(g.vertices)
        T = rng.sample(vs, rng.randrange(1, 6))
        ends = rng.sample(vs, 2 * rng.randrange(1, 4))
        yield g, T, list(zip(ends[::2], ends[1::2]))
    for rows, cols in ((3, 3), (3, 5), (4, 4), (4, 6), (5, 5)):
        g = generate.grid(rows, cols)
        n = rows * cols
        yield g, [1, cols, n], [(1, n), (cols, n - cols + 1)]
        yield g, [2, n - 1], [(1, n - 1), (2, n)]
    for rings, size in ((3, 3), (4, 4), (5, 3), (3, 6)):
        g = generate.nested_rings(rings, ring_size=size)
        ids = generate.ring_ids(rings, ring_size=size)
        yield g, [ids[0][0], ids[-1][1]], [(ids[0][0], ids[-1][0]), (ids[0][1], ids[-1][-1])]
        yield g, ids[-1], [(ids[0][0], ids[-1][1])]


def test_join_key_sets_match_the_reference():
    tdp = checked(dp._TCycleDP, reference_t_cycle_join)
    ldp = checked(dp._LinkageDP, reference_linkage_join)
    graphs = 0
    for g, T, M in join_instances():
        td, assign = _prepare(g, None)
        wit = tdp(g, frozenset(T), td, assign).run()
        if wit is not None:
            assert is_t_loop(g, set(T), sorted(wit))
        pairs = dp.check_matching(g, M)
        ldp(g, pairs, td, assign).run()
        graphs += 1
    assert graphs >= 100
    # the same decompositions, so both DPs meet the same join nodes
    assert tdp.joins == ldp.joins > 500
    assert tdp.states > 20 * tdp.joins and ldp.states > 20 * ldp.joins


def _pairing(vertices):
    return st.lists(st.sampled_from(vertices), unique=True, max_size=len(vertices)).map(
        lambda vs: [tuple(vs[i : i + 2]) for i in range(0, len(vs) - 1, 2)]
    )


@settings(max_examples=300, deadline=None)
@given(_pairing(range(8)), _pairing(range(8)))
def test_merge_matches_reference_components(pa, pb):
    # two pairings of at most eight ends: their union has degree <= 2
    pairs, cycles = dp._merge(frozenset(map(frozenset, pa)), frozenset(map(frozenset, pb)))
    paths, want = reference_components(pa + pb)
    assert cycles == want
    assert pairs == frozenset(frozenset(p) for p in paths)


def test_each_dp_logs_one_debug_line(caplog):
    g = generate.random_planar(16, seed=3)
    td, _ = _prepare(g, None)
    joins = sum(td.kind[n] == "join" for n in td.bags)
    assert joins > 0
    caplog.set_level(logging.DEBUG, logger="tcycle.dp")
    vs = sorted(g.vertices)
    solve_t_cycle(g, set(vs[:3]), td)
    solve_disjoint_paths(g, [(vs[0], vs[-1])], td)
    lines = [r for r in caplog.records if r.name == "tcycle.dp"]
    assert [r.levelname for r in lines] == ["DEBUG", "DEBUG"]
    for r, name in zip(lines, ("t-cycle", "linkage")):
        nodes, njoins, peak, merges = r.args
        assert r.getMessage().startswith(name)
        assert (nodes, njoins) == (len(td.bags), joins)
        assert peak >= 1 and merges >= 1
