import logging
import random
from collections import Counter
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcycle import dp, generate
from tcycle.dp import (
    boundary_linkages,
    solve_disjoint_paths,
    solve_m_cycle,
    solve_t_cycle,
    subdivided_instance,
)
from tcycle.errors import InvalidConfiguration, InvalidDecomposition, TCycleError
from tcycle.graph import EmbeddedGraph, unembedded
from tcycle.oracle import (
    brute_disjoint_paths,
    brute_t_cycle,
    is_t_loop,
)
from tcycle.treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    _bfs_path,
    build,
    cheapest,
    from_pace_lines,
    make_nice,
    pace_lines,
)


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


def test_decomposition_independence(min_degree_td):
    for seed in (2, 9, 21):
        g = generate.random_planar(12, seed=seed)
        rng = random.Random(seed)
        T = set(rng.sample(sorted(g.vertices), 3))
        answers = {
            solve_t_cycle(g, T, td) is None for td in (build(g), min_degree_td(g))
        }
        assert len(answers) == 1


def test_invalid_decomposition_rejected():
    g = generate.ring(4)
    other = build(generate.path_graph(3))
    with pytest.raises(InvalidDecomposition):
        solve_t_cycle(g, {1, 2}, other)


def test_boundary_linkages_small_cases():
    # a path passes through its middle only when that is not a boundary vertex
    assert boundary_linkages(generate.path_graph(3), {1, 3}) == {(), ((1, 3),)}
    assert boundary_linkages(generate.path_graph(3), {1, 2, 3}) == {
        (), ((1, 2),), ((2, 3),), ((1, 2), (2, 3)),
    }
    # the two arcs of a ring are two segments between the same ends, and a
    # ring through one boundary vertex is a segment from it back to it
    assert boundary_linkages(generate.ring(4), {1, 3}) == {(), ((1, 3),), ((1, 3), (1, 3))}
    assert boundary_linkages(generate.ring(4), {2}) == {(), ((2, 2),)}


def test_subdivided_instance_shape():
    g = generate.ring(4)
    gm, subs = subdivided_instance(g, [(1, 3)])
    assert len(subs) == 1
    (w,) = subs
    assert gm.degree(w) == 2
    assert gm.neighbors(w) == {1, 3}


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
    parent, _, order = td.rooted()
    depth = {td.root: 0}
    for x in order[1:]:
        depth[x] = depth[parent[x]] + 1
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


def one_bag(graph):
    """The decomposition of one bag that holds every vertex."""
    return TreeDecomposition({0: graph.vertices}, [])


def test_prepare_assignment_matches_naive_reference(min_degree_td):
    for g in assignment_graphs():
        for td in (None, min_degree_td(g), make_nice(build(g)), one_bag(g)):
            engine = dp._PathDP(g, dp._prepare(g, td), {}, frozenset())
            got = {
                x: sorted(e for v in vs for e in engine.charged[v])
                for x, vs in engine.forget.items()
            }
            assert got == naive_assign(g, engine.td)
            # an edge is charged to whichever of its ends is forgotten first
            order = [v for x in engine.postorder for v in engine.forget[x]]
            when = {v: i for i, v in enumerate(order)}
            for v, eids in engine.charged.items():
                for eid in eids:
                    (w,) = set(g.edges[eid]) - {v}
                    assert when[v] < when[w]
            if not isinstance(td, NiceTreeDecomposition):
                nice, assign = nice_prepare(g, td)
                assert assign == naive_assign(g, nice)


def test_slots_are_distinct_within_every_bag(min_degree_td):
    for g in assignment_graphs():
        for td in (build(g), min_degree_td(g), make_nice(build(g)), one_bag(g)):
            engine = dp._PathDP(g, td, {}, frozenset())
            size = max(map(len, td.bags.values()))
            for bag in td.bags.values():
                slots = [engine.slot[v] for v in bag]
                assert len(set(slots)) == len(slots)
                assert all(0 <= s < size for s in slots)


def brute_boundary_linkages(graph, boundary):
    """Reference for `boundary_linkages`: list every boundary-to-boundary
    segment as a simple path, then every set of segments whose interiors
    are disjoint and that end at most twice at each boundary vertex."""
    B = frozenset(boundary)
    incident = {v: [] for v in graph.vertices}
    for eid, (u, v) in graph.edges.items():
        if u != v:
            incident[u].append((eid, v))
            incident[v].append((eid, u))
    segments = {}  # edge set -> (ends, interior); each is met from both ends

    def walk(start, at, edges, inside):
        for eid, w in incident[at]:
            if eid in edges:
                continue
            if w in B:
                segments[edges | {eid}] = (tuple(sorted((start, w))), inside)
            elif w not in inside:
                walk(start, w, edges | {eid}, inside | {w})

    for b in B:
        walk(b, b, frozenset(), frozenset())
    segs = list(segments.values())
    found = set()

    def extend(i, chosen, used, ends):
        found.add(tuple(sorted(chosen)))
        for j in range(i, len(segs)):
            pair, inside = segs[j]
            more = ends + Counter(pair)
            if inside.isdisjoint(used) and all(more[b] <= 2 for b in pair):
                extend(j + 1, chosen + [pair], used | inside, more)

    extend(0, [], frozenset(), Counter())
    return found


def test_three_decompositions_match_brute_force(min_degree_td):
    # criterion 1's sizes: 6 to 12 vertices
    checked = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        g = generate.random_planar(rng.randrange(6, 13), seed=seed + 7100)
        if seed % 2:  # two vertices fewer leave cut vertices, and no-instances
            g = g.subgraph(g.vertices - set(rng.sample(sorted(g.vertices), 2)))
        vs = sorted(g.vertices)
        T = set(rng.sample(vs, min(len(vs), rng.randrange(1, 6))))
        ends = rng.sample(vs, 4)
        M = [tuple(ends[:2]), tuple(ends[2:])][: rng.randrange(1, 3)]
        B = rng.sample(vs, rng.randrange(1, 4))
        want_t = brute_t_cycle(g, T) is not None
        want_l = brute_disjoint_paths(g, M) is not None
        want_b = brute_boundary_linkages(g, B)
        for td in (one_bag(g), min_degree_td(g), make_nice(build(g)), _bfs_path(g)):
            loop = solve_t_cycle(g, T, td)
            assert (loop is not None) == want_t, (seed, T)
            assert solve_disjoint_paths(g, M, td) == want_l, (seed, M)
            assert boundary_linkages(g, B, td) == want_b, (seed, B)
        checked["t-cycle", want_t] += 1
        checked["linkage", want_l] += 1
        checked["profile", len(want_b) > 2] += 1
    # both verdicts of each problem, and profiles with several segment sets
    assert min(checked.values()) >= 5 and len(checked) == 6, checked


def test_long_ladder_solves():
    n = 10000
    g = generate.grid(2, n, terminals={1, n // 2, n, n + 1, 2 * n})
    loop = solve_t_cycle(g)
    assert loop is not None and is_t_loop(g, g.terminals, loop)
    assert len(loop) == 2 * n


def test_bad_witness_raises(monkeypatch):
    run = dp._PathDP.run
    monkeypatch.setattr(dp._PathDP, "run", lambda self: run(self)[1:])
    g = generate.grid(3, 4, terminals={1, 12})
    with pytest.raises(TCycleError):
        solve_t_cycle(g)


def solve_rooted(g, T, td):
    """The T-Cycle engine's edge ids on td as rooted, which solve_t_cycle
    would re-root, or None."""
    return dp._PathDP(g, td, dict.fromkeys(T, 2), frozenset()).run()


def check_against_brute(edges, T, bags, links):
    """Solve on the hand-built decomposition rooted at node 0, and as
    solve_t_cycle roots it, and compare with brute force; returns the
    verdict."""
    g = unembedded({v for e in edges.values() for v in e}, edges)
    td = TreeDecomposition(bags, links, root=0)
    want = brute_t_cycle(g, T) is not None
    for loop in (solve_rooted(g, T, td), solve_t_cycle(g, T, td)):
        assert (loop is not None) == want
        assert loop is None or is_t_loop(g, T, loop)
    return want


def test_a_cycle_closing_before_the_last_child_is_merged_stops_only_without_it():
    # the root {1, 2} merges its children 3, 2, 1 in that order; the joins
    # of 3 and 2 close the cycle 1-3-2-4 before child 1, which holds the
    # pendant vertex 5, is merged
    edges = {1: (1, 3), 2: (3, 2), 3: (1, 4), 4: (4, 2), 5: (1, 5)}
    bags = {0: {1, 2}, 1: {1, 5}, 2: {1, 2, 4}, 3: {1, 2, 3}}
    links = [(0, 1), (0, 2), (0, 3)]
    assert check_against_brute(edges, {3, 4}, bags, links)
    assert not check_against_brute(edges, {3, 4, 5}, bags, links)


def test_a_cycle_missing_a_live_terminal_does_not_stop_the_run():
    # at the root {1, 2, 3} the edge 1-2 closes 1-4-2-1 while terminal 3
    # is live at degree 0
    edges = {1: (1, 2), 2: (1, 3), 3: (1, 4), 4: (4, 2)}
    bags = {0: {1, 2, 3}, 1: {1, 2, 4}}
    assert not check_against_brute(edges, {3, 4}, bags, [(0, 1)])
    # with the edge 2-3 the cycle 1-4-2-3 closes after terminal 1 is
    # forgotten at degree 2 and while terminal 3 is live at degree 2
    edges[5] = (2, 3)
    assert check_against_brute(edges, {1, 3, 4}, bags, [(0, 1)])


def rerooting_instances():
    """(graph, terminals) of join_instances() and of criterion 1's random
    planar batch."""
    for g, T, _ in join_instances():
        yield g, frozenset(T)
    for seed in range(1000):
        rng = random.Random(seed)
        g = generate.random_planar(rng.randrange(6, 13), seed=seed)
        yield g, frozenset(rng.sample(sorted(g.vertices), rng.randrange(1, 6)))


def test_every_root_gives_the_verdict_of_the_chosen_one():
    seen = Counter()  # (root moved, verdict)
    for g, T in rerooting_instances():
        td = build(g)
        chosen = dp._rerooted(td, T)
        assert chosen.bags == td.bags and chosen.links == td.links
        leaves = [x for x, nb in td.adj.items() if len(nb) <= 1]
        if len(leaves) > 2:
            assert chosen.root in leaves
        else:
            assert chosen is td
        want = solve_t_cycle(g, T, td) is not None
        seen[chosen.root != td.root, want] += 1
        for root in td.bags:
            loop = solve_rooted(g, T, TreeDecomposition(td.bags, td.links, root=root))
            assert (loop is not None) == want, (sorted(T), root)
            assert loop is None or is_t_loop(g, T, loop)
    # both verdicts on moved roots
    assert seen[True, True] >= 40 and seen[True, False] >= 40, seen


def ref_root(g, td, T):
    """The root rule of `dp._rerooted` as stated: per leaf, walk the
    engine's postorder up to the first node whose subtree's bags hold
    every terminal, summing 3^|bag|; the least sum wins, then the least
    node id.  A tree with at most two leaves keeps its root."""
    leaves = [x for x, nb in td.adj.items() if len(nb) <= 1]
    if len(leaves) <= 2:
        return td.root
    costs = []
    for leaf in leaves:
        run = dp._PathDP(g, TreeDecomposition(td.bags, td.links, root=leaf), {}, frozenset())
        cost = 0
        touched = {}
        for x in run.postorder:
            cost += 3 ** len(td.bags[x])
            touched[x] = T.intersection(td.bags[x]).union(*(touched[c] for c in run.children[x]))
            if touched[x] == T:
                break
        costs.append((cost, leaf))
    return min(costs)[1]


def test_rerooting_follows_its_rule_and_ignores_renumbering(min_degree_td):
    for i, (g, T) in enumerate(rerooting_instances()):
        if i % 4:
            continue
        path = _bfs_path(g)
        assert dp._rerooted(path, T) is path
        for td in (build(g), min_degree_td(g)):
            root = dp._rerooted(td, T).root
            assert root == ref_root(g, td, T)
            renum = {x: j for j, x in enumerate(sorted(td.bags), 1)}
            parsed = from_pace_lines(pace_lines(td, len(g.vertices)))
            assert dp._rerooted(parsed, T).root == renum[root]


def test_a_run_stops_at_its_first_empty_table(monkeypatch):
    # the pendant terminal 13 is forgotten at degree 1 in the first bag
    # that runs, {1, 13}, so no state survives there
    g = generate.grid(3, 4)
    edges = dict(g.edges)
    edges[max(edges) + 1] = (1, 13)
    g = unembedded(g.vertices | {13}, edges)
    td = cheapest(g)
    ran = []  # (node, size of its table)
    node = dp._PathDP._node
    monkeypatch.setattr(
        dp._PathDP, "_node",
        lambda self, tables, x: ran.append((x, len(t := node(self, tables, x)))) or t,
    )
    assert solve_t_cycle(g, {12, 13}, td) is None
    assert ran == [(0, 0)] and td.bags[0] == {1, 13}
    # a profile run keeps the all-zero state, so it runs every node
    ran.clear()
    assert boundary_linkages(g, {12, 13}, td)
    assert len(ran) == len(td.bags) and all(size for _, size in ran)


# -- the engine as it ran on nice decompositions, kept as the oracle ----------


def distinguished(td, node):
    """The vertex introduced or forgotten at a nice node."""
    (child,) = td.children[node]
    (v,) = td.bags[node] ^ td.bags[child]
    return v


def nice_prepare(graph, td):
    """The nice form of td, or of a decomposition built here, and the
    edge-to-node assignment: each edge goes to the deeper of its endpoints'
    topmost nodes."""
    td = make_nice(build(graph) if td is None else td)
    depth = {td.root: 0}
    top = {}
    stack = [td.root]
    while stack:
        x = stack.pop()
        for v in td.bags[x]:
            top.setdefault(v, x)  # parents come first, so this is v's top
        for c in td.children[x]:
            depth[c] = depth[x] + 1
            stack.append(c)
    assign = {n: [] for n in td.bags}
    for eid in sorted(graph.edges):
        u, v = graph.edges[eid]
        if u != v:
            assign[max(top[u], top[v], key=depth.__getitem__)].append(eid)
    return td, assign


class NiceDP(dp._PathDP):
    """The path DP one introduce, forget or join at a time, on a nice
    decomposition: degree codes indexed by position in the sorted bag, so
    introduce and forget shift them.  Its states are the engine's with a
    closed flag: it carries each closed cycle to the root and reads the
    answer there.  It settles merges and names ends as the engine does."""

    def __init__(self, graph, td, assign, required, matching, boundary=frozenset()):
        self.g = graph
        self.td = td
        self.assign = assign
        self.required = required
        self.matching = matching
        self.closes = 2 in required.values()
        self.boundary = boundary
        self.merges = 0

    def run(self):
        """The edge ids of one answer, read at the root, or None."""
        root = self.root_table()
        key = (0, frozenset(), self.closes)
        return dp._edges(root[key]) if key in root else None

    @staticmethod
    def _degree_groups(table, low, one):
        """(code, nonzero mask, at-capacity mask, [(pairs, closed, witness)])
        per degree code in table."""
        states = {}
        for (degs, pairs, closed), wit in table.items():
            states.setdefault(degs, []).append((pairs, closed, wit))
        return [(d, (d | d >> 1) & low, d >> 1 & low | d & one, g) for d, g in states.items()]

    def root_table(self):
        tables = {}
        for node in self.td.postorder():
            kind = self.td.kind[node]
            bag = tuple(sorted(self.td.bags[node]))
            if kind == "leaf":
                table = {(0, frozenset(), False): None}
            elif kind == "introduce":
                table = self._introduce(tables, node, bag)
            elif kind == "forget":
                table = self._forget(tables, node, bag)
            else:
                table = self._join(tables, node, bag)
            for c in self.td.children[node]:
                del tables[c]
            for eid in self.assign[node]:
                table = self._edge(table, bag, eid)
            tables[node] = table
        return tables[self.td.root]

    def _introduce(self, tables, node, bag):
        (child,) = self.td.children[node]
        shift = 2 * bag.index(distinguished(self.td, node))
        low = (1 << shift) - 1
        return {
            ((degs >> shift << shift + 2) | (degs & low), pairs, closed): wit
            for (degs, pairs, closed), wit in tables[child].items()
        }

    def _forget(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = distinguished(self.td, node)
        shift = 2 * sorted(self.td.bags[child]).index(v)
        low = (1 << shift) - 1
        need = self.required.get(v)
        checked = v not in self.boundary
        out = {}
        for (degs, pairs, closed), wit in tables[child].items():
            d = degs >> shift & 3
            if checked:
                if (d != need) if need else (d == 1):
                    continue
                if d == 1:
                    p = next(p for p in pairs if v in p)
                    if p.isdisjoint(bag):
                        if p not in self.matching:
                            continue
                        pairs = pairs - {p}
            out.setdefault(((degs >> shift + 2 << shift) | (degs & low), pairs, closed), wit)
        return out

    def _join(self, tables, node, bag):
        a, b = self.td.children[node]
        low = (1 << 2 * len(bag)) // 3
        one = sum(1 << 2 * i for i, v in enumerate(bag) if self.required.get(v) == 1)
        boundary = sum(1 << 2 * i for i, v in enumerate(bag) if v in self.boundary)
        groups_b = self._degree_groups(tables[b], low, one)
        out = {}
        settled = {}
        for da, nz_a, full_a, states_a in self._degree_groups(tables[a], low, one):
            for db, nz_b, full_b, states_b in groups_b:
                if full_a & nz_b or full_b & nz_a:
                    continue
                degs = da + db
                meet = nz_a & nz_b
                if not meet:
                    for pa, ca, wa in states_a:
                        for pb, cb, wb in states_b:
                            pairs = pa | pb
                            if (ca or cb) and (pairs or ca and cb):
                                continue
                            out.setdefault((degs, pairs, ca or cb), (wa, wb))
                    continue
                both = meet & boundary
                if both:
                    shifted = {(v, 0) for i, v in enumerate(bag) if both >> 2 * i & 1}
                    states_b = [(dp._renumbered(pb, shifted), cb, wb) for pb, cb, wb in states_b]
                for pa, _, wa in states_a:
                    for pb, _, wb in states_b:
                        m = settled.get((pa, pb), False)
                        if m is False:
                            m = settled[pa, pb] = self._settle(dp._merge(pa, pb), bag)
                        if m is None:
                            continue
                        pairs, closes = m
                        if closes and pairs:
                            continue
                        out.setdefault((degs, pairs, closes), (wa, wb))
        self.merges += len(settled)
        return out

    def _edge(self, table, bag, eid):
        u, v = self.g.edges[eid]
        su, sv = 2 * bag.index(u), 2 * bag.index(v)
        step = (1 << su) + (1 << sv)
        cu, cv = self.required.get(u, 2), self.required.get(v, 2)
        ends_u, ends_v = self._ends(u), self._ends(v)
        out = dict(table)
        settled = {}
        for (degs, pairs, closed), wit in table.items():
            du, dv = degs >> su & 3, degs >> sv & 3
            if closed or du >= cu or dv >= cv:
                continue
            path = (ends_u[du], ends_v[dv])
            m = settled.get((pairs, path), False)
            if m is False:
                m = settled[pairs, path] = self._settle(dp._merge(pairs, (path,)), bag)
            if m is None:
                continue
            npairs, closes = m
            if closes and npairs:
                continue
            out.setdefault((degs + step, npairs, closes), (wit, eid))
        return out


# -- the two DPs before the fold into one engine, kept as the reference ------

_log = logging.getLogger("tests.reference_dp")
_merge = dp._merge


def _compatible_groups(table_a, table_b, caps):
    """Pair up the degree-vector groups of two child tables whose summed
    degrees stay within caps; yields (summed degrees, states of a, states
    of b).  A state is a tuple whose first field is its degree vector, and
    no degree in either table exceeds its cap."""
    groups_b = _degree_groups(table_b, caps)
    for da, nz_a, full_a, states_a in _degree_groups(table_a, caps):
        for db, nz_b, full_b, states_b in groups_b:
            if full_a & nz_b or full_b & nz_a:
                continue
            yield tuple(map(add, da, db)), states_a, states_b


def _degree_groups(table, caps):
    """(degree vector, mask of nonzero positions, mask of positions at
    capacity, the states with that vector) per degree vector in table."""
    states = {}
    for state in table:
        states.setdefault(state[0], []).append(state)
    groups = []
    for degs, group in states.items():
        nz = full = 0
        for i, (d, cap) in enumerate(zip(degs, caps)):
            if d:
                nz |= 1 << i
                if d == cap:
                    full |= 1 << i
        groups.append((degs, nz, full, group))
    return groups


class _TCycleDP:
    """State: per-bag-vertex degrees, pairing of the open path ends, and a
    closed flag; values carry one witness backpointer per state."""

    def __init__(self, graph, terminals, td, assign):
        self.g = graph
        self.T = frozenset(terminals)
        self.td = td
        self.assign = assign
        self.merges = 0  # distinct pairs of pairings merged, over all joins

    def run(self):
        tables = {}
        joins = peak = 0
        for node in self.td.postorder():
            kind = self.td.kind[node]
            bag = tuple(sorted(self.td.bags[node]))
            if kind == "leaf":
                table = {((), frozenset(), False): None}
            elif kind == "introduce":
                table = self._introduce(tables, node, bag)
            elif kind == "forget":
                table = self._forget(tables, node, bag)
            else:
                table = self._join(tables, node, bag)
                joins += 1
            for c in self.td.children[node]:
                del tables[c]
            for eid in self.assign[node]:
                table = self._edge(table, bag, eid)
            tables[node] = table
            peak = max(peak, len(table))
        _log.debug(
            "t-cycle: %d nodes, %d joins, peak table %d, %d distinct merges",
            len(self.td.bags), joins, peak, self.merges,
        )
        root = tables[self.td.root]
        key = ((), frozenset(), True)
        if key not in root:
            return None
        edges = []
        stack = [root[key]]
        while stack:
            wit = stack.pop()
            if wit is None:
                continue
            if wit[0] == "e":
                edges.append(wit[1])
                stack.append(wit[2])
            else:
                stack.extend(wit[1:])
        return edges

    def _introduce(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = distinguished(self.td, node)
        pos = bag.index(v)
        out = {}
        for (degs, pairs, closed), wit in tables[child].items():
            ndegs = degs[:pos] + (0,) + degs[pos:]
            out[(ndegs, pairs, closed)] = wit
        return out

    def _forget(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = distinguished(self.td, node)
        cbag = tuple(sorted(self.td.bags[child]))
        pos = cbag.index(v)
        out = {}
        for (degs, pairs, closed), wit in tables[child].items():
            d = degs[pos]
            if v in self.T:
                if d != 2:
                    continue
            elif d not in (0, 2):
                continue
            key = (degs[:pos] + degs[pos + 1 :], pairs, closed)
            out.setdefault(key, wit)
        return out

    def _join(self, tables, node, bag):
        a, b = self.td.children[node]
        ta, tb = tables[a], tables[b]
        out = {}
        merged = {}
        for degs, states_a, states_b in _compatible_groups(ta, tb, (2,) * len(bag)):
            for ka in states_a:
                _, pa, ca = ka
                for kb in states_b:
                    _, pb, cb = kb
                    if ca and cb:
                        continue
                    m = merged.get((pa, pb))
                    if m is None:
                        m = merged[pa, pb] = _merge(pa, pb)
                    pairs, cycles = m
                    if cycles > 1 or (cycles and (ca or cb)):
                        continue
                    closed = ca or cb or cycles == 1
                    if closed and pairs:
                        continue
                    key = (degs, pairs, closed)
                    if key not in out:
                        out[key] = ("j", ta[ka], tb[kb])
        self.merges += len(merged)
        return out

    def _edge(self, table, bag, eid):
        u, v = self.g.edges[eid]
        iu, iv = bag.index(u), bag.index(v)
        out = dict(table)
        for (degs, pairs, closed), wit in table.items():
            if closed or degs[iu] >= 2 or degs[iv] >= 2:
                continue
            ndegs = list(degs)
            ndegs[iu] += 1
            ndegs[iv] += 1
            ndegs = tuple(ndegs)
            pu = next((p for p in pairs if u in p), None)
            pv = next((p for p in pairs if v in p), None)
            if pu is None and pv is None:
                key = (ndegs, pairs | {frozenset({u, v})}, False)
            elif pu is None or pv is None:
                p = pu or pv
                x, y = (u, v) if pu is None else (v, u)
                (other,) = p - {y}
                if other == x:
                    continue
                key = (ndegs, (pairs - {p}) | {frozenset({x, other})}, False)
            elif pu == pv:
                if len(pairs) != 1:
                    continue
                key = (ndegs, frozenset(), True)
            else:
                (x,) = pu - {u}
                (y,) = pv - {v}
                if x == y:
                    continue
                key = (ndegs, (pairs - {pu, pv}) | {frozenset({x, y})}, False)
            out.setdefault(key, ("e", eid, wit))
        return out


class _LinkageDP:
    """State: degrees, open path fragments (ends are bag vertices or sealed
    matched vertices), and the set of completed pairs."""

    def __init__(self, graph, pairs, td, assign):
        self.g = graph
        self.pairs = frozenset(pairs)
        self.matched = frozenset(v for p in pairs for v in p)
        self.td = td
        self.assign = assign
        self.merges = 0  # distinct pairs of fragment sets merged, over all joins

    def cap(self, v):
        return 1 if v in self.matched else 2

    def run(self):
        tables = {}
        joins = peak = 0
        for node in self.td.postorder():
            kind = self.td.kind[node]
            bag = tuple(sorted(self.td.bags[node]))
            if kind == "leaf":
                table = {((), frozenset(), frozenset())}
            elif kind == "introduce":
                table = self._introduce(tables, node, bag)
            elif kind == "forget":
                table = self._forget(tables, node, bag)
            else:
                table = self._join(tables, node, bag)
                joins += 1
            for c in self.td.children[node]:
                del tables[c]
            for eid in self.assign[node]:
                table = self._edge(table, bag, eid)
            tables[node] = table
            peak = max(peak, len(table))
        _log.debug(
            "linkage: %d nodes, %d joins, peak table %d, %d distinct merges",
            len(self.td.bags), joins, peak, self.merges,
        )
        return ((), frozenset(), self.pairs) in tables[self.td.root]

    def _introduce(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = distinguished(self.td, node)
        pos = bag.index(v)
        out = set()
        for degs, frags, done in tables[child]:
            out.add((degs[:pos] + (0,) + degs[pos:], frags, done))
        return out

    def _forget(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = distinguished(self.td, node)
        cbag = tuple(sorted(self.td.bags[child]))
        pos = cbag.index(v)
        out = set()
        for degs, frags, done in tables[child]:
            d = degs[pos]
            ndegs = degs[:pos] + degs[pos + 1 :]
            if v in self.matched:
                if d != 1:
                    continue
                frag = next(f for f in frags if ("v", v) in f)
                (other,) = frag - {("v", v)}
                if other[0] == "a":
                    pair = frozenset({v, other[1]})
                    if pair not in self.pairs:
                        continue
                    out.add((ndegs, frags - {frag}, done | {pair}))
                else:
                    nfrag = frozenset({("a", v), other})
                    out.add((ndegs, (frags - {frag}) | {nfrag}, done))
            else:
                if d not in (0, 2):
                    continue
                out.add((ndegs, frags, done))
        return out

    def _join(self, tables, node, bag):
        a, b = self.td.children[node]
        out = set()
        merged = {}
        caps = tuple(self.cap(v) for v in bag)
        for degs, states_a, states_b in _compatible_groups(tables[a], tables[b], caps):
            for _, fa, za in states_a:
                for _, fb, zb in states_b:
                    m = merged.get((fa, fb), False)
                    if m is False:
                        m = merged[fa, fb] = self._seal(*_merge(fa, fb))
                    if m is not None:
                        frags, done = m
                        out.add((degs, frags, za | zb | done))
        self.merges += len(merged)
        return out

    def _seal(self, paths, cycles):
        """Split spliced paths into open fragments and completed pairs, or
        None when they close a cycle or join two matched vertices that are
        not a pair."""
        if cycles:
            return None
        frags = []
        done = []
        for path in paths:
            x, y = path
            if x[0] == "a" and y[0] == "a":
                pair = frozenset({x[1], y[1]})
                if pair not in self.pairs:
                    return None
                done.append(pair)
            else:
                frags.append(path)
        return frozenset(frags), frozenset(done)

    def _edge(self, table, bag, eid):
        u, v = self.g.edges[eid]
        iu, iv = bag.index(u), bag.index(v)
        out = set(table)
        for degs, frags, done in table:
            if degs[iu] >= self.cap(u) or degs[iv] >= self.cap(v):
                continue
            ndegs = list(degs)
            ndegs[iu] += 1
            ndegs[iv] += 1
            ndegs = tuple(ndegs)
            eu, ev = ("v", u), ("v", v)
            fu = next((f for f in frags if eu in f), None)
            fv = next((f for f in frags if ev in f), None)
            if fu is not None and fu == fv:
                continue  # would close a cycle
            if fu is None and fv is None:
                out.add((ndegs, frags | {frozenset({eu, ev})}, done))
                continue
            if fu is None or fv is None:
                f = fu or fv
                mine = eu if fu is None else ev
                gone = ev if fu is None else eu
                (other,) = f - {gone}
                out.add((ndegs, (frags - {f}) | {frozenset({mine, other})}, done))
                continue
            (x,) = fu - {eu}
            (y,) = fv - {ev}
            if x[0] == "a" and y[0] == "a":
                pair = frozenset({x[1], y[1]})
                if pair not in self.pairs:
                    continue
                out.add((ndegs, frags - {fu, fv}, done | {pair}))
            else:
                out.add((ndegs, (frags - {fu, fv}) | {frozenset({x, y})}, done))
        return out


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


class Lockstep(NiceDP):
    """The engine, run node by node beside a reference DP: after every
    introduce, forget and join and after every edge step, its key set must
    be the reference's under project."""

    def __init__(self, ref, ref_leaf, project, *args):
        super().__init__(*args)
        self.ref = ref
        self.project = project
        self.ref_tables = {n: ref_leaf for n in self.td.bags if self.td.kind[n] == "leaf"}
        self.steps = dict.fromkeys(("_introduce", "_forget", "_join", "_edge"), 0)

    def _check(self, step, got, want):
        assert set(got) == {self.project(k) for k in want}, (step, self.node)
        self.steps[step] += 1

    def _step(self, step, tables, node, bag):
        got = getattr(super(), step)(tables, node, bag)
        want = getattr(self.ref, step)(self.ref_tables, node, bag)
        self.node = node
        self._check(step, got, want)
        self.ref_tables[node] = want
        return got

    def _introduce(self, tables, node, bag):
        return self._step("_introduce", tables, node, bag)

    def _forget(self, tables, node, bag):
        return self._step("_forget", tables, node, bag)

    def _join(self, tables, node, bag):
        return self._step("_join", tables, node, bag)

    def _edge(self, table, bag, eid):
        got = super()._edge(table, bag, eid)
        want = self.ref._edge(self.ref_tables[self.node], bag, eid)
        self._check("_edge", got, want)
        self.ref_tables[self.node] = want
        return got


def code(degs):
    """A degree vector as the engine's degree code: 2 bits per position."""
    return sum(d << 2 * i for i, d in enumerate(degs))


def packed(key):
    """A reference T-Cycle state as the engine keeps it: the degree vector
    packed."""
    degs, pairs, closed = key
    return code(degs), pairs, closed


def untagged(key):
    """A reference linkage state as the engine keeps it: the degree vector
    packed, tags stripped from the path ends, the completed pairs dropped,
    never closed."""
    degs, frags, _done = key
    return code(degs), frozenset(frozenset(end for _, end in f) for f in frags), False


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


def test_every_node_matches_the_reference():
    steps = {"t-cycle": Counter(), "linkage": Counter()}
    graphs = 0
    for g, T, M in join_instances():
        td, assign = nice_prepare(g, None)
        T = frozenset(T)
        ref = _TCycleDP(g, T, td, assign)
        new = Lockstep(
            ref, {((), frozenset(), False): None}, packed,
            g, td, assign, dict.fromkeys(T, 2), frozenset(),
        )
        wit = new.run()
        assert (wit is not None) == (((), frozenset(), True) in new.ref_tables[td.root])
        if wit is not None:
            assert is_t_loop(g, T, sorted(wit))
        steps["t-cycle"].update(new.steps)

        pairs = dp.check_matching(g, M)
        ref = _LinkageDP(g, pairs, td, assign)
        required = dict.fromkeys((v for p in pairs for v in p), 1)
        new = Lockstep(
            ref, {((), frozenset(), frozenset())}, untagged,
            g, td, assign, required, frozenset(pairs),
        )
        found = new.run() is not None
        assert found == (((), frozenset(), frozenset(pairs)) in new.ref_tables[td.root])
        steps["linkage"].update(new.steps)
        graphs += 1
    assert graphs >= 100
    # the same decompositions, so both problems meet the same nodes
    assert steps["t-cycle"] == steps["linkage"]
    assert steps["t-cycle"]["_join"] > 500 and steps["t-cycle"]["_edge"] > 500


class Recorded(dp._PathDP):
    """The engine, keeping each node's finished table."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = {}

    def _node(self, tables, node):
        table = self.seen[node] = super()._node(tables, node)
        return table


class RecordedNice(NiceDP):
    """The oracle, keeping each forget node's table before its edge steps."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = {}

    def _forget(self, tables, node, bag):
        table = self.seen[node] = super()._forget(tables, node, bag)
        return table


def test_tables_match_the_nice_oracle_where_the_engines_meet(min_degree_td):
    """A node of a decomposition ends where the forget run that make_nice
    puts above it ends: both tables hold the same vertices and the same
    graph below.  Their key sets agree, but for the oracle's closed
    states, once the engine's slot codes are mapped to positions in the
    sorted bag."""
    met = Counter()
    for i, (g, T, M) in enumerate(join_instances()):
        if i % 2:
            continue
        pairs = dp.check_matching(g, M)
        linked = frozenset(v for p in pairs for v in p)
        runs = (
            ("t-cycle", dict.fromkeys(T, 2), frozenset(), frozenset()),
            ("linkage", dict.fromkeys(linked, 1), frozenset(pairs), frozenset()),
            ("profile", {}, frozenset(), frozenset(T[:2])),
        )
        for td in (build(g), min_degree_td(g)):
            nice, assign = nice_prepare(g, td)
            below = {}  # nice node -> the vertices forgotten in its subtree
            for n in nice.postorder():
                below[n] = frozenset().union(*(below[c] for c in nice.children[n]))
                if nice.kind[n] == "forget":
                    below[n] |= {distinguished(nice, n)}
            ends = {(nice.bags[n], below[n]): n for n, k in nice.kind.items() if k == "forget"}
            for name, required, matching, boundary in runs:
                new = Recorded(g, td, required, matching, boundary)
                assert new.name == name
                old = RecordedNice(g, nice, assign, required, matching, boundary)
                assert (new.run() is None) == (old.run() is None), (name, i)
                # a T-Cycle run stops where its answer closes: the nodes it
                # finished hold the oracle's states that are not closed
                for x in new.seen:
                    if not new.forget[x]:
                        continue
                    gone = frozenset(v for y in subtree(new, x) for v in new.forget[y])
                    bag = tuple(sorted(td.bags[x] - set(new.forget[x])))
                    n = ends[frozenset(bag), gone]
                    got = {(position_code(new, bag, d), p) for d, p in new.seen[x]}
                    assert got == {(d, p) for d, p, closed in old.seen[n] if not closed}, (name, i, x)
                    met[name] += 1
    assert min(met.values()) > 900 and len(met) == 3, met


def position_code(engine, bag, degs):
    """The slot code degs, which has bits only at bag's slots, as a code
    indexed by position in the sorted tuple bag."""
    by_slot = [degs >> 2 * engine.slot[v] & 3 for v in bag]
    assert degs == sum(d << 2 * engine.slot[v] for v, d in zip(bag, by_slot))
    return code(by_slot)


def subtree(engine, x):
    """x and every node below it in the engine's rooted decomposition."""
    out = [x]
    for y in out:
        out.extend(engine.children[y])
    return out


def _lone_state(degs):
    """A one-state table: degree code degs, no open path."""
    return {(degs, frozenset()): None}


@st.composite
def degree_vectors(draw):
    """(caps, a, b, pos): caps of 1 or 2 per bag position, two degree
    vectors within them, and a position."""
    caps = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=9))
    a, b = (tuple(draw(st.integers(0, c)) for c in caps) for _ in range(2))
    return caps, a, b, draw(st.integers(0, len(caps) - 1))


@settings(max_examples=300, deadline=None)
@given(degree_vectors())
def test_degree_code_matches_degree_tuples(case):
    caps, a, b, pos = case
    bag = tuple(range(1, len(caps) + 1))
    required = {v: 1 for v, c in zip(bag, caps) if c == 1}
    v = bag[pos]
    # the root holds bag[pos:], so the slots run from v round to bag[pos - 1]
    td = TreeDecomposition({0: bag[pos:], 1: bag}, [(0, 1)], root=0)
    engine = dp._PathDP(
        unembedded(bag, {}), td, required, frozenset(),
        frozenset({v}),  # forgotten at any degree
    )
    assert [engine.slot[u] for u in bag] == [(i - pos) % len(bag) for i in range(len(bag))]

    def slot_code(degs):
        return sum(d << 2 * engine.slot[u] for u, d in zip(bag, degs))

    # the join's masks admit a pair iff each vertex's sum is within its cap
    out = engine._join(_lone_state(slot_code(a)), _lone_state(slot_code(b)), 1)
    summed = tuple(map(add, a, b))
    fits = all(s <= c for s, c in zip(summed, caps))
    assert set(out) == ({(slot_code(summed), frozenset())} if fits else set())
    # and the summed code is the code of the summed degrees, carry-free
    assert slot_code(a) + slot_code(b) == slot_code(summed)
    if fits:
        assert [slot_code(a) + slot_code(b) >> 2 * engine.slot[u] & 3 for u in bag] == list(summed)
    # forget clears v's two bits and nothing else
    got = engine._forget(_lone_state(slot_code(a)), v, set(bag) - {v})
    assert set(got) == {(slot_code(a[:pos] + (0,) + a[pos + 1 :]), frozenset())}


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


def test_each_dp_logs_one_debug_line(caplog, monkeypatch):
    g = generate.random_planar(16, seed=3)
    td = cheapest(g)
    _, children, _ = td.rooted()
    assert sum(len(c) - 1 for c in children.values() if c) > 0
    ran = []  # (children in the rooting the run used, node)
    node = dp._PathDP._node
    monkeypatch.setattr(
        dp._PathDP, "_node",
        lambda self, tables, x: ran.append((self.children, x)) or node(self, tables, x),
    )
    caplog.set_level(logging.DEBUG, logger="tcycle.dp")
    vs = sorted(g.vertices)
    nodes_ran = []
    assert solve_t_cycle(g, set(vs[-3:]), td) is not None
    nodes_ran.append(ran[:])
    ran.clear()
    solve_disjoint_paths(g, [(vs[0], vs[-1])], td)
    nodes_ran.append(ran[:])
    # the T-Cycle run stops at the node where its answer closes
    assert len(nodes_ran[0]) < len(td.bags) == len(nodes_ran[1])
    lines = [r for r in caplog.records if r.name == "tcycle.dp"]
    assert [r.levelname for r in lines] == ["DEBUG", "DEBUG"]
    for r, name, xs in zip(lines, ("t-cycle", "linkage"), nodes_ran):
        nodes, njoins, peak, merges = r.args
        assert r.getMessage().startswith(name)
        assert (nodes, njoins) == (len(xs), sum(max(len(ch[x]) - 1, 0) for ch, x in xs))
        assert peak >= 1 and merges >= 1
