import itertools
import random

import pytest

from tcycle import generate, kernel
from tcycle.decomposition import IsolationBudget
from tcycle.dp import boundary_linkages, solve_disjoint_paths, solve_t_cycle
from tcycle.errors import (
    BoundaryTooLarge,
    InvalidConfiguration,
    InvalidDecomposition,
    ModulatorInvalid,
    SpliceError,
    TCycleError,
)
from tcycle.graph import EmbeddedGraph, unembedded
from tcycle.kernel import (
    CONTRACTED_INTERIOR_LIMIT,
    RIM_QUOTIENT_LIMIT,
    LinkageProfile,
    _contraction_levels,
    _quotient,
    _rim_reps,
    contraction_replacement,
    kernelize,
    linkage_profile,
    part_graph,
    protrusion_decompose,
    replacement_search,
    splice,
    verify_minor_map,
)
from tcycle.oracle import brute_t_cycle
from tcycle.treewidth import _bfs_path, build


def edge_graph(u, v):
    return generate.from_networkx_planar(__import__("networkx").Graph([(u, v)]))


def test_protrusion_decompose_star():
    import networkx as nx

    g = generate.from_networkx_planar(nx.star_graph(3))
    d = protrusion_decompose(g, {0}, eta=0)
    assert d.x0 == frozenset({0})
    # the three leaves share the neighborhood {0}, so they form one part
    assert d.parts == [frozenset({1, 2, 3})]
    assert d.boundaries == [frozenset({0})]
    assert d.validate(g) <= d.gamma


def test_protrusion_decompose_grid():
    g = generate.grid(4, 4)
    S = {1, 4, 13, 16}
    d = protrusion_decompose(g, S, eta=6)
    d.validate(g)
    covered = set(d.x0)
    for p in d.parts:
        covered |= p
    assert covered == g.vertices
    for B in d.boundaries:
        assert B <= d.x0 and len(B) <= d.gamma


def test_protrusion_decompose_rejects_wide_rest():
    g = generate.grid(4, 4)
    with pytest.raises(ModulatorInvalid):
        protrusion_decompose(g, {1}, eta=1)


def test_linkage_profile_ring_vs_path():
    ring = generate.ring(4)
    p = linkage_profile(ring, {1, 3})
    matching = frozenset({frozenset({1, 3})})
    assert frozenset() in p.feasible_dp and matching in p.feasible_dp
    assert frozenset({1, 3}) in p.feasible_cycle
    path = generate.path_graph(4)
    q = linkage_profile(path, {1, 4})
    assert q.feasible_cycle == frozenset()
    assert p != q


def test_linkage_profile_sees_pass_through():
    # a loop may run straight through a boundary vertex inside the part;
    # the pattern putting that vertex in two pairs records exactly that
    path = generate.path_graph(3)
    p = linkage_profile(path, {1, 2, 3})
    through = frozenset({frozenset({1, 2}), frozenset({2, 3})})
    assert through in p.feasible_dp
    # the direct 1-3 pair must leave vertex 2 untouched, which a path
    # through 2 cannot do
    assert frozenset({frozenset({1, 3})}) not in p.feasible_dp
    # an edge 1-3 with 2 isolated serves the direct pair but not the
    # pass-through, so the two graphs are not interchangeable
    import networkx as nx

    gx = nx.Graph([(1, 3)])
    gx.add_node(2)
    other = generate.from_networkx_planar(gx)
    q = linkage_profile(other, {1, 2, 3})
    assert frozenset({frozenset({1, 3})}) in q.feasible_dp
    assert through not in q.feasible_dp
    assert p != q


def test_linkage_profile_boundary_cap():
    g = generate.grid(3, 4)
    with pytest.raises(BoundaryTooLarge):
        linkage_profile(g, set(range(1, 10)))


def test_replacement_search_path_becomes_edge():
    g = generate.path_graph(3)
    fate, found = replacement_search(g, [1, 3])
    assert fate == "contraction" and found is not None
    H, cert = found
    assert set(H.vertices) == {1, 3} and len(H.edges) == 1
    assert cert["old_size"] == 3 and cert["new_size"] == 2
    assert cert["method"] == "contraction" and cert["verified"]
    assert cert["branch_sets"] == {1: frozenset({1, 2}), 3: frozenset({3})}
    assert linkage_profile(H, [1, 3]) == linkage_profile(g, [1, 3])


def test_replacement_search_minimal_unchanged():
    assert replacement_search(edge_graph(1, 2), [1, 2]) == ("no-smaller-candidate", None)


def test_replacement_search_limits():
    with pytest.raises(BoundaryTooLarge):
        replacement_search(generate.grid(3, 4), list(range(1, 8)))


def test_contraction_replacement_ring():
    g = generate.ring(6)
    found = contraction_replacement(g, [1, 4], linkage_profile(g, [1, 4]))
    assert found is not None
    H, cert = found
    assert set(H.vertices) == {1, 4}
    # both arcs survive as parallel edges, so the 2-cycle is still there
    assert len(H.edges) == 2
    assert solve_t_cycle(H, {1, 4}) is not None
    assert verify_minor_map(g, H, cert["branch_sets"])
    assert linkage_profile(H, [1, 4]) == linkage_profile(g, [1, 4])


def test_contraction_replacement_grid_blob():
    g = generate.grid(4, 4)
    B = [1, 4]
    found = contraction_replacement(g, B, linkage_profile(g, B))
    assert found is not None
    H, cert = found
    assert len(H.vertices) < 16
    assert verify_minor_map(g, H, cert["branch_sets"])
    assert linkage_profile(H, B) == linkage_profile(g, B)


def test_verify_minor_map_rejects_bad_certificates():
    g = generate.ring(6)
    H, cert = contraction_replacement(g, [1, 4], linkage_profile(g, [1, 4]))
    branch = dict(cert["branch_sets"])
    # a branch set missing its own pattern vertex
    bad = dict(branch)
    bad[1] = branch[1] - {1}
    assert not verify_minor_map(g, H, bad)
    # overlapping branch sets
    bad = dict(branch)
    bad[4] = branch[4] | {1}
    assert not verify_minor_map(g, H, bad)
    # a disconnected branch set
    bad = {1: frozenset({1, 3}), 4: frozenset({4})}
    assert not verify_minor_map(g, H, bad)


def test_part_graph_drops_boundary_edges():
    g = generate.ring(4)
    pg = part_graph(g, {3}, {2, 4})
    assert pg.vertices == frozenset({2, 3, 4})
    assert sorted(pg.edges.values()) == [(2, 3), (3, 4)]


def test_splice_path_interior():
    host = generate.path_graph(5, terminals={1, 5})
    pgraph = part_graph(host, {2, 3, 4}, {1, 5})
    out = splice(host, pgraph, {1: frozenset({1, 2, 3, 4}), 5: frozenset({5})}, {1, 5})
    assert out.vertices == frozenset({1, 5})
    # the host's edge ids survive: edge 4 ran 4-5 and now runs 1-5
    assert out.edges == {4: (1, 5)}
    assert out.terminals == frozenset({1, 5})


def test_splice_rejects_bad_inputs():
    host = generate.path_graph(5)
    with pytest.raises(SpliceError, match="boundary vertex 5"):
        # boundary vertex 5 is in no branch set
        splice(host, host, {1: frozenset({1, 2})}, {1, 5})
    with pytest.raises(SpliceError, match="touches the rest of the host"):
        # interior vertex 3 still has a neighbor outside the claimed part
        splice(host, host.subgraph({3, 4}), {4: frozenset({3, 4})}, {4})


def test_splice_rejects_a_branch_set_that_is_not_connected():
    host = generate.path_graph(5)
    pgraph = part_graph(host, {2, 3, 4}, {1, 5})
    branch = {1: frozenset({1, 3}), 5: frozenset({2, 4, 5})}
    with pytest.raises(SpliceError, match="not connected"):
        splice(host, pgraph, branch, {1, 5})


def test_splice_rejects_two_boundary_vertices_in_one_class():
    host = generate.path_graph(5)
    with pytest.raises(SpliceError, match="two boundary vertices"):
        splice(host, host, {1: frozenset(host.vertices)}, {1, 5})


def test_splice_rejects_a_region_that_is_not_the_replacement():
    # the part claims edge 3 joins 1 and 2, but in the host it joins 1 and
    # 3: contracting the host would leave two 1-3 edges, the part's
    # quotient has one
    host = generate.embed_planar({1, 2, 3}, {1: (1, 2), 2: (2, 3), 3: (1, 3)})
    pgraph = unembedded({1, 2, 3}, {1: (1, 2), 2: (2, 3), 3: (1, 2)})
    branch = {1: frozenset({1, 2}), 3: frozenset({3})}
    with pytest.raises(SpliceError, match="not the replacement"):
        splice(host, pgraph, branch, {1, 3})
    # the host's own part splices
    assert splice(host, host, branch, {1, 3}).edges == {2: (1, 3), 3: (1, 3)}


def test_splice_keeps_parallel_replacement_edges():
    host = generate.ring(6, terminals={1, 4})
    H, cert = contraction_replacement(host, [1, 4], linkage_profile(host, [1, 4]))
    out = splice(host, host, cert["branch_sets"], {1, 4})
    assert out.vertices == frozenset({1, 4})
    assert len(out.edges) == 2
    assert solve_t_cycle(out, {1, 4}) is not None


def test_kernelize_requires_terminals():
    g = generate.ring(4)
    with pytest.raises(InvalidConfiguration):
        kernelize(g, set())


def test_kernelize_small_grid():
    g = generate.grid(3, 4, terminals={1, 12})
    k, report = kernelize(g)
    assert report.input_size == 12
    assert report.final_size == len(k.vertices) <= 12
    assert (brute_t_cycle(k, k.terminals) is None) == (
        brute_t_cycle(g, {1, 12}) is None
    )
    for cert in report.replacements:
        assert cert["verified"]
        assert cert["new_size"] < cert["old_size"]


def test_kernelize_preserves_answers():
    for seed in range(20):
        g = generate.random_planar(13, seed=seed + 6200)
        rng = random.Random(seed)
        T = set(rng.sample(sorted(g.vertices), rng.randrange(1, 5)))
        g = g.with_terminals(T)
        k, report = kernelize(g)
        assert report.final_size == len(k.vertices) <= len(g.vertices)
        assert (brute_t_cycle(k, k.terminals) is None) == (
            brute_t_cycle(g, T) is None
        ), (seed, sorted(T))
        assert_fates_add_up(report)


@pytest.mark.parametrize(
    "k, ceilings", [(2, (82, 122, 162)), (3, (19, 88, 114)), (5, (28, 30, 144))]
)
def test_kernelize_grid_sizes_stay_within_ceilings(k, ceilings):
    # the kernel sizes when the ceilings were set: a change may shrink a
    # kernel but never grow it
    for side, ceiling in zip((20, 30, 40), ceilings):
        g = generate.grid_with_terminals(side, side, k, seed=0)
        _, report = kernelize(g, budget=IsolationBudget(1))
        assert report.final_size <= ceiling, (side, k, report.final_size)


def assert_fates_add_up(report):
    replaced = [f for f, _, _ in report.fates if f == "contraction"]
    assert len(replaced) == len(report.replacements)
    assert report.kept_verbatim == len(report.fates) - len(replaced)
    assert [c["method"] for c in report.replacements] == replaced


def test_kernelize_rejects_tampered_contraction_certificate(monkeypatch):
    g = generate.grid(3, 4, terminals={1, 12})
    k, report = kernelize(g)
    assert report.fates == [("contraction", 12, 2)]
    assert len(k.vertices) == 2
    honest = kernel.contraction_replacement

    def tampered(*args, **kwargs):
        H, cert = honest(*args, **kwargs)
        # two pattern vertices now share a host vertex
        first, second = sorted(cert["branch_sets"])[:2]
        cert["branch_sets"][second] |= cert["branch_sets"][first]
        return H, cert

    monkeypatch.setattr(kernel, "contraction_replacement", tampered)
    k, report = kernelize(g)
    assert report.fates == [("rejected", 12, 2)]
    assert report.replacements == [] and report.kept_verbatim == 1
    assert k.vertices == g.vertices


def test_kernelize_prefers_a_smaller_contraction_with_a_doubled_edge():
    # criterion 8's small instance at seed 1.  An exhaustive search over
    # simple graphs, tried before contraction, used to replace its one part
    # by a triangle; contraction keeps the part's cycle as a doubled edge
    # on two vertices
    rng = random.Random(120_001)
    g = generate.random_planar(rng.randrange(8, 15), seed=120_001)
    T = set(rng.sample(sorted(g.vertices), rng.randrange(1, 6)))
    g = g.with_terminals(T)
    k, report = kernelize(g)
    assert report.fates == [("contraction", 9, 1)]
    assert len(k.vertices) == 2 and len(k.edges) == 2
    assert len(set(map(frozenset, k.edges.values()))) == 1
    assert (brute_t_cycle(k, k.terminals) is None) == (brute_t_cycle(g, T) is None)


def test_kernelize_lets_decomposition_faults_through(monkeypatch):
    # only an invalid modulator means "keep the graph as it is"; any other
    # error in the protrusion stage is a fault and must surface
    def broken(*args, **kwargs):
        raise InvalidDecomposition("bag misses an edge")

    monkeypatch.setattr(kernel, "protrusion_decompose", broken)
    with pytest.raises(InvalidDecomposition):
        kernelize(generate.grid(3, 4, terminals={1, 12}))


def test_kernelize_shrinks_long_appendage():
    # a long path hanging off a ring collapses to a stub
    import networkx as nx

    Gx = nx.cycle_graph(range(1, 7))
    Gx.add_edges_from((i, i + 1) for i in range(10, 30))
    Gx.add_edge(1, 10)
    g = generate.from_networkx_planar(Gx, terminals={2, 5})
    k, report = kernelize(g)
    assert len(k.vertices) < len(g.vertices)
    assert (solve_t_cycle(k, k.terminals) is None) == (
        solve_t_cycle(g, {2, 5}) is None
    )


# -- the profile as it was computed before: one DP per pattern and
# -- boundary subset, kept as the reference for the one-pass profile


def ref_patterns(boundary):
    """Every way a simple cycle can cross the boundary: pair sets with each
    vertex in at most two pairs and no cycle, by pair count."""
    vs = sorted(boundary)
    pairs = list(itertools.combinations(vs, 2))
    for m in range(len(vs) + 1):
        for combo in itertools.combinations(pairs, m):
            root = {v: v for v in vs}
            deg = dict.fromkeys(vs, 0)
            ok = True
            for a, c in combo:
                deg[a] += 1
                deg[c] += 1
                while root[a] != a:
                    a = root[a]
                while root[c] != c:
                    c = root[c]
                if a == c or max(deg.values()) > 2:
                    ok = False
                    break
                root[a] = c
            if ok:
                yield frozenset(map(frozenset, combo))


def ref_pattern_query(graph, boundary, pattern):
    """True iff disjoint paths realize every pair of the pattern, together
    meeting the boundary exactly in the pattern's vertices.  A vertex in two
    pairs is split into two copies with duplicated incidences, copied from
    the edges split so far, so that an edge between two such vertices also
    joins their copies."""
    support = {v for p in pattern for v in p}
    drop = set(boundary) - support
    g = graph.without_vertices(drop) if drop else graph
    deg = {}
    for p in pattern:
        for v in p:
            deg[v] = deg.get(v, 0) + 1
    verts = set(g.vertices)
    edges = dict(g.edges)
    fresh_v = max(verts, default=0) + 1
    fresh_e = max(edges, default=0) + 1
    copies = {v: [v] for v in deg}
    for v in sorted(v for v, d in deg.items() if d == 2):
        w = fresh_v
        fresh_v += 1
        verts.add(w)
        for a, c in list(edges.values()):
            if a == v or c == v:
                edges[fresh_e] = (w if a == v else a, w if c == v else c)
                fresh_e += 1
        copies[v].append(w)
    used = dict.fromkeys(deg, 0)
    pairs = []
    for p in sorted(pattern, key=sorted):
        a, c = sorted(p)
        pairs.append((copies[a][used[a]], copies[c][used[c]]))
        used[a] += 1
        used[c] += 1
    incident = {x: [] for x in verts}
    for eid, (a, c) in edges.items():
        incident[a].append(eid)
        incident[c].append(eid)
    rotation = {x: tuple(sorted(incident[x])) for x in verts}
    return solve_disjoint_paths(EmbeddedGraph(verts, edges, rotation), pairs)


def ref_linkage_profile(graph, boundary):
    """The profile by one disjoint-paths solve per crossing pattern (only
    where every one-pair-smaller pattern passed, as feasibility is monotone
    under dropping a pair), and one T-Cycle solve per boundary subset."""
    B = sorted(boundary)
    td = build(graph)
    fdp = set()
    for pattern in ref_patterns(B):
        if pattern and any(pattern - {p} not in fdp for p in pattern):
            continue
        if ref_pattern_query(graph, B, pattern):
            fdp.add(pattern)
    fcy = {
        frozenset(combo)
        for r in range(1, len(B) + 1)
        for combo in itertools.combinations(B, r)
        if solve_t_cycle(graph, set(combo), td) is not None
    }
    return LinkageProfile(frozenset(B), frozenset(fdp), frozenset(fcy))


def relabelled(profile, sigma):
    def pairs(m):
        return frozenset(frozenset(map(sigma.get, p)) for p in m)

    return LinkageProfile(
        frozenset(map(sigma.get, profile.boundary)),
        frozenset(map(pairs, profile.feasible_dp)),
        frozenset(frozenset(map(sigma.get, s)) for s in profile.feasible_cycle),
    )


def test_profile_does_not_depend_on_vertex_labels():
    # the path 1-3-4-2 and its relabelling 3-1-2-4: in both, the two middle
    # vertices are adjacent and both can be passed through
    import networkx as nx

    first = generate.from_networkx_planar(nx.Graph([(1, 3), (3, 4), (4, 2)]))
    second = generate.from_networkx_planar(nx.Graph([(3, 1), (1, 2), (2, 4)]))
    sigma = {1: 3, 3: 1, 4: 2, 2: 4}
    p = linkage_profile(first, {1, 2, 3, 4})
    q = linkage_profile(second, {1, 2, 3, 4})
    assert relabelled(p, sigma) == q
    # the whole path, passing through both middle vertices, is a pattern
    assert frozenset({frozenset({1, 3}), frozenset({3, 4}), frozenset({4, 2})}) in p.feasible_dp
    assert len(p.feasible_dp) == len(q.feasible_dp) == 8


def test_profile_matches_reference_with_boundary_edges():
    rng = random.Random(6006)
    graphs = bb = 0
    for seed in range(320):
        g = generate.random_planar(rng.randrange(4, 10), seed=seed + 7000)
        B = rng.sample(sorted(g.vertices), min(len(g.vertices), rng.randrange(2, 6)))
        bb += any(u in B and v in B for u, v in g.edges.values())
        assert linkage_profile(g, B) == ref_linkage_profile(g, B), (seed, B)
        graphs += 1
    assert graphs >= 300 and bb >= 250


def test_profile_matches_reference_on_kernelize_calls(monkeypatch):
    # every (graph, boundary) that kernelize profiles on the first seeds of
    # criterion 8's small random family
    calls = []
    one_pass = kernel.linkage_profile

    def recorded(graph, boundary):
        calls.append((graph, frozenset(boundary)))
        return one_pass(graph, boundary)

    monkeypatch.setattr(kernel, "linkage_profile", recorded)
    for seed in range(40):
        rng = random.Random(seed + 120_000)
        n = rng.randrange(8, 15)
        g = generate.random_planar(n, seed=seed + 120_000)
        T = set(rng.sample(sorted(g.vertices), rng.randrange(1, 6)))
        kernelize(g.with_terminals(T))
    assert len(calls) >= 100
    for graph, B in calls:
        assert one_pass(graph, B) == ref_linkage_profile(graph, B)


# -- contraction and embedding as they were built before: one contraction
# -- run per level, and a planarity embedding private to the kernel


def ref_reembed(vertices, edges, terminals):
    """Rebuild rotations for a planar multigraph via a planarity test;
    parallel edges are nested (their order is reversed at one endpoint)."""
    import networkx as nx

    Gx = nx.Graph()
    Gx.add_nodes_from(vertices)
    for u, v in edges.values():
        Gx.add_edge(u, v)
    ok, emb = nx.check_planarity(Gx)
    if not ok:
        raise SpliceError("spliced graph is not planar")
    by_pair = {}
    for eid in sorted(edges):
        u, v = edges[eid]
        by_pair.setdefault(frozenset((u, v)), []).append(eid)
    rotation = {}
    for v in vertices:
        if Gx.degree(v) == 0:
            rotation[v] = ()
            continue
        rot = []
        for w in emb.neighbors_cw_order(v):
            ids = by_pair[frozenset((v, w))]
            rot.extend(ids if v < w else reversed(ids))
        rotation[v] = tuple(rot)
    return EmbeddedGraph(set(vertices), dict(edges), rotation, terminals)


def ref_contract_to(protrusion, boundary, m):
    """Contract interior vertices into nearer neighbors until at most m
    remain; returns the contracted multigraph and its branch sets."""
    mult = {}
    adj = {v: set() for v in protrusion.vertices}
    for u, v in protrusion.edges.values():
        if u == v:
            continue
        pair = frozenset((u, v))
        mult[pair] = min(2, mult.get(pair, 0) + 1)
        adj[u].add(v)
        adj[v].add(u)
    Bs = set(boundary)
    branch = {v: {v} for v in adj}

    def remove_vertex(v):
        for w in adj[v]:
            adj[w].discard(v)
            mult.pop(frozenset((v, w)), None)
        del adj[v]

    while True:
        interior = [v for v in adj if v not in Bs]
        if len(interior) <= m:
            break
        dist = {b: 0 for b in Bs}
        frontier = sorted(Bs)
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = sorted(nxt)
        far = 10 ** 9
        v = max(interior, key=lambda x: (dist.get(x, far), x))
        if not adj[v]:
            remove_vertex(v)
            del branch[v]
            continue
        u = min(adj[v], key=lambda x: (dist.get(x, far), x))
        moved = {}
        for w in adj[v]:
            if w != u:
                moved[w] = mult[frozenset((v, w))]
        remove_vertex(v)
        for w, count in moved.items():
            pair = frozenset((u, w))
            mult[pair] = min(2, mult.get(pair, 0) + count)
            adj[u].add(w)
            adj[w].add(u)
        branch[u] |= branch.pop(v)
    edges = {}
    eid = 1
    for pair in sorted(mult, key=sorted):
        u, v = sorted(pair)
        for _ in range(mult[pair]):
            edges[eid] = (u, v)
            eid += 1
    H = ref_reembed(set(adj), edges, frozenset())
    return H, {v: frozenset(s) for v, s in branch.items()}


def with_parallel_edges(g, rng):
    """g with some edges doubled or tripled, listed in either orientation
    under shuffled, gapped edge ids."""
    pairs = []
    for u, v in g.edges.values():
        pairs += [(u, v)] * rng.choice((1, 1, 2, 3))
    rng.shuffle(pairs)
    ids = rng.sample(range(1, 4 * len(pairs) + 1), len(pairs))
    return {eid: (p if rng.random() < 0.5 else p[::-1]) for eid, p in zip(ids, pairs)}


def seeded_parts():
    """220 seeded parts (seed, graph, boundary) of 7 to 18 vertices: some
    with interior pieces cut off from the boundary, some with parallel
    edges."""
    rng = random.Random(8080)
    for seed in range(220):
        g = generate.random_planar(rng.randrange(10, 19), seed=seed + 9000)
        verts = sorted(g.vertices)
        B = sorted(rng.sample(verts, rng.randrange(1, 6)))
        if seed % 3 == 0:
            # cut a few interior vertices so that some interior pieces lose
            # every route to the boundary
            cut = rng.sample([v for v in verts if v not in B], 3)
            g = g.without_vertices(cut)
        if seed % 4 == 0:
            g = generate.embed_planar(g.vertices, with_parallel_edges(g, rng))
        yield seed, g, B


def test_boundary_linkages_do_not_depend_on_the_decomposition():
    # a profile is the set of segment sets the part holds: min-fill and
    # the BFS path, the two shapes the DP runs on, must list the same one
    parts = differ = 0
    for seed, g, B in seeded_parts():
        tds = build(g), _bfs_path(g)
        assert boundary_linkages(g, B, tds[0]) == boundary_linkages(g, B, tds[1]), seed
        parts += 1
        differ += tds[0].bags != tds[1].bags
    assert parts >= 200 and differ >= 200


def test_contraction_levels_match_per_level_reference():
    parts = levels = deleted = 0
    for seed, g, B in seeded_parts():
        top = min(CONTRACTED_INTERIOR_LIMIT, len(g.vertices) - len(B) - 1)
        reps = _contraction_levels(g, B, top)
        assert len(reps) == top + 1
        for m, rep in enumerate(reps):
            H, branch = _quotient(g, rep)
            H_ref, branch_ref = ref_contract_to(g, B, m)
            assert H.vertices == H_ref.vertices, (seed, m)
            assert H.edges == H_ref.edges, (seed, m)
            assert branch == branch_ref, (seed, m)
            deleted += len(g.vertices) > sum(map(len, branch.values()))
            levels += 1
        parts += 1
    assert parts >= 200 and levels >= 1000 and deleted > 0


# -- the contraction as it ran before: every candidate embedded by a
# -- planarity test before its profile was compared


def ref_quotient(protrusion, rep):
    """_quotient with an embedding: None when the quotient is not planar."""
    classes = {}
    for v in protrusion.vertices:
        if v in rep:
            classes.setdefault(rep[v], set()).add(v)
    mult = {}
    for u, v in protrusion.edges.values():
        if u in rep and v in rep and rep[u] != rep[v]:
            pair = tuple(sorted((rep[u], rep[v])))
            mult[pair] = mult.get(pair, 0) + 1
    edges = {}
    for pair in sorted(mult):
        for _ in range(min(2, mult[pair])):
            edges[len(edges) + 1] = pair
    try:
        H = generate.embed_planar(set(classes), edges)
    except TCycleError:
        return None
    return H, {r: frozenset(vs) for r, vs in classes.items()}


def ref_contraction_winner(protrusion, B, target):
    """The smallest planar candidate with the target profile, the levels
    first on ties, from the levels and the first RIM_QUOTIENT_LIMIT planar
    rim quotients."""
    top = min(CONTRACTED_INTERIOR_LIMIT, len(protrusion.vertices) - len(B) - 1)
    levels = [ref_quotient(protrusion, rep) for rep in _contraction_levels(protrusion, B, top)]
    rims = [ref_quotient(protrusion, rep) for rep in _rim_reps(protrusion, B)]
    candidates = [q for q in levels if q is not None]
    candidates += [q for q in rims if q is not None][:RIM_QUOTIENT_LIMIT]
    candidates.sort(key=lambda hb: (len(hb[0].vertices), len(hb[0].edges)))
    for H, branch in candidates:
        if len(H.vertices) < len(protrusion.vertices) and linkage_profile(H, B) == target:
            return H, branch
    return None


def ref_rim_reps(protrusion, boundary):
    """The rim quotients' rep maps as a union-find built them, kept as a
    differential reference for the connected-pieces version."""
    try:
        emb = protrusion.embedding()
    except TCycleError:
        return
    B = set(boundary)
    parent = {v: v for v in protrusion.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            ra, rb = sorted((ra, rb))
            parent[rb] = ra

    for walk, fverts in zip(emb.walks, emb.face_vertices):
        if not walk or not B <= fverts:
            continue
        seq = [protrusion.edges[d >> 1][d & 1] for d in walk]
        start = next(i for i, v in enumerate(seq) if v in B)
        seq = seq[start:] + seq[:start]
        for v in parent:
            parent[v] = v
        anchor = None
        for v in seq:
            if v in B:
                anchor = None
            else:
                if anchor is not None:
                    union(anchor, v)
                anchor = v
        rim = set(seq)
        left = protrusion.vertices - rim
        for s in sorted(left):
            for y in protrusion.neighbors(s):
                if y in left:
                    union(s, y)
        yield {v: (v if v in B else find(v)) for v in protrusion.vertices}


def test_rim_reps_match_union_find_reference():
    parts = maps = merged = 0
    for seed, g, B in seeded_parts():
        got = list(_rim_reps(g, B))
        assert got == list(ref_rim_reps(g, B)), seed
        parts += bool(got)
        maps += len(got)
        merged += sum(len(set(rep.values())) < len(rep) for rep in got)
    assert parts >= 100 and maps >= 200 and merged >= 200, (parts, maps, merged)


def test_contraction_replacement_matches_embed_every_candidate_reference():
    parts = won = 0
    for seed, g, B in seeded_parts():
        target = linkage_profile(g, B)
        got = contraction_replacement(g, B, target=target)
        want = ref_contraction_winner(g, B, target)
        assert (got is None) == (want is None), seed
        if got is not None:
            (H, cert), (H_ref, branch_ref) = got, want
            assert H.vertices == H_ref.vertices, seed
            assert H.edges == H_ref.edges, seed
            assert cert["branch_sets"] == branch_ref, seed
            won += 1
        parts += 1
    assert parts >= 200 and won >= 150


def test_embed_planar_matches_reference_on_multigraphs():
    import networkx as nx

    rng = random.Random(4242)
    parallel = 0
    for seed in range(60):
        g = generate.random_planar(rng.randrange(4, 16), seed=seed + 5100)
        edges = with_parallel_edges(g, rng)
        vertices = set(g.vertices) | {max(g.vertices) + 1}  # one isolated
        got = generate.embed_planar(vertices, edges, {min(vertices)})
        want = ref_reembed(vertices, edges, {min(vertices)})
        assert got.vertices == want.vertices and got.edges == want.edges
        assert got.rotation == want.rotation, seed
        assert got.terminals == want.terminals
        got.embedding()
        parallel += len(edges) > len(set(map(frozenset, edges.values())))
    assert parallel > 0
    k5 = {i: p for i, p in enumerate(itertools.combinations(range(5), 2), 1)}
    with pytest.raises(TCycleError):
        generate.embed_planar(range(5), k5)
    with pytest.raises(SpliceError):
        ref_reembed(range(5), k5, ())
    # from_networkx_planar numbers the sorted pairs from 1
    h = generate.from_networkx_planar(nx.Graph([(3, 1), (2, 1)]))
    assert h.edges == {1: (1, 2), 2: (1, 3)}


# -- splicing as it was done before: the replacement's interior renamed to
# -- fresh ids and the whole kernel re-embedded by a planarity test


def ref_splice(host, part, replacement, boundary):
    """Replace the interior of part (everything off the boundary) with the
    replacement graph; the result is re-embedded and re-validated."""
    B = frozenset(boundary)
    part = frozenset(part)
    interior = part - B
    if not B <= replacement.vertices:
        raise SpliceError("replacement misses boundary vertices")
    for v in interior:
        if not host.neighbors(v) <= part:
            raise SpliceError("part interior touches the rest of the host")
    keep = host.vertices - interior
    vertices = set(keep)
    edges = {
        eid: (u, v)
        for eid, (u, v) in host.edges.items()
        if u in keep and v in keep
    }
    relabel = {}
    nxt = max(list(host.vertices) + [0]) + 1
    for v in sorted(replacement.vertices):
        if v in B:
            relabel[v] = v
        else:
            relabel[v] = nxt
            nxt += 1
    vertices |= set(relabel.values())
    eid = max(list(host.edges) + [0]) + 1
    for old in sorted(replacement.edges):
        u, v = replacement.edges[old]
        edges[eid] = tuple(sorted((relabel[u], relabel[v])))
        eid += 1
    try:
        out = generate.embed_planar(vertices, edges, host.terminals & vertices)
        out.embedding()
    except TCycleError as exc:
        raise SpliceError(str(exc)) from exc
    return out


def criterion_8_instances():
    """Criterion 8's 200 small and 100 large instances, each with the
    isolation budget that criterion kernelizes it at."""
    for seed in range(200):
        rng = random.Random(seed + 120_000)
        g = generate.random_planar(rng.randrange(8, 15), seed=seed + 120_000)
        T = set(rng.sample(sorted(g.vertices), rng.randrange(1, 6)))
        yield g.with_terminals(T), None
    for i in range(40):
        rng = random.Random(i)
        n = rng.randrange(20, 61)
        yield generate.random_planar(n, seed=i + 300, k=rng.randrange(1, 7)), IsolationBudget(2)
    for i in range(30):
        rng = random.Random(i + 40)
        rows = 3 + i % 3
        cols = rng.randrange(12, 300 // rows + 1)
        g = generate.grid_with_terminals(rows, cols, rng.randrange(2, 7), seed=i)
        yield g, IsolationBudget(2)
    for i in range(20):
        rng = random.Random(i + 80)
        depth = rng.randrange(4, 16)
        rs = rng.randrange(4, 7)
        g = generate.nested_rings(depth, ring_size=rs)
        outer = generate.ring_ids(depth, rs)[-1]
        T = set(rng.sample(outer, rng.randrange(2, 4)))
        yield g.with_terminals(T), IsolationBudget(2)
    for i in range(10):
        yield generate.grid_with_terminals(5, 12 + 5 * i, 5, seed=i), IsolationBudget(2)


def test_splice_matches_reembedding_reference(monkeypatch):
    # every replacement of criterion 8, spliced both ways into one host
    spliced = merged = instances = 0
    honest = kernel.splice

    def both(host, pgraph, branch, boundary):
        nonlocal spliced, merged
        out = honest(host, pgraph, branch, boundary)
        H, _ = _quotient(pgraph, {v: p for p, vs in branch.items() for v in vs})
        ref = ref_splice(host, pgraph.vertices, H, boundary)
        # the old splice numbered the interior labels, sorted, from above
        # the host's largest vertex
        fresh = max(host.vertices) + 1
        labels = sorted(set(branch) - set(boundary))
        name = dict(zip(range(fresh, fresh + len(labels)), labels))
        ref_pairs = [tuple(sorted(name.get(x, x) for x in uv)) for uv in ref.edges.values()]
        assert out.vertices == {name.get(v, v) for v in ref.vertices}
        assert sorted(map(tuple, map(sorted, out.edges.values()))) == sorted(ref_pairs)
        assert out.terminals == {name.get(v, v) for v in ref.terminals}
        # the inherited rotation passes the Euler trace of a fresh graph
        EmbeddedGraph(out.vertices, out.edges, out.rotation).embedding()
        moved = {p for p, vs in branch.items() if len(vs) > 1}
        for v in out.vertices - moved:
            want = tuple(e for e in host.rotation.get(v, ()) if e in out.edges)
            assert out.rotation.get(v, ()) == want, v
        assert (solve_t_cycle(out, out.terminals) is None) == (
            solve_t_cycle(ref, ref.terminals) is None
        )
        spliced += 1
        merged += len(moved)
        return out

    monkeypatch.setattr(kernel, "splice", both)
    for g, budget in criterion_8_instances():
        kernelize(g, budget=budget)
        instances += 1
    assert instances == 300 and spliced >= 280 and merged >= 400, (spliced, merged)


def test_certificate_labels_are_kernel_vertices():
    # the --report branch sets are named by their labels, which the kernel
    # keeps as the merged vertices' ids
    replaced = 0
    for rows, cols in ((5, 10), (10, 10), (10, 20), (20, 20)):
        g = generate.grid_with_terminals(rows, cols, 5)
        k, report = kernelize(g, budget=IsolationBudget(1))
        for cert in report.replacements:
            assert set(cert["branch_sets"]) <= k.vertices, (rows, cols)
            replaced += 1
    assert replaced >= 4


def test_kernelize_runs_no_planarity_test(monkeypatch):
    import networkx as nx

    grid = generate.grid_with_terminals(5, 10, 5)
    small = [g for g, _ in itertools.islice(criterion_8_instances(), 60)]

    def refuse(*args, **kwargs):
        raise RuntimeError("kernelize ran a planarity test")

    monkeypatch.setattr(nx, "check_planarity", refuse)
    k, report = kernelize(grid, budget=IsolationBudget(1))
    assert report.replacements
    with_replacements = 0
    for g in small:
        k, report = kernelize(g)
        with_replacements += bool(report.replacements)
    assert with_replacements >= 20
