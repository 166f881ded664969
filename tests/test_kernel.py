import random

import pytest

from tcycle import generate
from tcycle.cycles import is_isolated
from tcycle.dp import solve_t_cycle
from tcycle.errors import (
    BoundaryTooLarge,
    BudgetExceeded,
    InvalidConfiguration,
    ModulatorInvalid,
    SpliceError,
)
from tcycle.kernel import (
    _linkage_irrelevant_sweep,
    all_matchings,
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


def test_all_matchings_counts():
    assert sum(1 for _ in all_matchings([])) == 1
    assert sum(1 for _ in all_matchings([1, 2])) == 2
    assert sum(1 for _ in all_matchings([1, 2, 3, 4])) == 10
    assert sum(1 for _ in all_matchings(range(6))) == 76


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
    found = replacement_search(g, [1, 3])
    assert found is not None
    H, cert = found
    assert set(H.vertices) == {1, 3} and len(H.edges) == 1
    assert cert["old_size"] == 3 and cert["new_size"] == 2
    assert linkage_profile(H, [1, 3]) == linkage_profile(g, [1, 3])


def test_replacement_search_minimal_unchanged():
    assert replacement_search(edge_graph(1, 2), [1, 2]) is None


def test_replacement_search_limits():
    with pytest.raises(BoundaryTooLarge):
        replacement_search(generate.grid(3, 4), list(range(1, 8)))
    with pytest.raises(BudgetExceeded):
        replacement_search(generate.grid(4, 5), [1, 5])
    with pytest.raises(BudgetExceeded):
        replacement_search(generate.grid(3, 4), [1, 4, 9, 12], candidate_cap=10)


def test_contraction_replacement_ring():
    g = generate.ring(6)
    found = contraction_replacement(g, [1, 4])
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
    found = contraction_replacement(g, B)
    assert found is not None
    H, cert = found
    assert len(H.vertices) < 16
    assert verify_minor_map(g, H, cert["branch_sets"])
    assert linkage_profile(H, B) == linkage_profile(g, B)


def test_verify_minor_map_rejects_bad_certificates():
    g = generate.ring(6)
    H, cert = contraction_replacement(g, [1, 4])
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
    out = splice(host, {1, 2, 3, 4, 5}, edge_graph(1, 5), {1, 5})
    assert out.vertices == frozenset({1, 5})
    assert len(out.edges) == 1
    assert out.terminals == frozenset({1, 5})


def test_splice_rejects_bad_inputs():
    host = generate.path_graph(5)
    with pytest.raises(SpliceError):
        splice(host, {1, 2, 3, 4, 5}, edge_graph(1, 2), {1, 5})
    with pytest.raises(SpliceError):
        # interior vertex 3 still has a neighbor outside the claimed part
        splice(host, {3, 4}, edge_graph(4, 6), {4})


def test_splice_keeps_parallel_replacement_edges():
    host = generate.ring(6, terminals={1, 4})
    H, _ = contraction_replacement(host, [1, 4])
    out = splice(host, set(host.vertices), H, {1, 4})
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


def ref_linkage_sweep(graph, part, boundary, threshold):
    """The sweep as it ran before: one is_isolated call per interior vertex
    and round."""
    pg = part_graph(graph, part, boundary)
    gone = set()
    while True:
        emb = pg.embedding()
        far = {
            v
            for v in sorted(pg.vertices - boundary)
            if is_isolated(pg, boundary, v, threshold, emb)
        }
        if not far:
            return gone
        gone |= far
        pg = pg.without_vertices(far)


def test_linkage_sweep_equals_per_vertex_reference():
    rng = random.Random(17)
    cases = []
    for seed in range(20):
        g = generate.random_planar(10 + seed % 15, seed=seed + 300)
        verts = sorted(g.vertices)
        boundary = frozenset(rng.sample(verts, rng.randrange(1, 4)))
        part = frozenset(v for v in verts if v not in boundary and rng.random() < 0.8)
        cases.append((g, part, boundary))
    for side in (6, 10):
        g = generate.grid(side, side)
        boundary = frozenset(range(1, side + 1))
        cases.append((g, g.vertices - boundary, boundary))
    depth = 7
    g = generate.nested_rings(depth)
    boundary = frozenset(generate.ring_ids(depth)[-1])
    cases.append((g, g.vertices - boundary, boundary))
    swept = 0
    for g, part, boundary in cases:
        for threshold in (1, 2, 3):
            got = _linkage_irrelevant_sweep(g, part, boundary, threshold)
            assert got == ref_linkage_sweep(g, part, boundary, threshold)
            swept += len(got)
    assert swept > 0
