import pytest

from tcycle import generate
from tcycle.errors import (
    Disconnected,
    MalformedRotation,
    NonPlanarCertificate,
    NotACycle,
    ParseError,
)
from tcycle.fileio import parse, serialize
from tcycle.graph import (
    EmbeddedGraph,
    cycle_vertices,
    disk_of_cycle,
    radial_bfs,
    radial_distance,
)


def triangle():
    return EmbeddedGraph(
        {1, 2, 3},
        {1: (1, 2), 2: (2, 3), 3: (1, 3)},
        {1: (1, 3), 2: (1, 2), 3: (2, 3)},
    )


def test_single_edge_one_face():
    g = EmbeddedGraph({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1,)})
    emb = g.embedding()
    assert len(emb.faces) == 1


def test_triangle_two_faces():
    emb = triangle().embedding()
    assert len(emb.faces) == 2
    for f in emb.faces:
        assert f.vertices == frozenset({1, 2, 3})


def test_path_one_face():
    g = generate.path_graph(5)
    assert len(g.embedding().faces) == 1


def test_grid_face_count():
    g = generate.grid(3, 4)
    # 12 vertices, 17 edges -> Euler gives 7 faces (6 squares + outer)
    emb = g.embedding()
    assert len(emb.faces) == 7
    outer = emb.faces[emb.outer_face()]
    assert outer.vertices == g.outer_hint


def test_rotation_mismatch_rejected():
    with pytest.raises(MalformedRotation):
        EmbeddedGraph({1, 2}, {1: (1, 2)}, {1: (1,), 2: ()})
    with pytest.raises(MalformedRotation):
        EmbeddedGraph({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1, 1)})


def test_bad_rotation_fails_euler():
    # K4 with one vertex's rotation flipped relative to a planar embedding
    g = generate.from_networkx_planar(__import__("networkx").complete_graph([1, 2, 3, 4]))
    rot = dict(g.rotation)
    rot[1] = tuple(reversed(rot[1]))
    flipped = EmbeddedGraph(g.vertices, g.edges, rot)
    with pytest.raises(NonPlanarCertificate):
        flipped.embedding()


def test_disconnected_components_and_euler():
    g = EmbeddedGraph(
        {1, 2, 3, 4, 5, 6, 7},
        {1: (1, 2), 2: (2, 3), 3: (1, 3), 4: (4, 5)},
        {1: (1, 3), 2: (1, 2), 3: (2, 3), 4: (4,), 5: (4,)},
    )
    emb = g.embedding()
    assert len(g.components()) == 4
    # triangle: 2 faces; edge: 1; two isolated vertices: 1 each
    assert len(emb.faces) == 5


def test_radial_distance_grid():
    g = generate.grid(5, 5)
    # opposite corners share the outer face; the center is two hops away
    assert radial_distance(g, 1, 25) == 1
    assert radial_distance(g, 1, 13) == 2
    assert radial_distance(g, 1, 1) == 0
    assert radial_distance(g, 1, 7) == 1


def test_radial_distance_is_symmetric():
    g = generate.random_planar(10, seed=7)
    verts = sorted(g.vertices)
    for u in verts[:4]:
        for v in verts[4:8]:
            assert radial_distance(g, u, v) == radial_distance(g, v, u)


def test_radial_bfs_matches_bipartite_oracle():
    import networkx as nx

    g = generate.random_planar(12, seed=3)
    emb = g.embedding()
    B = nx.Graph()
    for v in g.vertices:
        B.add_node(("v", v))
    for f in emb.faces:
        for v in f.vertices:
            B.add_edge(("f", f.id), ("v", v))
    src = min(g.vertices)
    expect = {
        n[1]: d // 2
        for n, d in nx.single_source_shortest_path_length(B, ("v", src)).items()
        if n[0] == "v"
    }
    assert radial_bfs(g, [src]) == expect


def test_radial_disconnected():
    g = EmbeddedGraph(
        {1, 2, 3, 4},
        {1: (1, 2), 2: (3, 4)},
        {1: (1,), 2: (1,), 3: (2,), 4: (2,)},
    )
    with pytest.raises(Disconnected):
        radial_distance(g, 1, 3)


def test_nested_rings_disks():
    g = generate.nested_rings(3)
    rings = generate.ring_ids(3)
    emb = g.embedding()
    assert emb.faces[emb.outer_face()].vertices == frozenset(rings[2])
    inner_cycle = [e for e, (u, v) in g.edges.items() if u in rings[0] and v in rings[0]]
    d0 = disk_of_cycle(g, inner_cycle)
    assert d0.vertices == frozenset(rings[0])
    mid_cycle = [e for e, (u, v) in g.edges.items() if u in rings[1] and v in rings[1]]
    d1 = disk_of_cycle(g, mid_cycle)
    assert d1.vertices == frozenset(rings[0] + rings[1])
    assert d1.strict_vertices == frozenset(rings[0])
    assert set(inner_cycle) <= d1.strict_edges


def test_cycle_vertices_rejects_non_cycles():
    g = generate.grid(2, 3)
    with pytest.raises(NotACycle):
        cycle_vertices(g, [1])
    # two disjoint cycles
    h = generate.nested_rings(2)
    rings = generate.ring_ids(2)
    eids = [
        e
        for e, (u, v) in h.edges.items()
        if (u in rings[0]) == (v in rings[0])
    ]
    with pytest.raises(NotACycle):
        cycle_vertices(h, eids)


def test_roundtrip():
    g = generate.grid_with_terminals(3, 4, 3, seed=5)
    text = serialize(g)
    h = parse(text)
    assert h.vertices == g.vertices
    assert h.edges == g.edges
    assert h.rotation == g.rotation
    assert h.terminals == g.terminals
    assert h.outer_hint == g.outer_hint
    assert serialize(h) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("v 1\nv 1\n")
    with pytest.raises(ParseError):
        parse("v 1\nt 2\n")
    with pytest.raises(ParseError):
        parse("v 1\nv 2\ne 1 1 3\n")
    with pytest.raises(ParseError):
        parse("q 1\n")


def test_parse_bare_rotation_line():
    with pytest.raises(ParseError):
        parse("v 1\nrot\n")


def test_subgraph_keeps_embedding():
    g = generate.random_planar(14, seed=11)
    keep = sorted(g.vertices)[:9]
    h = g.subgraph(keep)
    h.embedding()  # must pass Euler per component
    assert h.vertices == frozenset(keep)
    for e, (u, v) in h.edges.items():
        assert g.edges[e] == (u, v)
