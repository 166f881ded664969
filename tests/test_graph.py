import logging
import random
from collections import Counter, deque
from typing import NamedTuple

import pytest

from tcycle import generate
from tcycle.decomposition import reed_pipeline
from tcycle.errors import (
    MalformedRotation,
    NonPlanarCertificate,
    NotACycle,
    ParseError,
    UnknownVertex,
)
from tcycle.fileio import parse, serialize
from tcycle.graph import (
    EmbeddedGraph,
    cycle_vertices,
    disk_of_cycle,
    pieces,
    radial_bfs,
)


class Face(NamedTuple):
    """One face with its walk as tuple darts (eid, side): (e, 0) traverses
    e from its stored tail to its head, (e, 1) the other way."""

    id: int
    walk: tuple
    vertices: frozenset
    edge_ids: frozenset


def faces_of(emb):
    """The embedding's faces as Face values, read off its integer darts
    2*eid + side."""
    return [
        Face(fid, tuple((d >> 1, d & 1) for d in walk), verts, frozenset(d >> 1 for d in walk))
        for fid, (walk, verts) in enumerate(zip(emb.walks, emb.face_vertices))
    ]


def face_of_dart_of(emb):
    """(eid, side) -> face id."""
    return {(d >> 1, d & 1): fid for d, fid in emb.dart_face.items()}


def radial_distance(graph, u, v, emb=None):
    """d^R(u, v): one less than the shortest vertex sequence from u to v in
    which consecutive vertices share a face."""
    dist = radial_bfs(graph, [u], emb)
    if v not in graph.vertices:
        raise UnknownVertex(f"vertex {v}")
    return dist[v]


def triangle():
    return EmbeddedGraph(
        {1, 2, 3},
        {1: (1, 2), 2: (2, 3), 3: (1, 3)},
        {1: (1, 3), 2: (1, 2), 3: (2, 3)},
    )


def test_single_edge_one_face():
    g = EmbeddedGraph({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1,)})
    emb = g.embedding()
    assert len(emb.walks) == 1


def test_triangle_two_faces():
    emb = triangle().embedding()
    assert len(emb.walks) == 2
    for verts in emb.face_vertices:
        assert verts == frozenset({1, 2, 3})


def test_path_one_face():
    g = generate.path_graph(5)
    assert len(g.embedding().walks) == 1


def test_grid_face_count():
    g = generate.grid(3, 4)
    # 12 vertices, 17 edges -> Euler gives 7 faces (6 squares + outer)
    emb = g.embedding()
    assert len(emb.walks) == 7
    assert emb.face_vertices[emb.outer_faces[0]] == g.outer_hint


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
    assert len(emb.walks) == 5


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
    for fid, verts in enumerate(emb.face_vertices):
        for v in verts:
            B.add_edge(("f", fid), ("v", v))
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
    assert 3 not in radial_bfs(g, [1])


def test_nested_rings_disks():
    g = generate.nested_rings(3)
    rings = generate.ring_ids(3)
    emb = g.embedding()
    assert emb.face_vertices[emb.outer_faces[0]] == frozenset(rings[2])
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
    with pytest.raises(ParseError, match="undeclared vertex 99"):
        parse("v 1\nv 2\nouter 1 99\n")


def test_outer_hint_must_name_vertices():
    # the constructor rejects what parse rejects, so every graph it accepts
    # round-trips through serialize
    with pytest.raises(UnknownVertex):
        EmbeddedGraph({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1,)}, outer_hint={99})
    g = EmbeddedGraph({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1,)}, outer_hint={1, 2})
    assert parse(serialize(g)).outer_hint == g.outer_hint


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


# -- reference oracles ------------------------------------------------------
# The face tracing, rotation check and component search that graph.py used
# before the successor-map rewrite, kept verbatim as differential oracles.


def ref_components(graph):
    seen = set()
    out = []
    for s in sorted(graph.vertices):
        if s in seen:
            continue
        comp = {s}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in graph.neighbors(x):
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        out.append(frozenset(comp))
    return out


def ref_validate(vertices, edges, rotation, terminals=()):
    vertices = frozenset(vertices)
    rotation = {v: tuple(r) for v, r in rotation.items() if r}
    for eid, (u, v) in edges.items():
        if u not in vertices or v not in vertices:
            raise UnknownVertex(f"edge {eid} touches unknown vertex")
    if not frozenset(terminals) <= vertices:
        raise UnknownVertex("terminal is not a vertex")
    want = {v: Counter() for v in vertices}
    for eid, (u, v) in edges.items():
        want[u][eid] += 1
        want[v][eid] += 1
    for v in vertices:
        have = Counter(rotation.get(v, ()))
        if have != want[v]:
            raise MalformedRotation(
                f"rotation at {v} lists {sorted(have.elements())}, "
                f"incident edges are {sorted(want[v].elements())}"
            )


def ref_darts_at(graph):
    out = {}
    for v in graph.vertices:
        darts = []
        seen_loop = Counter()
        for eid in graph.rotation.get(v, ()):
            a, b = graph.edges[eid]
            if a == b:
                darts.append((eid, seen_loop[eid]))
                seen_loop[eid] += 1
            else:
                darts.append((eid, 0 if a == v else 1))
        out[v] = darts
    return out


def ref_dart_head(graph, dart):
    eid, side = dart
    a, b = graph.edges[eid]
    return b if side == 0 else a


def ref_trace(graph):
    """(faces, face_of_dart, component_of, outer_faces) as the old tracer
    computed them."""
    darts_at = ref_darts_at(graph)
    pos = {}
    for v, darts in darts_at.items():
        for i, d in enumerate(darts):
            pos[d] = (v, i)

    def next_face_dart(d):
        w = ref_dart_head(graph, d)
        rev = (d[0], 1 - d[1])
        _, p = pos[rev]
        ring = darts_at[w]
        return ring[(p + 1) % len(ring)]

    faces = []
    face_of_dart = {}
    for v in sorted(graph.vertices):
        for start in darts_at[v]:
            if start in face_of_dart:
                continue
            walk = []
            d = start
            while True:
                walk.append(d)
                face_of_dart[d] = len(faces)
                d = next_face_dart(d)
                if d == start:
                    break
            verts = frozenset(pos[d][0] for d in walk)
            eids = frozenset(d[0] for d in walk)
            faces.append(Face(len(faces), tuple(walk), verts, eids))
    for v in sorted(graph.vertices):
        if graph.degree(v) == 0:
            faces.append(Face(len(faces), (), frozenset([v]), frozenset()))

    comps = ref_components(graph)
    component_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            component_of[v] = i

    for i, comp in enumerate(comps):
        nv = len(comp)
        ne = sum(1 for u, w in graph.edges.values() if u in comp)
        nf = sum(1 for f in faces if f.vertices <= comp)
        if nv - ne + nf != 2:
            raise NonPlanarCertificate(
                f"component {sorted(comp)[:6]}...: V-E+F = {nv}-{ne}+{nf} != 2"
            )

    outer_faces = {}
    for i, comp in enumerate(comps):
        cand = [f for f in faces if f.vertices <= comp]
        hint = graph.outer_hint
        chosen = None
        if hint and hint <= comp:
            exact = [f for f in cand if f.vertices == hint]
            if len(exact) == 1:
                chosen = exact[0]
        if chosen is None:
            chosen = min(cand, key=lambda f: tuple(sorted(f.vertices)))
        outer_faces[i] = chosen.id
    return faces, face_of_dart, component_of, outer_faces


# -- differential corpus -----------------------------------------------------


def decorate(g, rng):
    """g plus loops, parallel edges, isolated vertices and a relabelled copy
    of a subgraph as further components.  A loop's two ends are adjacent in
    its rotation and a parallel edge hugs its twin, so a planar g stays
    planar."""
    edges = dict(g.edges)
    rot = {v: list(r) for v, r in g.rotation.items()}
    nxt = max(edges, default=0) + 1
    verts = sorted(g.vertices)
    for _ in range(rng.randrange(4)):
        v = rng.choice(verts)
        r = rot.setdefault(v, [])
        i = rng.randrange(len(r) + 1)
        r[i:i] = [nxt, nxt]
        edges[nxt] = (v, v)
        nxt += 1
    for eid in rng.sample(sorted(g.edges), min(3, len(g.edges))):
        u, v = edges[eid]
        ru, rv = rot[u], rot[v]
        ru.insert(ru.index(eid) + 1, nxt)
        rv.insert(rv.index(eid), nxt)
        edges[nxt] = (u, v)
        nxt += 1
    vertices = set(g.vertices)
    top = max(vertices)
    for i in range(rng.randrange(3)):
        vertices.add(top + 1 + i)
    part = g.subgraph(verts[: max(1, len(verts) // 3)])
    shift = top + 10
    vertices |= {v + shift for v in part.vertices}
    for eid, (u, v) in part.edges.items():
        edges[eid + nxt] = (u + shift, v + shift)
    for v, r in part.rotation.items():
        rot[v + shift] = [e + nxt for e in r]
    return EmbeddedGraph(vertices, edges, rot, g.terminals, g.outer_hint)


def relabel_edges(g, f):
    """g with every edge id e renamed f(e)."""
    return EmbeddedGraph(
        g.vertices,
        {f(e): uv for e, uv in g.edges.items()},
        {v: [f(e) for e in r] for v, r in g.rotation.items()},
        g.terminals,
        g.outer_hint,
    )


def derive_chain(g, rng, steps=4):
    """A random chain of without_vertices, without_edges, subgraph and
    with_terminals calls from g, as (method, argument, parent, result)."""
    out = []
    for _ in range(steps):
        verts = sorted(g.vertices)
        how = rng.randrange(4)
        if how == 0:
            name, arg = "without_vertices", rng.sample(verts, len(verts) // 5)
        elif how == 1:
            name, arg = "without_edges", rng.sample(sorted(g.edges), len(g.edges) // 4)
        elif how == 2:
            name, arg = "subgraph", [v for v in verts if rng.random() < 0.8]
        else:
            name, arg = "with_terminals", rng.sample(verts, min(2, len(verts)))
        h = getattr(g, name)(arg)
        out.append((name, arg, g, h))
        g = h
    return out


def derivation_steps():
    rng = random.Random(99)
    out = []
    for seed in range(12):
        g = generate.random_planar(10 + seed, seed=seed, k=2)
        out += derive_chain(decorate(g, rng), rng)
    for g in (generate.grid(5, 6), generate.nested_rings(4), generate.digon_tower(3)[0]):
        out += derive_chain(decorate(g, rng), rng)
    return out


def ref_derive(name, arg, g):
    """The derived graph as it was built before derivation skipped
    validation: the same filter, through the validating constructor."""
    vertices, edges, terminals, hint = g.vertices, g.edges, g.terminals, g.outer_hint
    if name == "without_vertices":
        name, arg = "subgraph", g.vertices - frozenset(arg)
    if name == "subgraph":
        vertices = frozenset(arg)
        edges = {e: (u, v) for e, (u, v) in edges.items() if u in vertices and v in vertices}
        terminals = terminals & vertices
        hint = hint if hint and hint <= vertices else None
    elif name == "without_edges":
        edges = {e: uv for e, uv in edges.items() if e not in arg}
    else:
        terminals = arg
    rot = {v: [e for e in r if e in edges] for v, r in g.rotation.items() if v in vertices}
    return EmbeddedGraph(vertices, edges, rot, terminals, hint)


def corpus():
    rng = random.Random(2024)
    out = []
    for seed in range(40):
        g = generate.random_planar(6 + seed % 25, seed=seed, k=2)
        out.append(g)
        out.append(decorate(g, rng))
        keep = [v for v in sorted(g.vertices) if rng.random() < 0.6]
        if keep:
            out.append(g.subgraph(keep))
    for rows, cols in [(1, 1), (1, 5), (2, 2), (3, 4), (4, 7), (6, 6)]:
        g = generate.grid(rows, cols)
        out.append(g)
        out.append(decorate(g, rng))
    for depth in range(1, 6):
        g = generate.nested_rings(depth, ring_size=3 + depth % 3)
        out.append(g)
        out.append(decorate(g, rng))
        out.append(generate.digon_tower(depth)[0])
    out.append(EmbeddedGraph({1}, {1: (1, 1)}, {1: (1, 1)}))
    out.append(EmbeddedGraph({1, 2, 3}, {}, {}))
    # negative and large edge ids: a dart's edge and side are read off with
    # >> and &, which must hold for negative ints too
    for g in out[:6] + out[-8:]:
        out.append(relabel_edges(g, lambda e: -e))
        out.append(relabel_edges(g, lambda e: ~(3 * e)))
        out.append(relabel_edges(g, lambda e: e + 10**15))
        out.append(relabel_edges(g, lambda e: -(10**12) * e - 1))
    out += [d for _, _, _, d in derivation_steps()]
    return out


def test_trace_matches_reference_oracle():
    graphs = corpus()
    assert len(graphs) >= 260
    assert any(e < 0 for g in graphs for e in g.edges)
    for g in graphs:
        faces, face_of_dart, component_of, outer_faces = ref_trace(g)
        emb = g.embedding()
        assert emb.face_vertices == [f.vertices for f in faces]
        for eid in g.edges:
            assert emb.faces_of_edge(eid) == (face_of_dart[eid, 0], face_of_dart[eid, 1])
        assert faces_of(emb) == faces
        assert face_of_dart_of(emb) == face_of_dart
        assert emb.component_of == component_of
        assert emb.outer_faces == outer_faces
        assert g.components() == ref_components(g)


def test_pieces_match_networkx_components():
    # the pieces of random induced subgraphs, in order of their least vertex
    import networkx as nx

    rng = random.Random(4242)
    cases = split = 0
    for seed in range(60):
        g = generate.random_planar(rng.randrange(6, 40), seed=seed + 7000)
        G = nx.Graph(list(g.edges.values()))
        G.add_nodes_from(g.vertices)
        verts = sorted(g.vertices)
        for _ in range(4):
            nodes = set(rng.sample(verts, rng.randrange(0, len(verts) + 1)))
            got = list(pieces(nodes, g.neighbors))
            want = sorted(map(set, nx.connected_components(G.subgraph(nodes))), key=min)
            assert got == want, seed
            cases += 1
            split += len(got) > 1
    assert cases == 240 and split >= 100, split


def test_serialized_graphs_parse_back_equal():
    for g in corpus():
        h = parse(serialize(g))
        assert h.vertices == g.vertices
        assert h.edges == g.edges
        assert h.rotation == g.rotation
        assert h.terminals == g.terminals
        assert h.outer_hint == g.outer_hint


def test_rotation_entries_of_non_vertices_are_dropped():
    g = EmbeddedGraph({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1,), 9: (1,)})
    assert g.rotation == {1: (1,), 2: (1,)}
    assert parse(serialize(g)).rotation == g.rotation


def test_derived_graphs_match_validated_reference():
    # subgraph and friends build their result without validating it; the
    # validating constructor must accept every one, and the graph must equal
    # the one the filter built through the constructor
    steps = derivation_steps()
    assert len(steps) >= 60
    assert {name for name, _, _, _ in steps} == {
        "without_vertices", "without_edges", "subgraph", "with_terminals"
    }
    for name, arg, parent, d in steps:
        fields = (d.vertices, d.edges, d.rotation, d.terminals, d.outer_hint)
        full = EmbeddedGraph(*fields)
        ref = ref_derive(name, arg, parent)
        for other in (full, ref):
            assert (other.vertices, other.edges, other.rotation) == fields[:3]
            assert (other.terminals, other.outer_hint) == fields[3:]
        assert full.components() == d.components() == ref_components(d)
    g = generate.grid(3, 3)
    with pytest.raises(UnknownVertex):
        g.with_terminals({1, 99})
    with pytest.raises(UnknownVertex):
        g.subgraph({1, 2, 99})
    assert g.with_terminals({1, 9}).terminals == {1, 9}


def test_one_debug_line_per_trace(caplog):
    caplog.set_level(logging.DEBUG, logger="tcycle.graph")
    g = generate.grid_with_terminals(40, 40, 3, seed=1)
    reed_pipeline(g)
    lines = [r for r in caplog.records if r.name == "tcycle.graph"]
    assert [r.levelname for r in lines] == ["DEBUG", "DEBUG"]
    emb = g.embedding()
    assert lines[0].args == (1600, len(emb.dart_face), len(emb.walks), 1)
    assert lines[0].args[1] == 2 * len(g.edges)
    caplog.clear()
    g.embedding()
    assert not [r for r in caplog.records if r.name == "tcycle.graph"]


def test_trace_rejects_shuffled_rotations_like_reference():
    rng = random.Random(7)
    rejected = 0
    for seed in range(40):
        g = generate.random_planar(8 + seed % 10, seed=seed)
        rot = {v: rng.sample(r, len(r)) for v, r in g.rotation.items()}
        h = EmbeddedGraph(g.vertices, g.edges, rot)
        try:
            want = ref_trace(h)
        except NonPlanarCertificate as exc:
            rejected += 1
            with pytest.raises(NonPlanarCertificate) as got:
                h.embedding()
            assert str(got.value) == str(exc)
        else:
            assert faces_of(h.embedding()) == want[0]
    assert rejected >= 20


def malformed_cases():
    rng = random.Random(11)
    cases = [
        ({1, 2}, {1: (1, 2)}, {1: (1,), 2: ()}, ()),
        ({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1, 1)}, ()),
        ({1}, {1: (1, 1)}, {1: (1,)}, ()),
        ({1, 2}, {1: (1, 3)}, {1: (1,)}, ()),
        ({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1,)}, (5,)),
        ({1, 2}, {1: (1, 2)}, {1: (1,), 2: (1,), 9: (4,)}, ()),
    ]
    for seed in range(30):
        g = generate.random_planar(6 + seed % 8, seed=seed)
        rot = {v: list(r) for v, r in g.rotation.items()}
        v = rng.choice(sorted(rot))
        how = seed % 4
        if how == 0:
            rot[v].pop(rng.randrange(len(rot[v])))
        elif how == 1:
            rot[v].append(rng.choice(rot[v]))
        elif how == 2:
            w = rng.choice(sorted(rot))
            rot[w].append(rot[v].pop())
        else:
            rot[v].append(max(g.edges) + 1)
        cases.append((set(g.vertices), dict(g.edges), rot, ()))
    return cases


def test_malformed_rotations_raise_like_reference():
    for vertices, edges, rot, terms in malformed_cases():
        try:
            ref_validate(vertices, edges, rot, terms)
        except (MalformedRotation, UnknownVertex) as exc:
            with pytest.raises(type(exc)) as got:
                EmbeddedGraph(vertices, edges, rot, terms)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            EmbeddedGraph(vertices, edges, rot, terms)


def test_subgraph_on_every_vertex_is_self():
    g = generate.random_planar(12, seed=4, k=2)
    emb = g.embedding()
    assert g.subgraph(g.vertices) is g
    assert g.subgraph(list(g.vertices)) is g
    assert g.without_vertices(()) is g
    assert g.subgraph(g.vertices).embedding() is emb
    h = g.subgraph(sorted(g.vertices)[1:])
    assert h is not g and h.vertices < g.vertices
