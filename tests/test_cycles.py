import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcycle import generate
from tcycle.cycles import (
    CLConfiguration,
    ConcentricSequence,
    is_isolated,
    loop_cost,
)
from tcycle.errors import (
    InvalidConfiguration,
    NotACycle,
    NotDisjoint,
    NotNested,
    TCycleError,
)
from tcycle.graph import EmbeddedGraph, disk_of_cycle, pieces
from tcycle.oracle import (
    ISOLATION_LIMIT,
    all_cycles,
    brute_isolation,
    enumerate_cheap_loops,
)


def internally_chordless(graph, disk):
    """No path with both endpoints on the disk's cycle and all edges in the
    open interior."""
    adj = {}
    for eid in disk.strict_edges:
        u, v = graph.edges[eid]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return all(len(piece & disk.cycle_verts) < 2 for piece in pieces(adj, adj.__getitem__))


def check_tight(seq):
    """A concentric sequence is tight if D_0 is internally chordless and no
    cycle sits strictly between two consecutive disks."""
    if not internally_chordless(seq.graph, seq.disks[0]):
        return False
    g = seq.graph
    emb = seq.emb
    for i in range(seq.depth):
        inner, outer = seq.disks[i], seq.disks[i + 1]
        annulus_verts = outer.vertices - inner.vertices
        annulus_edges = outer.edges - inner.edges
        sub = g.subgraph(annulus_verts).without_edges(
            set(g.edges) - annulus_edges
        )
        for cyc in all_cycles(sub):
            try:
                dk = disk_of_cycle(g, cyc, emb)
            except NotACycle:
                continue
            if inner.inside_faces < dk.inside_faces < outer.inside_faces:
                return False
    return True


def parallel_is_equivalence(q, j):
    """Check symmetry and transitivity of the parallel relation on the
    C_j-segments of configuration q."""
    segs = q.segments(j)
    n = len(segs)
    par = [[q.parallel(segs[x], segs[y]) for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            if par[x][y] != par[y][x]:
                return False
            for z in range(n):
                if par[x][y] and par[y][z] and not par[x][z]:
                    return False
    return True


def telescope(depth):
    """Full polar grid with a loop dipping once to each ring.

    Returns (graph, cycles, loop).  cycles[i] is the edge set of ring i and
    loop is a T-loop whose outer-level segments have eccentricities
    1..depth and form a single chain in the segment forest.  Requires
    depth >= 3.
    """
    if depth < 3:
        raise TCycleError("telescope needs depth >= 3")
    r = depth
    M = 2 * r + 4
    points = {}
    edges = {}
    pair = {}
    eid = 0

    def vid(i, j):
        return i * M + j % M + 1

    def place(v, rad, angle_steps):
        a = 2 * math.pi * angle_steps / M
        points[v] = (rad * math.cos(a), rad * math.sin(a))

    def new(u, v):
        nonlocal eid
        eid += 1
        edges[eid] = (u, v)
        pair[frozenset((u, v))] = eid
        return eid

    for i in range(r + 1):
        for j in range(M):
            place(vid(i, j), i + 1.0, j)
    for i in range(r + 1):
        for j in range(M):
            new(vid(i, j), vid(i, j + 1))
    for i in range(r):
        for j in range(M):
            new(vid(i, j), vid(i + 1, j))
    seqv = []
    terms = set()
    nxt = (r + 1) * M + 1
    for j in range(1, r + 1):
        aj, bj = j, M - 1 - j
        odd = j % 2 == 1
        if j < r:
            ea, xa = (aj, bj) if odd else (bj, aj)
            seqv += [vid(i, ea) for i in range(r, j - 1, -1)]
            mids = range(aj + 1, bj) if odd else range(bj - 1, aj, -1)
            seqv += [vid(j, m) for m in mids]
            seqv += [vid(i, xa) for i in range(j, r + 1)]
            # hop outside the outer ring to the next dip's entry
            x1, x2 = (bj, bj - 1) if odd else (aj, aj + 1)
            h = nxt
            nxt += 1
            place(h, r + 2.0, (x1 + x2) / 2)
            new(vid(r, x1), h)
            new(h, vid(r, x2))
            seqv.append(h)
            terms.add(h)
        else:
            steps = range(aj, bj + 1) if odd else range(bj, aj - 1, -1)
            seqv += [vid(r, s) for s in steps]
    # closing arc over the top, back to the first dip's entry
    end_angle = M - 1 - r if r % 2 == 1 else r
    prev = vid(r, end_angle)
    first_arc = None
    for a in range(end_angle - 1, 1, -1):
        u = nxt
        nxt += 1
        place(u, r + 3.0, a)
        new(prev, u)
        prev = u
        seqv.append(u)
        if first_arc is None:
            first_arc = u
    new(prev, vid(r, 1))
    terms.add(first_arc)
    g0 = generate.from_coordinates(points, edges, terminals=terms)
    emb = g0.embedding()
    marks = {vid(r, 0), first_arc}
    outer = next(fverts for fverts in emb.face_vertices if marks <= fverts)
    g = EmbeddedGraph(set(points), edges, g0.rotation, terms, outer)
    cycles = [
        frozenset(pair[frozenset((vid(i, j), vid(i, j + 1)))] for j in range(M))
        for i in range(r + 1)
    ]
    n = len(seqv)
    loop = [pair[frozenset((seqv[i], seqv[(i + 1) % n]))] for i in range(n)]
    return g, cycles, loop


def nested_ring_cycles(num_rings, ring_size=3):
    g = generate.nested_rings(num_rings, ring_size)
    return g, generate.ring_cycles(g, generate.ring_ids(num_rings, ring_size))


def test_concentric_valid():
    g, cyc = nested_ring_cycles(4)
    seq = ConcentricSequence(g, cyc)
    assert seq.depth == 3
    with pytest.raises(InvalidConfiguration):
        ConcentricSequence(g, [])


def test_concentric_rejects_shared_vertices():
    g, cyc = nested_ring_cycles(3)
    with pytest.raises(NotDisjoint):
        ConcentricSequence(g, [cyc[0], cyc[0]])


def test_concentric_rejects_wrong_order():
    g, cyc = nested_ring_cycles(3)
    with pytest.raises(NotNested):
        ConcentricSequence(g, [cyc[1], cyc[0]])


def test_concentric_rejects_non_cycles():
    g, cyc = nested_ring_cycles(3)
    with pytest.raises(NotACycle):
        ConcentricSequence(g, [cyc[0], frozenset(list(cyc[1])[:2])])


def test_tight_rings():
    g, cyc = nested_ring_cycles(3)
    assert check_tight(ConcentricSequence(g, cyc))


def test_not_tight_with_intermediate_cycle():
    # skipping the middle ring leaves a cycle strictly between the disks
    g, cyc = nested_ring_cycles(3)
    assert not check_tight(ConcentricSequence(g, [cyc[0], cyc[2]]))


def hub_gadget():
    # triangle ring with an interior vertex joined to two of its corners,
    # inside a second ring
    rings = generate.ring_ids(2)
    points = {100: (0.1, 0.0)}
    for i in range(2):
        for j in range(3):
            a = 2 * math.pi * j / 3
            points[rings[i][j]] = ((i + 1) * math.cos(a), (i + 1) * math.sin(a))
    edges = {}
    eid = 1
    for i in range(2):
        for j in range(3):
            edges[eid] = (rings[i][j], rings[i][(j + 1) % 3])
            eid += 1
    for j in range(3):
        edges[eid] = (rings[0][j], rings[1][j])
        eid += 1
    edges[eid] = (100, rings[0][0])
    edges[eid + 1] = (100, rings[0][1])
    g = generate.from_coordinates(points, edges, outer_hint=set(rings[1]))
    return g, generate.ring_cycles(g, rings)


def test_not_tight_with_chorded_inner_disk():
    g, cyc = hub_gadget()
    seq = ConcentricSequence(g, cyc)
    assert not internally_chordless(g, seq.disks[0])
    assert not check_tight(seq)
    # the interior of D_1 connects three of its cycle vertices via spokes
    assert not internally_chordless(g, seq.disks[1])


def test_isolation_triangle():
    g = generate.ring(3)
    # vertices 1 and 2 share a face, so 1 is 0-isolated but not 1-isolated
    assert is_isolated(g, {2}, 1, 0)
    assert not is_isolated(g, {2}, 1, 1)


def test_isolation_other_component_is_far():
    g = generate.ring(3)
    h = g.subgraph({1, 2, 3})
    from tcycle.graph import EmbeddedGraph

    iso = EmbeddedGraph(
        set(g.vertices) | {9}, g.edges, {**g.rotation, 9: ()}
    )
    assert is_isolated(iso, {9}, 1, 5)


def test_isolation_matches_brute_on_rings():
    g = generate.nested_rings(4)
    rings = generate.ring_ids(4)
    T = {rings[3][0]}
    for v in rings[0] + rings[1]:
        for level in range(4):
            assert is_isolated(g, T, v, level) == brute_isolation(g, T, v, level)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 500))
def test_brute_isolation_implies_radial(seed):
    g = generate.random_planar(9, seed=seed, k=2)
    assert len(g.vertices) <= ISOLATION_LIMIT
    T = g.terminals
    v = min(g.vertices - T, default=None)
    if v is None:
        return
    for level in range(3):
        if brute_isolation(g, T, v, level):
            assert is_isolated(g, T, v, level)


def telescope_config(depth):
    g, cyc, loop = telescope(depth)
    seq = ConcentricSequence(g, cyc)
    return g, cyc, loop, CLConfiguration(seq, loop)


def test_telescope_segments():
    g, cyc, loop, q = telescope_config(3)
    segs = q.segments(3)
    assert len(segs) == 3
    assert sorted(q.eccentricity(s) for s in segs) == [1, 2, 3]
    # each dip leaves the shallower disks after one crossing
    assert [len(q.segments(j)) for j in (1, 2)] == [1, 2]


def test_telescope_chords_and_semichords():
    g, cyc, loop, q = telescope_config(3)
    deep = next(s for s in q.segments(3) if q.eccentricity(s) == 1)
    assert q.chords(deep, 0) == []
    assert q.chords(deep, 1) == []
    for i in (2, 3):
        ch = q.chords(deep, i)
        assert len(ch) == 1
        assert len(q.semichords(ch[0], i)) == 2
    shallow = next(s for s in q.segments(3) if q.eccentricity(s) == 3)
    assert all(not q.chords(shallow, i) for i in range(4))


def test_telescope_convex():
    for depth in (3, 4):
        q = telescope_config(depth)[3]
        assert q.is_convex()


def test_telescope_zone_order_is_a_chain():
    g, cyc, loop, q = telescope_config(3)
    by_ecc = {q.eccentricity(s): s for s in q.segments(3)}
    assert q.in_zone(by_ecc[2], by_ecc[1])
    assert q.in_zone(by_ecc[3], by_ecc[2])
    assert q.in_zone(by_ecc[3], by_ecc[1])
    assert not q.in_zone(by_ecc[1], by_ecc[2])
    assert not q.in_zone(by_ecc[1], by_ecc[3])


def test_telescope_types_and_forest():
    for depth in (3, 4):
        g, cyc, loop, q = telescope_config(depth)
        assert [len(c) for c in q.type_partition(depth)] == [depth]
        assert parallel_is_equivalence(q, depth)
        forest = q.segment_forest(depth)
        assert sorted(forest["height"]) == list(range(depth))
        assert forest["parent"].count(None) == 1
        assert q.forest_height(depth) == depth - 1


def test_height_bound_on_telescope():
    # h <= log_a N + 3 with a = 2^(1/3) holds for the chain forests
    for depth in (3, 4):
        q = telescope_config(depth)[3]
        forest = q.segment_forest(depth)
        size = {}

        def subtree(x):
            if x not in size:
                size[x] = 1 + sum(subtree(c) for c in forest["children"][x])
            return size[x]

        for x in range(len(forest["segments"])):
            h = forest["height"][x]
            assert h <= 3 * math.log2(subtree(x)) + 3


def test_loop_cost_matches_oracle():
    g, rings = generate.digon_tower(4)
    cyc = generate.ring_cycles(g, rings)
    cost, loops = enumerate_cheap_loops(g, cyc)
    assert cost == 2
    for l in loops:
        assert loop_cost(g, cyc, l) == cost


def test_shallow_cheap_configs_are_convex():
    g = generate.ring_gadget(3)
    rings = generate.ring_ids(4)
    cyc = generate.ring_cycles(g, rings)
    seq = ConcentricSequence(g, cyc)
    cost, loops = enumerate_cheap_loops(g, cyc)
    assert cost == 2 and len(loops) == 2
    for l in loops:
        q = CLConfiguration(seq, l)
        assert q.is_convex()
        assert [q.eccentricity(s) for s in q.segments(3)] == [3]
        assert q.forest_height(3) == 0


def test_two_terminal_digons_give_two_singleton_types():
    g, rings = generate.digon_tower(3, two_terminals=True)
    cyc = generate.ring_cycles(g, rings)
    seq = ConcentricSequence(g, cyc)
    cost, loops = enumerate_cheap_loops(g, cyc)
    assert cost == 4 and len(loops) == 1
    q = CLConfiguration(seq, loops[0])
    segs = q.segments(3)
    assert len(segs) == 2 and all(not s.edges for s in segs)
    assert not q.parallel(segs[0], segs[1])
    assert [len(c) for c in q.type_partition(3)] == [1, 1]


def test_config_rejects_terminal_inside_disk():
    g, cyc = nested_ring_cycles(3)
    rings = generate.ring_ids(3)
    # a terminal sitting on C_1 is inside the closed outermost disk
    bad = g.with_terminals({rings[1][0]})
    with pytest.raises(InvalidConfiguration):
        CLConfiguration(ConcentricSequence(bad, [cyc[0], cyc[1]]), cyc[1])
