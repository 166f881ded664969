"""Instance generators.

All families are deterministic for a given seed.  Embeddings are produced
either from explicit coordinates (rotation = angular order of neighbors) or
from a planarity test's combinatorial embedding.
"""

import math
import random

from .errors import InvalidConfiguration, TCycleError
from .graph import EmbeddedGraph


def from_coordinates(points, edges, terminals=(), outer_hint=None):
    """Build an embedded graph from straight-line coordinates.

    points: vertex -> (x, y); edges: eid -> (u, v).  The rotation at each
    vertex is the clockwise angular order of its incident edges.
    """
    incident = {v: [] for v in points}
    for eid, (u, v) in edges.items():
        incident[u].append((eid, v))
        incident[v].append((eid, u))
    rotation = {}
    for v, (x, y) in points.items():
        def angle(item):
            eid, w = item
            wx, wy = points[w]
            return -math.atan2(wy - y, wx - x)
        rotation[v] = tuple(eid for eid, _ in sorted(incident[v], key=angle))
    return EmbeddedGraph(set(points), edges, rotation, terminals, outer_hint)


def embed_planar(vertices, edges, terminals=(), outer_hint=None):
    """Embed a planar multigraph via a planarity test.

    vertices: a collection of vertex ids; edges: eid -> (u, v).  Parallel
    edges are nested (their order is reversed at one endpoint).  Raises
    TCycleError when the graph is not planar.
    """
    import networkx as nx

    Gx = nx.Graph()
    Gx.add_nodes_from(vertices)
    Gx.add_edges_from(edges.values())
    ok, emb = nx.check_planarity(Gx)
    if not ok:
        raise TCycleError("graph is not planar")
    by_pair = {}
    for eid in sorted(edges):
        by_pair.setdefault(frozenset(edges[eid]), []).append(eid)
    rotation = {}
    for v in Gx:
        rot = []
        for w in emb.neighbors_cw_order(v):
            ids = by_pair[frozenset((v, w))]
            rot.extend(ids if v < w else reversed(ids))
        rotation[v] = tuple(rot)
    return EmbeddedGraph(set(vertices), edges, rotation, terminals, outer_hint)


def from_networkx_planar(G, terminals=(), outer_hint=None):
    """Embed an abstract planar simple graph via a planarity test; edge ids
    number the sorted vertex pairs from 1."""
    pairs = sorted(tuple(sorted(e)) for e in G.edges())
    return embed_planar(list(G), dict(enumerate(pairs, 1)), terminals, outer_hint)


def path_graph(n, terminals=()):
    points = {i: (float(i), 0.0) for i in range(1, n + 1)}
    edges = {i: (i, i + 1) for i in range(1, n)}
    return from_coordinates(points, edges, terminals)


def ring(n, terminals=()):
    points = {
        i + 1: (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
        for i in range(n)
    }
    edges = {i: (i, i % n + 1) for i in range(1, n + 1)}
    return from_coordinates(points, edges, terminals, outer_hint=set(points))


def grid(rows, cols, terminals=()):
    """rows x cols grid; vertex (r, c) has id r*cols + c + 1."""
    def vid(r, c):
        return r * cols + c + 1

    points = {}
    edges = {}
    for r in range(rows):
        for c in range(cols):
            points[vid(r, c)] = (float(c), -float(r))
    eid = 1
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges[eid] = (vid(r, c), vid(r, c + 1))
                eid += 1
            if r + 1 < rows:
                edges[eid] = (vid(r, c), vid(r + 1, c))
                eid += 1
    boundary = {
        vid(r, c)
        for r in range(rows)
        for c in range(cols)
        if r in (0, rows - 1) or c in (0, cols - 1)
    }
    return from_coordinates(points, edges, terminals, outer_hint=boundary)


def grid_with_terminals(rows, cols, k, seed=0):
    """Grid with k terminals spread along the outer face boundary."""
    if rows < 1 or cols < 1:
        raise InvalidConfiguration(f"a {rows}x{cols} grid has no vertices")
    g = grid(rows, cols)
    # walk the boundary in order and take k evenly spaced vertices,
    # rotated by the seed for variety
    walk = []
    for c in range(cols):
        walk.append(c + 1)
    for r in range(1, rows):
        walk.append(r * cols + cols)
    for c in range(cols - 2, -1, -1):
        walk.append((rows - 1) * cols + c + 1)
    for r in range(rows - 2, 0, -1):
        walk.append(r * cols + 1)
    if not 1 <= k <= len(set(walk)):
        raise InvalidConfiguration(
            f"k={k} terminals, but the boundary has {len(set(walk))} vertices"
        )
    rng = random.Random(seed)
    off = rng.randrange(len(walk))
    step = len(walk) / k
    terms = {walk[(off + int(i * step)) % len(walk)] for i in range(k)}
    while len(terms) < k:
        terms.add(walk[rng.randrange(len(walk))])
    return g.with_terminals(terms)


def nested_rings(num_rings, ring_size=3, spoke_every=1, terminals=()):
    """num_rings concentric rings joined by radial spokes.

    Ring 0 is innermost; ring i vertex j has id i*ring_size + j + 1.
    The outer face is the outermost ring.
    """
    if num_rings < 1 or ring_size < 1:
        raise InvalidConfiguration(f"no {num_rings} rings of {ring_size} vertices")
    points = {}
    edges = {}
    eid = 1

    def vid(i, j):
        return i * ring_size + j % ring_size + 1

    for i in range(num_rings):
        rad = i + 1.0
        for j in range(ring_size):
            a = 2 * math.pi * j / ring_size
            points[vid(i, j)] = (rad * math.cos(a), rad * math.sin(a))
    for i in range(num_rings):
        for j in range(ring_size):
            edges[eid] = (vid(i, j), vid(i, j + 1))
            eid += 1
    for i in range(num_rings - 1):
        for j in range(0, ring_size, spoke_every):
            edges[eid] = (vid(i, j), vid(i + 1, j))
            eid += 1
    outer = {vid(num_rings - 1, j) for j in range(ring_size)}
    return from_coordinates(points, edges, terminals, outer_hint=outer)


def ring_ids(num_rings, ring_size=3):
    """Vertex ids per ring of nested_rings, innermost first."""
    return [
        [i * ring_size + j + 1 for j in range(ring_size)]
        for i in range(num_rings)
    ]


def ring_cycles(graph, rings):
    """Edge-id set of each ring, given per-ring vertex id lists."""
    out = []
    for r in rings:
        rs = set(r)
        out.append(
            frozenset(e for e, (u, v) in graph.edges.items() if u in rs and v in rs)
        )
    return out


def ring_gadget(depth, ring_size=3, offset=0, spoke_every=1, stilts=False):
    """Nested rings with one terminal hung outside the outermost ring.

    The terminal attaches to two adjacent outer-ring vertices (offset picks
    the pair), either directly or through two extra stilt vertices.  Every
    T-loop must spend the terminal's two pendant edges (plus the stilts), so
    the cheap loops run along the outer ring.
    """
    if depth < 0 or ring_size < 1:
        raise InvalidConfiguration(f"no gadget of depth {depth} on rings of {ring_size}")
    num = depth + 1
    points = {}
    edges = {}
    eid = 1

    def vid(i, j):
        return i * ring_size + j % ring_size + 1

    def ang(j):
        return 2 * math.pi * (j % ring_size) / ring_size

    for i in range(num):
        rad = i + 1.0
        for j in range(ring_size):
            points[vid(i, j)] = (rad * math.cos(ang(j)), rad * math.sin(ang(j)))
    for i in range(num):
        for j in range(ring_size):
            edges[eid] = (vid(i, j), vid(i, j + 1))
            eid += 1
    for i in range(num - 1):
        for j in range(0, ring_size, spoke_every):
            edges[eid] = (vid(i, j), vid(i + 1, j))
            eid += 1
    o1, o2 = vid(depth, offset), vid(depth, offset + 1)
    t = num * ring_size + 1
    mid = 2 * math.pi * (offset + 0.5) / ring_size
    extra = {t}
    if stilts:
        a, b = t + 1, t + 2
        points[a] = ((num + 1) * math.cos(ang(offset)), (num + 1) * math.sin(ang(offset)))
        points[b] = (
            (num + 1) * math.cos(ang(offset + 1)),
            (num + 1) * math.sin(ang(offset + 1)),
        )
        points[t] = ((num + 2) * math.cos(mid), (num + 2) * math.sin(mid))
        for u, v in ((a, o1), (b, o2), (t, a), (t, b)):
            edges[eid] = (u, v)
            eid += 1
        extra |= {a, b}
    else:
        points[t] = ((num + 1) * math.cos(mid), (num + 1) * math.sin(mid))
        for u, v in ((t, o1), (t, o2)):
            edges[eid] = (u, v)
            eid += 1
    outer = {vid(depth, j) for j in range(ring_size)} | extra
    return from_coordinates(points, edges, terminals={t}, outer_hint=outer)


def digon_tower(depth, two_terminals=False):
    """Nested two-vertex rings (pairs of parallel edges) under a terminal.

    Ring i is the digon on x_i = 2i+1, y_i = 2i+2, joined to the next ring
    by two spokes.  A terminal outside the top ring attaches to x and y of
    the top ring; with two_terminals a second terminal nests outside the
    first.  Returns (graph, rings) with rings listed innermost first.
    """
    xs = [2 * i + 1 for i in range(depth + 1)]
    ys = [2 * i + 2 for i in range(depth + 1)]
    t1 = 2 * depth + 3
    other = 2 * depth + 4  # pendant marker or second terminal
    edges = {}
    eid = 0

    def new(u, v):
        nonlocal eid
        eid += 1
        edges[eid] = (u, v)
        return eid

    up = [new(xs[i], ys[i]) for i in range(depth + 1)]
    lo = [new(xs[i], ys[i]) for i in range(depth + 1)]
    sx = [new(xs[i], xs[i + 1]) for i in range(depth)]
    sy = [new(ys[i], ys[i + 1]) for i in range(depth)]
    tx1, ty1 = new(t1, xs[-1]), new(t1, ys[-1])
    rotation = {}
    for i in range(depth + 1):
        rx = [lo[i]]
        ry = [lo[i]]
        if i > 0:
            rx.append(sx[i - 1])
        rx.append(up[i])
        if i < depth:
            rx.append(sx[i])
            ry.append(sy[i])
        ry.append(up[i])
        if i > 0:
            ry.append(sy[i - 1])
        rotation[xs[i]] = tuple(rx)
        rotation[ys[i]] = tuple(ry)
    if two_terminals:
        tx2, ty2 = new(other, xs[-1]), new(other, ys[-1])
        rotation[xs[-1]] = rotation[xs[-1]] + (tx1, tx2)
        rotation[ys[-1]] = (lo[-1], ty2, ty1) + rotation[ys[-1]][1:]
        rotation[t1] = (tx1, ty1)
        rotation[other] = (tx2, ty2)
        terms = {t1, other}
    else:
        tp = new(t1, other)
        rotation[xs[-1]] = rotation[xs[-1]] + (tx1,)
        rotation[ys[-1]] = (lo[-1], ty1) + rotation[ys[-1]][1:]
        rotation[t1] = (tx1, tp, ty1)
        rotation[other] = (tp,)
        terms = {t1}
    verts = set(xs) | set(ys) | {t1, other}
    g = EmbeddedGraph(verts, edges, rotation, terms)
    emb = g.embedding()
    if two_terminals:
        # the second terminal nests outside the first
        outer = next(
            fverts
            for fverts in emb.face_vertices
            if other in fverts and t1 not in fverts
        )
    else:
        # the pendant hangs in the unbounded face
        outer = next(fverts for fverts in emb.face_vertices if other in fverts)
    g = EmbeddedGraph(verts, edges, rotation, terms, outer)
    rings = [[xs[i], ys[i]] for i in range(depth + 1)]
    return g, rings


def random_planar(n, seed, drop=0.3, k=0):
    """Random planar graph from a Delaunay triangulation of n seeded points.

    Interior edges are dropped with probability drop while keeping the graph
    connected; convex hull edges are kept so the outer face is the hull.
    Picks k random terminals if k > 0.
    """
    from scipy.spatial import Delaunay

    if n < 3:
        raise InvalidConfiguration(f"a triangulation needs 3 points, not {n}")
    if not 0 <= k <= n:
        raise InvalidConfiguration(f"k={k} terminals among {n} vertices")
    rng = random.Random(seed)
    while True:
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        try:
            tri = Delaunay(pts)
        except Exception:
            continue
        if len(set(map(tuple, tri.convex_hull.tolist()))) >= 3:
            break
    points = {i + 1: pts[i] for i in range(n)}
    edge_set = set()
    for simplex in tri.simplices:
        a, b, c = (int(x) + 1 for x in simplex)
        edge_set |= {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))}
    hull = {
        frozenset((int(u) + 1, int(v) + 1)) for u, v in tri.convex_hull.tolist()
    }
    adj = {v: set() for v in points}
    for pair in edge_set:
        u, v = tuple(pair)
        adj[u].add(v)
        adj[v].add(u)

    def connected_without(u, v):
        seen = {next(iter(points))}
        stack = [next(iter(points))]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if {x, y} == {u, v}:
                    continue
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(points)

    for pair in sorted(edge_set, key=lambda p: tuple(sorted(p))):
        if pair in hull:
            continue
        if rng.random() < drop:
            u, v = tuple(pair)
            if connected_without(u, v):
                edge_set.discard(pair)
                adj[u].discard(v)
                adj[v].discard(u)
    edges = {}
    for i, pair in enumerate(sorted(edge_set, key=lambda p: tuple(sorted(p))), 1):
        edges[i] = tuple(sorted(pair))
    hull_verts = {v for pair in hull for v in pair}
    terms = rng.sample(sorted(points), k) if k else ()
    return from_coordinates(points, edges, terms, outer_hint=hull_verts)
