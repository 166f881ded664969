"""Seeded instance families, written as instance text, with independent
certificates for the answers.

The generators here are the benchmark's own: they build coordinates and
edges, derive each rotation from the angular order of the neighbours, and
write the line format of ``tcycle.fileio`` directly, so the program under
test only ever sees text.  Every generator takes a ``random.Random`` and
draws from nothing else, so a seed fixes every byte.

Certificates never call the program:

* ``block_verdict`` pins the answer of a T-Cycle instance with networkx.  A
  cycle through every terminal lies inside one block (biconnected
  component) with at least three vertices, so if no such block holds all
  terminals the answer is NO.  If one does and there are at most two
  terminals the answer is YES (Menger).  With more terminals the block
  alone settles nothing, and ``witness_cycle`` searches for a cycle; a
  family redraws terminal sets that neither settles.
* ``radial_depths`` computes radial distances from the faces each
  generator records from its geometry, not from face tracing, and pins the
  set of vertices the reduction must delete.
"""

import math

import networkx as nx


class Shape:
    """A plane graph under construction: coordinates, edges, and, for the
    structured families, the vertex lists of all faces."""

    def __init__(self, points, edges, outer, faces=None):
        self.points = points  # vertex -> (x, y)
        self.edges = edges  # eid -> (u, v)
        self.outer = outer  # vertex set of the outer face
        self.faces = faces  # list of vertex lists, or None

    def text(self, terminals):
        """The instance in tcycle's line format with these terminals."""
        incident = {v: [] for v in self.points}
        for eid, (u, v) in self.edges.items():
            incident[u].append((eid, v))
            incident[v].append((eid, u))
        lines = [f"v {v}" for v in sorted(self.points)]
        lines += [f"t {t}" for t in sorted(terminals)]
        lines += [f"e {eid} {u} {v}" for eid, (u, v) in sorted(self.edges.items())]
        for v in sorted(self.points):
            x, y = self.points[v]

            def angle(item, x=x, y=y):
                wx, wy = self.points[item[1]]
                return -math.atan2(wy - y, wx - x)

            order = [eid for eid, _ in sorted(incident[v], key=angle)]
            if order:
                lines.append(f"rot {v} " + " ".join(map(str, order)))
        lines.append("outer " + " ".join(map(str, sorted(self.outer))))
        return "\n".join(lines) + "\n"


def grid(rows, cols):
    """rows x cols grid; vertex (r, c) has id r*cols + c + 1.  Returns the
    shape and the outer boundary as a closed walk."""

    def vid(r, c):
        return r * cols + c + 1

    points = {vid(r, c): (float(c), -float(r)) for r in range(rows) for c in range(cols)}
    edges = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges[len(edges) + 1] = (vid(r, c), vid(r, c + 1))
            if r + 1 < rows:
                edges[len(edges) + 1] = (vid(r, c), vid(r + 1, c))
    walk = [vid(0, c) for c in range(cols)]
    walk += [vid(r, cols - 1) for r in range(1, rows)]
    walk += [vid(rows - 1, c) for c in range(cols - 2, -1, -1)]
    walk += [vid(r, 0) for r in range(rows - 2, 0, -1)]
    faces = [
        [vid(r, c), vid(r, c + 1), vid(r + 1, c + 1), vid(r + 1, c)]
        for r in range(rows - 1)
        for c in range(cols - 1)
    ]
    faces.append(walk)
    return Shape(points, edges, set(walk), faces), walk


def nested_rings(depth, size):
    """depth concentric rings of size vertices joined by spokes; ring 0 is
    innermost and ring i vertex j has id i*size + j + 1.  Returns the shape
    and the outer ring in cyclic order."""

    def vid(i, j):
        return i * size + j % size + 1

    points = {}
    for i in range(depth):
        for j in range(size):
            a = 2 * math.pi * j / size
            points[vid(i, j)] = ((i + 1) * math.cos(a), (i + 1) * math.sin(a))
    edges = {}
    for i in range(depth):
        for j in range(size):
            edges[len(edges) + 1] = (vid(i, j), vid(i, j + 1))
            if i + 1 < depth:
                edges[len(edges) + 1] = (vid(i, j), vid(i + 1, j))
    faces = [
        [vid(i, j), vid(i, j + 1), vid(i + 1, j + 1), vid(i + 1, j)]
        for i in range(depth - 1)
        for j in range(size)
    ]
    inner = [vid(0, j) for j in range(size)]
    outer = [vid(depth - 1, j) for j in range(size)]
    faces += [inner, outer]
    return Shape(points, edges, set(outer), faces), outer


def random_planar(n, rng, drop=0.3):
    """Delaunay triangulation of n seeded points with interior edges dropped
    at random while the graph stays connected; the convex hull is kept, so
    the outer face is the hull."""
    from scipy.spatial import Delaunay

    while True:
        pts = [(rng.random(), rng.random()) for _ in range(n)]
        try:
            tri = Delaunay(pts)
        except Exception:  # degenerate point set: draw again
            continue
        break
    pair_set = set()
    for a, b, c in tri.simplices.tolist():
        a, b, c = a + 1, b + 1, c + 1
        pair_set |= {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))}
    hull = {frozenset((u + 1, v + 1)) for u, v in tri.convex_hull.tolist()}
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in map(tuple, pair_set):
        adj[u].add(v)
        adj[v].add(u)
    for pair in sorted(pair_set, key=sorted):
        if pair in hull or rng.random() >= drop:
            continue
        u, v = sorted(pair)
        adj[u].discard(v)
        adj[v].discard(u)
        if not _reaches(adj, u, v):
            adj[u].add(v)
            adj[v].add(u)
    pairs = sorted((u, v) for u in adj for v in adj[u] if u < v)
    edges = {i: p for i, p in enumerate(pairs, start=1)}
    points = {i + 1: pts[i] for i in range(n)}
    outer = {v for pair in hull for v in pair}
    return Shape(points, edges, outer)


def _reaches(adj, u, v):
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for y in adj[x] - seen:
            seen.add(y)
            stack.append(y)
    return False


def spread_terminals(walk, k, rng):
    """k vertices spaced evenly along a closed walk, rotated at random."""
    off = rng.randrange(len(walk))
    step = len(walk) / k
    return {walk[(off + int(i * step)) % len(walk)] for i in range(k)}


def block_verdict(shape, terminals):
    """'yes' if some block with at least three vertices holds every
    terminal, else 'no' (certified: no cycle can pass them all)."""
    G = nx.Graph(list(shape.edges.values()))
    G.add_nodes_from(shape.points)
    T = set(terminals)
    for block in nx.biconnected_components(G):
        if len(block) >= 3 and T <= block:
            return "yes"
    return "no"


def witness_cycle(shape, terminals, rng, attempts=100):
    """A cycle through every terminal as a vertex list, or None.  Links the
    terminals in a random cyclic order by shortest paths under random edge
    weights, each path avoiding the vertices already used."""
    G = nx.Graph(list(shape.edges.values()))
    T = sorted(terminals)
    for _ in range(attempts):
        weight = {frozenset(e): rng.random() for e in G.edges}
        order = T[:]
        rng.shuffle(order)
        used = set(order)
        cycle = []
        for a, b in zip(order, order[1:] + order[:1]):

            def cost(u, v, _, b=b):
                return None if v in used and v != b else weight[frozenset((u, v))]

            try:
                path = nx.dijkstra_path(G, a, b, weight=cost)
            except nx.NetworkXNoPath:
                break
            used |= set(path)
            cycle += path[:-1]
        else:
            return cycle
    return None


def certified_verdict(shape, terminals, rng):
    """'yes' or 'no' with an independent certificate, or None."""
    if block_verdict(shape, terminals) == "no":
        return "no"
    if len(terminals) <= 2 or witness_cycle(shape, terminals, rng):
        return "yes"
    return None


def radial_depths(shape, sources):
    """Radial distance of every vertex from the sources: one step moves to
    any vertex sharing a face, using the faces recorded by the generator."""
    faces_of = {v: [] for v in shape.points}
    for fid, face in enumerate(shape.faces):
        for v in face:
            faces_of[v].append(fid)
    dist = {s: 0 for s in sources}
    frontier = sorted(sources)
    seen = set()
    while frontier:
        nxt = []
        for v in frontier:
            for fid in faces_of[v]:
                if fid in seen:
                    continue
                seen.add(fid)
                for w in shape.faces[fid]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
        frontier = nxt
    return dist


def isolation_depth(k):
    """The paper's default isolation depth for k terminals, which is what
    the reduction uses when no budget is given."""
    return math.ceil(4 * math.log2(k + 1)) + 6
