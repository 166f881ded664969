"""Embedded planar multigraphs.

A graph is stored combinatorially: vertices, edges with explicit ids, and a
rotation system giving the cyclic order of edge ends around every vertex.
Faces are traced from the rotation system, and the Euler relation
V - E + F = 2 per connected component certifies that the rotation system
describes a sphere embedding.  Nothing here uses coordinates.
"""

from collections import Counter, deque
from dataclasses import dataclass, field

from .errors import (
    Disconnected,
    MalformedRotation,
    NonPlanarCertificate,
    NotACycle,
    UnknownVertex,
)


@dataclass(frozen=True)
class Face:
    """One face of the embedding.

    walk is the cyclic boundary walk as a tuple of darts (eid, side); a dart
    (e, 0) traverses e from its stored tail to its head, (e, 1) the other
    way.  Isolated vertices get a one-off face with an empty walk.
    """

    id: int
    walk: tuple
    vertices: frozenset
    edge_ids: frozenset


class EmbeddedGraph:
    """An embedded planar multigraph with terminals.

    Treated as immutable once built; all mutators return new graphs.
    """

    def __init__(self, vertices, edges, rotation, terminals=(), outer_hint=None):
        self.vertices = frozenset(vertices)
        self.edges = dict(edges)  # eid -> (u, v)
        self.rotation = {v: tuple(r) for v, r in rotation.items() if r}
        self.terminals = frozenset(terminals)
        # outer_hint: vertex set identifying the intended outer face, if any
        self.outer_hint = frozenset(outer_hint) if outer_hint else None
        self._emb = None
        self._validate_basic()

    # -- basic structure ---------------------------------------------------

    def _validate_basic(self):
        for eid, (u, v) in self.edges.items():
            if u not in self.vertices or v not in self.vertices:
                raise UnknownVertex(f"edge {eid} touches unknown vertex")
        if not self.terminals <= self.vertices:
            raise UnknownVertex("terminal is not a vertex")
        # one multiset of (vertex, edge end) pairs on each side, compared as
        # plain dicts (no count is zero, and Counter's own == loops in
        # Python); the per-vertex scan runs only to name a vertex that differs
        want = Counter()
        for eid, (u, v) in self.edges.items():
            want[u, eid] += 1
            want[v, eid] += 1
        have = Counter(
            (v, eid)
            for v, rot in self.rotation.items()
            if v in self.vertices
            for eid in rot
        )
        if dict.__ne__(have, want):
            self._report_rotation_mismatch()

    def _report_rotation_mismatch(self):
        """Raise MalformedRotation for the first vertex, in set order, whose
        rotation does not list exactly its incident edge ends."""
        want = {v: Counter() for v in self.vertices}
        for eid, (u, v) in self.edges.items():
            want[u][eid] += 1
            want[v][eid] += 1
        for v in self.vertices:
            have = Counter(self.rotation.get(v, ()))
            if have != want[v]:
                raise MalformedRotation(
                    f"rotation at {v} lists {sorted(have.elements())}, "
                    f"incident edges are {sorted(want[v].elements())}"
                )

    def degree(self, v):
        return len(self.rotation.get(v, ()))

    def incident_edges(self, v):
        return self.rotation.get(v, ())

    def neighbors(self, v):
        out = set()
        for eid in self.rotation.get(v, ()):
            a, b = self.edges[eid]
            out.add(b if a == v else a)
        out.discard(v)
        return out

    def other_end(self, eid, v):
        a, b = self.edges[eid]
        return b if a == v else a

    def components(self):
        """Connected components as a list of frozensets of vertices."""
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges.values():
            adj[u].append(v)
            adj[v].append(u)
        seen = set()
        out = []
        for s in sorted(self.vertices):
            if s in seen:
                continue
            comp = {s}
            queue = deque([s])
            while queue:
                for y in adj[queue.popleft()]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            out.append(frozenset(comp))
        return out

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, keep):
        """Induced subgraph on the vertex set keep; embedding is inherited by
        filtering every rotation, which preserves planarity.  Keeping every
        vertex returns self, traced faces included."""
        keep = frozenset(keep)
        if keep == self.vertices:
            return self
        edges = {
            eid: (u, v)
            for eid, (u, v) in self.edges.items()
            if u in keep and v in keep
        }
        rot = {
            v: tuple(e for e in self.rotation.get(v, ()) if e in edges)
            for v in keep
        }
        hint = self.outer_hint if self.outer_hint and self.outer_hint <= keep else None
        return EmbeddedGraph(keep, edges, rot, self.terminals & keep, hint)

    def without_vertices(self, drop):
        return self.subgraph(self.vertices - frozenset(drop))

    def without_edges(self, drop):
        drop = frozenset(drop)
        edges = {e: uv for e, uv in self.edges.items() if e not in drop}
        rot = {
            v: tuple(e for e in r if e not in drop)
            for v, r in self.rotation.items()
        }
        return EmbeddedGraph(self.vertices, edges, rot, self.terminals, self.outer_hint)

    def with_terminals(self, terminals):
        return EmbeddedGraph(
            self.vertices, self.edges, self.rotation, terminals, self.outer_hint
        )

    # -- embedding ---------------------------------------------------------

    def embedding(self):
        if self._emb is None:
            self._emb = _trace_embedding(self)
        return self._emb


def unembedded(vertices, edges, terminals=()):
    """The graph with a placeholder rotation: each vertex lists its
    incident edge ids in sorted order.  Fit for code that reads no rotation
    (the DPs, tree decompositions, minor checks), not for face tracing."""
    incident = {v: [] for v in vertices}
    for eid, (u, v) in edges.items():
        incident[u].append(eid)
        incident[v].append(eid)
    rotation = {v: sorted(ids) for v, ids in incident.items()}
    return EmbeddedGraph(vertices, edges, rotation, terminals)


class Embedding:
    """Traced faces of an EmbeddedGraph plus incidence lookups."""

    def __init__(self, graph, faces, face_of_dart, component_of, outer_faces):
        self.graph = graph
        self.faces = faces  # list of Face
        self.face_of_dart = face_of_dart  # (eid, side) -> face id
        self.component_of = component_of  # vertex -> component index
        self.outer_faces = outer_faces  # component index -> face id
        self.faces_of_vertex = {v: set() for v in graph.vertices}
        for f in faces:
            for v in f.vertices:
                self.faces_of_vertex[v].add(f.id)

    def faces_of_edge(self, eid):
        return (self.face_of_dart[(eid, 0)], self.face_of_dart[(eid, 1)])

    def outer_face(self, v=None):
        """Outer face id of v's component (or of the whole graph if it is
        connected and v is omitted)."""
        if v is None:
            comps = set(self.component_of.values())
            if len(comps) != 1:
                raise Disconnected("outer face of a disconnected graph is per component")
            return self.outer_faces[next(iter(comps))]
        return self.outer_faces[self.component_of[v]]


def _darts_at(graph, v):
    """The darts leaving v in rotation order.  The two ends of a loop at v
    get sides 0 and 1 in the order the rotation lists them."""
    darts = []
    loops = None  # loop edges met so far; most vertices have none
    for eid in graph.rotation.get(v, ()):
        a, b = graph.edges[eid]
        if a != b:
            darts.append((eid, 0 if a == v else 1))
            continue
        if loops is None:
            loops = set()
        darts.append((eid, 1 if eid in loops else 0))
        loops.add(eid)
    return darts


def _trace_embedding(graph):
    # Faces are the orbits of the dart successor permutation (Mohar and
    # Thomassen, Graphs on Surfaces, 2001): a dart arriving at w as the
    # reverse of w's i-th dart continues along w's (i+1)-th dart.  Faces
    # are numbered in order of their first dart, vertices ascending and each
    # vertex's darts in rotation order, then one face per isolated vertex.
    order = sorted(graph.vertices)
    rings = [_darts_at(graph, v) for v in order]
    succ = {}
    for ring in rings:
        nxt = ring[1:] + ring[:1]
        for (eid, side), d in zip(ring, nxt):
            succ[eid, 1 - side] = d

    edges = graph.edges
    faces = []
    face_of_dart = {}
    for ring in rings:
        for start in ring:
            if start in face_of_dart:
                continue
            fid = len(faces)
            walk = [start]
            face_of_dart[start] = fid
            d = succ[start]
            while d != start:
                walk.append(d)
                face_of_dart[d] = fid
                d = succ[d]
            verts = frozenset([edges[eid][side] for eid, side in walk])
            eids = frozenset([eid for eid, _ in walk])
            faces.append(Face(fid, tuple(walk), verts, eids))
    for v, ring in zip(order, rings):
        if not ring:
            faces.append(Face(len(faces), (), frozenset([v]), frozenset()))

    comps = graph.components()
    component_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            component_of[v] = i

    # one pass tallies each component's edges and faces (a face's vertices
    # all lie in one component); then the Euler check per component
    # certifies planarity of the rotation
    comp_edges = [0] * len(comps)
    for u, _ in edges.values():
        comp_edges[component_of[u]] += 1
    comp_faces = [[] for _ in comps]
    for f in faces:
        comp_faces[component_of[next(iter(f.vertices))]].append(f)
    for comp, ne, cand in zip(comps, comp_edges, comp_faces):
        nv, nf = len(comp), len(cand)
        if nv - ne + nf != 2:
            raise NonPlanarCertificate(
                f"component {sorted(comp)[:6]}...: V-E+F = {nv}-{ne}+{nf} != 2"
            )

    hint = graph.outer_hint
    outer_faces = {}
    for i, (comp, cand) in enumerate(zip(comps, comp_faces)):
        chosen = None
        if hint and hint <= comp:
            exact = [f for f in cand if f.vertices == hint]
            if len(exact) == 1:
                chosen = exact[0]
        if chosen is None:
            chosen = min(cand, key=lambda f: tuple(sorted(f.vertices)))
        outer_faces[i] = chosen.id

    return Embedding(graph, faces, face_of_dart, component_of, outer_faces)


# -- radial (vertex-face incidence) traversal -----------------------------


def radial_bfs(graph, sources, emb=None):
    """Radial distances from a set of sources.

    One step goes from a vertex to any vertex sharing a face with it, so the
    result is d^R(v, sources) = min over sources of the radial distance.
    Vertices in other components are absent from the result.
    """
    if emb is None:
        emb = graph.embedding()
    if isinstance(sources, int):
        sources = [sources]
    sources = list(sources)
    for s in sources:
        if s not in graph.vertices:
            raise UnknownVertex(f"source {s}")
    dist = {s: 0 for s in sources}
    seen_faces = set()
    frontier = list(dict.fromkeys(sources))
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for fid in emb.faces_of_vertex[v]:
                if fid in seen_faces:
                    continue
                seen_faces.add(fid)
                for w in emb.faces[fid].vertices:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
        frontier = nxt
    return dist


def radial_distance(graph, u, v, emb=None):
    """d^R(u, v): one less than the shortest vertex sequence from u to v in
    which consecutive vertices share a face."""
    dist = radial_bfs(graph, [u], emb)
    if v not in graph.vertices:
        raise UnknownVertex(f"vertex {v}")
    if v not in dist:
        raise Disconnected(f"{u} and {v} are in different components")
    return dist[v]


# -- cycles and disks ------------------------------------------------------


def cycle_vertices(graph, cycle_edges):
    """Vertex set of an edge set that must form a single simple cycle."""
    cycle_edges = frozenset(cycle_edges)
    deg = Counter()
    for eid in cycle_edges:
        u, v = graph.edges[eid]
        if u == v:
            raise NotACycle("loop edge in cycle")
        deg[u] += 1
        deg[v] += 1
    if not cycle_edges or any(d != 2 for d in deg.values()):
        raise NotACycle("edge set is not 2-regular")
    verts = set(deg)
    # connectivity within the cycle's own edges
    adj = {v: [] for v in verts}
    for eid in cycle_edges:
        u, v = graph.edges[eid]
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(verts))
    comp = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in comp:
                comp.add(y)
                queue.append(y)
    if comp != verts:
        raise NotACycle("edge set has more than one cycle")
    return frozenset(verts)


def cycle_sides(graph, cycle_edges, emb=None):
    """Partition of the faces of the cycle's component into the two sides of
    the cycle.  Faces are connected across every edge not on the cycle."""
    if emb is None:
        emb = graph.embedding()
    cycle_edges = frozenset(cycle_edges)
    verts = cycle_vertices(graph, cycle_edges)
    comp_idx = emb.component_of[next(iter(verts))]
    comp_faces = {
        f.id
        for f in emb.faces
        if f.vertices and emb.component_of[next(iter(f.vertices))] == comp_idx
    }
    adj = {fid: set() for fid in comp_faces}
    for eid, (u, v) in graph.edges.items():
        if eid in cycle_edges or emb.component_of[u] != comp_idx:
            continue
        f1, f2 = emb.faces_of_edge(eid)
        if f1 != f2:
            adj[f1].add(f2)
            adj[f2].add(f1)
    regions = []
    left = set(comp_faces)
    while left:
        s = left.pop()
        reg = {s}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in reg:
                    reg.add(y)
                    left.discard(y)
                    queue.append(y)
        left -= reg
        regions.append(frozenset(reg))
    if len(regions) != 2:
        raise NotACycle(
            f"cycle does not split its component's faces into two regions "
            f"(got {len(regions)})"
        )
    return regions[0], regions[1]


@dataclass
class Disk:
    """Closed disk bounded by a cycle: the cycle plus everything on one side."""

    cycle_edges: frozenset
    cycle_verts: frozenset
    inside_faces: frozenset  # faces strictly inside
    strict_vertices: frozenset  # vertices strictly inside
    strict_edges: frozenset  # edges strictly inside
    vertices: frozenset = field(init=False)  # closed: cycle + strict
    edges: frozenset = field(init=False)

    def __post_init__(self):
        self.vertices = self.cycle_verts | self.strict_vertices
        self.edges = self.cycle_edges | self.strict_edges


def _region_disk(graph, emb, cycle_edges, region):
    cycle_edges = frozenset(cycle_edges)
    verts = cycle_vertices(graph, cycle_edges)
    strict_v = set()
    for f in region:
        strict_v |= emb.faces[f].vertices
    strict_v -= verts
    strict_e = set()
    for eid in graph.edges:
        if eid in cycle_edges:
            continue
        f1, f2 = emb.faces_of_edge(eid)
        if f1 in region and f2 in region:
            strict_e.add(eid)
    return Disk(cycle_edges, verts, frozenset(region), frozenset(strict_v), frozenset(strict_e))


def disk_of_cycle(graph, cycle_edges, emb=None, inside=None):
    """Closed disk of a cycle.

    inside picks the side explicitly (a set of face ids); by default the
    side not containing the outer face of the cycle's component is used.
    """
    if emb is None:
        emb = graph.embedding()
    a, b = cycle_sides(graph, cycle_edges, emb)
    if inside is not None:
        inside = frozenset(inside)
        if inside == a:
            region = a
        elif inside == b:
            region = b
        else:
            raise NotACycle("given face set is not a side of the cycle")
    else:
        verts = cycle_vertices(graph, cycle_edges)
        outer = emb.outer_faces[emb.component_of[next(iter(verts))]]
        if outer in a:
            region = b
        elif outer in b:
            region = a
        else:
            raise NotACycle("outer face not on either side of the cycle")
    return _region_disk(graph, emb, cycle_edges, region)


def both_disks(graph, cycle_edges, emb=None):
    """The two closed disks of a cycle, one per side, in arbitrary order."""
    if emb is None:
        emb = graph.embedding()
    a, b = cycle_sides(graph, cycle_edges, emb)
    return (
        _region_disk(graph, emb, cycle_edges, a),
        _region_disk(graph, emb, cycle_edges, b),
    )
