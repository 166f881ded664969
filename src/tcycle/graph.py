"""Embedded planar multigraphs.

A graph is stored combinatorially: vertices, edges with explicit ids, and a
rotation system giving the cyclic order of edge ends around every vertex.
Faces are traced from the rotation system, and the Euler relation
V - E + F = 2 per connected component certifies that the rotation system
describes a sphere embedding.  Nothing here uses coordinates.

Darts.  The tracer numbers the two ends of edge e as the integers 2*e
(from the stored tail to the head) and 2*e + 1 (the other way), so the
reverse of dart d is d ^ 1, its edge is d >> 1 and its side is d & 1; this
holds for negative edge ids too.

Validation.  The constructor checks every graph it is given: edge ends and
terminals are vertices, and each rotation lists exactly its vertex's edge
ends.  Graphs derived from a valid graph by `subgraph`, `without_vertices`
and `without_edges` are built without that check, because filtering a valid
rotation system keeps it valid; `with_terminals` checks only the new
terminals.  Faces and components are computed once per graph and cached.
"""

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

from .errors import (
    MalformedRotation,
    NonPlanarCertificate,
    NotACycle,
    UnknownVertex,
)

_log = logging.getLogger("tcycle.graph")


def pieces(nodes, neighbors):
    """The connected pieces of the graph on the set nodes in which x is
    joined to each member of neighbors(x) that lies in nodes.  Yields each
    piece as a set, in order of its least member."""
    seen = set()
    for s in sorted(nodes):
        if s in seen:
            continue
        piece = {s}
        stack = [s]
        while stack:
            for y in neighbors(stack.pop()):
                if y not in piece and y in nodes:
                    piece.add(y)
                    stack.append(y)
        seen |= piece
        yield piece


class EmbeddedGraph:
    """An embedded planar multigraph with terminals.

    Treated as immutable once built; all mutators return new graphs.
    Rotation entries of non-vertices are dropped, as are empty ones.
    """

    def __init__(self, vertices, edges, rotation, terminals=(), outer_hint=None):
        vertices = frozenset(vertices)
        self._fill(
            vertices,
            dict(edges),  # eid -> (u, v)
            {v: tuple(r) for v, r in rotation.items() if r and v in vertices},
            frozenset(terminals),
            # outer_hint: vertex set identifying the intended outer face
            frozenset(outer_hint) if outer_hint else None,
        )
        self._validate_basic()

    def _fill(self, vertices, edges, rotation, terminals, outer_hint):
        self.vertices = vertices
        self.edges = edges
        self.rotation = rotation
        self.terminals = terminals
        self.outer_hint = outer_hint
        self._emb = None
        self._components = None

    @classmethod
    def _derived(cls, vertices, edges, rotation, terminals, outer_hint):
        """A graph filtered from a valid one, built without validation.  The
        arguments must already be in the constructor's normal form."""
        g = cls.__new__(cls)
        g._fill(vertices, edges, rotation, terminals, outer_hint)
        return g

    # -- basic structure ---------------------------------------------------

    def _validate_basic(self):
        vertices, edges = self.vertices, self.edges
        tails, heads = zip(*edges.values()) if edges else ((), ())
        if not (vertices.issuperset(tails) and vertices.issuperset(heads)):
            for eid, (u, v) in edges.items():
                if u not in vertices or v not in vertices:
                    raise UnknownVertex(f"edge {eid} touches unknown vertex")
        if not self.terminals <= vertices:
            raise UnknownVertex("terminal is not a vertex")
        if self.outer_hint and not self.outer_hint <= vertices:
            raise UnknownVertex("outer face hint names a vertex that is not in the graph")
        # one multiset of (vertex, edge end) pairs on each side, counted in C
        # and compared as plain dicts (no count is zero, and Counter's own ==
        # loops in Python); the per-vertex scan runs only to name a vertex
        # that differs
        want = Counter(zip(tails, edges))
        want.update(zip(heads, edges))
        rotation = self.rotation
        have = Counter(chain.from_iterable(map(zip, map(repeat, rotation), rotation.values())))
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

    def neighbors(self, v):
        out = set()
        for eid in self.rotation.get(v, ()):
            a, b = self.edges[eid]
            out.add(b if a == v else a)
        out.discard(v)
        return out

    def components(self):
        """Connected components as a list of frozensets of vertices, in
        order of their least vertex."""
        if self._components is None:
            adj = {v: [] for v in self.vertices}
            for u, v in self.edges.values():
                adj[u].append(v)
                adj[v].append(u)
            self._components = list(map(frozenset, pieces(self.vertices, adj.__getitem__)))
        return list(self._components)

    # -- derived graphs ----------------------------------------------------

    def subgraph(self, keep):
        """Induced subgraph on the vertex set keep; embedding is inherited by
        filtering every rotation, which preserves planarity.  Keeping every
        vertex returns self, traced faces included."""
        keep = frozenset(keep)
        if keep == self.vertices:
            return self
        if not keep <= self.vertices:
            raise UnknownVertex("subgraph keeps a vertex that is not in the graph")
        rotation = self.rotation
        cut = {e for v in self.vertices - keep for e in rotation.get(v, ())}
        rot = {v: rotation[v] for v in keep if v in rotation}
        hint = self.outer_hint if self.outer_hint and self.outer_hint <= keep else None
        return self._cut(keep, cut, rot, self.terminals & keep, hint)

    def without_vertices(self, drop):
        return self.subgraph(self.vertices - frozenset(drop))

    def without_edges(self, drop):
        cut = frozenset(drop) & self.edges.keys()
        return self._cut(
            self.vertices, cut, dict(self.rotation), self.terminals, self.outer_hint
        )

    def _cut(self, vertices, cut, rot, terminals, hint):
        """The graph without the edges in cut; rot is the rotation of the
        vertices that stay, and only the ends of cut edges are refiltered."""
        for v in {w for e in cut for w in self.edges[e]} & rot.keys():
            r = tuple([e for e in rot[v] if e not in cut])
            if r:
                rot[v] = r
            else:
                del rot[v]
        edges = {e: uv for e, uv in self.edges.items() if e not in cut}
        return EmbeddedGraph._derived(vertices, edges, rot, terminals, hint)

    def with_terminals(self, terminals):
        terminals = frozenset(terminals)
        if not terminals <= self.vertices:
            raise UnknownVertex("terminal is not a vertex")
        return EmbeddedGraph._derived(
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
    """Traced faces of an EmbeddedGraph plus incidence lookups.

    Filled by the tracer: walks (face id -> list of integer darts, empty for
    an isolated vertex's face), face_vertices (face id -> frozenset),
    dart_face (integer dart -> face id), faces_of_vertex (vertex -> set of
    face ids), component_of (vertex -> component index) and outer_faces
    (component index -> face id).
    """

    def __init__(self, graph, walks, face_vertices, dart_face, faces_of_vertex,
                 component_of, outer_faces):
        self.graph = graph
        self.walks = walks
        self.face_vertices = face_vertices
        self.dart_face = dart_face
        self.faces_of_vertex = faces_of_vertex
        self.component_of = component_of
        self.outer_faces = outer_faces

    def faces_of_edge(self, eid):
        return (self.dart_face[2 * eid], self.dart_face[2 * eid + 1])


def _trace_embedding(graph):
    # Faces are the orbits of the dart successor permutation (Mohar and
    # Thomassen, Graphs on Surfaces, 2001): a dart arriving at w as the
    # reverse of w's i-th dart continues along w's (i+1)-th dart.  Faces
    # are numbered in order of their first dart, vertices ascending and each
    # vertex's darts in rotation order, then one face per isolated vertex.
    edges = graph.edges
    rotation = graph.rotation
    rings = {}  # v -> darts leaving v in rotation order, v ascending
    isolated = []
    for v in sorted(graph.vertices):
        rot = rotation.get(v)
        if rot:
            rings[v] = [2 * e if edges[e][0] == v else 2 * e + 1 for e in rot]
        else:
            isolated.append(v)
    # both ends of a loop at v got side 0; its second end in v's rotation
    # takes side 1
    for e, (a, b) in edges.items():
        if a == b:
            ring = rings[a]
            ring[ring.index(2 * e, ring.index(2 * e) + 1)] = 2 * e + 1

    succ = {}
    tail = {}
    for v, ring in rings.items():
        succ.update(zip([d ^ 1 for d in ring], ring[1:] + ring[:1]))
        tail.update(zip(ring, repeat(v)))

    walks = []
    face_vertices = []
    dart_face = {}
    for ring in rings.values():
        for start in ring:
            if start in dart_face:
                continue
            fid = len(walks)
            dart_face[start] = fid
            walk = [start]
            d = succ[start]
            while d != start:
                dart_face[d] = fid
                walk.append(d)
                d = succ[d]
            walks.append(walk)
            face_vertices.append(frozenset(map(tail.__getitem__, walk)))
    faces_of_vertex = {v: set(map(dart_face.__getitem__, ring)) for v, ring in rings.items()}
    for v in isolated:
        faces_of_vertex[v] = {len(walks)}
        walks.append([])
        face_vertices.append(frozenset([v]))

    comps = graph.components()
    component_of = {}
    for i, comp in enumerate(comps):
        component_of.update(zip(comp, repeat(i)))

    # the Euler check per component certifies planarity of the rotation; a
    # face's vertices all lie in one component
    comp_edges = [0] * len(comps)
    for u, _ in edges.values():
        comp_edges[component_of[u]] += 1
    comp_faces = [0] * len(comps)
    for fverts in face_vertices:
        comp_faces[component_of[next(iter(fverts))]] += 1
    for comp, ne, nf in zip(comps, comp_edges, comp_faces):
        nv = len(comp)
        if nv - ne + nf != 2:
            raise NonPlanarCertificate(
                f"component {sorted(comp)[:6]}...: V-E+F = {nv}-{ne}+{nf} != 2"
            )

    # a face equal to the hint holds the hint's least vertex, and the face
    # whose sorted vertex tuple is least holds the component's least vertex
    hint = graph.outer_hint
    outer_faces = {}
    for i, comp in enumerate(comps):
        chosen = None
        if hint and hint <= comp:
            exact = [f for f in faces_of_vertex[min(hint)] if face_vertices[f] == hint]
            if len(exact) == 1:
                chosen = exact[0]
        if chosen is None:
            chosen = min(
                faces_of_vertex[min(comp)],
                key=lambda f: (tuple(sorted(face_vertices[f])), f),
            )
        outer_faces[i] = chosen

    _log.debug(
        "traced %d vertices, %d darts, %d faces, %d components",
        len(graph.vertices), len(dart_face), len(walks), len(comps),
    )
    return Embedding(
        graph, walks, face_vertices, dart_face, faces_of_vertex, component_of, outer_faces
    )


# -- radial (vertex-face incidence) traversal -----------------------------


def radial_bfs(graph, sources, emb=None):
    """Radial distances from an iterable of source vertices.

    One step goes from a vertex to any vertex sharing a face with it, so the
    result is d^R(v, sources) = min over sources of the radial distance.
    Vertices in other components are absent from the result.
    """
    if emb is None:
        emb = graph.embedding()
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
                for w in emb.face_vertices[fid]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
        frontier = nxt
    return dist


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
    verts = frozenset(deg)
    # connectivity within the cycle's own edges
    adj = {v: [] for v in verts}
    for eid in cycle_edges:
        u, v = graph.edges[eid]
        adj[u].append(v)
        adj[v].append(u)
    if next(pieces(verts, adj.__getitem__)) != verts:
        raise NotACycle("edge set has more than one cycle")
    return verts


def cycle_sides(graph, cycle_edges, emb=None):
    """Partition of the faces of the cycle's component into the two sides of
    the cycle.  Faces are connected across every edge not on the cycle."""
    if emb is None:
        emb = graph.embedding()
    cycle_edges = frozenset(cycle_edges)
    verts = cycle_vertices(graph, cycle_edges)
    comp_idx = emb.component_of[next(iter(verts))]
    comp_faces = {
        fid
        for fid, fverts in enumerate(emb.face_vertices)
        if emb.component_of[next(iter(fverts))] == comp_idx
    }
    adj = {fid: set() for fid in comp_faces}
    for eid, (u, v) in graph.edges.items():
        if eid in cycle_edges or emb.component_of[u] != comp_idx:
            continue
        f1, f2 = emb.faces_of_edge(eid)
        if f1 != f2:
            adj[f1].add(f2)
            adj[f2].add(f1)
    regions = list(pieces(comp_faces, adj.__getitem__))
    if len(regions) != 2:
        raise NotACycle(
            f"cycle does not split its component's faces into two regions "
            f"(got {len(regions)})"
        )
    return frozenset(regions[0]), frozenset(regions[1])


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
        strict_v |= emb.face_vertices[f]
    strict_v -= verts
    strict_e = set()
    for eid in graph.edges:
        if eid in cycle_edges:
            continue
        f1, f2 = emb.faces_of_edge(eid)
        if f1 in region and f2 in region:
            strict_e.add(eid)
    return Disk(cycle_edges, verts, frozenset(region), frozenset(strict_v), frozenset(strict_e))


def disk_of_cycle(graph, cycle_edges, emb=None):
    """Closed disk of a cycle: the side not containing the outer face of
    the cycle's component (`both_disks` gives either side)."""
    if emb is None:
        emb = graph.embedding()
    a, b = cycle_sides(graph, cycle_edges, emb)
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
