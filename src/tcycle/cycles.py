"""Concentric cycle sequences and cycles-and-loop configurations.

A configuration pairs a sequence of nested vertex-disjoint cycles with a
T-loop; the pieces of the loop inside the disks are segments, which carry
the chord/zone/type structure used by the rerouting arguments.
"""

from dataclasses import dataclass

from .errors import InvalidConfiguration, NotACycle, NotDisjoint, NotNested
from .graph import cycle_vertices, disk_of_cycle, pieces, radial_bfs


class ConcentricSequence:
    """Cycles C_0 .. C_r, pairwise vertex-disjoint, with strictly nested
    closed disks D_0 in D_1 in ... (disks taken on the side away from the
    outer face)."""

    def __init__(self, graph, cycle_sets):
        self.graph = graph
        self.emb = graph.embedding()
        self.cycles = [frozenset(c) for c in cycle_sets]
        if not self.cycles:
            raise InvalidConfiguration("empty sequence")
        self.cycle_verts = [cycle_vertices(graph, c) for c in self.cycles]
        for i in range(len(self.cycles)):
            for j in range(i + 1, len(self.cycles)):
                if self.cycle_verts[i] & self.cycle_verts[j]:
                    raise NotDisjoint(f"cycles {i} and {j} share a vertex")
        self.disks = [disk_of_cycle(graph, c, self.emb) for c in self.cycles]
        for i in range(len(self.cycles) - 1):
            inner, outer = self.disks[i], self.disks[i + 1]
            if not (
                inner.inside_faces < outer.inside_faces
                and inner.cycle_verts <= outer.strict_vertices
            ):
                raise NotNested(f"disk {i} is not strictly inside disk {i + 1}")

    @property
    def depth(self):
        return len(self.cycles) - 1


def is_isolated(graph, terminals, v, level, emb=None):
    """The radial-distance criterion for isolation: v is level-isolated iff
    every terminal is at radial distance more than level from v.  Terminals
    in other components count as infinitely far."""
    dist = radial_bfs(graph, [v], emb)
    return all(dist.get(t, level + 1) > level for t in terminals)


def loop_cost(graph, cycle_sets, loop_edges):
    free = frozenset(e for c in cycle_sets for e in c)
    return len(frozenset(loop_edges) - free)


@dataclass(frozen=True)
class Segment:
    """One connected piece of the loop inside a disk.

    vertices are in path order; edges[i] joins vertices[i] and
    vertices[i+1].  A single-vertex segment has no edges.
    """

    level: int
    vertices: tuple
    edges: tuple

    @property
    def endpoints(self):
        return (self.vertices[0], self.vertices[-1])

    @property
    def vertex_set(self):
        return frozenset(self.vertices)

    @property
    def edge_set(self):
        return frozenset(self.edges)


def _cycle_walk(graph, cycle_edges):
    """A cycle as (vertices, edges) in cyclic order from its least vertex:
    edges[i] joins vertices[i] and vertices[i + 1], the last edge closing
    back to vertices[0]."""
    adj = {}
    for eid in cycle_edges:
        u, v = graph.edges[eid]
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))
    start = min(adj)
    verts = [start]
    eid, cur = adj[start][0]
    edges = [eid]
    while cur != start:
        verts.append(cur)
        eid, cur = next((e, w) for e, w in adj[cur] if e != eid)
        edges.append(eid)
    return verts, edges


def _runs(seg, level, keep):
    """The maximal runs of consecutive edges of seg that keep accepts, as
    Segments at level."""
    runs = []
    for pos, eid in enumerate(seg.edges):
        if not keep(eid):
            continue
        if runs and runs[-1][1] == pos - 1:
            runs[-1][1] = pos
        else:
            runs.append([pos, pos])
    return [
        Segment(level, tuple(seg.vertices[a : b + 2]), tuple(seg.edges[a : b + 1]))
        for a, b in runs
    ]


class CLConfiguration:
    """A concentric sequence together with a T-loop avoiding the outermost
    closed disk's terminals."""

    def __init__(self, seq, loop_edges, terminals=None):
        self.seq = seq
        self.graph = seq.graph
        self.emb = seq.emb
        self.terminals = frozenset(
            seq.graph.terminals if terminals is None else terminals
        )
        self.loop = frozenset(loop_edges)
        loop_verts = cycle_vertices(self.graph, self.loop)
        if not self.terminals:
            raise InvalidConfiguration("terminal set is empty")
        if not self.terminals <= loop_verts:
            raise InvalidConfiguration("loop misses a terminal")
        if self.terminals & seq.disks[-1].vertices:
            raise InvalidConfiguration("terminal inside the outermost disk")
        self._walk = _cycle_walk(self.graph, self.loop)
        self._segments = {}
        self._zones = {}

    @property
    def depth(self):
        return self.seq.depth

    def segments(self, j):
        """The C_j-segments: connected components of the loop inside D_j."""
        if j in self._segments:
            return self._segments[j]
        disk = self.seq.disks[j]
        verts, edges = self._walk
        n = len(verts)
        inside_v = [v in disk.vertices for v in verts]
        inside_e = [e in disk.edges for e in edges]
        if all(inside_v) and all(inside_e):
            raise InvalidConfiguration(f"loop lies inside disk {j}")
        segs = []
        # find runs of inside elements along the cyclic walk
        i = 0
        while i < n:
            if inside_v[i] and not inside_e[i - 1]:
                run_v, run_e = [verts[i]], []
                k = i
                while inside_e[k % n]:
                    run_e.append(edges[k % n])
                    k += 1
                    run_v.append(verts[k % n])
                segs.append(Segment(j, tuple(run_v), tuple(run_e)))
            i += 1
        segs.sort(key=lambda s: (min(s.vertices), len(s.vertices)))
        self._segments[j] = segs
        return segs

    def eccentricity(self, seg):
        for i, cv in enumerate(self.seq.cycle_verts):
            if cv & seg.vertex_set:
                return i
        raise InvalidConfiguration("segment touches no cycle")

    def chords(self, seg, i):
        """The i-chords of a segment: components of the segment inside the
        open interior of D_i, as (vertices, edges) subpaths."""
        return _runs(seg, i, self.seq.disks[i].strict_edges.__contains__)

    def semichords(self, chord, i):
        """Components of an i-chord outside the closed disk D_{i-1}."""
        if i == 0:
            raise InvalidConfiguration("semichords start at i=1")
        closed = self.seq.disks[i - 1].edges
        return _runs(chord, i, lambda eid: eid not in closed)

    # -- zones and the order on segments ----------------------------------

    def zone(self, seg):
        """Faces of the open interior of D_level on the far side of the
        segment from D_0; empty if the segment does not cut the disk."""
        key = (seg.level, seg.vertices)
        if key in self._zones:
            return self._zones[key]
        disk = self.seq.disks[seg.level]
        inner_faces = self.seq.disks[0].inside_faces
        blocked = seg.edge_set
        faces_in = disk.inside_faces
        adj = {f: set() for f in faces_in}
        for eid, (u, v) in self.graph.edges.items():
            if eid in blocked:
                continue
            f1, f2 = self.emb.faces_of_edge(eid)
            if f1 != f2 and f1 in faces_in and f2 in faces_in:
                adj[f1].add(f2)
                adj[f2].add(f1)
        zone = frozenset().union(
            *(c for c in pieces(faces_in, adj.__getitem__) if not c & inner_faces)
        )
        self._zones[key] = zone
        return zone

    def in_zone(self, a, b):
        """Is segment a inside the zone of segment b (a < b in the order)?"""
        if a.vertices == b.vertices:
            return False
        zone = self.zone(b)
        if not zone:
            return False
        faces_in = self.seq.disks[b.level].inside_faces
        if not a.edges:
            (v,) = set(a.vertices)
            sides = self.emb.faces_of_vertex[v] & faces_in
            return bool(sides) and sides <= zone
        for eid in a.edges:
            f1, f2 = self.emb.faces_of_edge(eid)
            sides = {f for f in (f1, f2) if f in faces_in}
            if not sides or not sides <= zone:
                return False
        return True

    # -- convexity ---------------------------------------------------------

    def convex_violations(self):
        """Violations of segment convexity for the depth-r segments."""
        r = self.depth
        segs = self.segments(r)
        bad = []
        for s in segs:
            if self.chords(s, 0):
                bad.append((s, "0-chord"))
                continue
            for i in range(1, r + 1):
                ch = self.chords(s, i)
                if len(ch) > 1:
                    bad.append((s, f"{i}-chords: {len(ch)}"))
                elif ch:
                    if not (s.vertex_set & self.seq.cycle_verts[i - 1]):
                        bad.append((s, f"{i}-chord misses C_{i-1}"))
                    elif len(self.semichords(ch[0], i)) != 2:
                        bad.append((s, f"{i}-semichord count"))
            ecc = self.eccentricity(s)
            if ecc < r:
                found = any(
                    t is not s
                    and self.in_zone(t, s)
                    and self.eccentricity(t) == ecc + 1
                    for t in segs
                )
                if not found:
                    bad.append((s, "no deeper segment in zone"))
        return bad

    def is_convex(self):
        return not self.convex_violations()

    # -- segment types -----------------------------------------------------

    def _arcs_between(self, j, x, y):
        """The two arcs of C_j between x and y as (vertices, edges); for
        x == y one empty arc is returned."""
        order, edges = _cycle_walk(self.graph, self.seq.cycles[j])
        n = len(order)
        ix, iy = order.index(x), order.index(y)
        if ix == iy:
            return [((x,), ())]
        arcs = []
        # forward from ix to iy
        va = [order[(ix + t) % n] for t in range((iy - ix) % n + 1)]
        ea = [edges[(ix + t) % n] for t in range((iy - ix) % n)]
        arcs.append((tuple(va), tuple(ea)))
        vb = [order[(iy + t) % n] for t in range((ix - iy) % n + 1)]
        eb = [edges[(iy + t) % n] for t in range((ix - iy) % n)]
        arcs.append((tuple(reversed(vb)), tuple(reversed(eb))))
        return arcs

    def parallel(self, a, b):
        """The same-type relation between two C_j-segments."""
        if a.level != b.level:
            raise InvalidConfiguration("segments at different levels")
        j = a.level
        if a.vertices == b.vertices:
            return True
        a1, a2 = a.endpoints
        b1, b2 = b.endpoints
        others = [s for s in self.segments(j) if s.vertices not in (a.vertices, b.vertices)]
        inner_faces = self.seq.disks[0].inside_faces
        for x1, y1, x2, y2 in ((a1, b1, a2, b2), (a1, b2, a2, b1)):
            for p_arc in self._arcs_between(j, x1, y1):
                for q_arc in self._arcs_between(j, x2, y2):
                    if self._parallel_witness(
                        a, b, p_arc, q_arc, others, inner_faces
                    ):
                        return True
        return False

    def _parallel_witness(self, a, b, p_arc, q_arc, others, inner_faces):
        pv, pe = p_arc
        qv, qe = q_arc
        ends = set(a.endpoints) | set(b.endpoints)
        # arcs may not pass through the other endpoints
        if (set(pv[1:-1]) | set(qv[1:-1])) & ends:
            return False
        # build the closed curve P + S1 + P' + S2 and insist it is a cycle
        edge_list = list(pe) + list(qe) + list(a.edges) + list(b.edges)
        if len(set(edge_list)) != len(edge_list):
            return False
        deg = {}
        for eid in edge_list:
            u, v = self.graph.edges[eid]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            return False
        try:
            ring = cycle_vertices(self.graph, edge_list)
        except NotACycle:
            return False
        # no segment with both endpoints on one connecting arc
        for s in others:
            e1, e2 = s.endpoints
            if (e1 in pv and e2 in pv) or (e1 in qv and e2 in qv):
                return False
        # the region bounded by the curve must not swallow D_0
        dk = disk_of_cycle(self.graph, edge_list, self.emb)
        if inner_faces <= dk.inside_faces:
            return False
        return True

    def type_partition(self, j):
        """Equivalence classes of C_j-segments under the parallel relation
        (classes are the components of the relation graph)."""
        segs = self.segments(j)
        n = len(segs)
        related = [[] for _ in segs]
        for x in range(n):
            for y in range(x + 1, n):
                if self.parallel(segs[x], segs[y]):
                    related[x].append(y)
                    related[y].append(x)
        classes = [[segs[i] for i in sorted(c)] for c in pieces(range(n), related.__getitem__)]
        classes.sort(key=lambda c: min(s.vertices for s in c))
        return classes

    # -- segment forest ----------------------------------------------------

    def segment_forest(self, j):
        """Parent map and heights of the C_j-segments under zone order."""
        segs = self.segments(j)
        n = len(segs)
        anc = [[False] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                if x != y:
                    anc[x][y] = self.in_zone(segs[x], segs[y])  # y ancestor of x
        parent = [None] * n
        for x in range(n):
            cands = [y for y in range(n) if anc[x][y]]
            for y in cands:
                if not any(anc[z][y] and anc[x][z] for z in cands if z != y):
                    parent[x] = y
                    break
        children = {x: [] for x in range(n)}
        for x, p in enumerate(parent):
            if p is not None:
                children[p].append(x)
        height = [0] * n

        def calc(x):
            if not children[x]:
                height[x] = 0
            else:
                height[x] = 1 + max(height[c] for c in children[x])

        done = set()

        def visit(x):
            for c in children[x]:
                if c not in done:
                    visit(c)
            calc(x)
            done.add(x)

        for x in range(n):
            if x not in done:
                visit(x)
        return {
            "segments": segs,
            "parent": parent,
            "children": children,
            "height": height,
        }

    def forest_height(self, j):
        f = self.segment_forest(j)
        return max(f["height"], default=0)
