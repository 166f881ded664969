"""Irrelevant-vertex removal on punctured instances.

The reduction pipeline views the embedded graph as a plane with holes,
one per terminal to begin with.  Holes are merged pairwise along short
radial curves until at most two remain, then vertices that are radially
far from every hole boundary are deleted.  Every deletion is recorded in
a report so the brute-force oracles can re-check it at desk scale.
"""

import math
from dataclasses import dataclass

from .cycles import is_isolated
from .errors import (
    HoleCountError,
    InvalidConfiguration,
    NoConnectingCurve,
    UnknownVertex,
)
from .graph import radial_bfs


def isolation_threshold(k):
    """Default isolation depth for an instance with k terminals; grows
    logarithmically in k."""
    if k < 1:
        raise InvalidConfiguration("need at least one terminal")
    return math.ceil(4 * math.log2(k + 1)) + 6


class IsolationBudget:
    """One base isolation depth g; the pipeline stages derive their
    thresholds (g and 4g) from it, and no (5g+1)-isolated vertex survives
    the full pipeline."""

    def __init__(self, g):
        if g < 1:
            raise InvalidConfiguration("isolation depth must be positive")
        self.g = g

    @classmethod
    def for_terminals(cls, k):
        return cls(isolation_threshold(k))

    @property
    def annulus(self):
        """Deletion threshold for the two-hole safety sweep."""
        return 4 * self.g


class PuncturedInstance:
    """A plane graph together with its hole boundaries, each a set of
    vertices."""

    def __init__(self, graph, holes):
        self.graph = graph
        self.holes = [frozenset(h) for h in holes]
        if not self.holes:
            raise HoleCountError("an instance needs at least one hole")
        for h in self.holes:
            if not h:
                raise HoleCountError("empty hole boundary")
            if not h <= graph.vertices:
                raise UnknownVertex(f"hole vertices {sorted(h - graph.vertices)}")

    @property
    def hole_count(self):
        return len(self.holes)

    @property
    def boundary(self):
        return frozenset().union(*self.holes)


def initial_punctures(graph, terminals=None):
    """One trivial hole per terminal."""
    T = set(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("no terminals")
    if not T <= graph.vertices:
        raise UnknownVertex(f"terminals {sorted(T - graph.vertices)}")
    if any(graph.degree(t) == 0 for t in T):
        raise InvalidConfiguration("terminal of degree zero")
    return PuncturedInstance(graph, [{t} for t in sorted(T)])


def _radial_path(graph, sources, targets, emb=None, allowed=None):
    """Shortest vertex sequence from sources to targets in which consecutive
    vertices share a face; interior vertices restricted to allowed if given.
    None when unreachable."""
    if emb is None:
        emb = graph.embedding()
    sources = set(sources)
    targets = set(targets)
    parent = {s: None for s in sorted(sources)}
    frontier = sorted(sources)
    seen_faces = set()
    while frontier:
        for v in frontier:
            if v in targets:
                path = []
                while v is not None:
                    path.append(v)
                    v = parent[v]
                return path[::-1]
        nxt = []
        for v in frontier:
            for fid in emb.faces_of_vertex[v]:
                if fid in seen_faces:
                    continue
                seen_faces.add(fid)
                for w in sorted(emb.face_vertices[fid]):
                    if w in parent:
                        continue
                    if allowed is not None and w not in allowed and w not in targets:
                        continue
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def cut_reduction(inst):
    """Merge the two radially closest holes along a shortest connecting
    curve; the curve's vertices join the merged boundary.  Returns the
    merged instance, which has one hole fewer."""
    if inst.hole_count < 3:
        raise HoleCountError("cut reduction needs at least three holes")
    emb = inst.graph.embedding()
    best = None
    for i in range(len(inst.holes)):
        for j in range(i + 1, len(inst.holes)):
            path = _radial_path(inst.graph, inst.holes[i], inst.holes[j], emb)
            if path is not None and (best is None or len(path) < len(best[2])):
                best = (i, j, path)
    if best is None:
        raise NoConnectingCurve("no two holes share a component")
    i, j, path = best
    merged = inst.holes[i] | inst.holes[j] | frozenset(path)
    holes = [h for idx, h in enumerate(inst.holes) if idx not in (i, j)]
    holes.append(merged)
    return PuncturedInstance(inst.graph, holes)


def layer_partition(inst, emb=None):
    """Vertices of a one-hole instance grouped by radial distance from the
    hole boundary.  Vertices in other components, which are farther than
    every finite layer, form one trailing group."""
    if inst.hole_count != 1:
        raise HoleCountError("layer partition needs exactly one hole")
    dist = radial_bfs(inst.graph, sorted(inst.boundary), emb)
    top = max(dist.values())
    layers = [set() for _ in range(top + 1)]
    for v, d in dist.items():
        layers[d].add(v)
    far = inst.graph.vertices - dist.keys()
    if far:
        layers.append(set(far))
    return layers


def remove_one_punctured(inst, budget):
    """Delete every vertex at radial distance more than g from the single
    hole boundary (unreachable vertices count as infinitely far)."""
    if inst.hole_count != 1:
        raise HoleCountError("expected exactly one hole")
    dist = radial_bfs(inst.graph, sorted(inst.boundary))
    drop = {
        v
        for v in inst.graph.vertices
        if dist.get(v, budget.g + 1) > budget.g
    }
    return inst.graph.without_vertices(drop)


def remove_two_punctured(inst, budget):
    """Delete deep vertices of a two-hole instance.

    A shortest radial curve A joins the holes.  If A is short (at most 6g
    vertices) the holes are merged along it and the one-hole rule applies.
    Otherwise a second curve B is routed through the vertices radially
    equidistant from the two holes, both curves join the boundary, the
    one-hole rule applies, and a final sweep deletes anything still at
    radial distance more than 4g from the hole boundaries.
    """
    if inst.hole_count != 2:
        raise HoleCountError("expected exactly two holes")
    g = budget.g
    graph = inst.graph
    emb = graph.embedding()
    h1, h2 = inst.holes
    path = _radial_path(graph, h1, h2, emb)
    if path is None:
        # holes in different components: each side is a one-hole instance
        boundary = h1 | h2
    elif len(path) <= 6 * g:
        boundary = h1 | h2 | frozenset(path)
    else:
        d1 = radial_bfs(graph, sorted(h1), emb)
        d2 = radial_bfs(graph, sorted(h2), emb)
        ridge = {
            v
            for v in graph.vertices
            if v in d1 and v in d2 and abs(d1[v] - d2[v]) <= 1
        }
        second = _radial_path(graph, h1, h2, emb, allowed=ridge | h1 | h2)
        if second is None:
            second = path
        boundary = h1 | h2 | frozenset(path) | frozenset(second)
    dist = radial_bfs(graph, sorted(boundary), emb)
    drop = {v for v in graph.vertices if dist.get(v, g + 1) > g}
    out = graph.without_vertices(drop)
    # sweep until nothing in the remainder is deeper than 4g from the holes
    while True:
        base = sorted((h1 | h2) & out.vertices)
        if not base:
            break
        dist = radial_bfs(out, base)
        far = {
            v
            for v in out.vertices
            if dist.get(v, budget.annulus + 1) > budget.annulus
        }
        if not far:
            break
        out = out.without_vertices(far)
    return out


@dataclass
class RemovalReport:
    """What the pipeline deleted and why: (vertex, reason, threshold)
    entries, and the surviving boundary set U."""

    removed: list
    boundary: frozenset


def reed_pipeline(graph, terminals=None, budget=None):
    """Full reduction: merge holes down to at most two, delete isolated
    boundary vertices (tested in the original graph), then apply the one-
    and two-hole deep-vertex rules.  Returns (reduced graph, boundary set
    U, report)."""
    T = set(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("no terminals")
    if not T <= graph.vertices:
        raise UnknownVertex(f"terminals {sorted(T - graph.vertices)}")
    if budget is None:
        budget = IsolationBudget.for_terminals(len(T))
    g = budget.g
    comps = graph.components()
    holding = [c for c in comps if c & T]
    if len(holding) != 1:
        # terminals split across components: no loop exists, and no deletion
        # here comes with an isolation witness, so leave the graph alone
        return graph, frozenset(T), RemovalReport([], frozenset(T))
    removed = []
    outside = graph.vertices - holding[0]
    for v in sorted(outside):
        removed.append((v, "separate-component", g))
    work = graph.subgraph(holding[0])

    inst = initial_punctures(work, T)
    while inst.hole_count >= 3:
        inst = cut_reduction(inst)

    # radial distance is symmetric, so one BFS from T decides isolation
    # from T for every boundary vertex (tested in the original graph)
    dist = radial_bfs(graph, sorted(T))
    iso = {v for v in inst.boundary if dist.get(v, g + 1) > g}
    for v in sorted(iso):
        removed.append((v, "isolated-boundary", g))
    U = frozenset()
    if iso >= inst.boundary:
        for v in sorted(inst.graph.vertices - iso):
            removed.append((v, "piece-discarded", g))
    else:
        holes = [h - iso for h in inst.holes if h - iso]
        piece = PuncturedInstance(inst.graph.without_vertices(iso), holes)
        if piece.hole_count == 1:
            after = remove_one_punctured(piece, budget)
            reason = "deep-one-hole"
        else:
            after = remove_two_punctured(piece, budget)
            reason = "deep-two-hole"
        for v in sorted(piece.graph.vertices - after.vertices):
            removed.append((v, reason, g))
        U = piece.boundary & after.vertices

    drop = {v for v, _, _ in removed}
    out = graph.without_vertices(drop)
    return out, U, RemovalReport(removed, U)


def quadratic_remover(graph, terminals=None, budget=None):
    """Reference reducer: repeatedly delete every vertex that is g-isolated
    from the terminals until none remains.  Slower than the pipeline but
    with one obviously correct rule; used for differential testing."""
    T = set(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("no terminals")
    if not T <= graph.vertices:
        raise UnknownVertex(f"terminals {sorted(T - graph.vertices)}")
    if budget is None:
        budget = IsolationBudget.for_terminals(len(T))
    out = graph
    while True:
        emb = out.embedding()
        far = {
            v
            for v in sorted(out.vertices)
            if is_isolated(out, T, v, budget.g, emb)
        }
        if not far:
            return out
        out = out.without_vertices(far)
