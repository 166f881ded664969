"""Kernelization: protrusion decomposition, linkage profiles, replacement
by contraction and the assembled pipeline.

A protrusion is a part of the graph that meets the rest only in a small
boundary.  Two parts with the same boundary behave identically for loop
finding exactly when they enable the same linkages across that boundary,
so a part can be swapped for any smaller graph with an equal profile.

A profile is read off one boundaried run of the path DP
(`dp.boundary_linkages`): every boundary vertex ends the paths that reach
it, so the root table lists each set of boundary-to-boundary segments
the part holds.  Crossing patterns and cycle-covered boundary subsets
both follow from those segment sets, and comparing a candidate with its
target is one profile computation and an equality test.

A part is replaced only by contraction.  Its candidates are quotients of
the part by a vertex-to-class map with connected classes, which may drop
vertices: the levels of one farthest-first contraction of the interior,
and the quotients that keep the rim of a face holding the whole boundary.  Each is a minor of
the part, with its branch sets as the certificate.  The smallest
candidate with the part's profile wins.  Each part's profile is computed
once and shared by the contraction and the final check.  Every swap is
certified before it is made: the replacement's own profile must equal
the part's, and its branch sets must pass an independent rooted
minor-model check.  No planarity test runs: the profile and the minor
check read no rotation, and the splice contracts the branch sets inside
the kernel's own rotation system, so the new kernel inherits its
embedding and one Euler trace certifies it.

kernelize runs four stages: reduce, decompose into protrusions,
decompose each protrusion into subprotrusions, and contract each
subprotrusion.
"""

import itertools
from dataclasses import dataclass, field

from .decomposition import isolation_threshold, reed_pipeline
# solve_t_cycle stays reachable here: perfbench traces kernel.solve_t_cycle
from .dp import _merge, boundary_linkages, solve_t_cycle  # noqa: F401
from .errors import (
    BoundaryTooLarge,
    InvalidConfiguration,
    ModulatorInvalid,
    SpliceError,
    TCycleError,
    UnknownVertex,
)
from .graph import EmbeddedGraph, pieces, unembedded
from .treewidth import build, lca_closure, make_nice

BOUNDARY_LIMIT = 6
SMALL_PART_LIMIT = 18
CONTRACTION_SIZE_LIMIT = 60
CONTRACTED_INTERIOR_LIMIT = 6
RIM_QUOTIENT_LIMIT = 4


# -- protrusion decomposition ----------------------------------------------


@dataclass
class ProtrusionDecomposition:
    """x0 plus parts X_1..X_l partitioning the vertices; boundaries[i] is
    the neighborhood of parts[i], always inside x0."""

    x0: frozenset
    parts: list
    boundaries: list
    eta: int

    @property
    def gamma(self):
        return 3 * self.eta + 2

    def validate(self, graph):
        """Check all structural invariants; return the largest part width."""
        pieces = [self.x0] + list(self.parts)
        total = 0
        for p in pieces:
            total += len(p)
        if total != len(graph.vertices) or frozenset().union(*pieces) != graph.vertices:
            raise InvalidConfiguration("parts do not partition the vertices")
        widest = 0
        for part, B in zip(self.parts, self.boundaries):
            nb = set()
            for v in part:
                nb |= graph.neighbors(v)
            nb -= part
            if nb != B:
                raise InvalidConfiguration("recorded boundary is wrong")
            if not B <= self.x0:
                raise InvalidConfiguration("part touches something outside x0")
            if len(B) > self.gamma:
                raise InvalidConfiguration("boundary larger than gamma")
            w = build(graph.subgraph(part | B)).width
            if w > self.gamma:
                raise InvalidConfiguration("part width larger than gamma")
            widest = max(widest, w)
        return widest


def protrusion_decompose(graph, modulator, eta):
    """Split graph into a core x0 containing the modulator and parts that
    each meet x0 in a small boundary.

    Works on a nice tree decomposition of graph minus the modulator:
    marks the lowermost nodes whose subtree induces a component with at
    least three modulator neighbors, closes the marked set under lowest
    common ancestors, puts those bags into the core, and groups the
    leftover components by their neighborhoods.
    """
    S = frozenset(modulator)
    if not S <= graph.vertices:
        raise UnknownVertex(f"modulator vertices {sorted(S - graph.vertices)}")
    rest = graph.subgraph(graph.vertices - S)
    # build validates the decomposition it returns
    td = build(rest)
    if td.width > eta:
        raise ModulatorInvalid(
            f"graph minus modulator has width above {eta}"
        )
    nice = make_nice(td)

    sneigh = {
        v: graph.neighbors(v) & S for v in rest.vertices
    }

    adj = {v: rest.neighbors(v) for v in rest.vertices}

    subtree = {}
    marked = set()
    marked_below = {}
    for node in nice.postorder():
        vs = set(nice.bags[node])
        below = False
        for c in nice.children[node]:
            vs |= subtree[c]
            below = below or marked_below[c]
        subtree[node] = vs
        # a component of the subtree's vertices with three or more
        # modulator neighbors
        if not below and any(
            len(set().union(*map(sneigh.__getitem__, piece))) >= 3
            for piece in pieces(vs, adj.__getitem__)
        ):
            marked.add(node)
            below = True
        marked_below[node] = below

    closure = lca_closure(nice, marked)
    x0 = set(S)
    for node in closure:
        x0 |= nice.bags[node]

    leftover = graph.vertices - x0
    groups = {}
    for comp in pieces(leftover, graph.neighbors):
        nb = set()
        for v in comp:
            nb |= graph.neighbors(v)
        groups.setdefault(frozenset(nb - comp), set()).update(comp)
    keys = sorted(groups, key=lambda b: (sorted(b), min(groups[b], default=0)))
    parts = [frozenset(groups[b]) for b in keys]
    return ProtrusionDecomposition(frozenset(x0), parts, list(keys), eta)


# -- linkage profiles -------------------------------------------------------


@dataclass(frozen=True)
class LinkageProfile:
    boundary: frozenset
    feasible_dp: frozenset
    feasible_cycle: frozenset


def linkage_profile(graph, boundary):
    """How the graph can serve a loop that crosses its boundary.

    Two feasibility sets: crossing patterns (pair sets with each boundary
    vertex in at most two, realized by paths meeting the boundary in
    exactly the pattern's vertices) and boundary subsets lying together
    on some cycle.  Patterns rather than matchings because a loop may run
    straight through a boundary vertex inside the part, consuming it
    without stopping; the cycle set matters when an entire loop fits
    inside the part, which no path pattern can express.

    Both are read off one boundary run of the path DP, which lists the
    sets of boundary-to-boundary segments the graph holds.  Spliced at
    their shared ends, the segments of a set form paths and cycles, a
    loop segment or a doubled pair counting as a cycle.  A set with no
    cycle is a crossing pattern.  A set that forms one cycle and no path
    puts every non-empty subset of its vertices on a cycle."""
    B = frozenset(boundary)
    if len(B) > BOUNDARY_LIMIT:
        raise BoundaryTooLarge(f"boundary of {len(B)} is over {BOUNDARY_LIMIT}")
    if not B <= graph.vertices:
        raise UnknownVertex(f"boundary vertices {sorted(B - graph.vertices)}")
    fdp, fcy = set(), set()
    for segments in boundary_linkages(graph, B):
        ends, cycles = frozenset(), 0
        for segment in segments:
            ends, closed = _merge(ends, (segment,))
            cycles += closed
        if not cycles:
            fdp.add(frozenset(map(frozenset, segments)))
        elif cycles == 1 and not ends:
            on = sorted({v for s in segments for v in s})
            for r in range(1, len(on) + 1):
                fcy.update(map(frozenset, itertools.combinations(on, r)))
    return LinkageProfile(B, frozenset(fdp), frozenset(fcy))


# -- replacement by contraction ---------------------------------------------


def replacement_search(pgraph, boundary):
    """The part's fate, and a certified smaller replacement for it as
    (graph, certificate), or None when it is kept.

    The part's profile is computed once and shared by the contraction and
    the final check.  Raises BoundaryTooLarge for a boundary over
    BOUNDARY_LIMIT."""
    target = linkage_profile(pgraph, boundary)
    found = contraction_replacement(pgraph, boundary, target=target)
    if found is None:
        return "no-smaller-candidate", None
    H, certificate = found
    # re-verify independently of how the candidate was found: H's own
    # profile, and the branch sets by a rooted model check that shares no
    # code with the contraction
    if not (
        len(H.vertices) < len(pgraph.vertices)
        and linkage_profile(H, boundary) == target
        and verify_minor_map(pgraph, H, certificate["branch_sets"])
    ):
        return "rejected", None
    certificate["method"] = "contraction"
    certificate["verified"] = True
    return "contraction", found


def contraction_replacement(protrusion, boundary, target):
    """A smaller profile-equal graph obtained by contracting the interior.

    The result is a minor by construction, certified by explicit branch
    sets.  The candidates are the levels of one farthest-first contraction
    of the interior, down to at most CONTRACTED_INTERIOR_LIMIT interior
    vertices, and the rim quotients of up to RIM_QUOTIENT_LIMIT faces that
    hold the whole boundary; the smallest whose profile still matches wins,
    the levels first on ties.  The winner is the quotient graph with its
    placeholder rotation: nothing reads its rotation, as the profile and
    the minor check do not and splice contracts the host's rotation along
    the branch sets.  target is the protrusion's profile.  Returns None
    when every candidate changes the profile.
    """
    B = sorted(set(boundary))
    if len(B) > BOUNDARY_LIMIT:
        raise BoundaryTooLarge(f"boundary of {len(B)} is over {BOUNDARY_LIMIT}")
    interior = sorted(protrusion.vertices - set(B))
    if not interior:
        return None
    top = min(CONTRACTED_INTERIOR_LIMIT, len(interior) - 1)
    reps = _contraction_levels(protrusion, B, top)
    reps += itertools.islice(_rim_reps(protrusion, B), RIM_QUOTIENT_LIMIT)
    candidates = [_quotient(protrusion, rep) for rep in reps]
    candidates.sort(key=lambda hb: (len(hb[0].vertices), len(hb[0].edges)))
    for H, branch in candidates:
        if len(H.vertices) >= len(protrusion.vertices):
            continue
        if linkage_profile(H, B) != target:
            continue
        return H, {
            "old_size": len(protrusion.vertices),
            "new_size": len(H.vertices),
            "branch_sets": branch,
        }
    return None


def _contraction_levels(protrusion, boundary, top):
    """Rep maps (vertex -> surviving vertex) of one farthest-first
    contraction, taken when top, ..., 0 interior vertices remain and
    returned fewest-first.

    Each step removes the interior vertex farthest from the boundary,
    merging it into its nearest neighbor.  A vertex with no neighbor left
    ends an interior piece with no route to the boundary: it is deleted,
    and the vertices of its class leave the rep map."""
    adj = {v: set() for v in protrusion.vertices}
    for u, v in protrusion.edges.values():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    Bs = set(boundary)
    rep = {v: v for v in adj}
    levels = []
    while True:
        interior = [v for v in adj if v not in Bs]
        if len(interior) <= top:
            levels.append(dict(rep))
            if not interior:
                return levels[::-1]
        dist = {b: 0 for b in Bs}
        frontier = sorted(Bs)
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = sorted(nxt)
        far = 10 ** 9
        v = max(interior, key=lambda x: (dist.get(x, far), x))
        nbrs = adj.pop(v)
        for w in nbrs:
            adj[w].discard(v)
        if not nbrs:
            rep = {x: r for x, r in rep.items() if r != v}
            continue
        u = min(nbrs, key=lambda x: (dist.get(x, far), x))
        for w in nbrs - {u}:
            adj[u].add(w)
            adj[w].add(u)
        rep = {x: (u if r == v else r) for x, r in rep.items()}


def _quotient(protrusion, rep):
    """Contract each class of the rep map (vertex -> class label) to one
    vertex, dropping the vertices the map omits; returns (graph, branch
    sets).  The graph carries a placeholder rotation.

    Parallel edges are kept, capped at two per pair: collapsing them would
    lose the difference between one and two disjoint routes, which the
    cycle part of the profile can see."""
    classes = {}
    for v in protrusion.vertices:
        if v in rep:
            classes.setdefault(rep[v], set()).add(v)
    mult = _class_pairs(protrusion.edges, rep)
    edges = {}
    for pair in sorted(mult):
        for _ in range(mult[pair]):
            edges[len(edges) + 1] = pair
    return unembedded(set(classes), edges), {r: frozenset(vs) for r, vs in classes.items()}


def _class_pairs(edges, rep):
    """Sorted pair of class labels -> number of the edges between the two
    classes, capped at two; edges at a vertex the rep map omits drop out."""
    mult = {}
    for u, v in edges.values():
        if u in rep and v in rep and rep[u] != rep[v]:
            pair = tuple(sorted((rep[u], rep[v])))
            mult[pair] = mult.get(pair, 0) + 1
    return {pair: min(2, n) for pair, n in mult.items()}


def _rim_reps(protrusion, boundary):
    """Rep maps, one per face holding the whole boundary, whose quotients
    keep that face as a cycle.

    Farthest-first contraction is blind to the embedding and tends to merge
    the two rim routes between a boundary pair, losing cycles.  Here each
    boundary vertex stays its own class, every rim run between consecutive
    boundary vertices becomes one class, and each off-rim component becomes
    one class, so cycles along the attachment face survive."""
    try:
        emb = protrusion.embedding()
    except TCycleError:
        return
    B = set(boundary)
    for walk, fverts in zip(emb.walks, emb.face_vertices):
        if not walk or not B <= fverts:
            continue
        seq = [protrusion.edges[d >> 1][d & 1] for d in walk]
        start = next(i for i, v in enumerate(seq) if v in B)
        seq = seq[start:] + seq[:start]
        link = {v: [] for v in seq}
        for a, b in zip(seq, seq[1:]):
            if a not in B and b not in B:
                link[a].append(b)
                link[b].append(a)
        rim = set(seq)
        label = {}
        for piece in itertools.chain(
            pieces(rim - B, link.__getitem__),
            pieces(protrusion.vertices - rim, protrusion.neighbors),
        ):
            label.update(dict.fromkeys(piece, min(piece)))
        yield {v: label.get(v, v) for v in protrusion.vertices}


def verify_minor_map(host, pattern, branch):
    """Independent check that branch sets witness pattern as a rooted minor
    of host: a minor model in which each pattern vertex lies in its own
    branch set."""
    if any(p not in vs for p, vs in branch.items()):
        return False
    return is_minor_model(host, pattern, branch)


def is_minor_model(host, pattern, branch):
    """Independent check that branch sets witness pattern as a minor of
    host: one set per pattern vertex, disjoint, non-empty and connected in
    host, and a host edge behind every pattern edge."""
    seen = set()
    for p, vs in branch.items():
        if p not in pattern.vertices or not vs:
            return False
        if not vs <= host.vertices or vs & seen:
            return False
        seen |= vs
        comp = {min(vs)}
        stack = [min(vs)]
        while stack:
            x = stack.pop()
            for y in host.neighbors(x):
                if y in vs and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if comp != set(vs):
            return False
    if set(branch) != set(pattern.vertices):
        return False
    demand = {}
    for u, v in pattern.edges.values():
        if u != v:
            demand[frozenset((u, v))] = demand.get(frozenset((u, v)), 0) + 1
    for pair, need in demand.items():
        u, v = sorted(pair)
        supply = sum(
            1
            for a, b in host.edges.values()
            if (a in branch[u] and b in branch[v])
            or (a in branch[v] and b in branch[u])
        )
        if supply < need:
            return False
    return True


# -- splicing ---------------------------------------------------------------


def splice(host, pgraph, branch, boundary):
    """Contract each branch set of the part pgraph to its label inside the
    host, and delete the part vertices that no branch set holds.

    The result inherits the host's embedding, as rotation systems are
    closed under deletion and contraction (Mohar and Thomassen, Graphs on
    Surfaces, 2001).  Only the part's edges change: in each class a
    spanning tree of its edges is contracted and its other edges are
    deleted, and between two classes the two smallest edge ids survive,
    so the contracted region is the replacement _quotient(pgraph, rep)
    builds.  A merged vertex's rotation is the walk around its tree, and
    every other vertex keeps its host rotation without the deleted edges.
    Vertex and edge ids are the host's; a class takes its label's id, so
    each boundary vertex must label its own class.  The Euler trace of the
    result certifies the rotation.

    Raises SpliceError when a branch set is not connected through part
    edges or holds two boundary vertices, when an interior vertex touches
    the rest of the host, or when the contracted region's edge multiset
    differs from the replacement's."""
    B = frozenset(boundary)
    part = pgraph.vertices
    if not part <= host.vertices:
        raise SpliceError("part vertices are not host vertices")
    rep = {}
    for label, vs in branch.items():
        if len(vs & B) > 1:
            raise SpliceError(f"branch set of {label} holds two boundary vertices")
        if label not in vs or not vs <= part or not rep.keys().isdisjoint(vs):
            raise SpliceError(f"branch set of {label} is not its own set of part vertices")
        rep.update(dict.fromkeys(vs, label))
    for b in B:
        if rep.get(b) != b:
            raise SpliceError(f"boundary vertex {b} does not label its own branch set")
    part_edges = pgraph.edges
    rotation, hedges = host.rotation, host.edges
    for v in part - B:
        if not part_edges.keys() >= set(rotation.get(v, ())):
            raise SpliceError(f"interior vertex {v} touches the rest of the host")

    links = {v: [] for v in rep}  # edges inside one class
    across = {}  # pair of labels -> the edge ids between the two classes
    dead = set()
    for e in sorted(part_edges):
        if e not in hedges:
            raise SpliceError(f"part edge {e} is not a host edge")
        u, v = hedges[e]
        a, b = rep.get(u), rep.get(v)
        if a is None or b is None:
            dead.add(e)
        elif a == b:
            # contracted if the class's spanning tree takes it, else deleted
            dead.add(e)
            if u != v:
                links[u].append((v, e))
                links[v].append((u, e))
        else:
            across.setdefault((min(a, b), max(a, b)), []).append(e)
    if {pair: min(2, len(ids)) for pair, ids in across.items()} != _class_pairs(part_edges, rep):
        raise SpliceError("the contracted region's edges are not the replacement's")
    for ids in across.values():
        dead.update(ids[2:])

    vertices = (host.vertices - part) | branch.keys()
    edges = {e: uv for e, uv in hedges.items() if e not in dead}
    for ids in across.values():
        for e in ids[:2]:
            u, v = hedges[e]
            edges[e] = (rep[u], rep[v])
    rot = {v: r for v, r in rotation.items() if v not in part}
    for label, vs in branch.items():
        if len(vs) == 1:
            r = tuple([e for e in rotation.get(label, ()) if e not in dead])
        else:
            r = _tree_walk(rotation, hedges, label, vs, links, dead)
        if r:
            rot[label] = r
    hint = host.outer_hint if host.outer_hint and host.outer_hint <= vertices else None
    try:
        out = EmbeddedGraph(vertices, edges, rot, host.terminals - (part - B), hint)
        out.embedding()
    except TCycleError as exc:
        raise SpliceError(str(exc)) from exc
    return out


def _tree_walk(rotation, hedges, label, vs, links, dead):
    """The rotation of branch set vs contracted to one vertex: a spanning
    tree of its links, grown from label, is walked around, crossing each
    tree edge and emitting every other edge end that is not dead."""
    tree = set()
    seen = {label}
    stack = [label]
    while stack:
        for y, e in links[stack.pop()]:
            if y not in seen:
                seen.add(y)
                tree.add(e)
                stack.append(y)
    if len(seen) != len(vs):
        raise SpliceError(f"branch set of {label} is not connected through part edges")
    # where each tree edge sits in the rotation at either end; a tree edge
    # is no loop, so it sits there once
    at = {(x, e): i for x in vs for i, e in enumerate(rotation[x]) if e in tree}
    out = []
    x, i = label, 0
    while True:
        e = rotation[x][i]
        if e in tree:
            a, b = hedges[e]
            x = b if a == x else a
            i = at[x, e]
        elif e not in dead:
            out.append(e)
        i = (i + 1) % len(rotation[x])
        if x == label and i == 0:
            return tuple(out)


def part_graph(graph, part, boundary):
    """The part as its own instance: induced on part plus boundary, minus
    the host-side edges joining two boundary vertices."""
    sub = graph.subgraph(frozenset(part) | frozenset(boundary))
    bb = {
        eid
        for eid, (u, v) in sub.edges.items()
        if u in boundary and v in boundary
    }
    return sub.without_edges(bb)


# -- the assembled pipeline -------------------------------------------------


@dataclass
class KernelReport:
    """What kernelize did.  fates holds one (fate, part size, boundary
    size) entry per part it tried to replace, the part size counting the
    boundary.  A part is replaced by "contraction"; it is kept when it is
    "too-big" to try, when no smaller candidate keeps its profile
    ("no-smaller-candidate"), or when the final check "rejected" the
    replacement.  kept_verbatim counts the kept parts."""

    input_size: int
    final_size: int = 0
    stages: list = field(default_factory=list)
    replacements: list = field(default_factory=list)
    kept_verbatim: int = 0
    fates: list = field(default_factory=list)


def kernelize(graph, terminals=None, budget=None):
    """Shrink the instance while preserving the answer exactly.

    Stage 1 removes isolated vertices and yields a boundary set U; stage 2
    splits off protrusions around U and the terminals; stage 3 splits each
    protrusion into subprotrusions, and stage 4 swaps each of those for
    the smallest certified contraction with its profile.  Any part that is
    too big to certify is kept verbatim; report.fates says what became of
    each part.
    """
    T = set(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("no terminals")
    if not T <= graph.vertices:
        raise UnknownVertex(f"terminals {sorted(T - graph.vertices)}")
    report = KernelReport(input_size=len(graph.vertices))
    host = graph.with_terminals(T)

    g0 = budget.g if budget is not None else isolation_threshold(len(T))
    reduced, U, removal = reed_pipeline(host, budget=budget)
    report.stages.append(("reduce", len(host.vertices), len(reduced.vertices)))
    kernel = reduced

    S = (U | T) & kernel.vertices
    try:
        decomp = protrusion_decompose(kernel, S, 4 * g0)
    except ModulatorInvalid:
        report.stages.append(("protrusions", len(kernel.vertices), len(kernel.vertices)))
        report.final_size = len(kernel.vertices)
        return kernel, report

    for part, B in zip(decomp.parts, decomp.boundaries):
        pg = part_graph(kernel, part, B)
        try:
            nested = protrusion_decompose(pg, B, 4 * isolation_threshold(g0 + len(B)))
            jobs = zip(nested.parts, nested.boundaries)
        except ModulatorInvalid:
            jobs = [(part, B)]
        for sub, sub_b in jobs:
            pgraph = part_graph(kernel, sub, sub_b)
            n = len(pgraph.vertices)
            # mid-size parts cap the boundary harder: the segment sets that
            # the profile's DP run keeps grow steeply with the boundary
            cap = BOUNDARY_LIMIT if n <= SMALL_PART_LIMIT else BOUNDARY_LIMIT - 1
            if n > CONTRACTION_SIZE_LIMIT or len(sub_b) > cap:
                fate, found = "too-big", None
            else:
                fate, found = replacement_search(pgraph, sub_b)
            report.fates.append((fate, n, len(sub_b)))
            if found is None:
                report.kept_verbatim += 1
                continue
            _, certificate = found
            kernel = splice(kernel, pgraph, certificate["branch_sets"], sub_b)
            report.replacements.append(certificate)

    report.final_size = len(kernel.vertices)
    return kernel, report
