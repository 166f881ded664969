"""Kernelization: protrusion decomposition, linkage profiles, replacement
search and the assembled pipeline.

A protrusion is a part of the graph that meets the rest only in a small
boundary.  Two parts with the same boundary behave identically for loop
finding exactly when they enable the same linkages across that boundary,
so a part can be swapped for any smaller graph with an equal profile.

A profile is read off one boundaried run of the path DP
(`dp.boundary_linkages`): every boundary vertex ends the paths that reach
it, so the root table lists each set of boundary-to-boundary segments
the part holds.  Crossing patterns, closing matchings and cycle-covered
boundary subsets all follow from those segment sets, and comparing a
candidate with its target is one profile computation and an equality
test.  Each part's profile is computed once and shared by the search, the
contraction and the final check.  Every swap is certified before it is
made: the replacement's own profile must equal the part's, and the branch
sets that the search or the contraction returns must pass an independent
minor-model check.
"""

import functools
import itertools
from dataclasses import dataclass, field

from .decomposition import isolation_threshold, reed_pipeline
# solve_t_cycle stays reachable here: perfbench traces kernel.solve_t_cycle
from .dp import _merge, boundary_linkages, solve_t_cycle  # noqa: F401
from .errors import (
    BoundaryTooLarge,
    BudgetExceeded,
    InvalidConfiguration,
    ModulatorInvalid,
    SpliceError,
    TCycleError,
    UnknownVertex,
)
from .generate import embed_planar
from .graph import radial_bfs
from .oracle import brute_minor
from .treewidth import build, lca_closure, make_nice

BOUNDARY_LIMIT = 6
MINOR_HOST_LIMIT = 18
CONTRACTION_SIZE_LIMIT = 60
CONTRACTED_INTERIOR_LIMIT = 6


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


def protrusion_decompose(graph, modulator, eta, td=None):
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
    if td is None:
        # build validates the decomposition it returns
        td = build(rest)
        width = td.width
    else:
        width = td.validate(rest)
    if width > eta:
        raise ModulatorInvalid(
            f"graph minus modulator has width above {eta}"
        )
    nice = make_nice(td)

    sneigh = {
        v: graph.neighbors(v) & S for v in rest.vertices
    }

    adj = {v: rest.neighbors(v) for v in rest.vertices}

    def has_busy_component(vs):
        seen = set()
        for s in sorted(vs):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            hits = set(sneigh[s])
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in vs and y not in comp:
                        comp.add(y)
                        stack.append(y)
                        hits |= sneigh[y]
            seen |= comp
            if len(hits) >= 3:
                return True
        return False

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
        if not below and has_busy_component(vs):
            marked.add(node)
            below = True
        marked_below[node] = below

    closure = lca_closure(nice, marked)
    x0 = set(S)
    for node in closure:
        x0 |= nice.bags[node]

    leftover = graph.vertices - x0
    groups = {}
    seen = set()
    for s in sorted(leftover):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in graph.neighbors(x):
                if y in leftover and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        nb = frozenset()
        for v in comp:
            nb |= graph.neighbors(v)
        nb = frozenset(nb - comp)
        groups.setdefault(nb, set()).update(comp)
    keys = sorted(groups, key=lambda b: (sorted(b), min(groups[b], default=0)))
    parts = [frozenset(groups[b]) for b in keys]
    return ProtrusionDecomposition(frozenset(x0), parts, list(keys), eta)


# -- linkage profiles -------------------------------------------------------


def all_matchings(vertices):
    """Every set of disjoint unordered pairs over the given vertices,
    including the empty one."""
    vs = sorted(set(vertices))

    def rec(rest):
        if not rest:
            yield frozenset()
            return
        a = rest[0]
        yield from rec(rest[1:])
        for i, b in enumerate(rest[1:]):
            tail = rest[1 : i + 1] + rest[i + 2 :]
            for m in rec(tail):
                yield m | {frozenset((a, b))}

    yield from rec(vs)


@dataclass(frozen=True)
class LinkageProfile:
    boundary: frozenset
    feasible_dp: frozenset
    feasible_mc: frozenset
    feasible_cycle: frozenset


@functools.lru_cache(maxsize=None)
def _closings(k):
    """The matchings that close k paths, the i-th with ends 2i and 2i + 1,
    into one cycle."""
    ends = frozenset(frozenset((2 * i, 2 * i + 1)) for i in range(k))
    return tuple(m for m in all_matchings(range(2 * k)) if _merge(ends, m) == (frozenset(), 1))


def linkage_profile(graph, boundary, td=None):
    """How the graph can serve a loop that crosses its boundary.

    Three feasibility sets: crossing patterns (pair sets with each
    boundary vertex in at most two, realized by paths meeting the
    boundary in exactly the pattern's vertices), matchings that close
    into one cycle through fresh middle vertices, and boundary subsets
    lying together on some cycle.  Patterns rather than matchings in the
    first set because a loop may run straight through a boundary vertex
    inside the part, consuming it without stopping; the cycle set matters
    when an entire loop fits inside the part, which no path pattern can
    express.

    All three are read off one boundary run of the path DP, which lists
    the sets of boundary-to-boundary segments the graph holds.  Spliced
    at their shared ends, the segments of a set form paths and cycles, a
    loop segment or a doubled pair counting as a cycle.  A set with no
    cycle is a crossing pattern, and a matching on its path ends is
    feasible when it closes the paths into one cycle.  A set that forms
    one cycle and no path puts every non-empty subset of its vertices on
    a cycle."""
    B = frozenset(boundary)
    if len(B) > BOUNDARY_LIMIT:
        raise BoundaryTooLarge(f"boundary of {len(B)} is over {BOUNDARY_LIMIT}")
    if not B <= graph.vertices:
        raise UnknownVertex(f"boundary vertices {sorted(B - graph.vertices)}")
    fdp, fmc, fcy = set(), {frozenset()}, set()
    closing = {}  # path ends -> the matchings that close them into one cycle
    for segments in boundary_linkages(graph, B, td):
        ends, cycles = frozenset(), 0
        for segment in segments:
            ends, closed = _merge(ends, (segment,))
            cycles += closed
        if not cycles:
            fdp.add(frozenset(map(frozenset, segments)))
            if ends not in closing:
                label = [v for p in ends for v in p]
                closing[ends] = [
                    frozenset(frozenset((label[a], label[b])) for a, b in m)
                    for m in _closings(len(ends))
                ]
            fmc.update(closing[ends])
        elif cycles == 1 and not ends:
            on = sorted({v for s in segments for v in s})
            for r in range(1, len(on) + 1):
                fcy.update(map(frozenset, itertools.combinations(on, r)))
    return LinkageProfile(B, frozenset(fdp), frozenset(fmc), frozenset(fcy))


# -- replacement search -----------------------------------------------------


def _cycle_sets_match(nodes, edges, boundary, target):
    """Candidate pre-filter: the boundary subsets covered by the candidate's
    simple cycles equal the target's, computed on a bare adjacency so the
    search loop never embeds a candidate it is going to reject."""
    bset = set(boundary)
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order = {v: i for i, v in enumerate(nodes)}
    allowed = set(target.feasible_cycle)
    covered = set()

    def sweep(start, cur, visited):
        for w in adj[cur]:
            if w == start and len(visited) >= 3:
                on = frozenset(v for v in visited if v in bset)
                if on:
                    if on not in allowed:
                        return False
                    covered.add(on)
            elif order[w] > order[start] and w not in visited:
                visited.add(w)
                if not sweep(start, w, visited):
                    return False
                visited.remove(w)
        return True

    for s in nodes:
        if not sweep(s, s, {s}):
            return False
    full = set()
    for on in covered:
        for r in range(1, len(on) + 1):
            full.update(map(frozenset, itertools.combinations(on, r)))
    return full == allowed


def replacement_search(protrusion, boundary, candidate_cap=60000, target=None):
    """Smallest graph with the protrusion's boundary profile that is also a
    minor of it, or None if nothing smaller than the protrusion passes.

    Candidates are enumerated by vertex count, then edge count, then edge
    set; the boundary vertices keep their identities, extra vertices are
    fresh.  target is the protrusion's profile, computed here when not
    given.  The certificate's branch sets map each vertex of the result to
    the protrusion vertices it stands for; the minor is unrooted, so a
    boundary vertex need not lie in its own branch set.  Raises
    BudgetExceeded when the space is too big to finish.
    """
    B = sorted(set(boundary))
    if len(B) > BOUNDARY_LIMIT:
        raise BoundaryTooLarge(f"boundary of {len(B)} is over {BOUNDARY_LIMIT}")
    n_part = len(protrusion.vertices)
    if n_part > MINOR_HOST_LIMIT:
        raise BudgetExceeded("protrusion too large to certify a replacement")
    if n_part - 1 < len(B):
        return None
    if target is None:
        target = linkage_profile(protrusion, B)
    # degree lower bounds every viable candidate must meet: a boundary
    # vertex on some feasible cycle or passed through by some feasible
    # pattern needs two edges, one touched by any pattern or matching
    # needs at least one.  Extras always need two: a pendant extra sits
    # on no cycle and no path interior, so dropping it gives an
    # equal-profile candidate already tried at a smaller size.
    on_cycle = {v for s in target.feasible_cycle for v in s}
    for mm in target.feasible_dp:
        pdeg = {}
        for p in mm:
            for v in p:
                pdeg[v] = pdeg.get(v, 0) + 1
        on_cycle.update(v for v, c in pdeg.items() if c == 2)
    on_path = {
        v
        for fs in (target.feasible_dp, target.feasible_mc)
        for mm in fs
        for p in mm
        for v in p
    }
    # vertex groups any viable candidate must keep connected
    together = {frozenset(s) for s in target.feasible_cycle if len(s) > 1}
    for fs in (target.feasible_dp, target.feasible_mc):
        for mm in fs:
            together.update(p for p in mm)
    together = [tuple(s) for s in together]
    fresh_base = max(list(protrusion.vertices) + [0]) + 1
    tried = 0
    for n_h in range(len(B), n_part):
        extras = list(range(fresh_base, fresh_base + n_h - len(B)))
        nodes = B + extras
        min_deg = {v: 2 if v in on_cycle else 1 if v in on_path else 0 for v in B}
        min_deg.update(dict.fromkeys(extras, 2))
        pairs = list(itertools.combinations(nodes, 2))
        space = 2 ** len(pairs)
        if tried + space > candidate_cap:
            raise BudgetExceeded(
                f"{space} candidates at {n_h} vertices is over the cap"
            )
        for m in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, m):
                tried += 1
                deg = dict.fromkeys(nodes, 0)
                for a, b in combo:
                    deg[a] += 1
                    deg[b] += 1
                if any(deg[v] < need for v, need in min_deg.items()):
                    continue
                root = {v: v for v in nodes}

                def find(v):
                    while root[v] != v:
                        root[v] = root[root[v]]
                        v = root[v]
                    return v

                for a, b in combo:
                    root[find(a)] = find(b)
                if any(
                    len({find(v) for v in grp}) > 1 for grp in together
                ):
                    continue
                if not _cycle_sets_match(nodes, combo, B, target):
                    continue
                try:
                    # nodes are sorted, so combo lists its pairs in order
                    H = embed_planar(nodes, dict(enumerate(combo, 1)))
                except TCycleError:  # not planar
                    continue
                if linkage_profile(H, B) != target:
                    continue
                branch = brute_minor(protrusion, H)
                if branch is None:
                    continue
                return H, {
                    "candidates": tried,
                    "old_size": n_part,
                    "new_size": n_h,
                    "branch_sets": branch,
                }
    return None


def contraction_replacement(protrusion, boundary, target=None):
    """A smaller profile-equal graph obtained by contracting the interior.

    Unlike the exhaustive search this scales to protrusions of any size:
    the result is a minor by construction, certified by explicit branch
    sets.  The candidates are the levels of one farthest-first contraction
    of the interior, down to at most CONTRACTED_INTERIOR_LIMIT interior
    vertices, and the rim quotients; the smallest whose profile still
    matches wins, the levels first on ties.  target is the protrusion's
    profile, computed here when not given.  Returns None when every
    candidate changes the profile.
    """
    B = sorted(set(boundary))
    if len(B) > BOUNDARY_LIMIT:
        raise BoundaryTooLarge(f"boundary of {len(B)} is over {BOUNDARY_LIMIT}")
    interior = sorted(protrusion.vertices - set(B))
    if not interior:
        return None
    if target is None:
        target = linkage_profile(protrusion, B)
    top = min(CONTRACTED_INTERIOR_LIMIT, len(interior) - 1)
    levels = [_quotient(protrusion, rep) for rep in _contraction_levels(protrusion, B, top)]
    candidates = [q for q in levels if q is not None] + _rim_quotients(protrusion, B)
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
    sets), or None when the quotient is not planar.

    Parallel edges are kept, capped at two per pair: collapsing them would
    lose the difference between one and two disjoint routes, which the
    cycle part of the profile can see."""
    classes = {}
    for v in protrusion.vertices:
        if v in rep:
            classes.setdefault(rep[v], set()).add(v)
    mult = {}
    for u, v in protrusion.edges.values():
        if u in rep and v in rep and rep[u] != rep[v]:
            pair = tuple(sorted((rep[u], rep[v])))
            mult[pair] = mult.get(pair, 0) + 1
    edges = {}
    for pair in sorted(mult):
        for _ in range(min(2, mult[pair])):
            edges[len(edges) + 1] = pair
    try:
        H = embed_planar(set(classes), edges)
    except TCycleError:
        return None
    return H, {r: frozenset(vs) for r, vs in classes.items()}


def _rim_quotients(protrusion, boundary, cap=4):
    """Quotients that keep a face holding the whole boundary as a cycle.

    Farthest-first contraction is blind to the embedding and tends to merge
    the two rim routes between a boundary pair, losing cycles.  Here each
    boundary vertex stays its own class, every rim run between consecutive
    boundary vertices becomes one class, and each off-rim component becomes
    one class, so cycles along the attachment face survive."""
    try:
        emb = protrusion.embedding()
    except TCycleError:
        return []
    B = set(boundary)
    parent = {v: v for v in protrusion.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            ra, rb = sorted((ra, rb))
            parent[rb] = ra

    out = []
    for face in emb.faces:
        if not face.walk or not B <= face.vertices:
            continue
        seq = []
        for eid, side in face.walk:
            u, v = protrusion.edges[eid]
            seq.append(u if side == 0 else v)
        start = next(i for i, v in enumerate(seq) if v in B)
        seq = seq[start:] + seq[:start]
        for v in parent:
            parent[v] = v
        anchor = None
        for v in seq:
            if v in B:
                anchor = None
            else:
                if anchor is not None:
                    union(anchor, v)
                anchor = v
        rim = set(seq)
        left = protrusion.vertices - rim
        for s in sorted(left):
            for y in protrusion.neighbors(s):
                if y in left:
                    union(s, y)
        rep = {v: (v if v in B else find(v)) for v in protrusion.vertices}
        got = _quotient(protrusion, rep)
        if got is not None:
            out.append(got)
        if len(out) >= cap:
            break
    return out


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


def splice(host, part, replacement, boundary):
    """Replace the interior of part (everything off the boundary) with the
    replacement graph; the result is re-embedded and re-validated."""
    B = frozenset(boundary)
    part = frozenset(part)
    interior = part - B
    if not B <= replacement.vertices:
        raise SpliceError("replacement misses boundary vertices")
    for v in interior:
        if not host.neighbors(v) <= part:
            raise SpliceError("part interior touches the rest of the host")
    keep = host.vertices - interior
    vertices = set(keep)
    edges = {
        eid: (u, v)
        for eid, (u, v) in host.edges.items()
        if u in keep and v in keep
    }
    relabel = {}
    nxt = max(list(host.vertices) + [0]) + 1
    for v in sorted(replacement.vertices):
        if v in B:
            relabel[v] = v
        else:
            relabel[v] = nxt
            nxt += 1
    vertices |= set(relabel.values())
    eid = max(list(host.edges) + [0]) + 1
    for old in sorted(replacement.edges):
        u, v = replacement.edges[old]
        edges[eid] = tuple(sorted((relabel[u], relabel[v])))
        eid += 1
    try:
        out = embed_planar(vertices, edges, host.terminals & vertices)
        out.embedding()
    except TCycleError as exc:
        raise SpliceError(str(exc)) from exc
    return out


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
    boundary.  A part is replaced by "search" or "contraction"; it is
    kept when it is "too-big" to try, when the search hit its
    "budget-exceeded" and contraction found nothing, when nothing smaller
    passed ("no-smaller-candidate"), or when the final check "rejected"
    the replacement.  kept_verbatim counts the kept parts."""

    input_size: int
    final_size: int = 0
    stages: list = field(default_factory=list)
    replacements: list = field(default_factory=list)
    kept_verbatim: int = 0
    fates: list = field(default_factory=list)


def _linkage_irrelevant_sweep(graph, part, boundary, threshold):
    """Fixpoint deletion of interior vertices isolated from the boundary."""
    pg = part_graph(graph, part, boundary)
    gone = set()
    while True:
        # radial distance is symmetric: one BFS from the boundary decides
        # isolation for every interior vertex
        dist = radial_bfs(pg, sorted(boundary))
        far = {
            v
            for v in pg.vertices - boundary
            if dist.get(v, threshold + 1) > threshold
        }
        if not far:
            return gone
        gone |= far
        pg = pg.without_vertices(far)


def _replace_part(pgraph, boundary, search, contract):
    """The part's fate, and a certified smaller replacement for it as
    (graph, certificate) or None when it is kept.  search and contract say
    which methods may run; the search goes first.  The part's profile is
    computed once and shared by both methods and the final check."""
    if not (search or contract):
        return "too-big", None
    target = linkage_profile(pgraph, boundary)
    found, kept = None, "no-smaller-candidate"
    if search:
        try:
            found = replacement_search(pgraph, boundary, target=target)
            method = "search"
        except BudgetExceeded:
            kept = "budget-exceeded"
    if found is None and contract:
        found = contraction_replacement(pgraph, boundary, target=target)
        method = "contraction"
    if found is None:
        return kept, None
    H, certificate = found
    # re-verify independently of how the candidate was found: H's own
    # profile, and the branch sets by a model check that shares no code
    # with the search or the contraction.  The search's minor is unrooted,
    # its extra vertices being fresh ids.
    check = verify_minor_map if method == "contraction" else is_minor_model
    if not (
        len(H.vertices) < len(pgraph.vertices)
        and linkage_profile(H, boundary) == target
        and check(pgraph, H, certificate["branch_sets"])
    ):
        return "rejected", None
    certificate["method"] = method
    certificate["verified"] = True
    return method, found


def kernelize(graph, terminals=None, budget=None, level=2):
    """Shrink the instance while preserving the answer exactly.

    Stage 1 removes isolated vertices and yields a boundary set U; stage 2
    splits off protrusions around U and the terminals; per protrusion,
    stage 3 deletes interior vertices isolated from its boundary, stage 4
    splits the rest into subprotrusions, and stage 5 swaps each for the
    smallest certified equivalent.  Any part that is too big to certify
    is kept verbatim; report.fates says what became of each part.
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
        part = part & kernel.vertices
        if not part:
            continue
        if level >= 2:
            t3 = budget.g if budget is not None else isolation_threshold(
                g0 + len(B)
            )
            gone = _linkage_irrelevant_sweep(kernel, part, B, t3)
            if gone:
                kernel = kernel.without_vertices(gone)
                part = part - gone
                report.stages.append(("part-sweep", len(gone) + len(part), len(part)))
            if not part:
                continue
            pg = part_graph(kernel, part, B)
            try:
                nested = protrusion_decompose(
                    pg, B, 4 * isolation_threshold(g0 + len(B))
                )
                jobs = [
                    (y & part, yb)
                    for y, yb in zip(nested.parts, nested.boundaries)
                ]
            except ModulatorInvalid:
                jobs = [(part, B)]
        else:
            jobs = [(part, B)]
        for sub, sub_b in jobs:
            if not sub:
                continue
            pgraph = part_graph(kernel, sub, sub_b)
            n = len(pgraph.vertices)
            small = n <= MINOR_HOST_LIMIT
            search = small and len(sub_b) <= BOUNDARY_LIMIT
            # mid-size parts cap the boundary harder: the segment sets that
            # the profile's DP run keeps grow steeply with the boundary
            mid = n <= CONTRACTION_SIZE_LIMIT and len(sub_b) <= BOUNDARY_LIMIT - 1
            contract = len(sub_b) <= BOUNDARY_LIMIT and (small or mid)
            fate, found = _replace_part(pgraph, sub_b, search, contract)
            report.fates.append((fate, n, len(sub_b)))
            if found is None:
                report.kept_verbatim += 1
                continue
            H, certificate = found
            kernel = splice(kernel, sub | sub_b, H, sub_b)
            report.replacements.append(certificate)

    report.final_size = len(kernel.vertices)
    return kernel, report
