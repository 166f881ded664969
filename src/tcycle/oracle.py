"""Exhaustive brute-force oracles.

Every oracle is guaranteed-correct within an explicit size range and raises
SizeLimitExceeded beyond it; none of them degrade silently.  They exist to
certify the clever implementations, so they share no code with them beyond
the embedded-graph plumbing.
"""

from collections import Counter

from .errors import InvalidConfiguration, SizeLimitExceeded, UnknownVertex
from .graph import both_disks, cycle_vertices, disk_of_cycle

T_CYCLE_LIMIT = 18
PATHS_LIMIT = 18
MINOR_HOST_LIMIT = 18
MINOR_PATTERN_LIMIT = 8
ISOLATION_LIMIT = 14
CHEAP_LOOP_LIMIT = 16


def _adjacency(graph):
    adj = {v: [] for v in graph.vertices}
    for eid, (u, v) in graph.edges.items():
        if u == v:
            continue
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    for v in adj:
        adj[v].sort()
    return adj


def all_cycles(graph, max_count=None):
    """Every simple cycle, as a frozenset of edge ids.

    Parallel edges yield 2-cycles; loops are ignored (a loop is not a simple
    cycle through two or more vertices and no pipeline accepts them).
    """
    adj = _adjacency(graph)
    cycles = set()
    order = sorted(graph.vertices)

    def dfs(start, cur, path_edges, on_path):
        for eid, w in adj[cur]:
            if w == start and path_edges and eid != path_edges[0]:
                c = frozenset(path_edges + [eid])
                if len(c) == len(path_edges) + 1:
                    cycles.add(c)
                    if max_count is not None and len(cycles) > max_count:
                        raise SizeLimitExceeded(
                            f"more than {max_count} cycles"
                        )
            elif w > start and w not in on_path and eid not in path_edges:
                on_path.add(w)
                path_edges.append(eid)
                dfs(start, w, path_edges, on_path)
                path_edges.pop()
                on_path.remove(w)

    for s in order:
        dfs(s, s, [], {s})
    return cycles


def is_t_loop(graph, terminals, edge_ids):
    """Check that edge_ids forms one simple cycle through every terminal."""
    try:
        verts = cycle_vertices(graph, edge_ids)
    except Exception:
        return False
    return frozenset(terminals) <= verts


def brute_t_cycle(graph, terminals=None):
    """Exhaustive search for a simple cycle through all terminals.

    Returns an ordered list of edge ids, or None.  Exhaustive for
    |V| <= 18.
    """
    T = frozenset(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("terminal set is empty")
    if not T <= graph.vertices:
        raise UnknownVertex("terminal outside graph")
    if len(graph.vertices) > T_CYCLE_LIMIT:
        raise SizeLimitExceeded(f"brute_t_cycle is exhaustive only to n={T_CYCLE_LIMIT}")
    adj = _adjacency(graph)
    t0 = min(T)

    def reachable_ok(cur, visited):
        # every unvisited terminal and t0 must be reachable from cur
        # through unvisited vertices
        blocked = visited - {cur, t0}
        need = (T - visited) | {t0}
        seen = {cur}
        stack = [cur]
        while stack:
            x = stack.pop()
            for _, w in adj[x]:
                if w not in seen and w not in blocked:
                    seen.add(w)
                    stack.append(w)
        return need <= seen

    path_edges = []
    visited = {t0}

    def dfs(cur):
        if not reachable_ok(cur, visited):
            return None
        for eid, w in adj[cur]:
            if w == t0 and path_edges and eid != path_edges[0]:
                if T <= visited and len(set(path_edges + [eid])) == len(path_edges) + 1:
                    return path_edges + [eid]
            elif w != t0 and w not in visited:
                visited.add(w)
                path_edges.append(eid)
                got = dfs(w)
                if got is not None:
                    return got
                path_edges.pop()
                visited.remove(w)
        return None

    return dfs(t0)


def check_matching(graph, pairs):
    """A matching over vertices: unordered pairs, distinct endpoints, and no
    vertex in more than one pair."""
    seen = Counter()
    out = []
    for pair in pairs:
        u, v = tuple(pair)
        if u == v:
            raise InvalidConfiguration(f"pair ({u},{v}) has equal endpoints")
        if u not in graph.vertices or v not in graph.vertices:
            raise UnknownVertex(f"pair ({u},{v}) outside graph")
        seen[u] += 1
        seen[v] += 1
        out.append(frozenset((u, v)))
    if seen and seen.most_common(1)[0][1] > 1:
        raise InvalidConfiguration("vertex appears in more than one pair")
    if len(set(out)) != len(out):
        raise InvalidConfiguration("duplicate pair")
    return out


def brute_disjoint_paths(graph, pairs):
    """Internally vertex-disjoint paths realizing all pairs, or None.

    A matched vertex may appear in a path only as its endpoint.  Returns a
    list of vertex paths aligned with pairs.  Exhaustive for |V| <= 18.
    """
    pairs = check_matching(graph, pairs)
    if len(graph.vertices) > PATHS_LIMIT:
        raise SizeLimitExceeded(f"brute_disjoint_paths is exhaustive only to n={PATHS_LIMIT}")
    if not pairs:
        return []
    adj = _adjacency(graph)
    endpoints = {v for p in pairs for v in p}
    solution = []

    def paths_from(a, b, used):
        # all simple a..b paths with interior avoiding endpoints and used
        out = []
        path = [a]

        def dfs(cur):
            for _, w in adj[cur]:
                if w == b:
                    out.append(path + [b])
                elif w not in endpoints and w not in used and w not in path:
                    path.append(w)
                    dfs(w)
                    path.pop()

        dfs(a)
        return out

    def solve(i, used):
        if i == len(pairs):
            return True
        a, b = sorted(pairs[i])
        for p in paths_from(a, b, used):
            interior = set(p[1:-1])
            solution.append(p)
            if solve(i + 1, used | interior):
                return True
            solution.pop()
        return False

    if solve(0, set()):
        return solution
    return None


# -- minor containment -----------------------------------------------------


def _connected_subsets(adjmask, nodes, size_cap, budget):
    """All connected vertex subsets (as bitmasks) up to size_cap."""
    out = []
    n = len(nodes)
    for i in range(n):
        # subsets whose minimum element is nodes[i]
        start = 1 << i
        stack = [(start, adjmask[i] & ~((1 << (i + 1)) - 1))]
        seen = {start}
        while stack:
            mask, frontier = stack.pop()
            out.append(mask)
            if len(out) > budget:
                raise SizeLimitExceeded("minor search budget exhausted")
            if mask.bit_count() >= size_cap:
                continue
            f = frontier
            while f:
                low = f & -f
                f ^= low
                j = low.bit_length() - 1
                m2 = mask | low
                if m2 not in seen:
                    seen.add(m2)
                    nf = (frontier | adjmask[j]) & ~m2 & ~((1 << (i + 1)) - 1) & ~low
                    stack.append((m2, nf))
    return out


def brute_minor(host, pattern):
    """Branch sets witnessing pattern as a minor of host, or None.

    Both are EmbeddedGraphs (only their abstract structure is used).  The
    result maps each pattern vertex to a frozenset of host vertices; a
    pattern with no vertices gives {}, so test the result with `is not
    None`.  Connected subsets are generated one size at a time, and a
    size only once the search has tried every smaller subset, so a model
    with small branch sets never lists the large ones.  Candidates are
    tried smallest first, and the first model found is returned.
    Exhaustive for |V(host)| <= 18 and |V(pattern)| <= 8."""
    hv = sorted(host.vertices)
    pv = sorted(pattern.vertices)
    if len(hv) > MINOR_HOST_LIMIT:
        raise SizeLimitExceeded(f"host larger than {MINOR_HOST_LIMIT}")
    if len(pv) > MINOR_PATTERN_LIMIT:
        raise SizeLimitExceeded(f"pattern larger than {MINOR_PATTERN_LIMIT}")
    if len(pv) > len(hv):
        return None
    hidx = {v: i for i, v in enumerate(hv)}
    adjmask = [0] * len(hv)
    for u, v in host.edges.values():
        if u != v:
            adjmask[hidx[u]] |= 1 << hidx[v]
            adjmask[hidx[v]] |= 1 << hidx[u]
    # simple pattern adjacency
    padj = {v: set() for v in pv}
    pedges = set()
    for u, v in pattern.edges.values():
        if u != v:
            padj[u].add(v)
            padj[v].add(u)
            pedges.add(frozenset((u, v)))
    if len(pedges) > len(host.edges):
        return None
    size_cap = len(hv) - len(pv) + 1

    # subsets holds the levels generated so far, smallest size first; the
    # size-s level is the size-s part of the subsets up to size s, in the
    # order _connected_subsets lists them, so the search sees the same
    # sequence as over the full size-sorted list
    subsets = []
    nbr = {}
    level = 0

    def grow():
        """Append the next level; False once the size cap is reached."""
        nonlocal level
        if level == size_cap:
            return False
        level += 1
        fresh = [
            m
            for m in _connected_subsets(adjmask, hv, level, budget=2_000_000)
            if m.bit_count() == level
        ]
        for mask in fresh:
            m, acc = mask, 0
            while m:
                low = m & -m
                m ^= low
                acc |= adjmask[low.bit_length() - 1]
            nbr[mask] = acc & ~mask
        subsets.extend(fresh)
        return True

    # order pattern vertices so each (after the first in its component)
    # has an earlier neighbor
    order = []
    placed = set()
    for root in pv:
        if root in placed:
            continue
        queue = [root]
        placed.add(root)
        while queue:
            x = queue.pop(0)
            order.append(x)
            for y in sorted(padj[x]):
                if y not in placed:
                    placed.add(y)
                    queue.append(y)
    pos = {p: i for i, p in enumerate(order)}

    assigned = [0] * len(order)

    def place(i, used):
        if i == len(order):
            return True
        p = order[i]
        earlier = [assigned[pos[q]] for q in padj[p] if pos[q] < i]
        remaining_after = len(order) - i - 1
        done = 0
        while done < len(subsets) or grow():
            batch = subsets[done:]
            done += len(batch)
            for mask in batch:
                if mask & used:
                    continue
                if len(hv) - (used | mask).bit_count() < remaining_after:
                    continue
                if any(not (nbr[mask] & em) for em in earlier):
                    continue
                assigned[i] = mask
                if place(i + 1, used | mask):
                    return True
        return False

    if not place(0, 0):
        return None
    return {
        p: frozenset(hv[j] for j in range(len(hv)) if assigned[i] >> j & 1)
        for i, p in enumerate(order)
    }


# -- isolation by concentric cycles ----------------------------------------


class IsolationOracle:
    """Exhaustive test for isolation by nested vertex-disjoint cycles.

    A query (v, T, l) asks for l+1 pairwise disjoint cycles C_0 .. C_l and
    nested closed disks D_0 in D_1 in ... with v in D_0 and no vertex of T
    in D_l.  Sides of each cycle are chosen freely (sphere view), so no
    outer-face designation is needed.  Exhaustive for |V| <= 14.
    """

    def __init__(self, graph, max_cycles=4000):
        if len(graph.vertices) > ISOLATION_LIMIT:
            raise SizeLimitExceeded(f"isolation oracle is exhaustive only to n={ISOLATION_LIMIT}")
        self.graph = graph
        emb = graph.embedding()
        self.nodes = []  # (closure_vertex_mask, face_mask, cycle_vertex_mask)
        vidx = {v: i for i, v in enumerate(sorted(graph.vertices))}
        self.vidx = vidx
        for cyc in all_cycles(graph, max_count=max_cycles):
            for dk in both_disks(graph, cyc, emb):
                vmask = 0
                for v in dk.vertices:
                    vmask |= 1 << vidx[v]
                cmask = 0
                for v in dk.cycle_verts:
                    cmask |= 1 << vidx[v]
                fmask = 0
                for f in dk.inside_faces:
                    fmask |= 1 << f
                self.nodes.append((vmask, fmask, cmask))
        self.nodes.sort(key=lambda n: bin(n[1]).count("1"))
        self.preds = [[] for _ in self.nodes]
        for j, (vj, fj, cj) in enumerate(self.nodes):
            for i in range(j):
                vi, fi, ci = self.nodes[i]
                if fi | fj == fj and fi != fj and not (cj & vi):
                    self.preds[j].append(i)

    def query(self, v, terminals, level):
        if v not in self.graph.vertices:
            raise UnknownVertex(f"vertex {v}")
        if level < 0:
            raise InvalidConfiguration(f"isolation level {level} is negative")
        vbit = 1 << self.vidx[v]
        tmask = 0
        for t in terminals:
            tmask |= 1 << self.vidx[t]
        best = [0] * len(self.nodes)
        ans = False
        for j, (vj, fj, cj) in enumerate(self.nodes):
            b = 1 if (vj & vbit) else 0
            for i in self.preds[j]:
                if best[i]:
                    b = max(b, best[i] + 1)
            best[j] = b
            if b >= level + 1 and not (vj & tmask):
                ans = True
        return ans


def brute_isolation(graph, terminals, v, level):
    """One-shot form of IsolationOracle; build the oracle once when asking
    many queries about the same graph."""
    return IsolationOracle(graph).query(v, terminals, level)


def max_nested_cycles(graph, max_cycles=4000):
    """Length of the longest chain of nested pairwise disjoint cycles."""
    if len(graph.vertices) > ISOLATION_LIMIT:
        raise SizeLimitExceeded(f"exhaustive only to n={ISOLATION_LIMIT}")
    if not graph.vertices:
        return 0
    orc = IsolationOracle(graph, max_cycles)
    best = [0] * len(orc.nodes)
    top = 0
    for j in range(len(orc.nodes)):
        b = 1
        for i in orc.preds[j]:
            b = max(b, best[i] + 1)
        best[j] = b
        top = max(top, b)
    return top


# -- cheap loops -----------------------------------------------------------


def enumerate_cheap_loops(graph, cycle_edge_sets, terminals=None):
    """All minimum-cost T-loops of a cycles-and-loop configuration.

    cycle_edge_sets are the concentric cycles C_0 .. C_r (validated by the
    caller); the cost of a loop is the number of its edges outside every
    C_i.  Requires no terminal inside the closed disk of C_r.  Returns
    (cost, [loop edge sets]).  Exhaustive for |V| <= 16.
    """
    T = frozenset(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("terminal set is empty")
    if len(graph.vertices) > CHEAP_LOOP_LIMIT:
        raise SizeLimitExceeded(f"exhaustive only to n={CHEAP_LOOP_LIMIT}")
    if not cycle_edge_sets:
        raise InvalidConfiguration("no concentric cycles given")
    outer_disk = disk_of_cycle(graph, cycle_edge_sets[-1])
    if T & outer_disk.vertices:
        raise InvalidConfiguration("terminal inside the outermost disk")
    free = frozenset(e for c in cycle_edge_sets for e in c)
    loops = []
    best = None
    for cyc in all_cycles(graph):
        if not T <= cycle_vertices(graph, cyc):
            continue
        cost = len(cyc - free)
        if best is None or cost < best:
            best = cost
            loops = [cyc]
        elif cost == best:
            loops.append(cyc)
    return best, loops
