"""Dynamic programming over nice tree decompositions.

Solves T-Cycle (with witness), vertex-disjoint linkages for a matching,
and the subdivided M-cycle variant.  Each edge of the graph is charged to
the node closest to the root whose bag contains both endpoints, so it is
considered exactly once.  That node is the deeper of the two endpoints'
topmost nodes: the nodes holding both endpoints form a subtree, and its
top is whichever of the two topmost nodes lies below the other.

T-Cycle witnesses are backpointers, not edge sets: None at a leaf,
("e", eid, prev) where an edge step took eid, and ("j", wa, wb) at a join.
States share their history this way, and the edge set of the one state
that answers is rebuilt once at the root.

Both joins group each child table by degree vector.  Per group, two
bitmasks mark the bag positions of nonzero degree and of degree at
capacity; two groups can be combined iff neither one's full positions
meet the other's nonzero ones, and the summed degrees are formed once per
compatible pair of groups rather than per pair of states.  Within a pair
of groups the open paths of the two states are spliced by `_merge`, a
walk over a mate map of path ends, and each join keeps the merge of every
distinct pair of pairings it meets for the length of that one join.

At the end of a run each DP logs one DEBUG line to the "tcycle.dp"
logger: nodes, joins, the peak table size and the number of distinct
merges.
"""

import logging
from operator import add

from .errors import InvalidConfiguration, TCycleError
from .graph import EmbeddedGraph
from .oracle import check_matching, is_t_loop
from .treewidth import NiceTreeDecomposition, TreeDecomposition, build, make_nice

_log = logging.getLogger("tcycle.dp")


def _prepare(graph, td):
    """Nice decomposition plus the edge-to-node assignment."""
    if td is None:
        td = build(graph)
    if not isinstance(td, NiceTreeDecomposition):
        td = make_nice(td)
    td.validate(graph)
    depth = {td.root: 0}
    top = {}
    stack = [td.root]
    while stack:
        x = stack.pop()
        for v in td.bags[x]:
            top.setdefault(v, x)  # parents come first, so this is v's top
        for c in td.children[x]:
            depth[c] = depth[x] + 1
            stack.append(c)
    assign = {n: [] for n in td.bags}
    for eid in sorted(graph.edges):
        u, v = graph.edges[eid]
        if u == v:
            continue  # a loop edge is never part of a simple cycle or path
        assign[max(top[u], top[v], key=depth.__getitem__)].append(eid)
    return td, assign


def _merge(pa, pb):
    """Splice two sets of open paths, each given as a set of end pairs in
    which no end occurs twice; an end occurring in both sets is where two
    paths meet.  Returns (end pairs of the spliced paths, number of cycles
    closed), the pairs as a frozenset of frozensets."""
    mate = {}
    for x, y in pa:
        mate[x] = y
        mate[y] = x
    cycles = 0
    for x, y in pb:
        # the far end of the path that x (y) ends, or x (y) itself
        fx = mate.pop(x, x)
        fy = mate.pop(y, y)
        if fx == y:  # x and y end the same path, which now closes
            cycles += 1
        else:
            mate[fx] = fy
            mate[fy] = fx
    pairs = []
    while mate:
        x, y = mate.popitem()
        del mate[y]
        pairs.append(frozenset((x, y)))
    return frozenset(pairs), cycles


def _compatible_groups(table_a, table_b, caps):
    """Pair up the degree-vector groups of two child tables whose summed
    degrees stay within caps; yields (summed degrees, states of a, states
    of b).  A state is a tuple whose first field is its degree vector, and
    no degree in either table exceeds its cap."""
    groups_b = _degree_groups(table_b, caps)
    for da, nz_a, full_a, states_a in _degree_groups(table_a, caps):
        for db, nz_b, full_b, states_b in groups_b:
            if full_a & nz_b or full_b & nz_a:
                continue
            yield tuple(map(add, da, db)), states_a, states_b


def _degree_groups(table, caps):
    """(degree vector, mask of nonzero positions, mask of positions at
    capacity, the states with that vector) per degree vector in table."""
    states = {}
    for state in table:
        states.setdefault(state[0], []).append(state)
    groups = []
    for degs, group in states.items():
        nz = full = 0
        for i, (d, cap) in enumerate(zip(degs, caps)):
            if d:
                nz |= 1 << i
                if d == cap:
                    full |= 1 << i
        groups.append((degs, nz, full, group))
    return groups


class _TCycleDP:
    """State: per-bag-vertex degrees, pairing of the open path ends, and a
    closed flag; values carry one witness backpointer per state."""

    def __init__(self, graph, terminals, td, assign):
        self.g = graph
        self.T = frozenset(terminals)
        self.td = td
        self.assign = assign
        self.merges = 0  # distinct pairs of pairings merged, over all joins

    def run(self):
        tables = {}
        joins = peak = 0
        for node in self.td.postorder():
            kind = self.td.kind[node]
            bag = tuple(sorted(self.td.bags[node]))
            if kind == "leaf":
                table = {((), frozenset(), False): None}
            elif kind == "introduce":
                table = self._introduce(tables, node, bag)
            elif kind == "forget":
                table = self._forget(tables, node, bag)
            else:
                table = self._join(tables, node, bag)
                joins += 1
            for c in self.td.children[node]:
                del tables[c]
            for eid in self.assign[node]:
                table = self._edge(table, bag, eid)
            tables[node] = table
            peak = max(peak, len(table))
        _log.debug(
            "t-cycle: %d nodes, %d joins, peak table %d, %d distinct merges",
            len(self.td.bags), joins, peak, self.merges,
        )
        root = tables[self.td.root]
        key = ((), frozenset(), True)
        if key not in root:
            return None
        edges = []
        stack = [root[key]]
        while stack:
            wit = stack.pop()
            if wit is None:
                continue
            if wit[0] == "e":
                edges.append(wit[1])
                stack.append(wit[2])
            else:
                stack.extend(wit[1:])
        return edges

    def _introduce(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = self.td.distinguished(node)
        pos = bag.index(v)
        out = {}
        for (degs, pairs, closed), wit in tables[child].items():
            ndegs = degs[:pos] + (0,) + degs[pos:]
            out[(ndegs, pairs, closed)] = wit
        return out

    def _forget(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = self.td.distinguished(node)
        cbag = tuple(sorted(self.td.bags[child]))
        pos = cbag.index(v)
        out = {}
        for (degs, pairs, closed), wit in tables[child].items():
            d = degs[pos]
            if v in self.T:
                if d != 2:
                    continue
            elif d not in (0, 2):
                continue
            key = (degs[:pos] + degs[pos + 1 :], pairs, closed)
            out.setdefault(key, wit)
        return out

    def _join(self, tables, node, bag):
        a, b = self.td.children[node]
        ta, tb = tables[a], tables[b]
        out = {}
        merged = {}
        for degs, states_a, states_b in _compatible_groups(ta, tb, (2,) * len(bag)):
            for ka in states_a:
                _, pa, ca = ka
                for kb in states_b:
                    _, pb, cb = kb
                    if ca and cb:
                        continue
                    m = merged.get((pa, pb))
                    if m is None:
                        m = merged[pa, pb] = _merge(pa, pb)
                    pairs, cycles = m
                    if cycles > 1 or (cycles and (ca or cb)):
                        continue
                    closed = ca or cb or cycles == 1
                    if closed and pairs:
                        continue
                    key = (degs, pairs, closed)
                    if key not in out:
                        out[key] = ("j", ta[ka], tb[kb])
        self.merges += len(merged)
        return out

    def _edge(self, table, bag, eid):
        u, v = self.g.edges[eid]
        iu, iv = bag.index(u), bag.index(v)
        out = dict(table)
        for (degs, pairs, closed), wit in table.items():
            if closed or degs[iu] >= 2 or degs[iv] >= 2:
                continue
            ndegs = list(degs)
            ndegs[iu] += 1
            ndegs[iv] += 1
            ndegs = tuple(ndegs)
            pu = next((p for p in pairs if u in p), None)
            pv = next((p for p in pairs if v in p), None)
            if pu is None and pv is None:
                key = (ndegs, pairs | {frozenset({u, v})}, False)
            elif pu is None or pv is None:
                p = pu or pv
                x, y = (u, v) if pu is None else (v, u)
                (other,) = p - {y}
                if other == x:
                    continue
                key = (ndegs, (pairs - {p}) | {frozenset({x, other})}, False)
            elif pu == pv:
                if len(pairs) != 1:
                    continue
                key = (ndegs, frozenset(), True)
            else:
                (x,) = pu - {u}
                (y,) = pv - {v}
                if x == y:
                    continue
                key = (ndegs, (pairs - {pu, pv}) | {frozenset({x, y})}, False)
            out.setdefault(key, ("e", eid, wit))
        return out


def solve_t_cycle(graph, terminals=None, td=None):
    """A T-loop as a sorted edge-id list, or None."""
    T = frozenset(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("terminal set is empty")
    if not T <= graph.vertices:
        raise InvalidConfiguration("terminal is not a vertex")
    td, assign = _prepare(graph, td)
    wit = _TCycleDP(graph, T, td, assign).run()
    if wit is None:
        return None
    loop = sorted(wit)
    if not is_t_loop(graph, T, loop):
        raise TCycleError(f"witness of {len(loop)} edges is not a T-loop")
    return loop


class _LinkageDP:
    """State: degrees, open path fragments (ends are bag vertices or sealed
    matched vertices), and the set of completed pairs."""

    def __init__(self, graph, pairs, td, assign):
        self.g = graph
        self.pairs = frozenset(pairs)
        self.matched = frozenset(v for p in pairs for v in p)
        self.td = td
        self.assign = assign
        self.merges = 0  # distinct pairs of fragment sets merged, over all joins

    def cap(self, v):
        return 1 if v in self.matched else 2

    def run(self):
        tables = {}
        joins = peak = 0
        for node in self.td.postorder():
            kind = self.td.kind[node]
            bag = tuple(sorted(self.td.bags[node]))
            if kind == "leaf":
                table = {((), frozenset(), frozenset())}
            elif kind == "introduce":
                table = self._introduce(tables, node, bag)
            elif kind == "forget":
                table = self._forget(tables, node, bag)
            else:
                table = self._join(tables, node, bag)
                joins += 1
            for c in self.td.children[node]:
                del tables[c]
            for eid in self.assign[node]:
                table = self._edge(table, bag, eid)
            tables[node] = table
            peak = max(peak, len(table))
        _log.debug(
            "linkage: %d nodes, %d joins, peak table %d, %d distinct merges",
            len(self.td.bags), joins, peak, self.merges,
        )
        return ((), frozenset(), self.pairs) in tables[self.td.root]

    def _introduce(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = self.td.distinguished(node)
        pos = bag.index(v)
        out = set()
        for degs, frags, done in tables[child]:
            out.add((degs[:pos] + (0,) + degs[pos:], frags, done))
        return out

    def _forget(self, tables, node, bag):
        (child,) = self.td.children[node]
        v = self.td.distinguished(node)
        cbag = tuple(sorted(self.td.bags[child]))
        pos = cbag.index(v)
        out = set()
        for degs, frags, done in tables[child]:
            d = degs[pos]
            ndegs = degs[:pos] + degs[pos + 1 :]
            if v in self.matched:
                if d != 1:
                    continue
                frag = next(f for f in frags if ("v", v) in f)
                (other,) = frag - {("v", v)}
                if other[0] == "a":
                    pair = frozenset({v, other[1]})
                    if pair not in self.pairs:
                        continue
                    out.add((ndegs, frags - {frag}, done | {pair}))
                else:
                    nfrag = frozenset({("a", v), other})
                    out.add((ndegs, (frags - {frag}) | {nfrag}, done))
            else:
                if d not in (0, 2):
                    continue
                out.add((ndegs, frags, done))
        return out

    def _join(self, tables, node, bag):
        a, b = self.td.children[node]
        out = set()
        merged = {}
        caps = tuple(self.cap(v) for v in bag)
        for degs, states_a, states_b in _compatible_groups(tables[a], tables[b], caps):
            for _, fa, za in states_a:
                for _, fb, zb in states_b:
                    m = merged.get((fa, fb), False)
                    if m is False:
                        m = merged[fa, fb] = self._seal(*_merge(fa, fb))
                    if m is not None:
                        frags, done = m
                        out.add((degs, frags, za | zb | done))
        self.merges += len(merged)
        return out

    def _seal(self, paths, cycles):
        """Split spliced paths into open fragments and completed pairs, or
        None when they close a cycle or join two matched vertices that are
        not a pair."""
        if cycles:
            return None
        frags = []
        done = []
        for path in paths:
            x, y = path
            if x[0] == "a" and y[0] == "a":
                pair = frozenset({x[1], y[1]})
                if pair not in self.pairs:
                    return None
                done.append(pair)
            else:
                frags.append(path)
        return frozenset(frags), frozenset(done)

    def _edge(self, table, bag, eid):
        u, v = self.g.edges[eid]
        iu, iv = bag.index(u), bag.index(v)
        out = set(table)
        for degs, frags, done in table:
            if degs[iu] >= self.cap(u) or degs[iv] >= self.cap(v):
                continue
            ndegs = list(degs)
            ndegs[iu] += 1
            ndegs[iv] += 1
            ndegs = tuple(ndegs)
            eu, ev = ("v", u), ("v", v)
            fu = next((f for f in frags if eu in f), None)
            fv = next((f for f in frags if ev in f), None)
            if fu is not None and fu == fv:
                continue  # would close a cycle
            if fu is None and fv is None:
                out.add((ndegs, frags | {frozenset({eu, ev})}, done))
                continue
            if fu is None or fv is None:
                f = fu or fv
                mine = eu if fu is None else ev
                gone = ev if fu is None else eu
                (other,) = f - {gone}
                out.add((ndegs, (frags - {f}) | {frozenset({mine, other})}, done))
                continue
            (x,) = fu - {eu}
            (y,) = fv - {ev}
            if x[0] == "a" and y[0] == "a":
                pair = frozenset({x[1], y[1]})
                if pair not in self.pairs:
                    continue
                out.add((ndegs, frags - {fu, fv}, done | {pair}))
            else:
                out.add((ndegs, (frags - {fu, fv}) | {frozenset({x, y})}, done))
        return out


def solve_disjoint_paths(graph, matching, td=None):
    """True iff vertex-disjoint paths realize every pair of the matching."""
    pairs = check_matching(graph, matching)
    if not pairs:
        return True
    td, assign = _prepare(graph, td)
    return _LinkageDP(graph, pairs, td, assign).run()


def subdivided_instance(graph, matching):
    """The matching-subdivided graph: a fresh degree-2 vertex per pair.

    Returns (graph_m, subdivision_vertices).  The result carries a
    placeholder rotation usable by the DP but not by embedding-dependent
    code.
    """
    pairs = check_matching(graph, matching)
    edges = dict(graph.edges)
    verts = set(graph.vertices)
    fresh_v = max(verts, default=0)
    fresh_e = max(edges, default=0)
    new_verts = []
    for pair in sorted(pairs, key=sorted):
        u, v = sorted(pair)
        fresh_v += 1
        w = fresh_v
        verts.add(w)
        new_verts.append(w)
        for end in (u, v):
            fresh_e += 1
            edges[fresh_e] = (end, w)
    incident = {x: [] for x in verts}
    for eid, (u, v) in edges.items():
        incident[u].append(eid)
        incident[v].append(eid)
    rotation = {x: tuple(sorted(incident[x])) for x in verts}
    gm = EmbeddedGraph(verts, edges, rotation, frozenset(new_verts))
    return gm, frozenset(new_verts)


def solve_m_cycle(graph, boundary, matching, td=None):
    """True iff a cycle visits the matched pairs consecutively: a terminal
    loop through the subdivision vertices of the subdivided graph."""
    pairs = check_matching(graph, matching)
    if not frozenset(v for p in pairs for v in p) <= frozenset(boundary):
        raise InvalidConfiguration("matching leaves the boundary")
    if not pairs:
        return True  # an empty requirement is satisfied by convention
    gm, subs = subdivided_instance(graph, matching)
    if td is not None:
        td = _extend_for_subdivision(td, graph, boundary, gm, subs)
    return solve_t_cycle(gm, subs, td) is not None


def _extend_for_subdivision(td, graph, boundary, gm, subs):
    """Cover the subdivision vertices: add the boundary to every bag and
    hang one bag per fresh vertex off the root."""
    boundary = frozenset(boundary)
    bags = {n: bag | boundary for n, bag in td.bags.items()}
    links = list(td.links)
    nxt = max(bags) + 1
    for w in sorted(subs):
        bags[nxt] = boundary | {w}
        links.append((td.root, nxt))
        nxt += 1
    out = TreeDecomposition(bags, links, root=td.root)
    out.validate(gm)
    return out
