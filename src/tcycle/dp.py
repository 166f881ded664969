"""Dynamic programming over rooted tree decompositions.

Solves T-Cycle (with witness), vertex-disjoint linkages for a matching,
and the subdivided M-cycle variant with one engine, `_PathDP`, which also
lists every way a graph can link a boundary set in one pass.  A state at
a node is a degree code of the bag vertices and a pairing of the open
path ends: vertex-disjoint paths in the graph below the node.  What a
problem adds is data:

- a required degree per vertex, 2 for a terminal and 1 for a matched
  vertex.  A vertex with one is forgotten only at that degree, any other
  vertex at degree 0 or 2; a vertex's degree is capped at its required
  degree, or at 2 when it has none;
- the matching, empty for T-Cycle;
- whether the answer is one cycle (T-Cycle) or paths alone (linkage and
  profiles, where no cycle may close);
- a boundary set, empty except for `boundary_linkages`.

Path ends are plain vertex ids.  A matched vertex forgotten at degree 1
stays in the pairing as a sealed end: it never comes back into a bag of
that subtree, so an end that is no longer live (in the node's bag and
not yet forgotten) is a sealed one.  A path
whose two ends are both sealed is complete; it must be a pair of the
matching, and it leaves the state.  At the root every matched vertex has
been sealed and every completed path checked against the matching, so a
linkage is the empty state there.

A boundary vertex b ends every path that reaches it.  An edge step
names b's end by the token (b, i) instead of b, where i is b's degree
before the step: the number of paths already ending at b, 0 or 1.  At a
join where each child has one path ending at b, the second child's
token (b, 0) becomes (b, 1).  So the tokens of a state are distinct:
they never merge, and a path stops at b.  b's degree is capped at two
and b is forgotten at any degree, while its tokens stay in the pairing.
The root of a boundary run thus holds one pairing per set of
boundary-to-boundary segments: paths whose ends are boundary vertices,
with none inside, disjoint but for shared ends.  Tokens are numbered,
not named after their edges, so that paths reaching b along different
edges give one state, not one per edge.

No table holds a closed cycle.  A closed state takes no more edges and
joins only with the empty state of each child still to merge, so a
T-Cycle run decides a cycle where it closes (in an edge step, or a join
that splices paths) and stops at the first answer.  A cycle closing at
node x is the answer iff

- no open path is beside it;
- every terminal is in x's bag or under a child merged so far.  A child
  still to merge with a terminal under it has no empty state, as a
  terminal is forgotten only at degree 2, and a terminal elsewhere is in
  no bag under x, so it is forgotten at degree 0;
- every live terminal of the bag has degree 2.  A forgotten one was
  checked at degree 2 on the state's lineage, and a non-terminal has
  degree 0 or 2 on a lone cycle.

Any other closed cycle is dropped.  For the second rule a run counts
once the terminals whose top node lies in each subtree, and sums them
over the children as they merge.  Which answer comes first follows the
order of the tables: the input's ids and the decomposition, not the
hash seed.

The engine runs on the rooted decomposition itself, not a nice form.
Unless the caller gives one, that is `treewidth.cheapest`'s pick: the
path decomposition of a double BFS sweep, a chain whose only join is at
its root, unless min-fill elimination is strictly narrower.  A
vertex's top node is the one nearest the root whose bag holds it.  The
node step, children before parents: join the children's tables from the
last back (as the nice form did), then forget, in sorted order, the
vertices whose top node this is (the root forgets its whole bag).  Each edge is taken just before the
first of its endpoints is forgotten, at the deeper of their top nodes:
the nodes holding both endpoints form a subtree, and that is its top.
Taken any earlier, say all of a node's edges before its first forget, a
one-bag decomposition would hold every partial path of the graph at once.

Where a run stops depends on the root as well as the bags.  A T-Cycle
run can stop at the first node whose subtree touches every terminal, so
`solve_t_cycle` re-roots a tree with more than two leaves at the leaf
whose postorder reaches such a node soonest, counting 3^|bag| for each
node on the way (`_rerooted`); a path keeps its root.  Bags and links
stay, so only which answer comes first may change.  Every run, of any
problem, also stops at its first empty table.  Every table above it is
empty too.  And the empty state, which every step but the forget of a
required vertex keeps, is gone, so a required vertex was forgotten
below: no cycle closing outside the node's subtree counts it.  A
profile run, with no required vertex, never stops this way.

Witnesses are backpointers, not edge sets: None at a leaf, (prev, eid)
where an edge step took eid, and (wa, wb) at a join.  States share their
history this way, and the edge set of the answer is rebuilt at the end.

A degree vector is one int, the degree code, with 2 bits per slot.
Walking the nodes top-down, each vertex takes at its top node the least
slot that the bag's other vertices leave free.  Of two vertices sharing a
bag, the one with the deeper top finds the other in its top's bag, so
slots are distinct within every bag and below the largest bag's size.  A
vertex keeps its slot: introducing it costs nothing, forgetting it clears
two bits.  The join groups each child table by code.  With lo and hi
the low and high bits of every slot, lo | hi marks a group's nonzero
slots and hi | (lo & ONE) those at capacity, ONE marking the slots of the
bag's vertices of required degree 1.  Two groups combine iff neither's
full slots meet the other's nonzero ones; their summed degrees are the
sum of the codes, as no cap exceeds 2.  Where the nonzero slots do not
meet, no path end is on both sides (sealed ends and a forgotten boundary
vertex's tokens lie below one child), and neither side holds a complete
path, so the pairings combine as their union.  Elsewhere `_merge`
splices the open paths, a walk over a mate map of path ends, and the
merge is settled: complete paths are checked and dropped, and a closed
cycle goes to the stop rule above.  An edge step is a join with the
one-path pairing {u, v}; each such step caches its settled merges.

At the end of a run the engine logs one DEBUG line to the "tcycle.dp"
logger, named after the problem: the nodes that ran (every node, unless
the run stopped early) and their joins (a node with c children makes
c - 1), the peak table size and the number of distinct pairs of pairings
that joins spliced.
"""

import logging

from .errors import InvalidConfiguration, TCycleError
from .graph import unembedded
from .oracle import check_matching, is_t_loop
from .treewidth import NiceTreeDecomposition, TreeDecomposition, cheapest

_log = logging.getLogger("tcycle.dp")


def _prepare(graph, td):
    """td validated, and its shape checked when it claims to be nice, or,
    when td is None, `treewidth.cheapest`: the BFS path decomposition
    unless min-fill elimination is strictly narrower, validated there.
    The root is td's own; `solve_t_cycle` then moves it by `_rerooted`.
    Any run stops at its first empty table (module docstring)."""
    if td is None:
        return cheapest(graph)
    td.validate(graph)
    if isinstance(td, NiceTreeDecomposition):
        td.check_shape()
    return td


def _rerooted(td, terminals):
    """td rooted where a T-Cycle run's stop rule can fire soonest: at the
    leaf whose postorder, as `_PathDP` walks it, reaches a node whose
    subtree touches every terminal after the least work, counted as
    3^|bag| per node walked.  Ties go to the smallest node id.  A path
    keeps its root.

    That node is found by descending from the root into the first child,
    in order, whose subtree touches every terminal; the walk before it
    covers the subtrees of the children passed over, and it ends at a
    node with no such child.  A subtree of td's own rooting and the rest
    of the tree are the two sides of a link, so one pass up td's rooting
    gives both sides' weights and whether they touch every terminal: the
    subtree of x touches terminal t iff t is in x's bag or t's top node is
    in the subtree, and the rest of the tree iff t's top node is not.
    """
    leaves = sorted(x for x, nb in td.adj.items() if len(nb) <= 1)
    if len(leaves) <= 2:
        return td
    parent, children, order = td.rooted()
    weight = {x: 3 ** len(bag) for x, bag in td.bags.items()}
    total = sum(weight.values())
    below = {}  # x -> terminals whose top node is in the subtree of x
    heavy = {}  # x -> summed weight of the subtree of x
    full = {}  # x -> whether that subtree touches every terminal
    for x in reversed(order):
        kids = children[x]
        under = sum(below[c] for c in kids)
        here = terminals.intersection(td.bags[x])
        full[x] = under + len(here) == len(terminals)
        below[x] = under + len(here.difference(td.bags.get(parent[x], ())))
        heavy[x] = weight[x] + sum(heavy[c] for c in kids)

    def stop_cost(x, bound):
        """The weight walked from leaf x, or a weight of at least bound."""
        cost, prev = 0, None
        while cost < bound:
            for y in sorted(td.adj[x]):
                if y == prev:
                    continue
                # the side of y when the link xy is cut
                if parent[y] == x:
                    w, reaches = heavy[y], full[y]
                else:
                    w, reaches = total - heavy[x], not below[x]
                if reaches:
                    x, prev = y, x
                    break
                cost += w
            else:
                return cost + weight[x]
        return cost

    best, bound = None, float("inf")
    for leaf in leaves:
        cost = stop_cost(leaf, bound)
        if cost < bound:
            best, bound = leaf, cost
    return TreeDecomposition(td.bags, td.links, root=best)


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


def _renumbered(pairs, tokens):
    """pairs with each token (b, 0) in tokens renamed (b, 1)."""
    return frozenset(frozenset((x[0], 1) if x in tokens else x for x in p) for p in pairs)


def _degree_groups(table, low, one):
    """(code, nonzero mask, at-capacity mask, [(pairs, witness)]) per
    degree code in table; low marks every slot, one those of cap 1."""
    states = {}
    for (degs, pairs), wit in table.items():
        states.setdefault(degs, []).append((pairs, wit))
    return [(d, (d | d >> 1) & low, d >> 1 & low | d & one, g) for d, g in states.items()]


def _edges(wit):
    """The edge ids that a witness records."""
    edges = []
    stack = [wit]
    while stack:
        wit = stack.pop()
        if isinstance(wit, int):  # the eid of an edge step's (prev, eid)
            edges.append(wit)
        elif wit is not None:
            stack.extend(wit)
    return edges


class _Found(Exception):
    """The witness of the first cycle that closed through every terminal."""


class _PathDP:
    """The path DP of the module docstring on the rooted decomposition td:
    required maps vertices to required degrees, closes is whether the
    answer is a cycle through every vertex of required degree 2 (T-Cycle),
    and boundary holds the vertices whose path ends are tokens."""

    def __init__(self, name, graph, td, required, matching, closes, boundary=frozenset()):
        self.name = name
        self.g = graph
        self.td = td
        self.required = required
        self.matching = matching
        self.closes = closes
        self.boundary = boundary
        self.merges = 0  # distinct pairs of pairings spliced, over all joins
        _, self.children, order = td.rooted()
        # top-down, so a vertex not yet slotted is at its top node
        self.slot = slot = {}
        self.forget = {}
        rank = {}  # orders any bag's vertices as they are forgotten
        for i, x in enumerate(order):
            bag = td.bags[x]
            used = {slot[v] for v in bag if v in slot}
            new = self.forget[x] = sorted(v for v in bag if v not in slot)
            s = 0
            for v in new:
                while s in used:
                    s += 1
                slot[v] = s
                rank[v] = (-i, v)  # a deeper top comes later in order
                s += 1
        self.low = (1 << 2 * max(map(len, td.bags.values()))) // 3  # each slot's low bit
        self.charged = {v: [] for v in slot}
        for eid in sorted(graph.edges):
            u, v = graph.edges[eid]
            if u != v:  # a loop edge is never part of a simple cycle or path
                self.charged[min(u, v, key=rank.__getitem__)].append(eid)
        # children before parents, each subtree in one run
        self.postorder = []
        stack = [td.root]
        while stack:
            x = stack.pop()
            self.postorder.append(x)
            stack.extend(self.children[x])
        self.postorder.reverse()
        # the stop rule's count: terminals whose top node is in each subtree
        self.terminals = frozenset(required) if closes else frozenset()
        self.below = below = {}
        for x in self.postorder if closes else ():
            mine = len(self.terminals.intersection(self.forget[x]))
            below[x] = sum(map(below.__getitem__, self.children[x]), mine)

    def run(self):
        """The edge ids of one answer, or None."""
        try:
            root = self.root_table()
        except _Found as found:
            return _edges(*found.args)
        key = (0, frozenset())
        if self.closes or key not in root:  # a T-loop stops the run
            return None
        return _edges(root[key])

    def root_table(self):
        """The table at the root: state -> witness, or {} at the first
        empty table.  A T-Cycle run raises _Found instead where its answer
        closes."""
        tables = {}
        self.peak = ran = 0
        try:
            for ran, node in enumerate(self.postorder, 1):
                table = tables[node] = self._node(tables, node)
                if not table:  # so is every table above it
                    return {}
        finally:
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    self.name + ": %d nodes, %d joins, peak table %d, %d distinct merges",
                    ran, sum(max(len(self.children[x]) - 1, 0) for x in self.postorder[:ran]),
                    self.peak, self.merges,
                )
        return tables[self.td.root]

    def _node(self, tables, node):
        """The node step of the module docstring: node's table."""
        kids = self.children[node]
        below = self.below
        table = tables.pop(kids[-1]) if kids else {(0, frozenset()): None}
        # terminals whose top node is under a child merged so far
        self.reached = below.get(kids[-1], 0) if kids else 0
        for c in reversed(kids[:-1]):
            self.reached += below.get(c, 0)
            table = self._join(tables.pop(c), table, node)
        self.peak = max(self.peak, len(table))
        bag = self.td.bags[node]
        live = set(bag)
        for v in self.forget[node]:
            for eid in self.charged[v]:
                table = self._edge(table, eid, bag, live)
            self.peak = max(self.peak, len(table))
            live.discard(v)
            table = self._forget(table, v, live)
        return table

    def _forget(self, table, v, live):
        """Drop v from every state; live: the bag vertices not yet forgotten."""
        shift = 2 * self.slot[v]
        clear = ~(3 << shift)
        need = self.required.get(v)
        checked = v not in self.boundary  # a boundary vertex's ends are tokens
        out = {}
        for (degs, pairs), wit in table.items():
            d = degs >> shift & 3
            if checked:
                if (d != need) if need else (d == 1):
                    continue
                if d == 1:  # v is a sealed end now, and its path may be complete
                    p = next(p for p in pairs if v in p)
                    if p.isdisjoint(live):
                        if p not in self.matching:
                            continue
                        pairs = pairs - {p}
            out.setdefault((degs & clear, pairs), wit)
        return out

    def _join(self, table_a, table_b, node):
        bag = self.td.bags[node]
        slot = self.slot
        one = sum(1 << 2 * slot[v] for v in bag if self.required.get(v) == 1)
        boundary = sum(1 << 2 * slot[v] for v in bag if v in self.boundary)
        groups_b = _degree_groups(table_b, self.low, one)
        out = {}
        settled = {}
        for da, nz_a, full_a, states_a in _degree_groups(table_a, self.low, one):
            for db, nz_b, full_b, states_b in groups_b:
                if full_a & nz_b or full_b & nz_a:
                    continue
                degs = da + db
                meet = nz_a & nz_b
                if not meet:  # disjoint ends: the pairings combine as they are
                    for pa, wa in states_a:
                        for pb, wb in states_b:
                            out.setdefault((degs, pa | pb), (wa, wb))
                    continue
                both = meet & boundary  # boundary vertices with a path end on each side
                if both:  # each takes the token (v, 1) on the second side
                    shifted = {(v, 0) for v in bag if both >> 2 * slot[v] & 1}
                    states_b = [(_renumbered(pb, shifted), wb) for pb, wb in states_b]
                for pa, wa in states_a:
                    for pb, wb in states_b:
                        m = settled.get((pa, pb), False)
                        if m is False:
                            m = settled[pa, pb] = self._settle(_merge(pa, pb), bag)
                        if m is None:
                            continue
                        pairs, closes = m
                        if closes:
                            if not pairs and self._stops(degs, bag, bag):
                                raise _Found((wa, wb))
                            continue
                        out.setdefault((degs, pairs), (wa, wb))
        self.merges += len(settled)
        return out

    def _edge(self, table, eid, bag, live):
        u, v = self.g.edges[eid]
        su, sv = 2 * self.slot[u], 2 * self.slot[v]
        step = (1 << su) + (1 << sv)
        cu, cv = self.required.get(u, 2), self.required.get(v, 2)
        ends_u, ends_v = self._ends(u), self._ends(v)
        out = dict(table)
        settled = {}
        for (degs, pairs), wit in table.items():
            du, dv = degs >> su & 3, degs >> sv & 3
            if du >= cu or dv >= cv:
                continue
            path = (ends_u[du], ends_v[dv])
            m = settled.get((pairs, path), False)
            if m is False:
                m = settled[pairs, path] = self._settle(_merge(pairs, (path,)), live)
            if m is None:
                continue
            npairs, closes = m
            if closes:
                if not npairs and self._stops(degs + step, bag, live):
                    raise _Found((wit, eid))
                continue
            out.setdefault((degs + step, npairs), (wit, eid))
        return out

    def _stops(self, degs, bag, live):
        """The stop rule: whether a cycle that closed alone, to the degree
        code degs at a node with this bag, is a T-loop; live holds the bag
        vertices not yet forgotten."""
        seen = self.reached
        for v in bag:
            if v in self.terminals:
                if v in live and degs >> 2 * self.slot[v] & 3 != 2:
                    return False
                seen += 1
        return seen == len(self.terminals)

    def _ends(self, v):
        """The path end an edge step puts at v, indexed by v's degree
        before the step: v itself, or a boundary vertex's token."""
        return ((v, 0), (v, 1)) if v in self.boundary else (v, v)

    def _settle(self, merged, bag):
        """A merge at a node with this bag, settled: (pairing without the
        complete paths, whether a cycle closed), or None when more cycles
        closed than may or a complete path is not a matched pair."""
        pairs, cycles = merged
        if cycles > (1 if self.closes else 0):
            return None
        if self.matching:
            done = [p for p in pairs if p.isdisjoint(bag)]
            if done:
                if not self.matching.issuperset(done):
                    return None
                pairs = pairs.difference(done)
        return pairs, cycles == 1


def solve_t_cycle(graph, terminals=None, td=None):
    """A T-loop as a sorted edge-id list, or None."""
    T = frozenset(graph.terminals if terminals is None else terminals)
    if not T:
        raise InvalidConfiguration("terminal set is empty")
    if not T <= graph.vertices:
        raise InvalidConfiguration("terminal is not a vertex")
    td = _rerooted(_prepare(graph, td), T)
    wit = _PathDP("t-cycle", graph, td, dict.fromkeys(T, 2), frozenset(), True).run()
    if wit is None:
        return None
    loop = sorted(wit)
    if not is_t_loop(graph, T, loop):
        raise TCycleError(f"witness of {len(loop)} edges is not a T-loop")
    return loop


def solve_disjoint_paths(graph, matching, td=None):
    """True iff vertex-disjoint paths realize every pair of the matching."""
    pairs = check_matching(graph, matching)
    if not pairs:
        return True
    td = _prepare(graph, td)
    required = dict.fromkeys((v for p in pairs for v in p), 1)
    dp = _PathDP("linkage", graph, td, required, frozenset(pairs), False)
    return dp.run() is not None


def boundary_linkages(graph, boundary, td=None):
    """Every set of boundary-to-boundary segments the graph holds, each as
    a sorted tuple of (a, b) pairs with a <= b: one pair per path from
    boundary vertex a to boundary vertex b with no boundary vertex inside,
    the paths disjoint but for shared ends.  A path from b back to b is
    (b, b), and two paths between a and b give (a, b) twice."""
    B = frozenset(boundary)
    dp = _PathDP("profile", graph, _prepare(graph, td), {}, frozenset(), False, B)
    return {
        tuple(sorted(tuple(sorted(b for b, _ in p)) for p in pairs))
        for _, pairs in dp.root_table()
    }


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
    return unembedded(verts, edges, new_verts), frozenset(new_verts)


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
    return TreeDecomposition(bags, links, root=td.root)
