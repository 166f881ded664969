"""Tree decompositions: construction heuristics, validation, nice form and
LCA closure.

No exact treewidth is attempted; every decomposition is validated before
use, and the consumers only need validity, not optimality.  There are two
constructions:

- `build`: greedy min-fill elimination (Bodlaender and Koster 2010).  The
  protrusion decomposition reads its parts and its width off this one.
- the path decomposition of a double BFS sweep (Kinnersley 1992), which
  follows grids and strips along their length where min-fill cuts them
  into a wider tree with joins.

`cheapest` is what the DP runs on: the BFS path, unless min-fill is
strictly narrower.  A tie goes to the path, which has no joins; min-fill
stops as soon as it cannot win, so a tie costs little of it.
"""

import heapq
from collections import deque

from .errors import (
    EdgeUncovered,
    InvalidDecomposition,
    ParseError,
    VertexSubtreeDisconnected,
)


class TreeDecomposition:
    """bags: node id -> vertex set; links: undirected tree edges."""

    def __init__(self, bags, links, root=None):
        if not bags:
            raise InvalidDecomposition("no bags")
        self.bags = {n: frozenset(b) for n, b in bags.items()}
        self.links = [tuple(sorted(l)) for l in links]
        self.adj = {n: set() for n in self.bags}
        for a, b in self.links:
            if a not in self.adj or b not in self.adj:
                raise InvalidDecomposition("link endpoint is not a node")
            self.adj[a].add(b)
            self.adj[b].add(a)
        if root is None:
            root = min(self.bags, key=lambda n: (-len(self.adj[n]), n))
        self.root = root
        self._rooted = None

    @property
    def width(self):
        return max(len(b) for b in self.bags.values()) - 1

    def rooted(self):
        """(parent, children, breadth-first order) from the root; requires a
        tree.  Computed once: callers share it and must not change it."""
        if self._rooted is not None:
            return self._rooted
        parent = {self.root: None}
        children = {n: [] for n in self.bags}
        order = [self.root]
        queue = deque([self.root])
        while queue:
            x = queue.popleft()
            for y in sorted(self.adj[x]):
                if y not in parent:
                    parent[y] = x
                    children[x].append(y)
                    order.append(y)
                    queue.append(y)
        if len(parent) != len(self.bags):
            raise InvalidDecomposition("tree is not connected")
        self._rooted = parent, children, order
        return self._rooted

    def validate(self, graph):
        """Check the decomposition conditions against graph; return width.

        One pass down the rooted tree.  A vertex's bags are connected iff
        exactly one of them, its top node, has no parent bag holding it.
        Two connected sets of bags meet iff the deeper of their top nodes
        is in both, so an edge is covered iff that top's bag holds both ends.
        """
        if len(self.links) != len(self.bags) - 1:
            raise InvalidDecomposition("link count is wrong for a tree")
        parent, _, order = self.rooted()
        top = {}  # vertex -> position of its top node in order, which is by depth
        for i, x in enumerate(order):
            p = parent[x]
            for v in self.bags[x] if p is None else self.bags[x] - self.bags[p]:
                if v in top:
                    raise VertexSubtreeDisconnected(f"bags of vertex {v} are not connected")
                top[v] = i
        if not top.keys() <= graph.vertices:
            raise InvalidDecomposition("bag contains an unknown vertex")
        missing = graph.vertices - top.keys()
        if missing:
            raise VertexSubtreeDisconnected(f"vertex {min(missing)} is in no bag")
        for eid, (u, v) in graph.edges.items():
            bag = self.bags[order[max(top[u], top[v])]]
            if u not in bag or v not in bag:
                raise EdgeUncovered(f"edge {eid} ({u},{v}) is in no bag")
        return self.width


def _adjacency(graph):
    """vertex -> set of neighbours, without loops."""
    adj = {v: set() for v in graph.vertices}
    for u, v in graph.edges.values():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _fill(adj, v):
    """Edges missing among the neighbours of v: d(d-1)/2 less the edges
    among them, each of which the sum counts from both ends."""
    nb = adj[v]
    d = len(nb)
    return (d * (d - 1) - sum(len(nb & adj[a]) for a in nb)) // 2


def _greedy_fill(graph, limit=None):
    """Min-fill elimination ordering; returns (order, bags per vertex), or
    None as soon as a bag of limit or more vertices is emitted.

    Each step eliminates the vertex of least fill, ties going to the
    smallest vertex.  A heap holds (fill, vertex) entries with lazy
    updates (Bodlaender and Koster, Treewidth computations I, 2010): an
    entry whose fill is no longer current is skipped when popped.
    Eliminating v changes the neighbourhood of each neighbour of v, and
    of no other vertex; another vertex's fill changes only where both ends
    of a new fill edge are its neighbours.  So just those are recomputed.
    """
    adj = _adjacency(graph)
    fill = {v: _fill(adj, v) for v in adj}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order = []
    bags = []
    while heap:
        f, best = heapq.heappop(heap)
        if best not in adj or fill[best] != f:
            continue
        nb = adj.pop(best)
        if limit is not None and len(nb) + 1 >= limit:
            return None
        order.append(best)
        bags.append(frozenset({best} | nb))
        touched = set(nb)
        for a in nb:
            adj[a].discard(best)
        for a in nb:
            for b in nb - adj[a]:
                if a < b:
                    touched |= adj[a] & adj[b]
        for a in nb:
            adj[a] |= nb
            adj[a].discard(a)
        for w in touched:
            f = _fill(adj, w)
            if f != fill[w]:
                fill[w] = f
                heapq.heappush(heap, (f, w))
    return order, bags


def _eliminated(order, elim_bags):
    """The tree decomposition of an elimination ordering: bag i is order[i]
    with its neighbours at elimination, linked to the bag of its earliest
    eliminated neighbour."""
    index = {v: i for i, v in enumerate(order)}
    links = []
    for i in range(len(order) - 1):
        rest = elim_bags[i] - {order[i]}
        if rest:
            j = min(index[v] for v in rest)
        else:
            j = i + 1
        links.append((i, j))
    return TreeDecomposition(dict(enumerate(elim_bags)), links)


def build(graph):
    """A validated tree decomposition of graph, from min-fill elimination."""
    if not graph.vertices:
        return TreeDecomposition({0: frozenset()}, [])
    td = _eliminated(*_greedy_fill(graph))
    td.validate(graph)
    return td


def _bfs(adj, source, seen):
    """Vertices reached from source and not in seen, in breadth-first order
    with neighbours in sorted order; adds them to seen."""
    seen.add(source)
    order = [source]
    for v in order:
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _bfs_path(graph):
    """The path decomposition of a double BFS sweep (Kinnersley 1992).

    Per component, taken by least vertex: a BFS from the least vertex,
    then a second one from the last vertex the first reached.  Bag i holds
    the i-th vertex of that order and every earlier vertex that still has
    a neighbour at or after i.  The bags are numbered last to first, so
    the default root is the second-last bag, and a decomposition parsed
    from `pace_lines` roots the same way.
    """
    adj = _adjacency(graph)
    order = []
    seen = set()
    for v in sorted(adj):
        if v not in seen:
            far = _bfs(adj, v, set())[-1]
            order += _bfs(adj, far, seen)
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    leaving = [[] for _ in range(n)]  # position -> vertices in no later bag
    bags = {}
    live = set()
    for i, v in enumerate(order):
        live.add(v)
        bags[n - 1 - i] = frozenset(live)
        leaving[max([i, *map(pos.get, adj[v])])].append(v)
        live.difference_update(leaving[i])
    return TreeDecomposition(bags, [(j, j + 1) for j in range(n - 1)])


def cheapest(graph):
    """The validated decomposition that the DP runs on: the BFS path
    decomposition, unless min-fill elimination is strictly narrower.

    Min-fill stops at its first bag as large as the path's largest, since
    from there on it cannot be narrower; so a tie costs little of it.
    """
    if not graph.vertices:
        return TreeDecomposition({0: frozenset()}, [])
    td = _bfs_path(graph)
    elimination = _greedy_fill(graph, limit=td.width + 1)
    if elimination is not None:
        td = _eliminated(*elimination)
    td.validate(graph)
    return td


class NiceTreeDecomposition(TreeDecomposition):
    """Rooted decomposition whose nodes are leaves, introduces, forgets and
    joins; leaf and root bags are empty."""

    def __init__(self, bags, kind, children, root):
        links = [(p, c) for p, cs in children.items() for c in cs]
        super().__init__(bags, links, root)
        self.kind = dict(kind)
        self.children = {n: list(cs) for n, cs in children.items()}

    def postorder(self):
        out = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(node)
            else:
                stack.append((node, True))
                for c in self.children[node]:
                    stack.append((c, False))
        return out

    def check_shape(self):
        """Check the nice-form rules node by node; raise InvalidDecomposition
        at the first node that breaks one."""
        for n, k in self.kind.items():
            bag = self.bags[n]
            cs = self.children[n]
            if k == "leaf":
                ok = not bag and not cs
            elif k == "introduce":
                ok = len(cs) == 1 and bag > self.bags[cs[0]] and len(bag - self.bags[cs[0]]) == 1
            elif k == "forget":
                ok = len(cs) == 1 and bag < self.bags[cs[0]] and len(self.bags[cs[0]] - bag) == 1
            elif k == "join":
                ok = len(cs) == 2 and all(self.bags[c] == bag for c in cs)
            else:
                raise InvalidDecomposition(f"unknown node kind {k!r}")
            if not ok:
                raise InvalidDecomposition(f"node {n} is not a valid {k} node")
        if self.bags[self.root]:
            raise InvalidDecomposition("root bag is not empty")
        return True


def make_nice(td):
    """Turn a valid decomposition into nice form of the same width."""
    parent, children, order = td.rooted()
    bags = {}
    kind = {}
    kids = {}
    counter = [0]

    def new(bag, k, ch):
        nid = counter[0]
        counter[0] += 1
        bags[nid] = frozenset(bag)
        kind[nid] = k
        kids[nid] = list(ch)
        return nid

    def chain(cur, from_bag, to_bag):
        bag = set(from_bag)
        for v in sorted(from_bag - to_bag):
            bag.discard(v)
            cur = new(bag, "forget", [cur])
        for v in sorted(to_bag - from_bag):
            bag.add(v)
            cur = new(bag, "introduce", [cur])
        return cur

    tops = {}
    for node in reversed(order):
        target = td.bags[node]
        subs = [chain(tops[c], td.bags[c], target) for c in children[node]]
        if not subs:
            top = chain(new((), "leaf", []), frozenset(), target)
        else:
            while len(subs) > 1:
                b, a = subs.pop(), subs.pop()
                subs.append(new(target, "join", [a, b]))
            top = subs[0]
        tops[node] = top
    root = chain(tops[td.root], td.bags[td.root], frozenset())
    return NiceTreeDecomposition(bags, kind, kids, root)


def lca_closure(td, marked):
    """Smallest superset of marked closed under pairwise LCAs in td's tree."""
    marked = set(marked)
    if not marked:
        return frozenset()
    parent, children, order = td.rooted()
    depth = {td.root: 0}
    for node in order[1:]:
        depth[node] = depth[parent[node]] + 1
    pre = {node: i for i, node in enumerate(_dfs_preorder(td.root, children))}

    def lca(a, b):
        while a != b:
            if depth[a] < depth[b]:
                b = parent[b]
            else:
                a = parent[a]
        return a

    seq = sorted(marked, key=lambda n: pre[n])
    closure = set(seq)
    for a, b in zip(seq, seq[1:]):
        closure.add(lca(a, b))
    return frozenset(closure)


def _dfs_preorder(root, children):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        for c in reversed(children[node]):
            stack.append(c)
    return out


def from_pace_lines(lines):
    """Inverse of pace_lines: header, bag records, tree edge records."""
    bags = {}
    links = []
    header = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "s":
                if header is not None:
                    raise ParseError(f"line {lineno}: second header")
                if len(parts) != 5 or parts[1] != "td":
                    raise ParseError(f"line {lineno}: bad header {raw!r}")
                header = tuple(int(x) for x in parts[2:])
            elif parts[0] == "b":
                if len(parts) < 2:
                    raise ParseError(f"line {lineno}: bag without a node")
                node = int(parts[1])
                if node in bags:
                    raise ParseError(f"line {lineno}: duplicate bag {node}")
                bags[node] = frozenset(int(v) for v in parts[2:])
            else:
                a, b = (int(x) for x in parts)
                links.append((a, b))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {raw!r}: {exc}") from exc
    if header is None:
        raise ParseError("missing s td header")
    if header[0] != len(bags):
        raise ParseError("header bag count disagrees with bag records")
    return TreeDecomposition(bags, links)


def pace_lines(td, n_vertices):
    """PACE-style text form: header, bag lines, then tree edge lines."""
    nodes = sorted(td.bags)
    renum = {node: i + 1 for i, node in enumerate(nodes)}
    lines = [f"s td {len(nodes)} {td.width + 1} {n_vertices}"]
    for node in nodes:
        inside = " ".join(str(v) for v in sorted(td.bags[node]))
        lines.append(f"b {renum[node]} {inside}".rstrip())
    for a, b in sorted(td.links):
        lines.append(f"{renum[a]} {renum[b]}")
    return lines
