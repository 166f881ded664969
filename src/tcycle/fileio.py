"""Line-based instance format.

    v <id>                  vertex
    t <id>                  terminal (must also be declared as a vertex)
    e <eid> <u> <v>         edge
    rot <v> <eid> ...       clockwise rotation at v (required for degree >= 1)
    outer <v> ...           optional: vertex set of the intended outer face
    # ...                   comment

Serialization is deterministic, and parse(serialize(g)) round-trips up to
comment lines.
"""

from .errors import ParseError
from .graph import EmbeddedGraph


def parse(text):
    vertices = []
    terminals = []
    edges = {}
    rotation = {}
    outer = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "v":
                (vid,) = args
                vertices.append(int(vid))
            elif kind == "t":
                (vid,) = args
                terminals.append(int(vid))
            elif kind == "e":
                eid, u, v = args
                eid = int(eid)
                if eid in edges:
                    raise ParseError(f"line {lineno}: duplicate edge id {eid}")
                edges[eid] = (int(u), int(v))
            elif kind == "rot":
                if not args:
                    raise ParseError(f"line {lineno}: rotation without a vertex")
                v = int(args[0])
                if v in rotation:
                    raise ParseError(f"line {lineno}: duplicate rotation for {v}")
                rotation[v] = tuple(int(e) for e in args[1:])
            elif kind == "outer":
                outer = frozenset(int(v) for v in args)
            else:
                raise ParseError(f"line {lineno}: unknown record {kind!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {raw!r}: {exc}") from exc
    vset = set(vertices)
    if len(vertices) != len(vset):
        raise ParseError("duplicate vertex declaration")
    for t in terminals:
        if t not in vset:
            raise ParseError(f"terminal {t} is not a declared vertex")
    for eid, (u, v) in edges.items():
        if u not in vset or v not in vset:
            raise ParseError(f"edge {eid} touches an undeclared vertex")
    for v in rotation:
        if v not in vset:
            raise ParseError(f"rotation for undeclared vertex {v}")
    if outer and not outer <= vset:
        raise ParseError(f"outer face names undeclared vertex {min(outer - vset)}")
    return EmbeddedGraph(vset, edges, rotation, terminals, outer)


def serialize(graph):
    lines = []
    for v in sorted(graph.vertices):
        lines.append(f"v {v}")
    for t in sorted(graph.terminals):
        lines.append(f"t {t}")
    for eid in sorted(graph.edges):
        u, v = graph.edges[eid]
        lines.append(f"e {eid} {u} {v}")
    for v in sorted(graph.rotation):
        rot = " ".join(str(e) for e in graph.rotation[v])
        lines.append(f"rot {v} {rot}")
    if graph.outer_hint:
        lines.append("outer " + " ".join(str(v) for v in sorted(graph.outer_hint)))
    return "\n".join(lines) + "\n"


def parse_config(text):
    """A cycles-and-loop configuration file: instance records plus
    `cycle <eid> ...` lines, innermost cycle first, and one
    `loop <eid> ...` line."""
    graph_lines = []
    cycles = []
    loop = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        parts = line.split()
        try:
            if parts and parts[0] == "cycle":
                cycles.append(frozenset(int(e) for e in parts[1:]))
            elif parts and parts[0] == "loop":
                if loop is not None:
                    raise ParseError(f"line {lineno}: second loop record")
                loop = frozenset(int(e) for e in parts[1:])
            else:
                graph_lines.append(raw)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {raw!r}: {exc}") from exc
    if not cycles:
        raise ParseError("no cycle records")
    if not loop:
        raise ParseError("no loop record")
    graph = parse("\n".join(graph_lines))
    for c in cycles + [loop]:
        for e in c:
            if e not in graph.edges:
                raise ParseError(f"unknown edge id {e} in configuration")
    return graph, cycles, loop


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def dump(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(graph))
