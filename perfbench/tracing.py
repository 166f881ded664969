"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` wraps every target at every module binding the call
sites use: a function defined in ``tcycle.dp`` is also replaced where
``tcycle.kernel`` imported it by name, and a method is replaced on its
class.  ``Tracer.remove`` puts every original back.  Nothing is wrapped
unless a traced run installs it.

A span is (name, start, end, parent span index, op id).  A layer's self
time is its span's duration minus the durations of its direct children;
calls are single-threaded and properly nested, so the children cover
disjoint parts of the parent.
"""

import functools
import sys

# metric name -> (module, attribute path); a dotted path names a method
TARGETS = {
    "fileio.parse": ("tcycle.fileio", "parse"),
    "fileio.serialize": ("tcycle.fileio", "serialize"),
    "graph.embedding": ("tcycle.graph", "EmbeddedGraph.embedding"),
    "graph.radial_bfs": ("tcycle.graph", "radial_bfs"),
    "graph.subgraph": ("tcycle.graph", "EmbeddedGraph.subgraph"),
    "cycles.is_isolated": ("tcycle.cycles", "is_isolated"),
    "treewidth.build": ("tcycle.treewidth", "build"),
    "treewidth.make_nice": ("tcycle.treewidth", "make_nice"),
    "treewidth.validate": ("tcycle.treewidth", "TreeDecomposition.validate"),
    "dp.solve_t_cycle": ("tcycle.dp", "solve_t_cycle"),
    "dp.solve_disjoint_paths": ("tcycle.dp", "solve_disjoint_paths"),
    "dp.solve_m_cycle": ("tcycle.dp", "solve_m_cycle"),
    "decomposition.reed_pipeline": ("tcycle.decomposition", "reed_pipeline"),
    "decomposition.cut_reduction": ("tcycle.decomposition", "cut_reduction"),
    "decomposition.remove_one_punctured": ("tcycle.decomposition", "remove_one_punctured"),
    "decomposition.remove_two_punctured": ("tcycle.decomposition", "remove_two_punctured"),
    "kernel.kernelize": ("tcycle.kernel", "kernelize"),
    "kernel.protrusion_decompose": ("tcycle.kernel", "protrusion_decompose"),
    "kernel.linkage_profile": ("tcycle.kernel", "linkage_profile"),
    "kernel.replacement_search": ("tcycle.kernel", "replacement_search"),
    "kernel.contraction_replacement": ("tcycle.kernel", "contraction_replacement"),
    "kernel.splice": ("tcycle.kernel", "splice"),
    "kernel.verify_minor_map": ("tcycle.kernel", "verify_minor_map"),
    "oracle.brute_minor": ("tcycle.oracle", "brute_minor"),
    "oracle.all_cycles": ("tcycle.oracle", "all_cycles"),
}

# counts read from return values: metric name -> (span name, reader)
COUNTS = {
    "treewidth.max_width": ("treewidth.build", lambda td: td.width),
    "decomposition.removed": ("decomposition.reed_pipeline", lambda r: len(r[2].removed)),
    "kernel.replacements": ("kernel.kernelize", lambda r: len(r[1].replacements)),
    "kernel.kept_verbatim": ("kernel.kernelize", lambda r: r[1].kept_verbatim),
}

SPAN_CAP = 200_000  # spans kept for the span file; aggregates see them all


class Tracer:
    def __init__(self):
        self.op_id = None  # spans are recorded only while an op runs
        self.spans = []
        self.dropped = 0
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.counts = {name: [] for name in COUNTS}
        self.missing = []
        self._stack = []  # [span index or None, start, child time]
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, clock):
        readers = [(metric, read) for metric, (span, read) in COUNTS.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            index = None
            if len(self.spans) < SPAN_CAP:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
            frame = [index, clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if self._stack:
                    self._stack[-1][2] += dur
                if index is not None:
                    self.spans[index] = (name, frame[1], end, parent, self.op_id)
            for metric, read in readers:
                self.counts[metric].append(read(result))
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self, clock):
        """Wrap every target at all its bindings in loaded tcycle modules."""
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "tcycle" or n.startswith("tcycle.")
        ]
        for name, (modname, path) in TARGETS.items():
            owner = sys.modules.get(modname)
            parts = path.split(".")
            if owner is None:
                self.missing.append(name)
                continue
            if len(parts) == 2:
                cls = getattr(owner, parts[0], None)
                orig = None if cls is None else cls.__dict__.get(parts[1])
                if orig is None:
                    self.missing.append(name)
                    continue
                setattr(cls, parts[1], self._wrap(name, orig, clock))
                self._undo.append((cls, parts[1], orig))
                continue
            orig = getattr(owner, path, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, clock)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, orig))

    def remove(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()


def installed_wrappers():
    """Every (holder, attribute) in tcycle that currently holds a wrapper."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name != "tcycle" and not name.startswith("tcycle."):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append((name, attr))
            if isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    if getattr(fn, "__wrapped_by_perfbench__", False):
                        found.append((f"{name}.{attr}", meth))
    return found
