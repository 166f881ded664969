"""The four workloads: how each draws its instances from a seed, the chain
of library calls one op makes, and the check that certifies each answer.

An op starts from instance text and goes text -> ``fileio.parse`` -> call,
as the ``tcycle`` command does, but in-process.  The library is reached
through module attributes at call time (``fileio.parse``, not a bound
name), so the traced run's wrappers see every call.

Each design is a list of slots fixed by the workload (family, size, terminal
count).  ``build`` says what the seed chooses.  ``scale="tiny"`` shrinks
every design for the benchmark's own tests.
"""

import random
from dataclasses import dataclass, field

import networkx as nx
from networkx.algorithms.approximation import treewidth_min_fill_in

from instances import (
    block_verdict,
    certified_verdict,
    grid,
    isolation_depth,
    nested_rings,
    radial_depths,
    random_planar,
    spread_terminals,
)

WORKLOADS = ("solve-random", "kernelize-mixed", "long-thin", "reduce-deep")


@dataclass
class Instance:
    id: str
    text: str
    vertices: int
    terminals: int
    # 'yes'/'no' for the solving workloads; the pinned deleted vertex set
    # for reduce-deep
    expect: object
    budget: int = None  # IsolationBudget depth for kernelize, None = default
    stratum: str = ""  # ops interleave strata, so any prefix keeps the mix


@dataclass
class Result:
    """What one op returned, kept for the check outside the timed region."""

    verdict: str = None
    out_vertices: int = 0
    payload: dict = field(default_factory=dict)


# -- designs ----------------------------------------------------------------


def build(workload, seed, scale="full", bank=0):
    """The workload's instances for this seed, in the order ops visit them.

    The random graph families (solve-random, kernelize-mixed) come from a
    bank drawn from `bank`, and the seed orders them: the program's run time
    on them swings several-fold with vertex labels and terminal choice
    alone, so instances drawn afresh per seed would make every seed measure
    different work.  On the grids and ring towers the seed places the
    terminals."""
    rng = random.Random(f"{workload}/{seed}")
    banked = random.Random(f"{workload}/bank{bank}")
    tiny = scale == "tiny"
    if workload == "solve-random":
        out = _solve_random(banked, tiny)
    elif workload == "kernelize-mixed":
        out = _kernelize_mixed(banked, tiny)
    elif workload == "long-thin":
        out = _long_thin(rng, tiny)
    elif workload == "reduce-deep":
        out = _reduce_deep(rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _interleave(out, rng)


def _interleave(instances, rng):
    """Shuffle within each stratum, then merge the strata evenly, so that
    every stretch of a pass mixes them in their shares."""
    groups = {}
    for inst in instances:
        groups.setdefault(inst.stratum, []).append(inst)
    keyed = []
    for name, group in sorted(groups.items()):
        rng.shuffle(group)
        keyed += [((j + 0.5) / len(group), rng.random(), inst) for j, inst in enumerate(group)]
    return [inst for _, _, inst in sorted(keyed, key=lambda x: x[:2])]


# solve-random: share of instances per min-fill width (networkx's heuristic,
# independent of the program's), so every seed gets the same width mix
WIDTH_QUOTAS = {4: 0.14, 5: 0.52, 6: 0.34}


def _solve_random(rng, tiny):
    """Random planar graphs, sizes and terminal counts cycled over fixed
    slots, stratified by width."""
    sizes = range(10, 14) if tiny else range(28, 45)
    left = {w: round(q * 60) for w, q in WIDTH_QUOTAS.items()}
    out = []
    i = 0
    while (len(out) < 4) if tiny else any(left.values()):
        n = sizes[i % len(sizes)]
        k = 2 + i % 5
        i += 1
        shape = random_planar(n, rng)
        w = treewidth_min_fill_in(nx.Graph(list(shape.edges.values())))[0]
        if not tiny:
            if left.get(w, 0) == 0:
                continue
            left[w] -= 1
        T, verdict = set(), None
        while verdict is None:
            T = set(rng.sample(sorted(shape.points), k))
            verdict = certified_verdict(shape, T, rng)
        out.append(
            Instance(
                f"rp{i}-n{n}-k{k}", shape.text(T), n, k, verdict, stratum=f"w{w}"
            )
        )
    return out


# criterion 9's plateau grids, kernelized at IsolationBudget(1); the criterion
# fixes their terminals (offset drawn from seed 0), so they are seed-independent.
# Its 10x10 grid is left out: one op of it takes 1.3-1.9 s, which would make
# a pass too long for a run to hold the several passes its figures need.
PLATEAU_GRIDS = ((5, 10), (10, 20), (20, 20))


def _kernelize_mixed(rng, tiny):
    """Criterion 8's small random family at the default budget, plus three
    of criterion 9's plateau grids at budget 1."""
    out = []
    slots = 4 if tiny else 50
    for i in range(slots):
        n = 8 + i % 7
        k = 1 + i % 5
        shape = random_planar(n, rng)
        T = set(rng.sample(sorted(shape.points), k))
        out.append(
            Instance(
                f"small{i}-n{n}-k{k}", shape.text(T), n, k, exact_verdict(shape, T), stratum=f"n{n}"
            )
        )
    for rows, cols in PLATEAU_GRIDS[:1] if tiny else PLATEAU_GRIDS:
        shape, walk = grid(rows, cols)
        T = spread_terminals(walk, 5, random.Random(0))
        out.append(
            Instance(
                f"plateau{rows}x{cols}", shape.text(T), rows * cols, 5, "yes", 1, "plateau"
            )
        )
    return out


def _long_thin(rng, tiny):
    """2-row ladders and 3- and 4-row grids at fixed column counts,
    terminals spread along the outer face."""
    if tiny:
        design = [(2, 12), (3, 8)]
    else:
        # an odd count keeps the median on one instance, not between two;
        # a few sizes per row count keep a pass short enough for a run to
        # hold several
        design = [(2, c) for c in (100, 200, 300, 400)]
        design += [(3, c) for c in (120, 180, 240)]
        design += [(4, c) for c in (75, 150)]
    out = []
    for i, (rows, cols) in enumerate(design):
        k = 2 + i % 4
        shape, walk = grid(rows, cols)
        T = spread_terminals(walk, k, rng)
        out.append(
            Instance(
                f"ladder{rows}x{cols}-k{k}", shape.text(T), rows * cols, k, "yes",
                stratum=f"rows{rows}",
            )
        )
    return out


def _reduce_deep(rng, tiny):
    """Square grids and nested ring towers with terminals on the outer face,
    deep enough that the reduction deletes their interior."""
    if tiny:
        design = [("grid", 8), ("rings", 6)]
    else:
        # odd count, few sizes: see _long_thin
        design = [("grid", s) for s in (56, 64, 72, 80, 88)]
        design += [("rings", d) for d in (60, 100, 140, 180)]
    out = []
    for i, (family, side) in enumerate(design):
        k = 2 + i % 3
        if family == "grid":
            shape, walk = grid(side, side)
            T = spread_terminals(walk, k, rng)
        else:
            shape, walk = nested_rings(side, 12)
            T = set(rng.sample(walk, k))
        # the tiny sizes are too shallow for the default depth
        budget = 1 if tiny else None
        g = budget or isolation_depth(k)
        depth = radial_depths(shape, T)
        deleted = frozenset(v for v in shape.points if depth.get(v, g + 1) > g)
        out.append(
            Instance(
                f"{family}{side}-k{k}", shape.text(T), len(shape.points), k, deleted, budget, family
            )
        )
    return out


def exact_verdict(shape, terminals):
    """The block verdict, confirmed by enumerating every cycle of the block
    when it says yes; only for the small graphs of criterion 8."""
    if block_verdict(shape, terminals) == "no":
        return "no"
    G = nx.Graph(list(shape.edges.values()))
    T = set(terminals)
    for cycle in nx.simple_cycles(G):
        if T <= set(cycle):
            return "yes"
    return "no"


# -- ops --------------------------------------------------------------------


def run_op(workload, inst, lib):
    """One op: parse the instance text and push it through the workload's
    chain.  Only this function runs inside the timed region."""
    g = lib.fileio.parse(inst.text)
    if workload == "kernelize-mixed":
        budget = None if inst.budget is None else lib.decomposition.IsolationBudget(inst.budget)
        k, report = lib.kernel.kernelize(g, budget=budget)
        wit = lib.dp.solve_t_cycle(k, k.terminals)
        return Result(
            "no" if wit is None else "yes",
            len(k.vertices),
            {"graph": k, "witness": wit},
        )
    if workload == "reduce-deep":
        budget = None if inst.budget is None else lib.decomposition.IsolationBudget(inst.budget)
        out, _, _ = lib.decomposition.reed_pipeline(g, budget=budget)
        text = lib.fileio.serialize(out)
        return Result(None, len(out.vertices), {"graph": g, "out": out, "text": text})
    wit = lib.dp.solve_t_cycle(g)
    return Result("no" if wit is None else "yes", len(g.vertices), {"graph": g, "witness": wit})


def check(workload, inst, res, lib):
    """None if the op's answer is certified, else the reason it is not."""
    if workload == "reduce-deep":
        g, out = res.payload["graph"], res.payload["out"]
        deleted = g.vertices - out.vertices
        if deleted != inst.expect:
            return f"deleted {len(deleted)} vertices, pinned {len(inst.expect)}"
        if not g.terminals <= out.vertices:
            return "a terminal was deleted"
        if lib.fileio.parse(res.payload["text"]).vertices != out.vertices:
            return "output does not re-parse to the reduced graph"
        return None
    if res.verdict != inst.expect:
        return f"verdict {res.verdict}, pinned {inst.expect}"
    if res.verdict == "yes":
        g = res.payload["graph"]
        if not lib.oracle.is_t_loop(g, g.terminals, res.payload["witness"]):
            return "witness is not a cycle through every terminal"
    return None
