import random

import pytest

from tcycle import generate
from tcycle.cycles import is_isolated
from tcycle.decomposition import (
    IsolationBudget,
    PuncturedInstance,
    cut_reduction,
    initial_punctures,
    isolation_threshold,
    layer_partition,
    quadratic_remover,
    reed_pipeline,
    remove_one_punctured,
    remove_two_punctured,
)
from tcycle.errors import (
    HoleCountError,
    InvalidConfiguration,
    UnknownVertex,
)
from tcycle.graph import EmbeddedGraph, radial_bfs
from tcycle.oracle import brute_isolation, brute_t_cycle


def two_component_rings():
    a = generate.ring(3)
    return EmbeddedGraph(
        set(a.vertices) | {4, 5, 6},
        {**a.edges, 94: (4, 5), 95: (5, 6), 96: (6, 4)},
        {**a.rotation, 4: (96, 94), 5: (94, 95), 6: (95, 96)},
    )


def test_isolation_threshold():
    assert isolation_threshold(1) == 10
    assert isolation_threshold(3) == 14
    with pytest.raises(InvalidConfiguration):
        isolation_threshold(0)
    b = IsolationBudget(2)
    assert b.annulus == 8
    with pytest.raises(InvalidConfiguration):
        IsolationBudget(0)


def test_initial_punctures():
    g = generate.ring(3, terminals={1, 2})
    inst = initial_punctures(g)
    assert inst.hole_count == 2
    assert inst.boundary == {1, 2}
    with pytest.raises(InvalidConfiguration):
        initial_punctures(g, set())
    with pytest.raises(UnknownVertex):
        initial_punctures(g, {9})
    lone = EmbeddedGraph({1, 2, 3}, {1: (1, 2)}, {1: (1,), 2: (1,), 3: ()})
    with pytest.raises(InvalidConfiguration):
        initial_punctures(lone, {3})


def test_punctured_instance_checks():
    g = generate.ring(4)
    with pytest.raises(HoleCountError):
        PuncturedInstance(g, [])
    with pytest.raises(HoleCountError):
        PuncturedInstance(g, [set()])
    with pytest.raises(UnknownVertex):
        PuncturedInstance(g, [{44}])


def test_cut_reduction_merges_closest_pair():
    g = generate.ring(6, terminals={1, 2, 4})
    child = cut_reduction(initial_punctures(g))
    assert child.hole_count == 2
    # the adjacent pair 1, 2 merges; 4 stays its own hole
    assert frozenset({4}) in child.holes
    merged = next(h for h in child.holes if len(h) > 1)
    assert {1, 2} <= merged
    with pytest.raises(HoleCountError):
        cut_reduction(child)


def test_cut_reduction_bottoms_out():
    g = generate.grid(3, 4, terminals={1, 4, 9, 12})
    inst = initial_punctures(g)
    while inst.hole_count >= 3:
        inst = cut_reduction(inst)
    assert inst.hole_count == 2
    assert {1, 4, 9, 12} <= inst.boundary


def test_layer_partition_rings():
    depth = 4
    g = generate.nested_rings(depth)
    outer = set(generate.ring_ids(depth)[-1])
    inst = PuncturedInstance(g, [outer])
    layers = layer_partition(inst)
    assert len(layers) == depth
    for i, ring in enumerate(reversed(generate.ring_ids(depth))):
        assert layers[i] == set(ring)
    with pytest.raises(HoleCountError):
        layer_partition(PuncturedInstance(g, [outer, {1}]))


def test_layer_partition_other_component_is_last():
    g = two_component_rings()
    layers = layer_partition(PuncturedInstance(g, [{1}]))
    assert layers[-1] == {4, 5, 6}


def test_remove_one_keeps_shallow():
    g = generate.nested_rings(3)
    inst = PuncturedInstance(g, [set(generate.ring_ids(3)[-1])])
    out = remove_one_punctured(inst, IsolationBudget(5))
    assert out.vertices == g.vertices


def test_remove_one_deletes_deep_and_each_deletion_is_isolated():
    depth = 4
    g = generate.nested_rings(depth)
    rings = generate.ring_ids(depth)
    boundary = set(rings[-1])
    inst = PuncturedInstance(g, [boundary])
    budget = IsolationBudget(1)
    out = remove_one_punctured(inst, budget)
    gone = g.vertices - out.vertices
    assert gone == set(rings[0]) | set(rings[1])
    layers = layer_partition(inst)
    for v in gone:
        i = next(i for i, layer in enumerate(layers) if v in layer)
        assert i > budget.g
        assert brute_isolation(g, boundary, v, i - 1)


def test_remove_two_shallow_annulus_untouched():
    g = generate.nested_rings(3)
    rings = generate.ring_ids(3)
    inst = PuncturedInstance(g, [set(rings[0]), set(rings[-1])])
    out = remove_two_punctured(inst, IsolationBudget(1))
    assert out.vertices == g.vertices
    with pytest.raises(HoleCountError):
        remove_two_punctured(PuncturedInstance(g, [{1}]), IsolationBudget(1))


def test_remove_two_split_holes():
    g = two_component_rings()
    inst = PuncturedInstance(g, [{1}, {4}])
    out = remove_two_punctured(inst, IsolationBudget(1))
    assert out.vertices == g.vertices


def test_remove_two_deep_tower():
    depth = 6
    g = generate.nested_rings(depth)
    rings = generate.ring_ids(depth)
    inst = PuncturedInstance(g, [set(rings[0]), set(rings[-1])])
    out = remove_two_punctured(inst, IsolationBudget(1))
    # no survivor is deeper than 4g from the holes
    from tcycle.graph import radial_bfs

    base = (set(rings[0]) | set(rings[-1])) & out.vertices
    dist = radial_bfs(out, sorted(base))
    assert all(dist.get(v, 99) <= 4 for v in out.vertices)


def test_pipeline_identity_when_nothing_is_isolated():
    g = generate.grid(3, 4, terminals={1, 12})
    out, U, report = reed_pipeline(g)
    assert out.vertices == g.vertices
    assert report.removed == []
    assert {1, 12} <= U <= out.vertices


def test_pipeline_split_terminals_left_alone():
    g = two_component_rings().with_terminals({1, 4})
    out, U, report = reed_pipeline(g)
    assert out.vertices == g.vertices
    assert report.removed == []


def test_pipeline_removes_far_component():
    g = two_component_rings().with_terminals({1, 2})
    out, U, report = reed_pipeline(g)
    assert out.vertices == {1, 2, 3}
    assert {v for v, reason, _ in report.removed if reason == "separate-component"} == {4, 5, 6}


def test_pipeline_preserves_answers():
    for seed in range(60):
        g = generate.random_planar(12, seed=seed + 9000)
        rng = random.Random(seed)
        T = set(rng.sample(sorted(g.vertices), rng.randrange(1, 5)))
        g = g.with_terminals(T)
        out, U, report = reed_pipeline(g)
        assert (brute_t_cycle(out, T & out.vertices) is None) == (
            brute_t_cycle(g, T) is None
        )
        for v, _, _ in report.removed:
            assert v not in out.vertices
        assert U <= out.vertices


def test_pipeline_deep_gadget_small_budget():
    depth = 6
    g = generate.nested_rings(depth)
    outer = generate.ring_ids(depth)[-1]
    T = {outer[0], outer[1]}
    g = g.with_terminals(T)
    out, U, report = reed_pipeline(g, budget=IsolationBudget(2))
    assert len(out.vertices) < len(g.vertices)
    assert (brute_t_cycle(out, T) is None) == (brute_t_cycle(g, T) is None)


def test_quadratic_remover_identity_and_deep():
    g = generate.grid(3, 3, terminals={1, 9})
    assert quadratic_remover(g).vertices == g.vertices
    depth = 4
    tower = generate.nested_rings(depth)
    outer = generate.ring_ids(depth)[-1]
    tower = tower.with_terminals({outer[0], outer[1]})
    out = quadratic_remover(tower, budget=IsolationBudget(1))
    assert set(generate.ring_ids(depth)[0]) & out.vertices == set()


def test_remover_and_pipeline_agree():
    for seed in range(30):
        g = generate.random_planar(11, seed=seed + 400)
        rng = random.Random(seed)
        T = set(rng.sample(sorted(g.vertices), rng.randrange(1, 4)))
        g = g.with_terminals(T)
        a, _, _ = reed_pipeline(g)
        b = quadratic_remover(g)
        assert (brute_t_cycle(a, T & a.vertices) is None) == (
            brute_t_cycle(b, T & b.vertices) is None
        )


# -- one radial BFS against one is_isolated call per vertex ----------------


def per_vertex_isolated(graph, sources, candidates, g):
    """The isolation sweep as the pipeline ran it before: one radial BFS per
    candidate vertex."""
    emb = graph.embedding()
    return {v for v in sorted(candidates) if is_isolated(graph, sources, v, g, emb)}


def isolation_corpus():
    rng = random.Random(31)
    out = []
    for seed in range(25):
        g = generate.random_planar(10 + seed % 20, seed=seed + 700)
        out.append((g, set(rng.sample(sorted(g.vertices), rng.randrange(1, 4)))))
    for side in (5, 9, 13):
        g = generate.grid(side, side)
        out.append((g, set(rng.sample(sorted(g.vertices), 3))))
    for depth in (3, 6, 9):
        g = generate.nested_rings(depth)
        rings = generate.ring_ids(depth)
        out.append((g, {rings[0][0], rings[-1][1]}))
    g = two_component_rings()
    out.append((g, {1}))
    out.append((g, {2, 5}))
    return out


def test_one_bfs_isolation_equals_per_vertex():
    for graph, T in isolation_corpus():
        dist = radial_bfs(graph, sorted(T))
        for g in (1, 2, 3):
            one = {v for v in graph.vertices if dist.get(v, g + 1) > g}
            assert one == per_vertex_isolated(graph, T, graph.vertices, g)


def test_pipeline_isolated_boundary_equals_per_vertex():
    def case(side, cells):
        g = generate.grid(side, side)
        return g.with_terminals({r * side + c + 1 for r, c in cells})

    cases = [
        case(15, [(3, 3), (3, 11), (11, 7)]),
        case(17, [(2, 2), (14, 14), (2, 14), (14, 2)]),
        case(12, [(5, 1), (5, 10), (1, 5)]),
    ]
    for graph, T in isolation_corpus():
        if len(T) >= 3:
            cases.append(graph.with_terminals(T))
    removed = 0
    for graph in cases:
        T = set(graph.terminals)
        for g in (1, 2):
            holding = [c for c in graph.components() if c & T]
            if len(holding) != 1:
                continue
            inst = initial_punctures(graph.subgraph(holding[0]), T)
            while inst.hole_count >= 3:
                inst = cut_reduction(inst)
            want = per_vertex_isolated(graph, T, inst.boundary, g)
            _, _, report = reed_pipeline(graph, budget=IsolationBudget(g))
            got = {v for v, why, _ in report.removed if why == "isolated-boundary"}
            assert got == want
            removed += len(got)
    assert removed > 0
