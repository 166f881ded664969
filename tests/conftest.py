import networkx as nx
import pytest
from networkx.algorithms.approximation import treewidth_min_degree

from tcycle.treewidth import TreeDecomposition


def min_degree_decomposition(graph):
    """A validated decomposition from networkx's min-degree heuristic: a
    second shape beside the min-fill one that `build` returns."""
    gx = nx.Graph()
    gx.add_nodes_from(graph.vertices)
    gx.add_edges_from((u, v) for u, v in graph.edges.values() if u != v)
    _, tree = treewidth_min_degree(gx)
    index = {bag: i for i, bag in enumerate(tree.nodes)}
    td = TreeDecomposition(
        {i: bag for bag, i in index.items()},
        [(index[a], index[b]) for a, b in tree.edges],
    )
    td.validate(graph)
    return td


@pytest.fixture
def min_degree_td():
    return min_degree_decomposition
