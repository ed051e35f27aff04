import pytest

from cutfair.graph import Graph, GraphError


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (3, 0)])
    assert g.num_vertices == 4
    assert g.num_edges == 3
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.adjacency == ((1, 3), (0, 2), (1,), (0,))
    # equal graphs have equal adjacency, whatever the order of their edges
    assert g == Graph.from_edges(4, [(0, 3), (1, 0), (1, 2)])
    assert g != Graph.from_edges(4, [(0, 1), (2, 1)])


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])


def test_from_edges_rejects_duplicate_even_reversed():
    with pytest.raises(GraphError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph.from_edges(-1, [])


def test_degree_and_max_degree():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert [g.degree(v) for v in range(5)] == [3, 1, 1, 1, 0]
    assert g.max_degree() == 3
    assert Graph.from_edges(0, []).max_degree() == 0
    with pytest.raises(GraphError):
        g.degree(5)


def test_connected_components_ordered_by_least_vertex():
    g = Graph.from_edges(6, [(3, 4), (0, 5)])
    comps = g.connected_components()
    assert comps == [{0, 5}, {1}, {2}, {3, 4}]


def test_is_forest():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cycle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    two_trees = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert path.is_forest()
    assert not cycle.is_forest()
    assert two_trees.is_forest()
    assert Graph.from_edges(3, []).is_forest()
