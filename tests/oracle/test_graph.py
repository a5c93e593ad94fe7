"""Tests for the reference multigraph behind the oracle analyses."""

from __future__ import annotations

import pytest

from tests.oracle.graph import MultiDiGraph


class TestMultiDiGraph:
    def test_parallel_edges_are_kept(self):
        graph = MultiDiGraph()
        graph.add_edge(0, 1, special=False)
        graph.add_edge(0, 1, special=True)
        assert graph.number_of_edges() == 2
        data = graph.get_edge_data(0, 1)
        assert data is not None
        assert sorted(d["special"] for d in data.values()) == [False, True]

    def test_scc_groups_cycles(self):
        graph = MultiDiGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        graph.add_edge(1, 2)
        components = list(graph.strongly_connected_components())
        assert {frozenset(c) for c in components} == {
            frozenset({0, 1}),
            frozenset({2}),
        }

    def test_scc_order_is_reverse_topological(self):
        graph = MultiDiGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        components = list(graph.strongly_connected_components())
        # Sinks first: 2 before 1 before 0.
        assert components == [{2}, {1}, {0}]

    def test_shortest_path(self):
        graph = MultiDiGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(0, 2)
        assert graph.shortest_path(0, 2) == [0, 2]
        with pytest.raises(ValueError):
            graph.shortest_path(2, 0)
