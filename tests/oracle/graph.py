"""A minimal directed multigraph (pure Python, stdlib only; test-only).

The reference analyses in :mod:`tests.oracle.analysis` need four graph
operations: multi-edge storage with per-edge attributes, strongly
connected components, shortest paths and edge iteration. ``src/`` no
longer builds a graph at all — :func:`repro.analysis.positions.position_facts`
computes the same facts in one pass over the positions — so the class
lives here as the construction those facts are held to.

Nodes are integers throughout (column positions, or dependency /
existential-variable indices).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Set, Tuple, Union

EdgeData = Dict[str, object]


class MultiDiGraph:
    """Directed multigraph over integer nodes with dict edge attributes."""

    def __init__(self) -> None:
        self._nodes: Dict[int, None] = {}
        self._succ: Dict[int, Dict[int, List[EdgeData]]] = {}
        self._edge_count = 0

    # -- construction ---------------------------------------------------

    def add_node(self, node: int) -> None:
        if node not in self._nodes:
            self._nodes[node] = None
            self._succ[node] = {}

    def add_nodes_from(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, source: int, target: int, **data: object) -> None:
        self.add_node(source)
        self.add_node(target)
        self._succ[source].setdefault(target, []).append(dict(data))
        self._edge_count += 1

    # -- queries --------------------------------------------------------

    def number_of_nodes(self) -> int:
        return len(self._nodes)

    def number_of_edges(self) -> int:
        return self._edge_count

    def nodes(self) -> List[int]:
        return list(self._nodes)

    def successors(self, node: int) -> Iterator[int]:
        return iter(self._succ.get(node, {}))

    def edges(
        self, data: bool = False
    ) -> Iterator[Union[Tuple[int, int], Tuple[int, int, EdgeData]]]:
        """Every parallel edge once, as ``(u, v)`` or ``(u, v, data)``."""
        for source, targets in self._succ.items():
            for target, parallel in targets.items():
                for edge_data in parallel:
                    if data:
                        yield (source, target, edge_data)
                    else:
                        yield (source, target)

    def get_edge_data(
        self, source: int, target: int
    ) -> Union[Dict[int, EdgeData], None]:
        """Parallel edges between two nodes, keyed by insertion index."""
        parallel = self._succ.get(source, {}).get(target)
        if parallel is None:
            return None
        return dict(enumerate(parallel))

    # -- algorithms -----------------------------------------------------

    def strongly_connected_components(self) -> List[Set[int]]:
        """Tarjan's SCCs, iteratively (no recursion-depth limit).

        Components are emitted in *reverse* topological order of the
        condensation: every component appears after all components it
        can reach.
        """
        index_of: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        components: List[Set[int]] = []
        counter = 0

        for root in self._nodes:
            if root in index_of:
                continue
            # Each frame is (node, iterator over successors).
            work: List[Tuple[int, Iterator[int]]] = [(root, self.successors(root))]
            index_of[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index_of:
                        index_of[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, self.successors(succ)))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: Set[int] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
        return components

    def shortest_path(self, source: int, target: int) -> List[int]:
        """A fewest-edges directed path (BFS); ``ValueError`` when none."""
        if source not in self._nodes or target not in self._nodes:
            raise ValueError(f"no path from {source} to {target}")
        if source == target:
            return [source]
        parent: Dict[int, int] = {}
        queue: deque[int] = deque([source])
        seen = {source}
        while queue:
            node = queue.popleft()
            for succ in self.successors(node):
                if succ in seen:
                    continue
                parent[succ] = node
                if succ == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                seen.add(succ)
                queue.append(succ)
        raise ValueError(f"no path from {source} to {target}")
