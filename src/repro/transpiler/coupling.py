"""Coupling maps: which physical qubit pairs support two-qubit gates."""

from __future__ import annotations

from typing import Iterable

import networkx as nx

__all__ = ["CouplingMap"]


class CouplingMap:
    """An undirected connectivity graph over physical qubits.

    :func:`~repro.transpiler.noise_aware_layout` matches circuits against
    :attr:`graph` and grows regions through :meth:`neighbors` and
    :meth:`distance`.
    """

    def __init__(self, edges: Iterable[tuple[int, int]], num_qubits: int | None = None) -> None:
        edge_list = [tuple(sorted((int(a), int(b)))) for a, b in edges]
        if not edge_list and not num_qubits:
            raise ValueError("a coupling map needs at least one edge or an explicit size")
        inferred = max((max(e) for e in edge_list), default=-1) + 1
        self.num_qubits = int(num_qubits) if num_qubits is not None else inferred
        if inferred > self.num_qubits:
            raise ValueError("edge endpoints exceed num_qubits")
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.num_qubits))
        self.graph.add_edges_from(edge_list)
        self._distances: dict[int, dict[int, int]] | None = None

    def neighbors(self, qubit: int) -> list[int]:
        return sorted(self.graph.neighbors(qubit))

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance (number of couplers) between two qubits."""
        if self._distances is None:
            self._distances = dict(nx.all_pairs_shortest_path_length(self.graph))
        try:
            return self._distances[a][b]
        except KeyError as exc:
            raise ValueError(f"qubits {a} and {b} are not connected") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CouplingMap(num_qubits={self.num_qubits}, edges={self.graph.number_of_edges()})"
