"""Noise-aware qubit layout.

QuTracer's *qubit remapping* optimization (Sec. V-B) places the small,
optimized circuit copies onto the best physical qubits of the device — the
same idea as Qiskit's "mapomatic" noise-aware layout [31].  The heuristic
here scores connected regions of the coupling map by the calibration data of
their qubits and couplers and picks the best region of the required size,
then assigns the busiest logical qubits to the best physical qubits inside
that region.
"""

from __future__ import annotations

from collections import Counter

from ..circuits import QuantumCircuit
from ..noise.device import DeviceModel
from .coupling import CouplingMap

__all__ = ["Layout", "noise_aware_layout"]


class Layout:
    """A mapping from logical circuit qubits to physical device qubits."""

    def __init__(self, mapping: dict[int, int]) -> None:
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("two logical qubits map to the same physical qubit")
        self.logical_to_physical = dict(mapping)

    def physical(self, logical: int) -> int:
        return self.logical_to_physical[logical]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self.logical_to_physical == other.logical_to_physical

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Layout({self.logical_to_physical})"


def _embedded_layout(circuit, device, coupling, qubit_cost, edge_cost, max_candidates: int = 30):
    """Try to place every two-qubit gate on a coupler via subgraph monomorphism."""
    import networkx as nx

    interaction = nx.Graph()
    interaction.add_nodes_from(range(circuit.num_qubits))
    for inst in circuit.data:
        if inst.is_two_qubit_gate:
            interaction.add_edge(*inst.qubits)
    connected_nodes = [n for n in interaction.nodes if interaction.degree(n) > 0]
    isolated_nodes = [n for n in interaction.nodes if interaction.degree(n) == 0]
    core = interaction.subgraph(connected_nodes)

    best_mapping: dict[int, int] | None = None
    best_cost = float("inf")
    if connected_nodes:
        matcher = nx.algorithms.isomorphism.GraphMatcher(coupling.graph, core)
        for count, monomorphism in enumerate(matcher.subgraph_monomorphisms_iter()):
            if count >= max_candidates:
                break
            mapping = {logical: physical for physical, logical in monomorphism.items()}
            cost = sum(qubit_cost(p) for p in mapping.values())
            cost += sum(
                edge_cost(mapping[a], mapping[b]) * 50.0 for a, b in core.edges()
            )
            if cost < best_cost:
                best_cost = cost
                best_mapping = mapping
        if best_mapping is None:
            return None
    else:
        best_mapping = {}

    used = set(best_mapping.values())
    free = sorted(
        (q for q in range(device.num_qubits) if q not in used), key=qubit_cost
    )
    for logical, physical in zip(isolated_nodes, free):
        best_mapping[logical] = physical
    if len(best_mapping) != circuit.num_qubits:
        return None
    return Layout(best_mapping)


def noise_aware_layout(circuit: QuantumCircuit, device: DeviceModel) -> Layout:
    """Choose physical qubits for ``circuit`` using the device calibration.

    The layout is built in two steps:

    1. grow a connected region of the required size, greedily adding the
       neighbouring qubit with the best (lowest) cost, where cost combines
       readout error, single-qubit error and the error of the coupler used to
       reach the region; each candidate seed among the device's best qubits
       is tried and the cheapest region wins;
    2. inside the region, assign logical qubits with the most two-qubit gates
       to physical qubits with the best connectivity-weighted calibration.
    """
    num_needed = circuit.num_qubits
    if num_needed > device.num_qubits:
        raise ValueError(
            f"circuit needs {num_needed} qubits but device {device.name} has {device.num_qubits}"
        )
    coupling = CouplingMap(device.coupling_edges, device.num_qubits)

    def qubit_cost(qubit: int) -> float:
        calibration = device.qubit_calibrations[qubit]
        return calibration.readout_error + 10.0 * calibration.sq_error + 1e4 / calibration.t1

    def edge_cost(a: int, b: int) -> float:
        calibration = device.edge_calibrations.get(tuple(sorted((a, b))))
        return calibration.cx_error if calibration else 1.0

    # First choice: embed the circuit's interaction graph directly into the
    # coupling graph (a subgraph monomorphism), so every two-qubit gate sits
    # on a coupler.  A handful of embeddings are scored by calibration cost
    # and the best is kept.  When no embedding exists (e.g. a 3-regular QAOA
    # graph on a heavy-hex device) we fall back to the greedy connected-region
    # heuristic below; the device noise model then charges each non-adjacent
    # pair a distance penalty (DeviceModel.noise_model_for_assignment).
    embedded = _embedded_layout(circuit, device, coupling, qubit_cost, edge_cost)
    if embedded is not None:
        return embedded

    best_region: list[int] | None = None
    best_cost = float("inf")
    seeds = device.best_qubits(min(device.num_qubits, max(4, num_needed)))
    for seed in seeds:
        region = [seed]
        cost = qubit_cost(seed)
        frontier = {(q, seed) for q in coupling.neighbors(seed)}
        feasible = True
        while len(region) < num_needed:
            candidates = [(q, via) for q, via in frontier if q not in region]
            if not candidates:
                feasible = False
                break
            q, via = min(candidates, key=lambda item: qubit_cost(item[0]) + 5.0 * edge_cost(*item))
            region.append(q)
            cost += qubit_cost(q) + 5.0 * edge_cost(q, via)
            frontier = {(n, q2) for q2 in region for n in coupling.neighbors(q2) if n not in region}
        if feasible and cost < best_cost:
            best_cost = cost
            best_region = region
    if best_region is None:
        raise ValueError("could not find a connected region of the required size")

    # Interaction-aware assignment inside the region: place the busiest
    # logical qubit first, then repeatedly place the logical qubit with the
    # most already-placed interaction partners next to those partners.  This
    # keeps every gate of a chain-like circuit (VQE ansatz) on a coupler
    # whenever the region itself is chain-like.
    interactions: Counter = Counter()
    usage: Counter = Counter()
    for inst in circuit.data:
        if inst.is_two_qubit_gate:
            usage.update(inst.qubits)
            interactions[tuple(sorted(inst.qubits))] += 1

    def partners(logical: int) -> list[int]:
        result = []
        for (a, b), count in interactions.items():
            if a == logical:
                result.extend([b] * count)
            elif b == logical:
                result.extend([a] * count)
        return result

    region_set = set(best_region)
    free_physical = set(best_region)
    mapping: dict[int, int] = {}

    def physical_quality(qubit: int) -> float:
        in_region_degree = sum(1 for n in coupling.neighbors(qubit) if n in region_set)
        return qubit_cost(qubit) - 0.002 * in_region_degree

    unplaced = set(range(num_needed))
    while unplaced:
        placed_partner_count = {
            q: sum(1 for p in partners(q) if p in mapping) for q in unplaced
        }
        logical = max(unplaced, key=lambda q: (placed_partner_count[q], usage[q], -q))
        candidate_pool = free_physical
        placed_partner_positions = [mapping[p] for p in set(partners(logical)) if p in mapping]
        if placed_partner_positions:
            adjacent = {
                n
                for p in placed_partner_positions
                for n in coupling.neighbors(p)
                if n in free_physical
            }
            if adjacent:
                candidate_pool = adjacent

        def candidate_cost(physical: int) -> float:
            distance_penalty = sum(
                coupling.distance(physical, p) - 1 for p in placed_partner_positions
            )
            return 2.0 * distance_penalty + physical_quality(physical)

        choice = min(candidate_pool, key=candidate_cost)
        mapping[logical] = choice
        free_physical.discard(choice)
        unplaced.discard(logical)
    return Layout(mapping)
