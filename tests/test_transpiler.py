"""Tests for basis translation, gate counting, coupling maps and the
noise-aware layout (QuTracer's qubit remapping)."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import (
    qaoa_maxcut_circuit,
    qft_circuit,
    qpe_circuit,
    random_regular_maxcut_graph,
    ring_graph,
    vqe_circuit,
)
from repro.circuits import QuantumCircuit, UnitaryGate, standard_gate
from repro.noise import (
    DeviceModel,
    EdgeCalibration,
    QubitCalibration,
    falcon_27_coupling,
    fake_hanoi,
    heavy_hex_coupling,
    linear_coupling,
)
from repro.transpiler import (
    BASIS_GATES,
    CouplingMap,
    Layout,
    count_two_qubit_basis_gates,
    decompose_to_basis,
    euler_zyz_angles,
    noise_aware_layout,
)


def assert_equivalent_up_to_phase(circuit_a, circuit_b, atol=1e-7):
    a = circuit_a.to_matrix()
    b = circuit_b.to_matrix()
    index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    phase = b[index] / a[index]
    assert abs(abs(phase) - 1.0) < 1e-6
    assert np.allclose(a * phase, b, atol=atol)


class TestEulerAngles:
    @pytest.mark.parametrize("name, params", [
        ("h", ()), ("x", ()), ("s", ()), ("t", ()), ("sx", ()),
        ("rx", (0.7,)), ("ry", (2.1,)), ("rz", (-1.3,)), ("p", (0.9,)),
        ("u", (0.4, 1.1, -0.6)),
    ])
    def test_zyz_reconstruction(self, name, params):
        matrix = standard_gate(name, *params).matrix
        alpha, beta, gamma, delta = euler_zyz_angles(matrix)
        rz, ry = (lambda t: standard_gate("rz", t).matrix), (lambda t: standard_gate("ry", t).matrix)
        rebuilt = np.exp(1j * alpha) * rz(beta) @ ry(gamma) @ rz(delta)
        assert np.allclose(rebuilt, matrix, atol=1e-9)

    def test_random_unitaries(self, make_rng):
        rng = make_rng(5)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            alpha, beta, gamma, delta = euler_zyz_angles(q)
            rz, ry = (lambda t: standard_gate("rz", t).matrix), (lambda t: standard_gate("ry", t).matrix)
            rebuilt = np.exp(1j * alpha) * rz(beta) @ ry(gamma) @ rz(delta)
            assert np.allclose(rebuilt, q, atol=1e-8)


class TestBasisTranslation:
    def test_only_basis_gates_remain(self):
        qc = QuantumCircuit(3)
        qc.h(0).t(1).cz(0, 1).cp(0.3, 1, 2).swap(0, 2).ccx(0, 1, 2)
        out = decompose_to_basis(qc)
        for inst in out.data:
            if inst.is_gate:
                assert inst.name in BASIS_GATES

    @pytest.mark.parametrize("builder", [
        lambda: qft_circuit(3),
        lambda: qpe_circuit(3, phase=0.375, measure=False),
        lambda: vqe_circuit(4, 2, measure=False),
        lambda: qaoa_maxcut_circuit(ring_graph(4), 2, measure=False),
    ])
    def test_equivalence_on_algorithm_circuits(self, builder):
        circuit = builder()
        assert_equivalent_up_to_phase(circuit, decompose_to_basis(circuit))

    def test_equivalence_on_mixed_gate_circuit(self):
        qc = QuantumCircuit(3)
        qc.h(0).s(1).sdg(2).crz(0.7, 2, 0).cry(0.4, 0, 1).crx(1.2, 1, 2)
        qc.rzz(0.5, 0, 1).ch(0, 2).cy(1, 0).cswap(0, 1, 2)
        assert_equivalent_up_to_phase(qc, decompose_to_basis(qc))

    def test_single_qubit_runs_are_merged(self):
        qc = QuantumCircuit(1)
        for _ in range(10):
            qc.h(0).t(0).s(0)
        out = decompose_to_basis(qc)
        # one merged unitary -> at most 5 basis gates
        assert len(out.gates) <= 5

    def test_adjacent_cx_cancellation(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).cx(0, 1).h(0)
        out = decompose_to_basis(qc)
        assert out.count_ops().get("cx", 0) == 0

    def test_non_adjacent_cx_not_cancelled(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).z(1).cx(0, 1)
        out = decompose_to_basis(qc)
        assert out.count_ops().get("cx", 0) == 2

    def test_measurements_and_barriers_preserved(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0).barrier().cx(0, 1).measure(0, 0).measure(1, 1)
        out = decompose_to_basis(qc)
        assert out.count_ops()["measure"] == 2
        assert out.count_ops()["barrier"] == 1

    def test_two_qubit_gate_count_metric(self):
        assert count_two_qubit_basis_gates(vqe_circuit(12, 1)) == 11
        assert count_two_qubit_basis_gates(vqe_circuit(15, 1)) == 14

    def test_cz_costs_one_cx(self):
        qc = QuantumCircuit(2)
        qc.cz(0, 1)
        assert count_two_qubit_basis_gates(qc) == 1

    def test_swap_costs_three_cx(self):
        qc = QuantumCircuit(2)
        qc.swap(0, 1)
        assert count_two_qubit_basis_gates(qc) == 3

    def test_cp_costs_two_cx(self):
        qc = QuantumCircuit(2)
        qc.cp(0.3, 0, 1)
        assert count_two_qubit_basis_gates(qc) == 2


# Two-qubit basis cost of each multi-qubit gate before any cancellation.
GATE_COSTS = {
    "cx": 1, "cz": 1, "cp": 2, "crz": 2, "crx": 2, "cry": 2, "ch": 2, "cy": 2,
    "rzz": 2, "swap": 3, "ccx": 6, "cswap": 8,
}
_ONE_QUBIT = ["h", "t", "s", "sdg", "sx", "x", "rx", "ry", "rz", "p"]
_PARAMETRIC = {"rx", "ry", "rz", "p", "cp", "crz", "crx", "cry", "rzz"}


def _random_circuit(rng, num_qubits: int = 3, length: int = 14) -> QuantumCircuit:
    """A random mix of one-qubit gates and every gate of :data:`GATE_COSTS`."""
    names = _ONE_QUBIT + sorted(GATE_COSTS)
    qc = QuantumCircuit(num_qubits)
    for _ in range(length):
        name = names[rng.integers(len(names))]
        params = (float(rng.uniform(-np.pi, np.pi)),) if name in _PARAMETRIC else ()
        gate = standard_gate(name, *params)
        qubits = [int(q) for q in rng.permutation(num_qubits)[: gate.num_qubits]]
        qc.append(gate, qubits)
    return qc


def _random_unitary(rng, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


class TestGateCounts:
    """``count_two_qubit_basis_gates`` is the gate count the paper's tables
    report; QuTracer reads it off each logical circuit copy."""

    @pytest.mark.parametrize("name", sorted(set(GATE_COSTS) - {"cx", "cz", "swap", "cp"}))
    def test_each_gate_costs_its_decomposition(self, name):
        gate = standard_gate(name, 0.3) if name in _PARAMETRIC else standard_gate(name)
        qc = QuantumCircuit(gate.num_qubits)
        qc.append(gate, range(gate.num_qubits))
        assert count_two_qubit_basis_gates(qc) == GATE_COSTS[name]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_translate_exactly(self, make_rng, seed):
        circuit = _random_circuit(make_rng(seed))
        translated = decompose_to_basis(circuit)
        assert all(inst.name in BASIS_GATES for inst in translated.data if inst.is_gate)
        assert_equivalent_up_to_phase(circuit, translated)
        # Cancellation can only remove CX pairs.
        budget = sum(GATE_COSTS.get(inst.name, 0) for inst in circuit.data)
        assert count_two_qubit_basis_gates(circuit) <= budget

    def test_count_does_not_depend_on_placement(self, make_rng):
        # QuTracer counts a copy before placing it: any relabelling of its
        # wires, onto a wider register too, keeps the count.
        circuit = _random_circuit(make_rng(11), num_qubits=4, length=20)
        count = count_two_qubit_basis_gates(circuit)
        for permutation in ([3, 2, 1, 0], [1, 3, 0, 2]):
            mapping = dict(enumerate(permutation))
            assert count_two_qubit_basis_gates(circuit.remap_qubits(mapping)) == count
        assert count_two_qubit_basis_gates(circuit.remap_qubits({0: 9}, num_qubits=10)) == count

    def test_diagonal_two_qubit_unitary_costs_at_most_two(self, make_rng):
        phases = make_rng(2).uniform(-np.pi, np.pi, size=4)
        qc = QuantumCircuit(2)
        qc.append(UnitaryGate(np.diag(np.exp(1j * phases))), [0, 1])
        assert count_two_qubit_basis_gates(qc) <= 2
        assert_equivalent_up_to_phase(qc, decompose_to_basis(qc))

    @pytest.mark.parametrize("control", [0, 1])
    def test_controlled_two_qubit_unitary_costs_two(self, make_rng, control):
        # Identity where the control wire reads 0 (wire 0 is the low bit).
        matrix = np.eye(4, dtype=complex)
        active = [1, 3] if control == 0 else [2, 3]
        matrix[np.ix_(active, active)] = _random_unitary(make_rng(3), 2)
        qc = QuantumCircuit(2)
        qc.append(UnitaryGate(matrix), [0, 1])
        assert count_two_qubit_basis_gates(qc) == 2
        assert_equivalent_up_to_phase(qc, decompose_to_basis(qc))

    def test_general_two_qubit_unitary_is_refused(self, make_rng):
        qc = QuantumCircuit(2)
        qc.append(UnitaryGate(_random_unitary(make_rng(4), 4)), [0, 1])
        with pytest.raises(NotImplementedError):
            count_two_qubit_basis_gates(qc)


class TestCouplingMap:
    def test_basic_queries(self):
        coupling = CouplingMap(linear_coupling(5))
        assert coupling.num_qubits == 5
        assert coupling.graph.has_edge(1, 2)
        assert not coupling.graph.has_edge(0, 3)
        assert coupling.distance(0, 4) == 4
        assert coupling.distance(3, 1) == 2
        assert coupling.neighbors(2) == [1, 3]
        assert coupling.neighbors(0) == [1]

    @pytest.mark.parametrize("edges", [falcon_27_coupling(), heavy_hex_coupling()],
                             ids=["falcon", "heavy-hex"])
    def test_distance_is_the_coupler_count(self, edges):
        coupling = CouplingMap(edges)
        graph = nx.Graph(edges)
        for a, b in itertools.combinations(range(0, coupling.num_qubits, 5), 2):
            assert coupling.distance(a, b) == coupling.distance(b, a)
            assert coupling.distance(a, b) == nx.shortest_path_length(graph, a, b)

    def test_explicit_size_adds_idle_qubits(self):
        coupling = CouplingMap([(0, 1)], num_qubits=3)
        assert coupling.num_qubits == 3
        assert coupling.neighbors(2) == []
        with pytest.raises(ValueError, match="not connected"):
            coupling.distance(0, 2)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CouplingMap([], num_qubits=None)
        with pytest.raises(ValueError):
            CouplingMap([(0, 5)], num_qubits=3)

    def test_disconnected_distance_raises(self):
        coupling = CouplingMap([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            coupling.distance(0, 3)


def _line_device(num_qubits=5, readout=None, cx_error=None) -> DeviceModel:
    """A line device with uniform calibration, except the overrides given
    as ``{qubit: readout error}`` and ``{edge: cx error}``."""
    readout = readout or {}
    cx_error = cx_error or {}
    qubits = {
        q: QubitCalibration(
            t1=120e3, t2=150e3, readout_error=readout.get(q, 0.02), sq_error=3e-4,
            sq_gate_time=35.56,
        )
        for q in range(num_qubits)
    }
    edges = {
        edge: EdgeCalibration(cx_error=cx_error.get(edge, 1e-2), gate_time=400.0)
        for edge in linear_coupling(num_qubits)
    }
    return DeviceModel("line", num_qubits, list(edges), qubits, edges)


def _star(leaves: int) -> QuantumCircuit:
    qc = QuantumCircuit(leaves + 1)
    qc.h(0)
    for leaf in range(1, leaves + 1):
        qc.cx(0, leaf)
    return qc


def _triangle() -> QuantumCircuit:
    qc = QuantumCircuit(3)
    qc.cx(0, 1).cx(1, 2).cx(0, 2)
    return qc


def _idle_only(width: int) -> QuantumCircuit:
    qc = QuantumCircuit(width)
    for q in range(width):
        qc.h(q)
    return qc


def _interactions(circuit: QuantumCircuit) -> set[tuple[int, int]]:
    return {tuple(sorted(inst.qubits)) for inst in circuit.data if inst.is_two_qubit_gate}


_LAYOUT_CIRCUITS = {
    "vqe-chain": lambda: vqe_circuit(6, 1, measure=False),
    "ghz-star": lambda: _star(3),
    "qaoa-12-ring": lambda: qaoa_maxcut_circuit(ring_graph(12), 1, measure=False),
    "qaoa-6-ring": lambda: qaoa_maxcut_circuit(ring_graph(6), 1, measure=False),
    "qaoa-3-regular": lambda: qaoa_maxcut_circuit(
        random_regular_maxcut_graph(6, seed=1), 1, measure=False
    ),
    "qft-all-to-all": lambda: qft_circuit(4),
    "idle-only": lambda: _idle_only(3),
}


class TestLayout:
    def test_layout_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Layout({0: 1, 1: 1})

    def test_noise_aware_layout_embeds_chain_without_routing(self):
        device = fake_hanoi()
        circuit = vqe_circuit(12, 1)
        layout = noise_aware_layout(circuit, device)
        physical = layout.logical_to_physical
        edges = {tuple(sorted(e)) for e in device.coupling_edges}
        for q in range(11):
            assert tuple(sorted((physical[q], physical[q + 1]))) in edges

    def test_noise_aware_layout_too_large(self):
        device = fake_hanoi()
        with pytest.raises(ValueError):
            noise_aware_layout(QuantumCircuit(28), device)

    @pytest.mark.parametrize("name", sorted(_LAYOUT_CIRCUITS))
    def test_every_logical_qubit_gets_its_own_device_qubit(self, name):
        device = fake_hanoi()
        circuit = _LAYOUT_CIRCUITS[name]()
        layout = noise_aware_layout(circuit, device)
        assert sorted(layout.logical_to_physical) == list(range(circuit.num_qubits))
        physical = [layout.physical(q) for q in range(circuit.num_qubits)]
        assert len(set(physical)) == len(physical)
        assert all(0 <= p < device.num_qubits for p in physical)
        # A deterministic function of circuit and calibration: the tracer
        # memoises one noise model per assignment.
        assert noise_aware_layout(circuit, device) == layout

    @pytest.mark.parametrize("name", ["vqe-chain", "ghz-star", "qaoa-12-ring"])
    def test_embeddable_circuits_put_every_gate_on_a_coupler(self, name):
        # Falcon's heavy-hex lattice holds paths, degree-3 stars and
        # 12-cycles, so each of these interaction graphs embeds.
        device = fake_hanoi()
        circuit = _LAYOUT_CIRCUITS[name]()
        layout = noise_aware_layout(circuit, device)
        couplers = set(device.coupling_edges)
        for a, b in _interactions(circuit):
            assert tuple(sorted((layout.physical(a), layout.physical(b)))) in couplers

    @pytest.mark.parametrize("name", ["qaoa-3-regular", "qaoa-6-ring", "qft-all-to-all"])
    def test_unembeddable_circuits_get_a_connected_region(self, name):
        # Heavy-hex has no cycle shorter than 12, so these interaction
        # graphs cannot embed; the fallback grows one connected region.
        device = fake_hanoi()
        circuit = _LAYOUT_CIRCUITS[name]()
        layout = noise_aware_layout(circuit, device)
        region = [layout.physical(q) for q in range(circuit.num_qubits)]
        assert nx.is_connected(nx.Graph(device.coupling_edges).subgraph(region))

    def test_triangle_on_a_line_takes_three_adjacent_qubits(self):
        layout = noise_aware_layout(_triangle(), _line_device(6))
        region = sorted(layout.physical(q) for q in range(3))
        assert region[2] - region[0] == 2

    def test_a_bad_qubit_is_avoided(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        layout = noise_aware_layout(qc, _line_device(5, readout={0: 0.45, 4: 0.45}))
        assert {layout.physical(0), layout.physical(1)}.isdisjoint({0, 4})

    def test_a_bad_coupler_is_avoided(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        for bad in linear_coupling(5):
            layout = noise_aware_layout(qc, _line_device(5, cx_error={bad: 0.3}))
            assert tuple(sorted((layout.physical(0), layout.physical(1)))) != bad

    def test_an_idle_circuit_takes_the_best_qubits(self):
        device = _line_device(5, readout={3: 0.001, 1: 0.005})
        layout = noise_aware_layout(_idle_only(2), device)
        assert {layout.physical(0), layout.physical(1)} == {1, 3}
