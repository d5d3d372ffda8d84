"""Unit tests for QuantumCircuit construction and transformation."""

import math

import numpy as np
import pytest

from repro.circuits import Barrier, QuantumCircuit, circuit_fingerprint, standard_gate
from repro.circuits.circuit import _expand_gate


class TestBuilder:
    def test_chaining_and_len(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cz(1, 2).rz(0.3, 2)
        assert len(qc) == 4
        assert qc.count_ops() == {"h": 1, "cx": 1, "cz": 1, "rz": 1}

    def test_out_of_range_qubit_raises(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.h(2)

    def test_out_of_range_clbit_raises(self):
        qc = QuantumCircuit(2, 1)
        with pytest.raises(ValueError):
            qc.measure(0, 1)

    def test_measure_all_extends_clbits(self):
        qc = QuantumCircuit(4)
        qc.h(0).measure_all()
        assert qc.num_clbits == 4
        assert len(qc.measurements) == 4
        assert qc.measured_qubits == [0, 1, 2, 3]

    def test_measure_subset(self):
        qc = QuantumCircuit(5)
        qc.measure_subset([1, 3])
        assert qc.measured_qubits == [1, 3]
        assert qc.num_clbits == 4

    def test_two_qubit_gate_count(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cz(1, 2).swap(0, 2).ccx(0, 1, 2)
        assert qc.num_two_qubit_gates() == 3

    def test_prepare_states(self):
        qc = QuantumCircuit(1)
        qc.prepare("+", 0)
        assert qc.data[0].operation.name == "prep_+"


class TestTransformations:
    def test_copy_is_independent(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        other = qc.copy()
        other.x(1)
        assert len(qc) == 1 and len(other) == 2

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(4)
        outer.h(3)
        combined = outer.compose(inner, qubits=[3, 1])
        assert combined.data[-1].qubits == (3, 1)
        assert combined.num_qubits == 4

    def test_compose_wrong_mapping_length(self):
        with pytest.raises(ValueError):
            QuantumCircuit(3).compose(QuantumCircuit(2), qubits=[0])

    def test_inverse_undoes_circuit(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).rz(0.3, 1).t(0)
        identity = qc.compose(qc.inverse()).to_matrix()
        assert np.allclose(identity, np.eye(4))

    def test_inverse_rejects_measurements(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0).measure(0, 0)
        with pytest.raises(ValueError):
            qc.inverse()

    def test_remove_final_measurements(self):
        qc = QuantumCircuit(2)
        qc.h(0).measure_all()
        stripped = qc.remove_final_measurements()
        assert not stripped.has_measurements
        assert stripped.count_ops()["h"] == 1

    def test_remap_qubits(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        remapped = qc.remap_qubits({0: 4, 1: 2}, num_qubits=6)
        assert remapped.num_qubits == 6
        assert remapped.data[0].qubits == (4, 2)

    def test_compact_without_idle_wires_is_an_independent_copy(self):
        qc = QuantumCircuit(3, 2, "full")
        qc.h(0).barrier().cx(0, 2).barrier(1, 2, label="cut").rz(0.2, 1).measure(2, 1)
        qc.metadata["tag"] = 1
        compact, active = qc.compact_qubits()
        assert active == list(range(qc.num_qubits))
        assert circuit_fingerprint(compact) == circuit_fingerprint(qc)
        assert (compact.num_qubits, compact.num_clbits, compact.name) == (3, 2, "full")
        assert compact.metadata == qc.metadata and compact.metadata is not qc.metadata
        assert compact.data is not qc.data
        compact.x(0)
        qc.h(1)
        assert [i.name for i in compact.data][-2:] == ["measure", "x"]
        assert [i.name for i in qc.data][-2:] == ["measure", "h"]

    def test_compact_without_idle_wires_drops_wireless_barriers(self):
        # Compaction keeps a barrier on its surviving wires and drops it when
        # none survive; a wireless barrier has none, idle wires or not.
        qc = QuantumCircuit(1)
        qc.h(0).append(Barrier(0), ()).barrier()
        compact, active = qc.compact_qubits()
        assert active == [0]
        assert [i.qubits for i in compact.data] == [(0,), (0,)]
        empty, active = QuantumCircuit(0).barrier().compact_qubits()
        assert (empty.num_qubits, active, empty.data) == (0, [], [])

    def test_compact_with_idle_wires_still_remaps(self):
        qc = QuantumCircuit(4)
        qc.h(1).barrier().cx(1, 3)
        compact, active = qc.compact_qubits()
        assert active == [1, 3]
        assert [i.qubits for i in compact.data] == [(0,), (0, 1), (0, 1)]


class TestToMatrix:
    def test_bell_circuit_unitary(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        state = qc.to_matrix() @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_matches_kron_for_parallel_gates(self):
        qc = QuantumCircuit(2)
        qc.x(0).z(1)
        # little-endian: qubit 1 is the left factor of the kron product
        expected = np.kron(standard_gate("z").matrix, standard_gate("x").matrix)
        assert np.allclose(qc.to_matrix(), expected)

    def test_gate_on_nonadjacent_wires(self):
        qc = QuantumCircuit(3)
        qc.cx(0, 2)
        matrix = qc.to_matrix()
        # |001> (q0=1) -> |101> (q2 flipped)
        assert np.allclose(matrix @ np.eye(8)[0b001], np.eye(8)[0b101])
        # |011> -> |111>
        assert np.allclose(matrix @ np.eye(8)[0b011], np.eye(8)[0b111])
        # control 0 untouched
        assert np.allclose(matrix @ np.eye(8)[0b010], np.eye(8)[0b010])

    def test_reversed_wire_order_gate(self):
        qc = QuantumCircuit(2)
        qc.cx(1, 0)  # control qubit 1, target qubit 0
        matrix = qc.to_matrix()
        assert np.allclose(matrix @ np.eye(4)[0b10], np.eye(4)[0b11])
        assert np.allclose(matrix @ np.eye(4)[0b01], np.eye(4)[0b01])

    def test_rejects_measurements(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(ValueError):
            qc.to_matrix()

    def test_expand_gate_dimensions(self):
        matrix = _expand_gate(standard_gate("h").matrix, (1,), 3)
        assert matrix.shape == (8, 8)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(8))
