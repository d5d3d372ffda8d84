"""Tests for the commutation checks of the subset analysis."""

import pytest

from repro.circuits import (
    Instruction,
    QuantumCircuit,
    gate_commutes_with_pauli,
    instructions_commute,
    standard_gate,
)


class TestCommutation:
    def test_cz_commutes_with_z_on_either_qubit(self):
        inst = Instruction(standard_gate("cz"), (0, 1))
        assert gate_commutes_with_pauli(inst, {0: "Z"})
        assert gate_commutes_with_pauli(inst, {1: "Z"})
        assert gate_commutes_with_pauli(inst, {0: "Z", 1: "Z"})

    def test_cx_commutes_with_z_on_control_only(self):
        inst = Instruction(standard_gate("cx"), (0, 1))
        assert gate_commutes_with_pauli(inst, {0: "Z"})
        assert not gate_commutes_with_pauli(inst, {1: "Z"})
        # X on the target commutes, X on the control does not.
        assert gate_commutes_with_pauli(inst, {1: "X"})
        assert not gate_commutes_with_pauli(inst, {0: "X"})

    def test_crz_and_cp_commute_with_z_on_both(self):
        for name in ("crz", "cp"):
            inst = Instruction(standard_gate(name, 0.4), (0, 1))
            assert gate_commutes_with_pauli(inst, {0: "Z"})
            assert gate_commutes_with_pauli(inst, {1: "Z"})

    def test_hadamard_does_not_commute_with_z(self):
        inst = Instruction(standard_gate("h"), (0,))
        assert not gate_commutes_with_pauli(inst, {0: "Z"})

    def test_identity_pauli_always_commutes(self):
        inst = Instruction(standard_gate("h"), (0,))
        assert gate_commutes_with_pauli(inst, {3: "Z"})

    def test_rejects_non_gate(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(ValueError):
            gate_commutes_with_pauli(qc.data[0], {0: "Z"})

    def test_instructions_commute_disjoint(self):
        a = Instruction(standard_gate("h"), (0,))
        b = Instruction(standard_gate("x"), (1,))
        assert instructions_commute(a, b)

    def test_instructions_commute_shared_wire(self):
        a = Instruction(standard_gate("cz"), (0, 1))
        b = Instruction(standard_gate("rz", 0.2), (0,))
        assert instructions_commute(a, b)
        c = Instruction(standard_gate("h"), (0,))
        assert not instructions_commute(a, c)

    def test_cx_chain_commutes_on_shared_control(self):
        a = Instruction(standard_gate("cx"), (0, 1))
        b = Instruction(standard_gate("cx"), (0, 2))
        assert instructions_commute(a, b)
        c = Instruction(standard_gate("cx"), (1, 2))
        assert not instructions_commute(a, c)
