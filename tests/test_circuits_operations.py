"""Unit tests for the gate library and operation primitives."""

import math

import numpy as np
import pytest

from repro.circuits import (
    Barrier,
    Instruction,
    Measurement,
    Reset,
    StatePreparation,
    UnitaryGate,
    is_hermitian,
    is_unitary,
    pauli_matrix,
    standard_gate,
    STANDARD_GATE_NAMES,
)


class TestStandardGateMatrices:
    def test_every_standard_gate_is_unitary(self):
        for name in sorted(STANDARD_GATE_NAMES):
            if name in ("rx", "ry", "rz", "p", "cp", "crx", "cry", "crz", "rzz"):
                gate = standard_gate(name, 0.37)
            elif name == "u":
                gate = standard_gate(name, 0.3, 0.5, 0.7)
            else:
                gate = standard_gate(name)
            assert is_unitary(gate.matrix), name

    def test_pauli_gates_are_hermitian_and_involutive(self):
        for name in ("x", "y", "z", "h", "swap"):
            matrix = standard_gate(name).matrix
            assert is_hermitian(matrix)
            assert np.allclose(matrix @ matrix, np.eye(matrix.shape[0]))

    def test_hadamard_maps_z_to_x(self):
        h = standard_gate("h").matrix
        assert np.allclose(h @ pauli_matrix("Z") @ h, pauli_matrix("X"))

    def test_s_gate_squares_to_z(self):
        s = standard_gate("s").matrix
        assert np.allclose(s @ s, standard_gate("z").matrix)

    def test_t_gate_squares_to_s(self):
        t = standard_gate("t").matrix
        assert np.allclose(t @ t, standard_gate("s").matrix)

    def test_sx_squares_to_x(self):
        sx = standard_gate("sx").matrix
        assert np.allclose(sx @ sx, standard_gate("x").matrix)

    def test_rotation_gates_at_zero_are_identity(self):
        for name in ("rx", "ry", "rz", "p"):
            assert np.allclose(standard_gate(name, 0.0).matrix, np.eye(2))

    def test_rz_pi_is_z_up_to_phase(self):
        rz = standard_gate("rz", math.pi).matrix
        z = standard_gate("z").matrix
        phase = rz[0, 0] / z[0, 0]
        assert np.allclose(rz, phase * z)

    def test_rx_pi_is_x_up_to_phase(self):
        rx = standard_gate("rx", math.pi).matrix
        assert np.allclose(rx, -1j * standard_gate("x").matrix)

    def test_u_gate_reduces_to_known_gates(self):
        h_via_u = standard_gate("u", math.pi / 2, 0.0, math.pi).matrix
        assert np.allclose(h_via_u, standard_gate("h").matrix)

    def test_cx_matrix_little_endian(self):
        # control = qubit 0 (LSB).  |01> (q0=1, q1=0) -> |11>.
        cx = standard_gate("cx").matrix
        state = np.zeros(4)
        state[0b01] = 1.0
        assert np.allclose(cx @ state, np.eye(4)[0b11])

    def test_cx_leaves_control_zero_alone(self):
        cx = standard_gate("cx").matrix
        state = np.zeros(4)
        state[0b10] = 1.0  # q1=1, q0=0 (control 0)
        assert np.allclose(cx @ state, state)

    def test_cz_is_diagonal(self):
        assert standard_gate("cz").is_diagonal()
        assert not standard_gate("cx").is_diagonal()

    def test_cp_equals_cz_at_pi(self):
        assert np.allclose(standard_gate("cp", math.pi).matrix, standard_gate("cz").matrix)

    def test_ccx_flips_target_only_when_both_controls_set(self):
        ccx = standard_gate("ccx").matrix
        for input_state in range(8):
            output = ccx @ np.eye(8)[input_state]
            expected = input_state ^ (0b100 if (input_state & 0b011) == 0b011 else 0)
            assert np.allclose(output, np.eye(8)[expected]), input_state

    def test_swap_exchanges_qubits(self):
        swap = standard_gate("swap").matrix
        assert np.allclose(swap @ np.eye(4)[0b01], np.eye(4)[0b10])

    def test_rzz_diagonal_phases(self):
        theta = 0.7
        rzz = standard_gate("rzz", theta).matrix
        assert np.allclose(np.diag(rzz), [
            np.exp(-1j * theta / 2),
            np.exp(1j * theta / 2),
            np.exp(1j * theta / 2),
            np.exp(-1j * theta / 2),
        ])

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError):
            standard_gate("quux")

    def test_wrong_parameter_count_raises(self):
        with pytest.raises(ValueError):
            standard_gate("rz")
        with pytest.raises(ValueError):
            standard_gate("h", 0.1)


class TestGateInverse:
    @pytest.mark.parametrize("name", ["h", "x", "y", "z", "s", "t", "sx", "cx", "cz", "swap"])
    def test_fixed_gate_inverse(self, name):
        gate = standard_gate(name)
        product = gate.inverse().matrix @ gate.matrix
        assert np.allclose(product, np.eye(product.shape[0]))

    @pytest.mark.parametrize("name", ["rx", "ry", "rz", "p", "cp", "crz", "rzz"])
    def test_parametric_gate_inverse(self, name):
        gate = standard_gate(name, 0.41)
        product = gate.inverse().matrix @ gate.matrix
        assert np.allclose(product, np.eye(product.shape[0]))

    def test_unitary_gate_inverse(self, make_rng):
        rng = make_rng(3)
        random = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        gate = UnitaryGate(random, name="rand")
        assert np.allclose(gate.inverse().matrix @ gate.matrix, np.eye(4))


class TestStatePreparation:
    @pytest.mark.parametrize(
        "label, expected",
        [
            ("0", [1, 0]),
            ("1", [0, 1]),
            ("+", [1 / math.sqrt(2), 1 / math.sqrt(2)]),
            ("-", [1 / math.sqrt(2), -1 / math.sqrt(2)]),
            ("i", [1 / math.sqrt(2), 1j / math.sqrt(2)]),
            ("-i", [1 / math.sqrt(2), -1j / math.sqrt(2)]),
        ],
    )
    def test_prepares_expected_state(self, label, expected):
        prep = StatePreparation(label)
        assert is_unitary(prep.matrix)
        assert np.allclose(prep.matrix @ np.array([1, 0]), expected)

    def test_custom_state_is_normalised(self):
        prep = StatePreparation(np.array([3.0, 4.0]))
        assert np.allclose(np.linalg.norm(prep.target_state), 1.0)

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            StatePreparation("plus")


class TestUnitaryGate:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.array([[1, 1], [0, 1]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.eye(3))


class TestInstruction:
    def test_wire_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            Instruction(standard_gate("cx"), (0,))

    def test_duplicate_wires_raise(self):
        with pytest.raises(ValueError):
            Instruction(standard_gate("cx"), (1, 1))

    def test_measurement_requires_clbit(self):
        with pytest.raises(ValueError):
            Instruction(Measurement(), (0,))
        inst = Instruction(Measurement(), (0,), (2,))
        assert inst.is_measurement and inst.clbits == (2,)

    def test_predicates(self):
        assert Instruction(Barrier(2), (0, 1)).is_barrier
        assert Instruction(Reset(), (3,), ()).is_reset
        assert Instruction(standard_gate("cz"), (0, 1)).is_two_qubit_gate

    def test_remap(self):
        inst = Instruction(standard_gate("cx"), (0, 1))
        remapped = inst.remap({0: 5, 1: 2})
        assert remapped.qubits == (5, 2)
        assert remapped.operation == inst.operation

    def test_equality_and_hash(self):
        a = Instruction(standard_gate("rz", 0.5), (1,))
        b = Instruction(standard_gate("rz", 0.5), (1,))
        assert a == b and hash(a) == hash(b)
        assert a != Instruction(standard_gate("rz", 0.6), (1,))


class TestPauliMatrix:
    def test_single_letters(self):
        assert np.allclose(pauli_matrix("X"), [[0, 1], [1, 0]])
        assert np.allclose(pauli_matrix("Z"), [[1, 0], [0, -1]])

    def test_little_endian_ordering(self):
        # "ZI": Z on qubit 0, I on qubit 1 -> diag(1,-1,1,-1)
        assert np.allclose(np.diag(pauli_matrix("ZI")), [1, -1, 1, -1])
        # "IZ": Z on qubit 1 -> diag(1,1,-1,-1)
        assert np.allclose(np.diag(pauli_matrix("IZ")), [1, 1, -1, -1])

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            pauli_matrix("A")
        with pytest.raises(ValueError):
            pauli_matrix("")

    def test_built_once_and_read_only(self):
        matrix = pauli_matrix("XZY")
        assert pauli_matrix("XZY") is matrix
        assert not matrix.flags.writeable
        assert not pauli_matrix("X").flags.writeable
        # Lower-case letters name the same matrix.
        assert np.array_equal(pauli_matrix("xzy"), matrix)

    def test_one_builder_serves_every_package(self):
        """The noise channels, the wire-cutting algebra and the commutation
        checks all use this builder; none of their modules keeps its own."""
        import ast
        import inspect

        from repro.circuits import dag
        from repro.cutting import pauli_string_matrix, wire_cut
        from repro.noise import channels

        assert pauli_string_matrix is pauli_matrix
        assert channels.pauli_matrix is pauli_matrix
        assert dag.pauli_matrix is pauli_matrix
        for module in (channels, wire_cut, dag):
            tree = ast.parse(inspect.getsource(module))
            builders = [
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and "pauli" in node.name and "matrix" in node.name
            ]
            assert not builders, (module.__name__, builders)
            # No table of one-qubit Pauli matrices to build from either.
            tables = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Dict)
                and {k.value for k in node.keys if isinstance(k, ast.Constant)} >= {"X", "Y", "Z"}
                and all(isinstance(v, ast.Call) for v in node.values)
            ]
            assert not tables, (module.__name__, tables)
