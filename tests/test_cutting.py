"""Tests for the wire-cutting primitives."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cutting import (
    MEASUREMENT_BASES,
    PREPARATION_LABELS,
    REDUCED_PREPARATION_LABELS,
    decompose_in_pauli_basis,
    decompose_in_preparation_basis,
    multiply_pauli_strings,
    pauli_string_matrix,
    preparation_density_matrix,
    preparation_state,
    project_to_physical_state,
    reconstruct_density_matrix,
)


class TestPreparationStates:
    def test_labels(self):
        assert set(REDUCED_PREPARATION_LABELS) <= set(PREPARATION_LABELS)
        assert len(MEASUREMENT_BASES) == 3

    @pytest.mark.parametrize("label", PREPARATION_LABELS)
    def test_states_are_normalised(self, label):
        assert np.linalg.norm(preparation_state(label)) == pytest.approx(1.0)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            preparation_state("2")

    def test_product_density_matrix_little_endian(self):
        rho = preparation_density_matrix(["1", "0"])  # wire0=|1>, wire1=|0>
        assert rho[0b01, 0b01] == pytest.approx(1.0)

    @pytest.mark.parametrize("label", PREPARATION_LABELS)
    def test_each_label_prepares_one_wire(self, label):
        ket = preparation_state(label)
        rho = preparation_density_matrix([label])
        assert rho.shape == (2, 2)
        assert np.allclose(rho, np.outer(ket, ket.conj()))

    def test_two_character_label_in_a_product(self):
        # "-i" is one wire's label: wire0=|-i>, wire1=|1>.
        minus_i, one = preparation_state("-i"), preparation_state("1")
        rho = preparation_density_matrix(("-i", "1"))
        assert rho.shape == (4, 4)
        assert np.allclose(rho, np.kron(np.outer(one, one.conj()), np.outer(minus_i, minus_i.conj())))

    @pytest.mark.parametrize("labels", ["-i", "0", "01", "+i"])
    def test_plain_string_is_rejected(self, labels):
        # Splitting a string per character turned "-i" into the two wires
        # |-> and |i>; a sequence of labels is the only spelling.
        with pytest.raises(TypeError):
            preparation_density_matrix(labels)

    def test_orthogonal_pairs(self):
        for a, b in [("0", "1"), ("+", "-"), ("i", "-i")]:
            overlap = abs(np.vdot(preparation_state(a), preparation_state(b)))
            assert overlap == pytest.approx(0.0, abs=1e-12)


class TestPauliAlgebra:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_pauli_string_matrix_is_a_read_only_kron(self, num_qubits):
        singles = {
            "I": np.eye(2),
            "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]),
            "Z": np.diag([1, -1]),
        }
        for letters in itertools.product("IXYZ", repeat=num_qubits):
            label = "".join(letters)
            expected = np.ones((1, 1))
            for ch in label:  # the first character is wire 0, the least significant
                expected = np.kron(singles[ch], expected)
            matrix = pauli_string_matrix(label)
            assert np.array_equal(matrix, expected)
            assert pauli_string_matrix(label) is matrix
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 2.0

    def test_multiplication_table(self):
        assert multiply_pauli_strings("X", "Y") == (1j, "Z")
        assert multiply_pauli_strings("Y", "X") == (-1j, "Z")
        assert multiply_pauli_strings("Z", "Z") == (1, "I")
        phase, label = multiply_pauli_strings("ZI", "IZ")
        assert (phase, label) == (1, "ZZ")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multiply_pauli_strings("Z", "ZZ")

    def test_matrix_consistency(self):
        phase, label = multiply_pauli_strings("XZ", "YY")
        assert np.allclose(
            pauli_string_matrix("XZ") @ pauli_string_matrix("YY"),
            phase * pauli_string_matrix(label),
        )

    def test_pauli_decomposition_round_trip(self, make_rng):
        rng = make_rng(2)
        operator = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        coefficients = decompose_in_pauli_basis(operator)
        rebuilt = sum(c * pauli_string_matrix(p) for p, c in coefficients.items())
        assert np.allclose(rebuilt, operator)

    def test_pauli_decomposition_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            decompose_in_pauli_basis(np.zeros((2, 3)))


class TestPreparationDecomposition:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_single_qubit_round_trip(self, make_rng, seed):
        rng = make_rng(seed)
        operator = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coefficients = decompose_in_preparation_basis(operator)
        rebuilt = sum(
            c * preparation_density_matrix(list(labels)) for labels, c in coefficients.items()
        )
        assert np.allclose(rebuilt, operator)
        # only the reduced preparation set is used
        for labels in coefficients:
            assert set(labels) <= set(REDUCED_PREPARATION_LABELS)

    def test_two_qubit_round_trip(self, make_rng):
        rng = make_rng(7)
        operator = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        coefficients = decompose_in_preparation_basis(operator)
        rebuilt = sum(
            c * preparation_density_matrix(list(labels)) for labels, c in coefficients.items()
        )
        assert np.allclose(rebuilt, operator)

    def test_density_matrix_of_prepared_state_is_sparse(self):
        coefficients = decompose_in_preparation_basis(preparation_density_matrix(["0"]))
        assert coefficients == {("0",): pytest.approx(1.0)}


class TestReconstruction:
    def test_reconstruct_plus_state(self):
        rho = reconstruct_density_matrix({"X": 1.0}, 1)
        assert np.allclose(rho, preparation_density_matrix(["+"]))

    def test_reconstruct_defaults_identity(self):
        rho = reconstruct_density_matrix({}, 1)
        assert np.allclose(rho, np.eye(2) / 2)

    def test_reconstruct_two_qubits(self):
        rho = reconstruct_density_matrix({"ZI": 1.0, "IZ": 1.0, "ZZ": 1.0}, 2)
        assert rho[0, 0] == pytest.approx(1.0)

    def test_projection_clips_negative_eigenvalues(self):
        unphysical = np.array([[1.2, 0.0], [0.0, -0.2]])
        projected = project_to_physical_state(unphysical)
        eigenvalues = np.linalg.eigvalsh(projected)
        assert np.all(eigenvalues >= -1e-12)
        assert np.trace(projected).real == pytest.approx(1.0)

    def test_projection_of_valid_state_is_identity(self):
        rho = preparation_density_matrix(["i"])
        assert np.allclose(project_to_physical_state(rho), rho, atol=1e-12)

    def test_projection_of_zero_matrix(self):
        projected = project_to_physical_state(np.zeros((2, 2)))
        assert np.allclose(projected, np.eye(2) / 2)
