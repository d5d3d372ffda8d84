"""Wire-cutting primitives shared by SQEM and QSPC."""

from .wire_cut import (
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

__all__ = [
    "PREPARATION_LABELS",
    "REDUCED_PREPARATION_LABELS",
    "MEASUREMENT_BASES",
    "preparation_state",
    "preparation_density_matrix",
    "pauli_string_matrix",
    "multiply_pauli_strings",
    "decompose_in_pauli_basis",
    "decompose_in_preparation_basis",
    "reconstruct_density_matrix",
    "project_to_physical_state",
]
