"""Quantum circuit intermediate representation.

The public surface mirrors the small subset of Qiskit used by the QuTracer
paper: a :class:`QuantumCircuit` builder, a standard gate library, and
dependency / commutation analysis helpers.
"""

from .circuit import QuantumCircuit
from .fingerprint import circuit_fingerprint
from .dag import (
    dependency_cone,
    final_single_qubit_layer,
    gate_commutes_with_pauli,
    instructions_commute,
    restrict_to_cone,
    split_at_barriers,
)
from .instruction import Instruction
from .operations import (
    Barrier,
    Gate,
    Measurement,
    Operation,
    Reset,
    StatePreparation,
    UnitaryGate,
    controlled_matrix,
    is_hermitian,
    is_unitary,
    pauli_matrix,
    standard_gate,
    STANDARD_GATE_NAMES,
)

__all__ = [
    "QuantumCircuit",
    "circuit_fingerprint",
    "Instruction",
    "Operation",
    "Gate",
    "UnitaryGate",
    "Measurement",
    "Barrier",
    "Reset",
    "StatePreparation",
    "standard_gate",
    "STANDARD_GATE_NAMES",
    "controlled_matrix",
    "is_unitary",
    "is_hermitian",
    "pauli_matrix",
    "dependency_cone",
    "restrict_to_cone",
    "gate_commutes_with_pauli",
    "instructions_commute",
    "split_at_barriers",
    "final_single_qubit_layer",
]
