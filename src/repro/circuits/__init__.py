"""Quantum circuit intermediate representation.

The public surface mirrors the small subset of Qiskit used by the QuTracer
paper: a :class:`QuantumCircuit` builder, a standard gate library, and the
commutation checks of the subset analysis.
"""

from .circuit import QuantumCircuit
from .fingerprint import circuit_fingerprint
from .dag import gate_commutes_with_pauli, instructions_commute
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
    "gate_commutes_with_pauli",
    "instructions_commute",
]
