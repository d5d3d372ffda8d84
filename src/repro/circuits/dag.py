"""Commutation checks over circuit instructions.

The QuTracer analysis pass (Sec. V of the paper) asks whether a gate
commutes with a Pauli operator restricted to the subset (cut-point
placement and gate bypassing, :func:`repro.core.analysis.analyse_subset`)
and whether two gates commute (false dependency removal,
:mod:`repro.core.optimizations`).
"""

from __future__ import annotations

import numpy as np

from .circuit import _expand_gate
from .instruction import Instruction
from .operations import Gate, pauli_matrix

__all__ = ["gate_commutes_with_pauli", "instructions_commute"]


def gate_commutes_with_pauli(
    instruction: Instruction, pauli: dict[int, str], atol: float = 1e-9
) -> bool:
    """True if the gate commutes with the Pauli operator ``pauli``.

    ``pauli`` maps qubit index -> Pauli letter; qubits not in the map carry
    identity.  Only the gate's own wires matter, so the check is a dense
    comparison on at most a few qubits.
    """
    if not instruction.is_gate:
        raise ValueError("commutation is only defined for gates")
    gate: Gate = instruction.operation  # type: ignore[assignment]
    label = "".join(pauli.get(q, "I") for q in instruction.qubits)
    if set(label) == {"I"}:
        return True
    pauli_mat = pauli_matrix(label)
    gate_mat = gate.matrix
    return bool(np.allclose(gate_mat @ pauli_mat, pauli_mat @ gate_mat, atol=atol))


def instructions_commute(a: Instruction, b: Instruction, atol: float = 1e-9) -> bool:
    """True if two gate instructions commute as operators.

    Instructions on disjoint wires always commute.  Otherwise the dense
    matrices are compared on the union of their wires.
    """
    if not (a.is_gate and b.is_gate):
        raise ValueError("commutation is only defined for gates")
    shared = set(a.qubits) & set(b.qubits)
    if not shared:
        return True
    union = sorted(set(a.qubits) | set(b.qubits))
    index_of = {q: i for i, q in enumerate(union)}
    n = len(union)
    mat_a = _expand_gate(a.operation.matrix, [index_of[q] for q in a.qubits], n)
    mat_b = _expand_gate(b.operation.matrix, [index_of[q] for q in b.qubits], n)
    return bool(np.allclose(mat_a @ mat_b, mat_b @ mat_a, atol=atol))
