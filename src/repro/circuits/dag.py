"""Dependency and commutation analysis over circuits.

These utilities are the structural backbone of the QuTracer analysis pass
(Sec. V of the paper): finding the causal cone of a qubit subset, checking
whether a gate commutes with a Pauli operator restricted to the subset
(needed for cut-point placement and gate bypassing), and slicing a circuit
at barrier markers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import QuantumCircuit, _expand_gate
from .instruction import Instruction
from .operations import Gate, pauli_matrix

__all__ = [
    "dependency_cone",
    "restrict_to_cone",
    "gate_commutes_with_pauli",
    "instructions_commute",
    "split_at_barriers",
    "final_single_qubit_layer",
]

def dependency_cone(circuit: QuantumCircuit, qubits: Sequence[int]) -> list[int]:
    """Indices of instructions that the final state of ``qubits`` depends on.

    Walks the circuit backwards keeping an *active* wire set.  An instruction
    belongs to the cone when it touches an active wire; its wires then become
    active as well.  Barriers and measurements never enlarge the cone.  This
    is the plain causal-cone computation; the commutation-aware refinement
    ("false dependency removal") lives in :mod:`repro.core.optimizations`.
    """
    active = set(int(q) for q in qubits)
    cone: list[int] = []
    for index in range(len(circuit.data) - 1, -1, -1):
        inst = circuit.data[index]
        if inst.is_barrier or inst.is_measurement:
            continue
        if active.intersection(inst.qubits):
            cone.append(index)
            active.update(inst.qubits)
    cone.reverse()
    return cone


def restrict_to_cone(circuit: QuantumCircuit, qubits: Sequence[int]) -> QuantumCircuit:
    """Copy of ``circuit`` keeping only the causal cone of ``qubits``.

    Measurements on qubits outside the subset are dropped; measurements on
    the subset are kept.
    """
    cone = set(dependency_cone(circuit, qubits))
    subset = set(int(q) for q in qubits)
    new = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    new.metadata = dict(circuit.metadata)
    for index, inst in enumerate(circuit.data):
        if inst.is_measurement:
            if inst.qubits[0] in subset:
                new.append_instruction(inst)
        elif inst.is_barrier:
            continue
        elif index in cone:
            new.append_instruction(inst)
    return new


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


def split_at_barriers(circuit: QuantumCircuit, label_prefix: str | None = None) -> list[QuantumCircuit]:
    """Split a circuit into segments at (labelled) barriers.

    If ``label_prefix`` is given, only barriers whose label starts with the
    prefix act as separators; unlabelled or non-matching barriers are kept
    inside the segments.  QuTracer uses labelled barriers as cut-point
    markers.
    """
    segments: list[QuantumCircuit] = []
    current = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    for inst in circuit.data:
        if inst.is_barrier:
            barrier_label = getattr(inst.operation, "label", None)
            is_separator = (
                label_prefix is None
                or (barrier_label is not None and barrier_label.startswith(label_prefix))
            )
            if is_separator:
                segments.append(current)
                current = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
                continue
        current.append_instruction(inst)
    segments.append(current)
    return segments


def final_single_qubit_layer(circuit: QuantumCircuit, qubit: int) -> list[int]:
    """Indices of the trailing run of single-qubit gates on ``qubit``.

    Used by the *state traceback* optimization: trailing single-qubit gates
    on the traced wire can be simulated classically instead of executed.
    """
    indices: list[int] = []
    for index in range(len(circuit.data) - 1, -1, -1):
        inst = circuit.data[index]
        if inst.is_measurement or inst.is_barrier:
            continue
        if qubit not in inst.qubits:
            continue
        if inst.is_gate and inst.operation.num_qubits == 1:
            indices.append(index)
        else:
            break
    indices.reverse()
    return indices
