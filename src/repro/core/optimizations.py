"""The QuTracer circuit optimizations (Fig. 4, Sec. V-B).

Six optimizations are described by the paper.  Two of them are purely
mathematical and live in :mod:`repro.cutting` (state preparation reduction)
and :mod:`repro.core.qspc` (measurement-basis selection for gate bypassing /
state traceback); the circuit-level ones are implemented here:

* **False dependency removal** — drop gates that can be commuted past the
  subset measurement point and act outside the subset.
* **Localized gate simulation** — single-qubit gates on the traced wires
  are applied classically to the tracked density matrix (noise free) by
  :func:`apply_local_unitary`.
* **State traceback** — :func:`conjugate_observables_through` conjugates the
  requested observables through trailing local gates so fewer measurement
  bases are needed.
* **Qubit remapping** — delegate to :func:`repro.transpiler.noise_aware_layout`
  when a device model is available (the executed circuit copies are small, so
  they fit on the best qubits).

Localized gate simulation and state traceback are driven by the segments
:func:`repro.core.analysis.analyse_subset` cuts:
:meth:`repro.core.tracer.QuTracer.trace_subset` applies each local segment's
subset gates classically, and gathers the local gates after the last
entangling segment as that segment's trailing gates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuits import Instruction, QuantumCircuit, instructions_commute
from ..cutting import decompose_in_pauli_basis, pauli_string_matrix

__all__ = [
    "false_dependency_removal",
    "conjugate_observables_through",
    "apply_local_unitary",
]


def false_dependency_removal(circuit: QuantumCircuit, subset: Sequence[int]) -> QuantumCircuit:
    """Remove gates that cannot influence the subset's final reduced state.

    Two pruning rules are iterated to a fixed point:

    1. the plain causal cone — gates that never touch a wire feeding the
       subset measurement are dropped;
    2. commutation-aware removal — a gate acting only on non-subset wires
       that commutes with every *later* gate sharing a wire with it can be
       commuted to the end of the circuit, where it is traced out, so it is
       dropped.  This is the rule that removes the controlled-U and
       controlled-U^2 gates in the paper's QPE example (Fig. 5(c) -> (d)).
    """
    subset_set = set(int(q) for q in subset)
    instructions = [inst for inst in circuit.data if inst.is_gate]

    changed = True
    while changed:
        changed = False
        instructions, cone_changed = _restrict_to_cone(instructions, subset_set)
        changed = changed or cone_changed
        kept: list[Instruction] = []
        for index, inst in enumerate(instructions):
            if subset_set.intersection(inst.qubits):
                kept.append(inst)
                continue
            later_sharing = [
                other
                for other in instructions[index + 1 :]
                if set(inst.qubits) & set(other.qubits)
            ]
            if all(instructions_commute(inst, other) for other in later_sharing):
                changed = True
                continue
            kept.append(inst)
        instructions = kept

    result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, f"{circuit.name}_fdr")
    result.metadata = dict(circuit.metadata)
    for inst in instructions:
        result.append_instruction(inst)
    return result


def _restrict_to_cone(
    instructions: list[Instruction], subset: set[int]
) -> tuple[list[Instruction], bool]:
    active = set(subset)
    keep_flags = [False] * len(instructions)
    for index in range(len(instructions) - 1, -1, -1):
        inst = instructions[index]
        if active.intersection(inst.qubits):
            keep_flags[index] = True
            active.update(inst.qubits)
    kept = [inst for inst, keep in zip(instructions, keep_flags) if keep]
    return kept, len(kept) != len(instructions)


def _local_unitary_on_subset(gates: Sequence[Instruction], subset: Sequence[int]) -> np.ndarray:
    """Combine single-qubit gates on subset wires into a unitary on the subset."""
    subset = list(subset)
    index_of = {q: i for i, q in enumerate(subset)}
    dim = 2 ** len(subset)
    unitary = np.eye(dim, dtype=complex)
    from ..circuits.circuit import _expand_gate

    for inst in gates:
        if not inst.is_gate or len(inst.qubits) != 1 or inst.qubits[0] not in index_of:
            raise ValueError("local gates must be single-qubit gates on subset wires")
        unitary = _expand_gate(inst.operation.matrix, (index_of[inst.qubits[0]],), len(subset)) @ unitary
    return unitary


def apply_local_unitary(rho: np.ndarray, gates: Sequence[Instruction], subset: Sequence[int]) -> np.ndarray:
    """Apply single-qubit subset gates classically to the tracked state."""
    if not gates:
        return rho
    unitary = _local_unitary_on_subset(gates, subset)
    return unitary @ rho @ unitary.conj().T


def conjugate_observables_through(
    observables: Sequence[str], gates: Sequence[Instruction], subset: Sequence[int]
) -> dict[str, dict[str, complex]]:
    """State traceback: express observables measured *after* trailing local
    gates in terms of Pauli strings measured *before* them.

    For each requested Pauli string ``O`` the returned mapping gives
    coefficients ``c_P`` with ``V^dagger O V = sum_P c_P P`` where ``V`` is
    the unitary of the trailing gates; the mitigated expectation of ``O`` on
    the final state is then ``sum_P c_P <P>`` on the pre-gate state.
    """
    if not gates:
        return {obs: {obs: 1.0} for obs in observables}
    unitary = _local_unitary_on_subset(gates, subset)
    result: dict[str, dict[str, complex]] = {}
    for observable in observables:
        conjugated = unitary.conj().T @ pauli_string_matrix(observable) @ unitary
        result[observable] = decompose_in_pauli_basis(conjugated)
    return result
