"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.circuits.instruction.Instruction`
objects over ``num_qubits`` qubit wires and ``num_clbits`` classical bits.
The builder API mirrors the subset of Qiskit that the QuTracer paper uses,
so circuit constructions from the original artifact translate one-to-one.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

import numpy as np

from .instruction import Instruction
from .operations import (
    Barrier,
    Measurement,
    Operation,
    Reset,
    StatePreparation,
    UnitaryGate,
    standard_gate,
)

__all__ = ["QuantumCircuit"]


class QuantumCircuit:
    """A quantum circuit over a fixed number of qubits and classical bits.

    Examples
    --------
    >>> qc = QuantumCircuit(2)
    >>> _ = qc.h(0).cx(0, 1)
    >>> qc.measure_all()
    >>> qc.num_two_qubit_gates()
    1
    """

    def __init__(self, num_qubits: int, num_clbits: int | None = None, name: str = "circuit") -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits) if num_clbits is not None else 0
        self.name = name
        self.data: list[Instruction] = []
        self.metadata: dict = {}

    # ------------------------------------------------------------------
    # Low-level append
    # ------------------------------------------------------------------

    def append(
        self,
        operation: Operation,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append an operation; returns ``self`` so calls can be chained."""
        instruction = Instruction(operation, qubits, clbits)
        self._check_wires(instruction)
        self.data.append(instruction)
        return self

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        self._check_wires(instruction)
        self.data.append(instruction)
        return self

    def _check_wires(self, instruction: Instruction) -> None:
        for q in instruction.qubits:
            if q >= self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for circuit with {self.num_qubits} qubits"
                )
        for c in instruction.clbits:
            if c >= self.num_clbits:
                raise ValueError(
                    f"clbit {c} out of range for circuit with {self.num_clbits} clbits"
                )

    # ------------------------------------------------------------------
    # Builder API (single-qubit gates)
    # ------------------------------------------------------------------

    def id(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("id"), (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("x"), (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("y"), (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("z"), (qubit,))

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("h"), (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("s"), (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("sdg"), (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("t"), (qubit,))

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("tdg"), (qubit,))

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("sx"), (qubit,))

    def sxdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("sxdg"), (qubit,))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("rx", theta), (qubit,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("ry", theta), (qubit,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("rz", theta), (qubit,))

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("p", lam), (qubit,))

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.append(standard_gate("u", theta, phi, lam), (qubit,))

    def prepare(self, state: str, qubit: int) -> "QuantumCircuit":
        """Prepare ``qubit`` (assumed |0>) in one of |0>,|1>,|+>,|->,|i>,|-i>."""
        return self.append(StatePreparation(state), (qubit,))

    # ------------------------------------------------------------------
    # Builder API (multi-qubit gates)
    # ------------------------------------------------------------------

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("cx"), (control, target))

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("cy"), (control, target))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("cz"), (control, target))

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("ch"), (control, target))

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("cp", lam), (control, target))

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("crx", theta), (control, target))

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("cry", theta), (control, target))

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("crz", theta), (control, target))

    def rzz(self, theta: float, qubit1: int, qubit2: int) -> "QuantumCircuit":
        return self.append(standard_gate("rzz", theta), (qubit1, qubit2))

    def swap(self, qubit1: int, qubit2: int) -> "QuantumCircuit":
        return self.append(standard_gate("swap"), (qubit1, qubit2))

    def ccx(self, control1: int, control2: int, target: int) -> "QuantumCircuit":
        return self.append(standard_gate("ccx"), (control1, control2, target))

    def cswap(self, control: int, target1: int, target2: int) -> "QuantumCircuit":
        return self.append(standard_gate("cswap"), (control, target1, target2))

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int], name: str = "unitary") -> "QuantumCircuit":
        return self.append(UnitaryGate(matrix, name=name), tuple(qubits))

    # ------------------------------------------------------------------
    # Non-unitary operations
    # ------------------------------------------------------------------

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        return self.append(Measurement(), (qubit,), (clbit,))

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into a classical bit of the same index."""
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def measure_subset(self, qubits: Sequence[int]) -> "QuantumCircuit":
        """Measure only ``qubits``, each into a classical bit of the same index."""
        qubits = tuple(qubits)
        if qubits and self.num_clbits < max(qubits) + 1:
            self.num_clbits = max(qubits) + 1
        for q in qubits:
            self.measure(q, q)
        return self

    def reset(self, qubit: int) -> "QuantumCircuit":
        return self.append(Reset(), (qubit,))

    def barrier(self, *qubits: int, label: str | None = None) -> "QuantumCircuit":
        wires = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        return self.append(Barrier(len(wires), label=label), wires)

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.data)

    @property
    def gates(self) -> list[Instruction]:
        """The unitary instructions, in order."""
        return [inst for inst in self.data if inst.is_gate]

    @property
    def measurements(self) -> list[Instruction]:
        return [inst for inst in self.data if inst.is_measurement]

    @property
    def measured_qubits(self) -> list[int]:
        """Qubits with at least one measurement, in first-measurement order."""
        seen: list[int] = []
        for inst in self.data:
            if inst.is_measurement and inst.qubits[0] not in seen:
                seen.append(inst.qubits[0])
        return seen

    @property
    def has_measurements(self) -> bool:
        return any(inst.is_measurement for inst in self.data)

    def measurement_layout(self) -> list[int]:
        """Measured qubits in clbit order; every qubit when none are measured.

        Bit ``i`` of a measured-output outcome corresponds to qubit
        ``layout[i]``.  A qubit measured onto several clbits keeps the qubit
        of its *last* measurement per clbit.  This is the single source of
        truth for output bit ordering — every simulator backend uses it.
        """
        clbit_to_qubit: dict[int, int] = {}
        for inst in self.data:
            if inst.is_measurement:
                clbit_to_qubit[inst.clbits[0]] = inst.qubits[0]
        if clbit_to_qubit:
            return [clbit_to_qubit[c] for c in sorted(clbit_to_qubit)]
        return list(range(self.num_qubits))

    def count_ops(self) -> Counter:
        """Histogram of operation names, like Qiskit's ``count_ops``."""
        return Counter(inst.name for inst in self.data)

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit unitary gates (the paper's "2-qubit basis gate count"
        is :func:`~repro.transpiler.count_two_qubit_basis_gates`)."""
        return sum(1 for inst in self.data if inst.is_two_qubit_gate)

    def qubits_used(self) -> set[int]:
        used: set[int] = set()
        for inst in self.data:
            used.update(inst.qubits)
        return used

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        new = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        new.data = list(self.data)
        new.metadata = dict(self.metadata)
        return new

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Sequence[int] | None = None,
        clbits: Sequence[int] | None = None,
    ) -> "QuantumCircuit":
        """Return a new circuit with ``other`` appended onto ``self``.

        ``qubits`` maps ``other``'s wire ``i`` onto ``self``'s wire
        ``qubits[i]``; by default wires are matched by index.
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if len(qubits) != other.num_qubits:
            raise ValueError("qubit mapping length must equal other.num_qubits")
        if clbits is None:
            clbits = list(range(other.num_clbits))
        new = self.copy()
        if other.num_clbits and max(clbits, default=-1) + 1 > new.num_clbits:
            new.num_clbits = max(clbits) + 1
        qubit_map = {i: qubits[i] for i in range(other.num_qubits)}
        clbit_map = {i: clbits[i] for i in range(other.num_clbits)}
        for inst in other.data:
            new.append_instruction(inst.remap(qubit_map, clbit_map))
        return new

    def inverse(self) -> "QuantumCircuit":
        """Return the adjoint circuit (measurements/barriers are not allowed)."""
        if self.has_measurements:
            raise ValueError("cannot invert a circuit containing measurements")
        new = QuantumCircuit(self.num_qubits, self.num_clbits, f"{self.name}_dg")
        for inst in reversed(self.data):
            if inst.is_barrier:
                new.append_instruction(inst)
            elif inst.is_gate:
                new.append(inst.operation.inverse(), inst.qubits)
            else:
                raise ValueError(f"cannot invert instruction {inst.name!r}")
        return new

    def remove_final_measurements(self) -> "QuantumCircuit":
        """Return a copy with all measurements removed."""
        new = QuantumCircuit(self.num_qubits, 0, self.name)
        new.metadata = dict(self.metadata)
        for inst in self.data:
            if not inst.is_measurement:
                new.append_instruction(Instruction(inst.operation, inst.qubits, ()))
        return new

    def remap_qubits(self, mapping: dict[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Return a copy with qubit wires renamed according to ``mapping``.

        Wires not present in ``mapping`` keep their index.  ``num_qubits``
        overrides the size of the resulting circuit (useful when embedding a
        small circuit into a larger device).
        """
        full_map = {q: mapping.get(q, q) for q in range(self.num_qubits)}
        target_size = num_qubits if num_qubits is not None else max(
            [self.num_qubits] + [v + 1 for v in full_map.values()]
        )
        new = QuantumCircuit(target_size, self.num_clbits, self.name)
        new.metadata = dict(self.metadata)
        for inst in self.data:
            new.append_instruction(inst.remap(full_map))
        return new

    def active_qubits(self) -> list[int]:
        """Wires touched by at least one non-barrier instruction (sorted).

        Barriers are pure scheduling markers — a wire that only appears in
        barriers carries no state and can be dropped by :meth:`compact_qubits`.
        """
        used: set[int] = set()
        for inst in self.data:
            if inst.is_barrier:
                continue
            used.update(inst.qubits)
        return sorted(used)

    def compact_qubits(self) -> tuple["QuantumCircuit", list[int]]:
        """Drop idle wires and renumber the rest contiguously.

        Returns ``(compact, active)`` where ``active[i]`` is the original
        index of the compact circuit's qubit ``i``.  Classical bits are left
        untouched, so measured-output distributions are unchanged.  Idle wires
        stay in |0> for the whole circuit, which is what makes this safe: a
        subset circuit embedded on a wide device simulates in ``2**k`` instead
        of ``2**n`` memory.  Barriers are restricted to the surviving wires
        (and dropped entirely when none survive).  With no idle wire every
        instruction keeps its wires, so the result is a copy sharing the
        instructions, less any wireless barrier.
        """
        active = self.active_qubits()
        if not active:
            active = [0] if self.num_qubits else []
        new = QuantumCircuit(len(active), self.num_clbits, self.name)
        new.metadata = dict(self.metadata)
        if len(active) == self.num_qubits:
            new.data = [inst for inst in self.data if inst.qubits or not inst.is_barrier]
            return new, active
        mapping = {q: i for i, q in enumerate(active)}
        # Remapped wires are in range by construction, so instructions skip
        # append's wire check, and one remapped copy serves every repeat of
        # an (operation, wires) pattern — instructions are never mutated.
        remapped: dict[tuple, Instruction] = {}
        for inst in self.data:
            if inst.is_barrier:
                kept = [mapping[q] for q in inst.qubits if q in mapping]
                if kept:
                    new.append(Barrier(len(kept), label=inst.operation.label), kept)
                continue
            key = (id(inst.operation), inst.qubits, inst.clbits)
            clone = remapped.get(key)
            if clone is None:
                clone = remapped[key] = inst.remap(mapping)
            new.data.append(clone)
        return new, active

    # ------------------------------------------------------------------
    # Dense representations (small circuits only)
    # ------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense unitary of the circuit (ignores barriers; rejects measurements).

        Little-endian: qubit 0 is the least-significant bit of the index.
        Only sensible for small ``num_qubits`` (the matrix is ``4**n`` complex
        numbers).
        """
        if self.has_measurements:
            raise ValueError("cannot build the unitary of a circuit with measurements")
        dim = 2**self.num_qubits
        unitary = np.eye(dim, dtype=complex)
        for inst in self.data:
            if inst.is_barrier:
                continue
            if not inst.is_gate:
                raise ValueError(f"non-unitary instruction {inst.name!r}")
            unitary = _expand_gate(inst.operation.matrix, inst.qubits, self.num_qubits) @ unitary
        return unitary

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        ops = dict(self.count_ops())
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, ops={ops})"
        )


def _expand_gate(matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Embed ``matrix`` acting on ``qubits`` into the full ``num_qubits`` space.

    Uses the tensor-reshape technique: the state index is viewed as a tensor
    with one axis per qubit (axis ``k`` corresponds to qubit ``k``), the gate
    is applied by tensordot over the relevant axes, and the axes are moved
    back into place.
    """
    num_gate_qubits = len(qubits)
    dim = 2**num_qubits
    full = np.eye(dim, dtype=complex)
    # Treat the identity's column index as the input state and apply the gate
    # to each column.  Columns are applied in one vectorised call by reshaping
    # into a tensor of shape (2,)*n + (dim,).
    tensor = full.reshape([2] * num_qubits + [dim])
    # numpy's reshape of the index i = sum_k b_k 2^k puts qubit (n-1) on the
    # first axis, so the state axis for qubit q is (num_qubits - 1 - q).
    # The gate matrix is little-endian in the wire tuple, so after reshaping
    # it to [2]*(2k) its first output/input axis corresponds to the *last*
    # wire in the tuple; align by iterating the wires in reverse.
    axes = [num_qubits - 1 - q for q in reversed(qubits)]
    gate_tensor = matrix.reshape([2] * (2 * num_gate_qubits))
    moved = np.tensordot(
        gate_tensor, tensor, axes=(range(num_gate_qubits, 2 * num_gate_qubits), axes)
    )
    # tensordot places the gate's output axes first; move them back to the
    # positions of the wires they act on.
    result = np.moveaxis(moved, range(num_gate_qubits), axes)
    return result.reshape(dim, dim)
