"""Circuit instructions: an operation bound to concrete qubit / clbit wires."""

from __future__ import annotations

from typing import Sequence

from .operations import Barrier, Gate, Measurement, Operation, Reset

__all__ = ["Instruction"]


class Instruction:
    """An :class:`~repro.circuits.operations.Operation` applied to wires.

    Parameters
    ----------
    operation:
        The operation being applied.
    qubits:
        Qubit indices, in the order expected by the operation.  For the
        standard controlled gates the convention is ``(control, target)``.
    clbits:
        Classical bit indices (only used by measurements).
    """

    __slots__ = ("operation", "qubits", "clbits")

    def __init__(
        self,
        operation: Operation,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
    ) -> None:
        qubits = tuple(int(q) for q in qubits)
        clbits = tuple(int(c) for c in clbits)
        if len(qubits) != operation.num_qubits:
            raise ValueError(
                f"operation {operation.name!r} acts on {operation.num_qubits} qubit(s), "
                f"got {len(qubits)} wire(s)"
            )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit indices in {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index in {qubits}")
        if isinstance(operation, Measurement) and len(clbits) != 1:
            raise ValueError("a measurement needs exactly one classical bit")
        self.operation = operation
        self.qubits = qubits
        self.clbits = clbits

    # -- convenience predicates used heavily by analysis passes -------------

    @property
    def name(self) -> str:
        return self.operation.name

    @property
    def is_gate(self) -> bool:
        return isinstance(self.operation, Gate)

    @property
    def is_measurement(self) -> bool:
        return isinstance(self.operation, Measurement)

    @property
    def is_barrier(self) -> bool:
        return isinstance(self.operation, Barrier)

    @property
    def is_reset(self) -> bool:
        return isinstance(self.operation, Reset)

    @property
    def is_two_qubit_gate(self) -> bool:
        return self.is_gate and self.operation.num_qubits == 2

    def remap(self, qubit_map: dict[int, int], clbit_map: dict[int, int] | None = None) -> "Instruction":
        """Return a copy of this instruction with wires renamed.

        The source instruction already passed ``__init__`` validation and
        renaming preserves arity, so only injectivity of ``qubit_map`` can
        introduce a new fault — that one check is kept and the rest of the
        constructor is bypassed (remapping is the inner loop of
        ``compact_qubits``).
        """
        new_qubits = tuple(int(qubit_map[q]) for q in self.qubits)
        if len(new_qubits) > 1 and len(set(new_qubits)) != len(new_qubits):
            raise ValueError(f"duplicate qubit indices in {new_qubits}")
        clone = object.__new__(Instruction)
        clone.operation = self.operation
        clone.qubits = new_qubits
        clone.clbits = (
            self.clbits
            if clbit_map is None
            else tuple(clbit_map.get(c, c) for c in self.clbits)
        )
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.operation == other.operation
            and self.qubits == other.qubits
            and self.clbits == other.clbits
        )

    def __hash__(self) -> int:
        return hash((self.operation, self.qubits, self.clbits))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        parts = [self.operation.name, f"qubits={self.qubits}"]
        if self.clbits:
            parts.append(f"clbits={self.clbits}")
        if self.operation.params:
            parts.append(f"params={self.operation.params}")
        return f"Instruction({', '.join(parts)})"
