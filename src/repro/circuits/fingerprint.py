"""Content hashing of circuit structure.

The fingerprint is the address of a circuit everywhere content-addressed
caching happens: the :class:`~repro.simulators.engine.ExecutionEngine`'s
result cache and the persistent on-disk cache.  It is a property of the
circuit alone, so it lives in the circuits layer.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .circuit import QuantumCircuit
from .operations import Gate, Operation, _StandardGate

__all__ = ["circuit_fingerprint"]


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Content hash of a circuit's structure.

    Two circuits with the same wire counts and the same instruction stream
    (operation matrices, parameters, wire bindings) share a fingerprint
    regardless of object identity or name.  Gate matrices are hashed, so
    ``UnitaryGate`` and ``StatePreparation`` contents are captured exactly —
    except for standard-library gates, whose matrix is a pure function of
    the (name, params) pair already in the digest; skipping their matrix
    bytes cannot alias two distinct circuits (a custom gate reusing a
    standard name still appends its matrix bytes and lands elsewhere) and
    saves hashing one matrix per standard gate.

    The digest is one sha256 over ``"{num_qubits}|{num_clbits}"`` and, per
    instruction, the operation's name, the ``repr`` of its qubits (and of
    its clbits, if any), and its parameter and custom-matrix bytes.  Each
    operation's part is encoded once and cached on it, so a circuit pays
    only for its wires.
    """
    parts = [f"{circuit.num_qubits}|{circuit.num_clbits}".encode()]
    append = parts.append
    for inst in circuit.data:
        head, tail = _operation_bytes(inst.operation)
        append(head)
        append(repr(inst.qubits).encode())
        if inst.clbits:
            append(repr(inst.clbits).encode())
        append(tail)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def _operation_bytes(op: Operation) -> tuple[bytes, bytes]:
    """``(name, parameters + custom matrix)``: an operation's fingerprint bytes.

    They go before and after the instruction's wires.  Cached on the
    operation, like ``Gate.matrix``; the matrix bytes cannot go stale,
    because a cached gate matrix is read-only.
    """
    cached = op._fingerprint_bytes
    if cached is None:
        tail = np.asarray(op.params, dtype=float).tobytes() if op.params else b""
        if isinstance(op, Gate) and type(op) is not _StandardGate:
            tail += np.ascontiguousarray(op.matrix).tobytes()
        cached = op._fingerprint_bytes = (op.name.encode(), tail)
    return cached
