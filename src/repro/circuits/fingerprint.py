"""Content hashing of circuit structure.

The fingerprint is the address of a circuit everywhere content-addressed
caching happens: the :class:`~repro.simulators.engine.ExecutionEngine`'s
result cache, the persistent on-disk cache, and the transpiler's
:class:`~repro.transpiler.CompilationCache`.  It lives in the circuits
layer (rather than next to the engine) because both the simulators and the
transpiler key on it, and the transpiler must not import the simulators.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .circuit import QuantumCircuit
from .operations import _StandardGate

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
    """
    digest = hashlib.sha256()
    digest.update(f"{circuit.num_qubits}|{circuit.num_clbits}".encode())
    for inst in circuit.data:
        op = inst.operation
        digest.update(op.name.encode())
        digest.update(repr(inst.qubits).encode())
        if inst.clbits:
            digest.update(repr(inst.clbits).encode())
        if op.params:
            digest.update(np.asarray(op.params, dtype=float).tobytes())
        if inst.is_gate and type(op) is not _StandardGate:
            digest.update(np.ascontiguousarray(op.matrix).tobytes())
    return digest.hexdigest()
