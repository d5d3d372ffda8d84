"""Basis translation: rewrite circuits into the device basis {rz, sx, x, cx}.

The paper reports "average 2-qubit basis gate count" of transpiled circuits
(Tables I-III); this module provides the equivalent counting on our side.  The
decompositions are the textbook ones; single-qubit chains are merged through
their ZYZ Euler angles, so consecutive single-qubit gates never inflate the
count.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ..circuits import Instruction, QuantumCircuit, UnitaryGate, standard_gate
from ..circuits.operations import Gate

__all__ = ["decompose_to_basis", "BASIS_GATES", "euler_zyz_angles", "count_two_qubit_basis_gates"]

BASIS_GATES = ("rz", "sx", "x", "cx")

_ATOL = 1e-9


def euler_zyz_angles(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """Return ``(alpha, beta, gamma, delta)`` with ``U = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)``."""
    matrix = np.asarray(matrix, dtype=complex)
    det = np.linalg.det(matrix)
    alpha = cmath.phase(det) / 2.0
    su2 = matrix * cmath.exp(-1j * alpha)
    # su2 = [[cos(g/2) e^{-i(b+d)/2}, -sin(g/2) e^{-i(b-d)/2}],
    #        [sin(g/2) e^{ i(b-d)/2},  cos(g/2) e^{ i(b+d)/2}]]
    cos_half = min(abs(su2[0, 0]), 1.0)
    gamma = 2.0 * math.acos(cos_half)
    if abs(math.sin(gamma / 2.0)) > _ATOL:
        plus = cmath.phase(su2[1, 1])
        minus = cmath.phase(su2[1, 0])
        beta = plus + minus
        delta = plus - minus
    else:
        beta = cmath.phase(su2[1, 1]) * 2.0
        delta = 0.0
    return alpha, beta, gamma, delta


def _append_single_qubit(qc: QuantumCircuit, matrix: np.ndarray, qubit: int) -> None:
    """Append an arbitrary single-qubit unitary as rz/sx/rz/sx/rz (ZXZXZ)."""
    if np.allclose(matrix, matrix[0, 0] * np.eye(2), atol=_ATOL):
        return  # global phase only
    _, beta, gamma, delta = euler_zyz_angles(matrix)
    # Standard ZXZXZ identity (the one used by IBM's basis translator):
    #   Rz(b) Ry(g) Rz(d) = Rz(b + pi) . SX . Rz(g + pi) . SX . Rz(d)   (up to phase)
    _append_rz(qc, delta, qubit)
    qc.sx(qubit)
    _append_rz(qc, gamma + math.pi, qubit)
    qc.sx(qubit)
    _append_rz(qc, beta + math.pi, qubit)


def _append_rz(qc: QuantumCircuit, angle: float, qubit: int) -> None:
    angle = math.remainder(angle, 4.0 * math.pi)
    if abs(math.remainder(angle, 2.0 * math.pi)) > _ATOL:
        qc.rz(angle, qubit)
    elif abs(angle) > _ATOL:
        # angle is an odd multiple of 2*pi: global phase only, skip.
        pass


def _append_cx(qc: QuantumCircuit, control: int, target: int) -> None:
    qc.cx(control, target)


def _append_controlled_unitary(qc: QuantumCircuit, matrix: np.ndarray, control: int, target: int) -> None:
    """Controlled single-qubit unitary via the ABC decomposition (2 CX)."""
    alpha, beta, gamma, delta = euler_zyz_angles(matrix)
    # A = Rz(beta) Ry(gamma/2); B = Ry(-gamma/2) Rz(-(delta+beta)/2); C = Rz((delta-beta)/2)
    def rz(theta):
        return standard_gate("rz", theta).matrix

    def ry(theta):
        return standard_gate("ry", theta).matrix

    a = rz(beta) @ ry(gamma / 2.0)
    b = ry(-gamma / 2.0) @ rz(-(delta + beta) / 2.0)
    c = rz((delta - beta) / 2.0)
    _append_single_qubit(qc, c, target)
    _append_cx(qc, control, target)
    _append_single_qubit(qc, b, target)
    _append_cx(qc, control, target)
    _append_single_qubit(qc, a, target)
    # The controlled global phase e^{i alpha} becomes a phase gate on the control.
    if abs(math.remainder(alpha, 2.0 * math.pi)) > _ATOL:
        _append_single_qubit(qc, standard_gate("p", alpha).matrix, control)


_H = standard_gate("h").matrix


def decompose_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite ``circuit`` using only {rz, sx, x, cx} (plus measurements/barriers).

    Runs of single-qubit gates are merged before emission, and adjacent CX
    cancellation is applied afterwards, giving gate counts comparable to a
    Qiskit `optimization_level=3` transpile for the circuit families used in
    the paper.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, f"{circuit.name}_basis")
    out.metadata = dict(circuit.metadata)
    # Pending single-qubit unitaries, merged lazily per qubit.
    pending: dict[int, np.ndarray] = {}

    def flush(qubit: int) -> None:
        matrix = pending.pop(qubit, None)
        if matrix is not None:
            _append_single_qubit(out, matrix, qubit)

    def merge(qubit: int, matrix: np.ndarray) -> None:
        pending[qubit] = matrix @ pending.get(qubit, np.eye(2, dtype=complex))

    for inst in circuit.data:
        if inst.is_barrier:
            for q in inst.qubits:
                flush(q)
            out.append_instruction(inst)
            continue
        if inst.is_measurement or inst.is_reset:
            flush(inst.qubits[0])
            out.append_instruction(inst)
            continue
        gate: Gate = inst.operation  # type: ignore[assignment]
        if gate.num_qubits == 1:
            merge(inst.qubits[0], gate.matrix)
            continue
        # Two-or-more qubit gate: flush operands, then emit its decomposition.
        for q in inst.qubits:
            flush(q)
        _emit_multi_qubit(out, inst)
    for q in list(pending):
        flush(q)
    return _cancel_adjacent_cx(out)


def _emit_multi_qubit(out: QuantumCircuit, inst: Instruction) -> None:
    gate: Gate = inst.operation  # type: ignore[assignment]
    name = gate.name
    qubits = inst.qubits
    if name == "cx":
        _append_cx(out, *qubits)
    elif name == "cz":
        # H on target, CX, H on target
        _append_single_qubit(out, _H, qubits[1])
        _append_cx(out, *qubits)
        _append_single_qubit(out, _H, qubits[1])
    elif name in ("cp", "crz", "crx", "cry", "ch", "cy"):
        base = {
            "cp": lambda: standard_gate("p", gate.params[0]).matrix,
            "crz": lambda: standard_gate("rz", gate.params[0]).matrix,
            "crx": lambda: standard_gate("rx", gate.params[0]).matrix,
            "cry": lambda: standard_gate("ry", gate.params[0]).matrix,
            "ch": lambda: _H,
            "cy": lambda: standard_gate("y").matrix,
        }[name]()
        _append_controlled_unitary(out, base, qubits[0], qubits[1])
    elif name == "rzz":
        (theta,) = gate.params
        _append_cx(out, qubits[0], qubits[1])
        _append_rz(out, theta, qubits[1])
        _append_cx(out, qubits[0], qubits[1])
    elif name == "swap":
        _append_cx(out, qubits[0], qubits[1])
        _append_cx(out, qubits[1], qubits[0])
        _append_cx(out, qubits[0], qubits[1])
    elif name == "ccx":
        _emit_ccx(out, *qubits)
    elif name == "cswap":
        control, t1, t2 = qubits
        _append_cx(out, t2, t1)
        _emit_ccx(out, control, t1, t2)
        _append_cx(out, t2, t1)
    elif gate.num_qubits == 2:
        matrix = gate.matrix
        if np.allclose(matrix, np.diag(np.diagonal(matrix)), atol=_ATOL):
            _emit_two_qubit_diagonal(out, np.diagonal(matrix), qubits)
        elif _is_controlled_by_wire(matrix, control_wire=0):
            _append_controlled_unitary(out, matrix[np.ix_([1, 3], [1, 3])], qubits[0], qubits[1])
        elif _is_controlled_by_wire(matrix, control_wire=1):
            _append_controlled_unitary(out, matrix[np.ix_([2, 3], [2, 3])], qubits[1], qubits[0])
        else:
            raise NotImplementedError(
                f"no basis decomposition for general two-qubit gate {name!r}"
            )
    else:
        raise NotImplementedError(f"no basis decomposition for gate {name!r}")


def _is_controlled_by_wire(matrix: np.ndarray, control_wire: int) -> bool:
    """True if the 4x4 matrix is identity on the subspace where ``control_wire`` is |0>."""
    zero_indices = (0, 2) if control_wire == 0 else (0, 1)
    fixed = np.eye(4, dtype=complex)
    for i in zero_indices:
        for j in range(4):
            if abs(matrix[i, j] - fixed[i, j]) > _ATOL or abs(matrix[j, i] - fixed[j, i]) > _ATOL:
                return False
    return True


def _emit_two_qubit_diagonal(out: QuantumCircuit, diagonal: np.ndarray, qubits: tuple[int, ...]) -> None:
    """Decompose ``diag(e^{i t00}, e^{i t01}, e^{i t10}, e^{i t11})``.

    Writing the phase as ``t(x0, x1) = t0 + a x0 + b x1 + zz x0 x1`` the gate
    is a product of two phase gates and one controlled phase, which costs at
    most two CX in the basis.
    """
    t0, t1, t2, t3 = np.angle(diagonal)
    a = t1 - t0
    b = t2 - t0
    zz = t3 - t1 - t2 + t0
    _append_single_qubit(out, standard_gate("p", a).matrix, qubits[0])
    _append_single_qubit(out, standard_gate("p", b).matrix, qubits[1])
    if abs(math.remainder(zz, 2 * math.pi)) > _ATOL:
        # cp(zz) = p(zz/2) x p(zz/2) . CX . p(-zz/2 on target) . CX
        _append_single_qubit(out, standard_gate("p", zz / 2.0).matrix, qubits[0])
        _append_single_qubit(out, standard_gate("p", zz / 2.0).matrix, qubits[1])
        _append_cx(out, qubits[0], qubits[1])
        _append_single_qubit(out, standard_gate("p", -zz / 2.0).matrix, qubits[1])
        _append_cx(out, qubits[0], qubits[1])


def _emit_ccx(out: QuantumCircuit, c1: int, c2: int, target: int) -> None:
    """Standard 6-CX Toffoli decomposition."""
    t = standard_gate("t").matrix
    tdg = standard_gate("tdg").matrix
    _append_single_qubit(out, _H, target)
    _append_cx(out, c2, target)
    _append_single_qubit(out, tdg, target)
    _append_cx(out, c1, target)
    _append_single_qubit(out, t, target)
    _append_cx(out, c2, target)
    _append_single_qubit(out, tdg, target)
    _append_cx(out, c1, target)
    _append_single_qubit(out, t, c2)
    _append_single_qubit(out, t, target)
    _append_single_qubit(out, _H, target)
    _append_cx(out, c1, c2)
    _append_single_qubit(out, t, c1)
    _append_single_qubit(out, tdg, c2)
    _append_cx(out, c1, c2)


def _cancel_adjacent_cx(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove pairs of identical adjacent CX gates (nothing between them on
    either wire)."""
    data = list(circuit.data)
    removed = True
    while removed:
        removed = False
        last_on_wire: dict[int, int] = {}
        cancel: set[int] = set()
        for index, inst in enumerate(data):
            if index in cancel:
                continue
            if inst.name == "cx":
                partner = None
                a, b = inst.qubits
                prev_a = last_on_wire.get(a)
                prev_b = last_on_wire.get(b)
                if (
                    prev_a is not None
                    and prev_a == prev_b
                    and prev_a not in cancel
                    and data[prev_a].name == "cx"
                    and data[prev_a].qubits == inst.qubits
                ):
                    partner = prev_a
                if partner is not None:
                    cancel.update((partner, index))
                    removed = True
                    # wires become whatever preceded the cancelled pair
                    last_on_wire.pop(a, None)
                    last_on_wire.pop(b, None)
                    continue
            if not inst.is_barrier:
                for q in inst.qubits:
                    last_on_wire[q] = index
        if cancel:
            data = [inst for i, inst in enumerate(data) if i not in cancel]
    result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    result.metadata = dict(circuit.metadata)
    for inst in data:
        result.append_instruction(inst)
    return result


def count_two_qubit_basis_gates(circuit: QuantumCircuit) -> int:
    """Number of CX gates after basis decomposition (the paper's metric)."""
    return decompose_to_basis(circuit).count_ops().get("cx", 0)
