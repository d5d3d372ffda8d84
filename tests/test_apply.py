"""The density-matrix appliers against the tensordot contraction they replace.

``apply_matrix_to_density_matrix`` and ``apply_kraus_to_density_matrix`` lay
out each contraction with a plan memoised per (wire tuple, register width)
and call ``np.dot`` on the operands ``np.tensordot`` would build.  The
tensordot + moveaxis form lives on here only, as the reference, and every
result must equal it to the last bit (``np.array_equal``).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import amplitude_damping_channel, fake_mumbai
from repro.simulators.apply import (
    apply_kraus_to_density_matrix,
    apply_matrix_to_density_matrix,
)


def _row_axes(qubits, num_qubits):
    return [num_qubits - 1 - q for q in reversed(list(qubits))]


def reference_conjugation(rho, matrix, qubits, num_qubits):
    """``M rho M^dagger`` as two tensordot + moveaxis round trips."""
    k, dim = len(qubits), 2**num_qubits
    rows = _row_axes(qubits, num_qubits)
    cols = [a + num_qubits for a in rows]
    tensor = rho.reshape([2] * (2 * num_qubits))
    moved = np.tensordot(matrix.reshape([2] * (2 * k)), tensor, axes=(list(range(k, 2 * k)), rows))
    moved = np.moveaxis(moved, list(range(k)), rows)
    conj = matrix.conj().reshape([2] * (2 * k))
    moved = np.tensordot(conj, moved, axes=(list(range(k, 2 * k)), cols))
    moved = np.moveaxis(moved, list(range(k)), cols)
    return np.ascontiguousarray(moved.reshape(dim, dim))


def reference_channel(rho, superoperator, qubits, num_qubits):
    """A Liouville matrix applied with one tensordot + moveaxis."""
    k, dim = len(qubits), 2**num_qubits
    rows = _row_axes(qubits, num_qubits)
    axes = rows + [a + num_qubits for a in rows]
    tensor = rho.reshape([2] * (2 * num_qubits))
    channel = superoperator.reshape([2] * (4 * k))
    moved = np.tensordot(channel, tensor, axes=(list(range(2 * k, 4 * k)), axes))
    moved = np.moveaxis(moved, list(range(2 * k)), axes)
    return np.ascontiguousarray(moved.reshape(dim, dim))


def _random_state(rng, num_qubits):
    dim = 2**num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    rho.setflags(write=False)  # the appliers must never write their input
    return rho


def _random_unitary(rng, k):
    dim = 2**k
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_superoperator(rng, k):
    dim = 4**k
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _mumbai_channels():
    """fake_mumbai's composite sx and cx channels (thermal relaxation plus
    depolarizing: non-unital, and not uniform depolarizing)."""
    noise = fake_mumbai().noise_model()
    qc = QuantumCircuit(2)
    qc.sx(0).cx(0, 1)
    channels = {}
    for inst in qc.gates:
        for channel, _ in noise.channels_for(inst):
            assert channel.uniform_depolarizing_probability() is None
            channels[channel.num_qubits] = channel.superoperator()
    return channels


MUMBAI = _mumbai_channels()
DAMPING = {
    1: amplitude_damping_channel(0.3).superoperator(),
    2: amplitude_damping_channel(0.3).tensor(amplitude_damping_channel(0.05)).superoperator(),
}


def _check(out, ref, rho, before):
    assert np.array_equal(out, ref)
    assert out.flags.c_contiguous and out.flags.writeable
    assert not np.may_share_memory(out, rho)
    assert np.array_equal(rho, before)


def _wire_tuples(num_qubits, sizes=(1, 2)):
    for k in sizes:
        if k <= num_qubits:
            yield from itertools.permutations(range(num_qubits), k)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
def test_gate_conjugation_matches_tensordot_on_every_wire_tuple(make_rng, num_qubits):
    rng = make_rng(100 + num_qubits)
    for qubits in _wire_tuples(num_qubits):  # every ordered tuple: (2, 1) and (1, 2)
        rho = _random_state(rng, num_qubits)
        before = rho.copy()
        unitary = _random_unitary(rng, len(qubits))
        out = apply_matrix_to_density_matrix(rho, unitary, qubits, num_qubits)
        _check(out, reference_conjugation(rho, unitary, qubits, num_qubits), rho, before)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
def test_channel_matches_tensordot_on_every_wire_tuple(make_rng, num_qubits):
    rng = make_rng(200 + num_qubits)
    for qubits in _wire_tuples(num_qubits):
        k = len(qubits)
        for superoperator in (DAMPING[k], MUMBAI[k], _random_superoperator(rng, k)):
            rho = _random_state(rng, num_qubits)
            before = rho.copy()
            out = apply_kraus_to_density_matrix(rho, superoperator, qubits, num_qubits)
            _check(out, reference_channel(rho, superoperator, qubits, num_qubits), rho, before)


@pytest.mark.parametrize(
    "num_qubits, qubits",
    [
        (3, (0, 1, 2)),
        (3, (2, 0, 1)),
        (4, (3, 1, 2)),
        (5, (0, 4, 2)),
        (7, (0,)),
        (7, (6,)),
        (7, (5, 2)),
        (7, (1, 6, 3)),
        (8, (7,)),
        (8, (3, 4)),
        (8, (0, 7)),
        (8, (2, 0, 5)),
    ],
)
def test_three_wire_blocks_and_wide_registers(make_rng, num_qubits, qubits):
    rng = make_rng(300 + num_qubits + 10 * len(qubits))
    k = len(qubits)
    rho = _random_state(rng, num_qubits)
    before = rho.copy()
    unitary = _random_unitary(rng, k)
    out = apply_matrix_to_density_matrix(rho, unitary, qubits, num_qubits)
    _check(out, reference_conjugation(rho, unitary, qubits, num_qubits), rho, before)
    superoperators = [_random_superoperator(rng, k)]
    if k <= 2:
        superoperators += [DAMPING[k], MUMBAI[k]]
    for superoperator in superoperators:
        out = apply_kraus_to_density_matrix(rho, superoperator, qubits, num_qubits)
        _check(out, reference_channel(rho, superoperator, qubits, num_qubits), rho, before)


def _layouts(operator):
    """The same operator as a C array, a Fortran array, a transposed view
    and a strided view."""
    wide = np.zeros((2 * operator.shape[0], 2 * operator.shape[1]), dtype=complex)
    wide[::2, ::2] = operator
    return {
        "c": operator,
        "fortran": np.asfortranarray(operator),
        "transposed-view": np.ascontiguousarray(operator.T).T,
        "strided-view": wide[::2, ::2],
    }


@pytest.mark.parametrize("qubits", [(0,), (2,), (1, 2), (2, 0), (0, 3, 1)])
def test_operator_memory_layout_does_not_change_the_bits(make_rng, qubits):
    rng = make_rng(400 + sum(qubits))
    num_qubits, k = 4, len(qubits)
    rho = _random_state(rng, num_qubits)
    before = rho.copy()
    unitary = _random_unitary(rng, k)
    superoperator = MUMBAI[k] if k <= 2 else _random_superoperator(rng, k)
    gates = _layouts(unitary)
    channels = _layouts(superoperator)
    assert not gates["fortran"].flags.c_contiguous
    assert not gates["transposed-view"].flags.c_contiguous
    expected_gate = reference_conjugation(rho, unitary, qubits, num_qubits)
    expected_channel = reference_channel(rho, superoperator, qubits, num_qubits)
    for layout in gates:
        gate, channel = gates[layout], channels[layout]
        out = apply_matrix_to_density_matrix(rho, gate, qubits, num_qubits)
        _check(out, reference_conjugation(rho, gate, qubits, num_qubits), rho, before)
        # Equal bits within a layout; across layouts BLAS may round differently.
        assert np.allclose(out, expected_gate, atol=1e-12)
        out = apply_kraus_to_density_matrix(rho, channel, qubits, num_qubits)
        _check(out, reference_channel(rho, channel, qubits, num_qubits), rho, before)
        assert np.allclose(out, expected_channel, atol=1e-12)


def test_state_layout_and_wire_sequence_type(make_rng):
    rng = make_rng(500)
    rho = np.asfortranarray(_random_state(rng, 3))
    before = rho.copy()
    unitary = _random_unitary(rng, 2)
    for qubits in ([2, 0], (2, 0), np.array([2, 0])):
        out = apply_matrix_to_density_matrix(rho, unitary, qubits, 3)
        _check(out, reference_conjugation(rho, unitary, [2, 0], 3), rho, before)
        out = apply_kraus_to_density_matrix(rho, MUMBAI[2], qubits, 3)
        _check(out, reference_channel(rho, MUMBAI[2], [2, 0], 3), rho, before)


def test_full_register_channel_returns_a_fresh_array(make_rng):
    # On wires (0, ..., n-1) the plan's inverse transpose is the identity,
    # so the result is the dot product's own buffer: still fresh.
    rng = make_rng(600)
    rho = _random_state(rng, 2)
    before = rho.copy()
    out = apply_kraus_to_density_matrix(rho, MUMBAI[2], (0, 1), 2)
    _check(out, reference_channel(rho, MUMBAI[2], (0, 1), 2), rho, before)
