"""Low-level tensor application of operators to states.

Both simulators view a state as a tensor with one axis of dimension two per
qubit.  Following numpy's row-major reshape of the integer index
``i = sum_k b_k 2**k``, the axis for qubit ``q`` is ``num_qubits - 1 - q``.
Gate matrices are little-endian in their wire tuple (first wire = least
significant bit), so the wire tuple is traversed in reverse when aligning
gate axes with state axes — the same convention as
:func:`repro.circuits.circuit._expand_gate`.

The statevector appliers contract with ``np.tensordot``.  The density-matrix
appliers run on many 2-3 qubit states, where tensordot's per-call axis
bookkeeping costs more than the arithmetic, so they take that bookkeeping
from a plan memoised per (wire tuple, register width) and call ``np.dot``
on the very operands tensordot would build: results match it bit for bit.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = [
    "apply_matrix_to_statevector",
    "apply_matrix_to_statevector_batch",
    "apply_matrix_to_density_matrix",
    "apply_kraus_to_density_matrix",
    "apply_uniform_depolarizing_to_density_matrix",
    "statevector_probabilities",
    "statevector_probabilities_batch",
    "density_matrix_probabilities",
    "reduced_density_matrix",
    "reduced_density_matrix_from_statevector",
]


def _state_axes(qubits: Sequence[int], num_qubits: int) -> list[int]:
    return [num_qubits - 1 - q for q in reversed(list(qubits))]


def apply_matrix_to_statevector(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply ``matrix`` (acting on ``qubits``) to a statevector of ``num_qubits``."""
    k = len(qubits)
    axes = _state_axes(qubits, num_qubits)
    tensor = state.reshape([2] * num_qubits)
    gate_tensor = matrix.reshape([2] * (2 * k))
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), axes))
    result = np.moveaxis(moved, list(range(k)), axes)
    return np.ascontiguousarray(result.reshape(2**num_qubits))


def apply_matrix_to_statevector_batch(
    states: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply ``matrix`` (acting on ``qubits``) to every row of a ``(T, 2**n)``
    batch of statevectors with a single contraction.

    The trajectory axis (axis 0) is never contracted, so the gate is
    dispatched once for the whole ensemble rather than once per trajectory —
    the core kernel of :mod:`repro.simulators.ensemble`.
    """
    k = len(qubits)
    batch = states.shape[0]
    # Batch axis first, then one axis per qubit; qubit axes shift by one.
    axes = [a + 1 for a in _state_axes(qubits, num_qubits)]
    tensor = states.reshape([batch] + [2] * num_qubits)
    gate_tensor = matrix.reshape([2] * (2 * k))
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), axes))
    result = np.moveaxis(moved, list(range(k)), axes)
    return np.ascontiguousarray(result.reshape(batch, 2**num_qubits))


@functools.cache
def _contraction_plan(qubits: tuple[int, ...], num_qubits: int) -> tuple:
    """Axis bookkeeping for contracting an operator on ``qubits`` into the
    ``[2] * 2n`` tensor of an ``n``-qubit density matrix, made once per
    (wire tuple, register width).

    Returns the tensor shape and, for the wires' row axes, their column
    axes and both together, a ``(forward, inverse, matrix_shape)``
    side: the transpose that brings those axes to the front (the others
    keep their order), its inverse, and the 2-D shape of the transposed
    tensor.  These are the operands ``np.tensordot`` builds, and the
    inverse is its ``moveaxis``, so one ``np.dot`` per side matches the
    tensordot contraction bit for bit without its per-call bookkeeping.
    """
    rows = _state_axes(qubits, num_qubits)

    def side(front: list[int]) -> tuple:
        forward = front + [a for a in range(2 * num_qubits) if a not in front]
        inverse = tuple(forward.index(a) for a in range(2 * num_qubits))
        size = 2 ** len(front)
        return tuple(forward), inverse, (size, 4**num_qubits // size)

    cols = [a + num_qubits for a in rows]
    return (2,) * (2 * num_qubits), side(rows), side(cols), side(rows + cols)


def _contract(tensor: np.ndarray, operator: np.ndarray, shape: tuple, side: tuple) -> np.ndarray:
    """``operator`` applied to one side's axes of ``tensor``; a transposed view."""
    forward, inverse, matrix_shape = side
    moved = tensor.reshape(shape).transpose(forward).reshape(matrix_shape)
    return np.dot(operator, moved).reshape(shape).transpose(inverse)


def apply_matrix_to_density_matrix(
    rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply the unitary conjugation ``M rho M^dagger`` on the given qubits.

    ``M`` contracts the row axes of the gate's wires and ``conj(M)`` their
    column axes, each with one ``np.dot`` laid out by the memoised
    :func:`_contraction_plan`.  ``rho`` is never written; the result is a
    fresh C-contiguous array.
    """
    shape, rows, cols, _ = _contraction_plan(tuple(qubits), num_qubits)
    moved = _contract(rho, matrix, shape, rows)
    moved = _contract(moved, matrix.conj(), shape, cols)
    dim = 2**num_qubits
    return np.ascontiguousarray(moved.reshape(dim, dim))


def apply_kraus_to_density_matrix(
    rho: np.ndarray, superoperator: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a channel ``rho -> sum_K K rho K^dagger`` on the given qubits,
    given its Liouville matrix ``sum_K kron(K, K.conj())``
    (:meth:`repro.noise.KrausChannel.superoperator`).

    Reshaped to ``[2] * 4k`` the superoperator's axes are (output rows,
    output columns, input rows, input columns), each group little-endian in
    the wire tuple like a gate matrix, so one ``np.dot`` over the channel's
    row and column axes of ``rho`` (laid out by :func:`_contraction_plan`)
    applies every Kraus operator at once.
    """
    shape, _, _, both = _contraction_plan(tuple(qubits), num_qubits)
    dim = 2**num_qubits
    return np.ascontiguousarray(_contract(rho, superoperator, shape, both).reshape(dim, dim))


def apply_uniform_depolarizing_to_density_matrix(
    rho: np.ndarray, probability: float, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Closed form of the uniform depolarizing channel on ``qubits``:
    ``rho -> (1 - p) rho + p (I / 2**k) (x) tr_qubits(rho)``.

    The partial trace is the sum of the ``2**k`` diagonal blocks of the
    channel wires (row bit equal to column bit on each), taken as strided
    views of ``rho`` in ascending order over the sorted wires, which
    reproduces :func:`reduced_density_matrix` bit for bit; ``p / 2**k``
    times that sum is then added to each block of ``(1 - p) rho``.
    ``rho`` itself is never written.
    """
    k = len(qubits)
    dim = 2**num_qubits
    if k == num_qubits:
        mixed = np.trace(rho) / dim * np.eye(dim, dtype=complex)
        return (1.0 - probability) * rho + probability * mixed
    out = (1.0 - probability) * rho
    shape = [2] * (2 * num_qubits)
    source, target = rho.reshape(shape), out.reshape(shape)
    # Block m fixes bit j of m on the row and column axes of the j-th
    # smallest wire; every other axis stays a full slice, so it is a view.
    axes = [num_qubits - 1 - q for q in sorted(qubits)]
    index = [slice(None)] * (2 * num_qubits)
    blocks = []
    for m in range(2**k):
        for j, axis in enumerate(axes):
            index[axis] = index[axis + num_qubits] = (m >> j) & 1
        blocks.append(tuple(index))
    traced = source[blocks[0]] + source[blocks[1]]
    for block in blocks[2:]:
        traced += source[block]
    traced *= 1.0 / 2**k
    traced *= probability
    for block in blocks:
        target[block] += traced
    return out


def statevector_probabilities(
    state: np.ndarray, qubits: Sequence[int] | None, num_qubits: int
) -> np.ndarray:
    """Measurement probabilities of ``qubits`` (little-endian in the result)."""
    probs = _abs_squared(state)
    if qubits is None:
        return probs
    return _marginalise(probs, qubits, num_qubits)


def statevector_probabilities_batch(
    states: np.ndarray, qubits: Sequence[int] | None, num_qubits: int
) -> np.ndarray:
    """Per-row measurement probabilities of a ``(T, 2**n)`` statevector batch.

    Returns a ``(T, 2**m)`` block whose row ``t`` is
    :func:`statevector_probabilities` of ``states[t]``.
    """
    probs = _abs_squared(states)
    if qubits is None:
        return probs
    qubits = list(qubits)
    batch = probs.shape[0]
    axes_keep = _state_axes(qubits, num_qubits)
    run = _consecutive_run(axes_keep)
    if run is not None:
        # Kept axes already form an ascending run: reshape (free on the
        # contiguous block) and sum, skipping the full-permutation copy.
        outer, k = run, len(qubits)
        blocked = probs.reshape(batch, 1 << outer, 1 << k, -1)
        return blocked.sum(axis=(1, 3))
    tensor = probs.reshape([batch] + [2] * num_qubits)
    axes_keep = [a + 1 for a in axes_keep]
    axes_other = [a for a in range(1, num_qubits + 1) if a not in axes_keep]
    permuted = np.transpose(tensor, [0] + axes_keep + axes_other)
    return np.ascontiguousarray(
        permuted.reshape(batch, 2 ** len(qubits), -1).sum(axis=2)
    )


def density_matrix_probabilities(
    rho: np.ndarray, qubits: Sequence[int] | None, num_qubits: int
) -> np.ndarray:
    probs = np.real(np.diagonal(rho)).copy()
    probs[probs < 0] = 0.0
    if qubits is None:
        return probs
    return _marginalise(probs, qubits, num_qubits)


def _abs_squared(values: np.ndarray) -> np.ndarray:
    """``|values|**2`` as ``real**2 + imag**2`` — one real temporary instead of
    the complex-magnitude round-trip (sqrt then square) of ``np.abs(x) ** 2``."""
    re = values.real
    im = values.imag
    return re * re + im * im


def _consecutive_run(axes_keep: Sequence[int]) -> int | None:
    """If ``axes_keep`` is an ascending consecutive run ``[s, s+1, ...]``,
    return ``s`` (the number of more-significant axes); else ``None``.

    Such a run means the kept block is already contiguous in the flat
    row-major index, so marginalising is a reshape + sum with no transpose.
    """
    start = axes_keep[0]
    for offset, axis in enumerate(axes_keep):
        if axis != start + offset:
            return None
    return start


def _marginalise(probs: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Marginal distribution over ``qubits``; bit ``i`` of the result index is
    ``qubits[i]`` of the full index."""
    qubits = list(qubits)
    axes_keep = _state_axes(qubits, num_qubits)
    run = _consecutive_run(axes_keep)
    if run is not None:
        blocked = probs.reshape(1 << run, 2 ** len(qubits), -1)
        return blocked.sum(axis=(0, 2))
    tensor = probs.reshape([2] * num_qubits)
    axes_other = [a for a in range(num_qubits) if a not in axes_keep]
    permuted = np.transpose(tensor, axes_keep + axes_other)
    return np.ascontiguousarray(permuted.reshape(2 ** len(qubits), -1).sum(axis=1))


def reduced_density_matrix_from_statevector(
    state: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Partial trace of ``|psi><psi|`` keeping ``qubits`` (little-endian order)."""
    keep = list(qubits)
    axes_keep = _state_axes(keep, num_qubits)
    axes_other = [a for a in range(num_qubits) if a not in axes_keep]
    tensor = state.reshape([2] * num_qubits)
    permuted = np.transpose(tensor, axes_keep + axes_other)
    matrix = permuted.reshape(2 ** len(keep), -1)
    return matrix @ matrix.conj().T


def reduced_density_matrix(
    rho: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Partial trace of a density matrix keeping ``qubits`` (little-endian order)."""
    keep = list(qubits)
    k = len(keep)
    axes_keep = _state_axes(keep, num_qubits)
    axes_other = [a for a in range(num_qubits) if a not in axes_keep]
    tensor = rho.reshape([2] * (2 * num_qubits))
    perm = (
        axes_keep
        + axes_other
        + [a + num_qubits for a in axes_keep]
        + [a + num_qubits for a in axes_other]
    )
    permuted = np.transpose(tensor, perm)
    other_dim = 2 ** (num_qubits - k)
    reshaped = permuted.reshape(2**k, other_dim, 2**k, other_dim)
    return np.ascontiguousarray(np.einsum("ambm->ab", reshaped))
