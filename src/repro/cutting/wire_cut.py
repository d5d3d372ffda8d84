"""Wire cutting primitives: preparation bases, measurement bases, reconstruction.

Circuit cutting (Sec. II-B, Eq. (1)) replaces a wire by (i) a measurement of
a complete operator basis on the upstream side and (ii) preparation of the
corresponding eigenstates on the downstream side.  QuTracer repurposes the
machinery: the upstream state at a cut is known (measured or classically
simulated), and the downstream side is executed for a small set of prepared
states whose results are recombined linearly.

This module provides the linear algebra shared by SQEM and QSPC:

* the preparation basis ``{|0>, |1>, |+>, |i>}`` (four states suffice — the
  expectation for ``|->`` / ``|-i>`` follows classically, which is the
  paper's *state preparation reduction*),
* decomposition of an arbitrary (not necessarily Hermitian) operator into
  that preparation basis, per wire,
* Pauli-string algebra and density-matrix reconstruction from Pauli
  expectation values.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from ..circuits.operations import pauli_matrix as pauli_string_matrix

__all__ = [
    "PREPARATION_LABELS",
    "REDUCED_PREPARATION_LABELS",
    "MEASUREMENT_BASES",
    "preparation_state",
    "preparation_density_matrix",
    "pauli_string_matrix",
    "multiply_pauli_strings",
    "decompose_in_pauli_basis",
    "decompose_in_preparation_basis",
    "reconstruct_density_matrix",
    "project_to_physical_state",
]

# Full single-qubit preparation set used by conventional circuit cutting.
PREPARATION_LABELS = ("0", "1", "+", "-", "i", "-i")
# The reduced set QuTracer actually prepares (state preparation reduction).
REDUCED_PREPARATION_LABELS = ("0", "1", "+", "i")
MEASUREMENT_BASES = ("X", "Y", "Z")

_STATES = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2),
    "i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
    "-i": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2),
}

# Single-qubit Pauli multiplication table: (A, B) -> (phase, C) with A B = phase * C.
_PAULI_PRODUCTS: dict[tuple[str, str], tuple[complex, str]] = {}
for _a in "IXYZ":
    for _b in "IXYZ":
        _product = pauli_string_matrix(_a) @ pauli_string_matrix(_b)
        for _c in "IXYZ":
            for _phase in (1, -1, 1j, -1j):
                if np.allclose(_product, _phase * pauli_string_matrix(_c)):
                    _PAULI_PRODUCTS[(_a, _b)] = (_phase, _c)
                    break
            else:
                continue
            break


def preparation_state(label: str) -> np.ndarray:
    """The ket for a preparation label."""
    if label not in _STATES:
        raise ValueError(f"unknown preparation label {label!r}")
    return _STATES[label].copy()


def preparation_density_matrix(labels: Sequence[str]) -> np.ndarray:
    """Density matrix of a product of prepared single-qubit states.

    ``labels[i]`` is the state of subset wire ``i`` (little-endian: wire 0 is
    the least significant bit of the matrix index).  A plain string raises
    ``TypeError``: ``"-i"`` is one label, not the two labels ``"-"`` and
    ``"i"``.
    """
    if isinstance(labels, str):
        raise TypeError("labels must be a sequence of preparation labels, not a str")
    rho = None
    for label in labels:
        ket = preparation_state(label)
        single = np.outer(ket, ket.conj())
        rho = single if rho is None else np.kron(single, rho)
    return rho


def multiply_pauli_strings(a: str, b: str) -> tuple[complex, str]:
    """Product of two Pauli strings: ``a . b = phase * result``."""
    if len(a) != len(b):
        raise ValueError("Pauli strings must have equal length")
    phase: complex = 1.0
    result = []
    for ch_a, ch_b in zip(a.upper(), b.upper()):
        p, c = _PAULI_PRODUCTS[(ch_a, ch_b)]
        phase *= p
        result.append(c)
    return phase, "".join(result)


def decompose_in_pauli_basis(operator: np.ndarray) -> dict[str, complex]:
    """Coefficients ``c_P`` with ``operator = sum_P c_P P`` over Pauli strings."""
    operator = np.asarray(operator, dtype=complex)
    dim = operator.shape[0]
    num_qubits = int(round(np.log2(dim)))
    if 2**num_qubits != dim or operator.shape != (dim, dim):
        raise ValueError("operator must be a square matrix on qubits")
    coefficients: dict[str, complex] = {}
    for letters in itertools.product("IXYZ", repeat=num_qubits):
        label = "".join(letters)
        coefficient = np.trace(pauli_string_matrix(label).conj().T @ operator) / dim
        if abs(coefficient) > 1e-12:
            coefficients[label] = complex(coefficient)
    return coefficients


# Single-qubit Paulis written in the reduced preparation basis:
#   I = |0><0| + |1><1|
#   Z = |0><0| - |1><1|
#   X = 2|+><+| - |0><0| - |1><1|
#   Y = 2|i><i| - |0><0| - |1><1|
_PAULI_IN_PREP: dict[str, dict[str, complex]] = {
    "I": {"0": 1.0, "1": 1.0},
    "Z": {"0": 1.0, "1": -1.0},
    "X": {"+": 2.0, "0": -1.0, "1": -1.0},
    "Y": {"i": 2.0, "0": -1.0, "1": -1.0},
}


def decompose_in_preparation_basis(operator: np.ndarray) -> dict[tuple[str, ...], complex]:
    """Write ``operator`` as a combination of products of preparable states.

    Returns a mapping from a tuple of preparation labels (one per wire,
    little-endian) to a complex coefficient such that::

        operator = sum_labels coeff * (|l_{n-1}><l_{n-1}| ⊗ ... ⊗ |l_0><l_0|)

    Only the reduced preparation set {0, 1, +, i} appears, implementing the
    paper's state-preparation reduction for arbitrary (even non-Hermitian)
    operators such as ``C_L rho`` in Eq. (9).
    """
    pauli_coefficients = decompose_in_pauli_basis(operator)
    result: dict[tuple[str, ...], complex] = {}
    for pauli_label, pauli_coefficient in pauli_coefficients.items():
        # Expand the product over wires.
        expansions = [_PAULI_IN_PREP[ch] for ch in pauli_label]
        for combination in itertools.product(*(exp.items() for exp in expansions)):
            labels = tuple(item[0] for item in combination)
            weight = pauli_coefficient
            for item in combination:
                weight *= item[1]
            if abs(weight) > 1e-15:
                result[labels] = result.get(labels, 0.0) + weight
    return {k: v for k, v in result.items() if abs(v) > 1e-12}


def reconstruct_density_matrix(expectations: Mapping[str, float], num_qubits: int) -> np.ndarray:
    """Density matrix from Pauli-string expectation values.

    Missing strings are treated as zero; the identity expectation defaults
    to 1.  The result is not yet projected to the physical set — use
    :func:`project_to_physical_state` when sampling noise can push it
    outside.
    """
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    identity = "I" * num_qubits
    values = dict(expectations)
    values.setdefault(identity, 1.0)
    for letters in itertools.product("IXYZ", repeat=num_qubits):
        label = "".join(letters)
        value = values.get(label)
        if value is None:
            continue
        rho += value * pauli_string_matrix(label)
    return rho / dim


def project_to_physical_state(rho: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the closest density matrix.

    Clips negative eigenvalues to zero and renormalises the trace to one —
    the standard maximum-likelihood-style projection used after noisy
    tomographic reconstruction.
    """
    rho = np.asarray(rho, dtype=complex)
    rho = 0.5 * (rho + rho.conj().T)
    eigenvalues, eigenvectors = np.linalg.eigh(rho)
    eigenvalues = np.clip(eigenvalues.real, 0.0, None)
    if eigenvalues.sum() <= 0:
        dim = rho.shape[0]
        return np.eye(dim, dtype=complex) / dim
    eigenvalues = eigenvalues / eigenvalues.sum()
    return (eigenvectors * eigenvalues) @ eigenvectors.conj().T
