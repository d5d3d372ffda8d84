"""Exact noisy simulation with density matrices.

Suitable for small circuits (the memory cost is ``4**n`` complex numbers);
:func:`repro.simulators.execute.execute` switches to the trajectory
simulator for wider circuits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import ProbabilityDistribution
from ..noise import KrausChannel, NoiseModel
from .apply import (
    apply_kraus_to_density_matrix,
    apply_matrix_to_density_matrix,
    apply_uniform_depolarizing_to_density_matrix,
    density_matrix_probabilities,
    reduced_density_matrix,
)
from .fusion import choose_fusion_width, fuse_circuit
from .kernels import apply_plan_to_density_matrix, resolve_backend
from .statevector import Statevector

__all__ = ["DensityMatrix", "simulate_density_matrix", "noisy_distribution_density_matrix"]


class DensityMatrix:
    """A (possibly mixed) state on ``num_qubits`` qubits."""

    def __init__(self, data: np.ndarray, num_qubits: int | None = None) -> None:
        array = np.asarray(data, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError("density matrix must be square")
        if num_qubits is None:
            num_qubits = int(round(np.log2(array.shape[0])))
        if 2**num_qubits != array.shape[0]:
            raise ValueError("density matrix dimension is not a power of two")
        self.num_qubits = num_qubits
        self.data = array

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        data = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
        data[0, 0] = 1.0
        return cls(data, num_qubits)

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        return cls(np.outer(state.data, state.data.conj()), state.num_qubits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        return density_matrix_probabilities(self.data, qubits, self.num_qubits)

    def probability_distribution(self, qubits: Sequence[int] | None = None) -> ProbabilityDistribution:
        probs = self.probabilities(qubits)
        num_bits = self.num_qubits if qubits is None else len(list(qubits))
        total = probs.sum()
        if total > 0:
            probs = probs / total
        return ProbabilityDistribution(probs, num_bits)

    def reduced(self, qubits: Sequence[int]) -> "DensityMatrix":
        return DensityMatrix(reduced_density_matrix(self.data, qubits, self.num_qubits), len(list(qubits)))

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def evolve_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "DensityMatrix":
        return DensityMatrix(
            apply_matrix_to_density_matrix(self.data, matrix, qubits, self.num_qubits),
            self.num_qubits,
        )

    def apply_channel(self, channel: KrausChannel, qubits: Sequence[int]) -> "DensityMatrix":
        return DensityMatrix(
            apply_kraus_to_density_matrix(
                self.data, channel.superoperator(), qubits, self.num_qubits
            ),
            self.num_qubits,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DensityMatrix(num_qubits={self.num_qubits}, purity={self.purity:.4f})"


def simulate_density_matrix(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    initial_state: DensityMatrix | None = None,
    kernel_backend: str | None = None,
) -> DensityMatrix:
    """Run the circuit, applying the noise model's channels after each gate.

    Runs of adjacent gates are merged into single matrices first (noise
    placement unchanged — see :mod:`repro.simulators.fusion`); the result
    equals the gate-by-gate evolution up to floating point, with fewer
    large conjugations on lightly-noised circuits.  Diagonal and
    permutation-structured blocks conjugate through the kernel tier's
    specialized fast paths (:mod:`repro.simulators.kernels`); dense blocks
    take the generic two-sided conjugation of
    :func:`~repro.simulators.apply.apply_matrix_to_density_matrix`.
    """
    noise_model = noise_model or NoiseModel.ideal()
    state = initial_state or DensityMatrix.zero_state(circuit.num_qubits)
    if state.num_qubits != circuit.num_qubits:
        raise ValueError("initial state width does not match the circuit")
    rho = state.data
    backend = resolve_backend(kernel_backend)
    program = fuse_circuit(
        circuit, noise_model, max_qubits=choose_fusion_width(circuit.num_qubits)
    )
    for op in program.operations:
        fast = apply_plan_to_density_matrix(rho, op.kernel, backend)
        if fast is not None:
            rho = fast
        else:
            rho = apply_matrix_to_density_matrix(
                rho, op.matrix, op.qubits, circuit.num_qubits
            )
        for channel, qubits in op.sites:
            depolarizing = channel.uniform_depolarizing_probability()
            if depolarizing is not None:
                rho = apply_uniform_depolarizing_to_density_matrix(
                    rho, depolarizing, qubits, circuit.num_qubits
                )
            else:
                rho = apply_kraus_to_density_matrix(
                    rho, channel.superoperator(), qubits, circuit.num_qubits
                )
    return DensityMatrix(rho, circuit.num_qubits)


def noisy_distribution_density_matrix(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    initial_state: DensityMatrix | None = None,
    kernel_backend: str | None = None,
) -> tuple[ProbabilityDistribution, list[int]]:
    """Exact noisy output distribution over the measured clbits.

    Returns the distribution and the list of measured qubits in clbit order
    (bit ``i`` of an outcome corresponds to ``qubits[i]``).  Readout errors
    from the noise model are applied as classical confusion on the
    distribution.
    """
    noise_model = noise_model or NoiseModel.ideal()
    state = simulate_density_matrix(
        circuit, noise_model, initial_state, kernel_backend=kernel_backend
    )
    qubits = circuit.measurement_layout()
    distribution = state.probability_distribution(qubits)
    return apply_readout_confusion(distribution, qubits, noise_model), qubits


def apply_readout_confusion(
    distribution: ProbabilityDistribution, measured_qubits: Sequence[int], noise: NoiseModel
) -> ProbabilityDistribution:
    """Apply per-bit readout confusion for ``measured_qubits`` in clbit order.

    Asymmetric errors need the full confusion treatment, so the 2x2
    confusion matrix is applied exactly per bit.  The engine applies this to
    each density-matrix requester on top of its cached gate-noise evolution,
    so cached and uncached results agree bit for bit.
    """
    for bit, qubit in enumerate(measured_qubits):
        error = noise.readout_error(qubit)
        if error is not None:
            distribution = _apply_confusion_bit(distribution, bit, error.confusion_matrix)
    return distribution


def _apply_confusion_bit(
    distribution: ProbabilityDistribution, bit: int, confusion: np.ndarray
) -> ProbabilityDistribution:
    updated: dict[int, float] = {}
    for outcome, prob in distribution.items():
        actual = (outcome >> bit) & 1
        for measured in (0, 1):
            weight = confusion[measured, actual]
            if weight <= 0:
                continue
            new_outcome = (outcome & ~(1 << bit)) | (measured << bit)
            updated[new_outcome] = updated.get(new_outcome, 0.0) + prob * weight
    return ProbabilityDistribution(updated, distribution.num_bits)
