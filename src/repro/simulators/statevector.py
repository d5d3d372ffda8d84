"""Ideal (noise-free) statevector simulation."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import ProbabilityDistribution, scatter_outcomes
from .apply import apply_matrix_to_statevector, statevector_probabilities

__all__ = ["Statevector", "simulate_statevector", "ideal_distribution"]


class Statevector:
    """A pure state on ``num_qubits`` qubits (little-endian indexing)."""

    def __init__(self, data: np.ndarray | Sequence[complex], num_qubits: int | None = None) -> None:
        array = np.asarray(data, dtype=complex).reshape(-1)
        if num_qubits is None:
            num_qubits = int(round(np.log2(array.size)))
        if 2**num_qubits != array.size:
            raise ValueError(f"statevector length {array.size} is not 2**{num_qubits}")
        norm = np.linalg.norm(array)
        if norm < 1e-12:
            raise ValueError("statevector has zero norm")
        self.num_qubits = num_qubits
        self.data = array / norm

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        data = np.zeros(2**num_qubits, dtype=complex)
        data[0] = 1.0
        return cls(data, num_qubits)

    # ------------------------------------------------------------------
    # Evolution and measurement
    # ------------------------------------------------------------------

    def evolve_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "Statevector":
        new_data = apply_matrix_to_statevector(self.data, matrix, qubits, self.num_qubits)
        return Statevector(new_data, self.num_qubits)

    def evolve_circuit(
        self, circuit: QuantumCircuit, kernel_backend: str | None = None
    ) -> "Statevector":
        from .fusion import choose_fusion_width, fuse_circuit
        from .kernels import apply_fused_operation, resolve_backend

        program = fuse_circuit(circuit, max_qubits=choose_fusion_width(self.num_qubits))
        backend = resolve_backend(kernel_backend)
        # The kernel tier operates on (B, 2**n) blocks; a single state rides
        # as a one-row batch (free reshape both ways).
        states = self.data[np.newaxis, :]
        for op in program.operations:
            states = apply_fused_operation(
                states, op.kernel, op.matrix, op.qubits, self.num_qubits,
                backend=backend,
            )
        return Statevector(states[0], self.num_qubits)

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        return statevector_probabilities(self.data, qubits, self.num_qubits)

    def probability_distribution(self, qubits: Sequence[int] | None = None) -> ProbabilityDistribution:
        probs = self.probabilities(qubits)
        num_bits = self.num_qubits if qubits is None else len(list(qubits))
        return ProbabilityDistribution(probs, num_bits)

    def fidelity(self, other: "Statevector") -> float:
        return float(abs(np.vdot(self.data, other.data)) ** 2)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Statevector(num_qubits={self.num_qubits})"


def simulate_statevector(
    circuit: QuantumCircuit,
    initial_state: Statevector | None = None,
    kernel_backend: str | None = None,
) -> Statevector:
    """Run ``circuit`` without noise and return the final statevector.

    Runs of adjacent gates are merged into single matrices first
    (:mod:`repro.simulators.fusion`); the result equals the gate-by-gate
    evolution up to floating point.  ``kernel_backend`` routes fused blocks
    through the specialized kernel tier (:mod:`repro.simulators.kernels`).
    """
    state = initial_state or Statevector.zero_state(circuit.num_qubits)
    if state.num_qubits != circuit.num_qubits:
        raise ValueError("initial state width does not match the circuit")
    return state.evolve_circuit(circuit, kernel_backend=kernel_backend)


def ideal_distribution(
    circuit: QuantumCircuit, kernel_backend: str | None = None
) -> ProbabilityDistribution:
    """Noise-free output distribution over the circuit's measured bits.

    If the circuit has measurements, the distribution is over the measured
    clbits (sorted); otherwise it is over all qubits.

    Idle wires are compacted away before simulation, so a small circuit
    embedded on a wide device (e.g. a 4-qubit subset circuit on 27 device
    wires) costs ``2**k`` rather than ``2**n`` memory.
    Idle qubits contribute deterministic 0 bits to the unmeasured case.
    """
    compact, active = circuit.compact_qubits()
    state = simulate_statevector(compact, kernel_backend=kernel_backend)
    if compact.has_measurements:
        return state.probability_distribution(compact.measurement_layout())
    compact_distribution = state.probability_distribution()
    if compact.num_qubits == circuit.num_qubits:
        return compact_distribution
    # Scatter each compact outcome's bits back to their original wire
    # positions; the dropped wires were never touched so they read 0.
    return ProbabilityDistribution(
        scatter_outcomes(compact_distribution.items(), active), circuit.num_qubits
    )
