"""Ensemble trajectory simulation: one gate kernel per batch, not per trajectory.

:func:`~repro.simulators.trajectory.simulate_trajectories_batched` pre-samples
noise insertions but still evolves each trajectory in its own Python loop —
``num_trajectories x num_gates`` small ``tensordot`` calls, dominated by numpy
dispatch overhead for the compacted 2-6 qubit circuits of subset-tracing
workloads.  This module carries all ``T`` trajectories as a single
``(T, 2**n)`` array and applies each (fused) gate **once** to the whole batch:

* **Batched gate kernel** — :func:`~repro.simulators.apply.apply_matrix_to_statevector_batch`
  contracts the gate against the state axes with the trajectory axis
  untouched.
* **Grouped stochastic insertions** — for unitary-mixture channels the
  operator index is pre-sampled per (site, trajectory); the trajectories
  that drew each distinct non-identity operator are fancy-indexed out as a
  sub-batch, the unitary is applied once to the sub-batch, and the rows are
  scattered back.  General (non-unitary-mixture) channels fall back to exact
  per-trajectory Born sampling *for the affected sites only*.
* **Gate fusion** — the circuit is lowered through
  :func:`~repro.simulators.fusion.fuse_circuit`, so runs of adjacent gates
  sharing ≤ ``fusion_max_qubits`` wires cost one batched kernel.
* **Vectorized shot sampling** — measurement outcomes for every trajectory
  are drawn in one inverse-CDF pass over the ``(T, 2**m)`` probability
  block instead of a per-trajectory ``rng.choice`` loop.

Wide ensembles are processed in chunks of at most ``max_batch_elements``
state amplitudes so the batch never exceeds a fixed memory budget.

The RNG stream differs from both samplers in :mod:`repro.simulators.trajectory`
(which remain the reference implementations), so results agree in
distribution but not shot-for-shot; fixed seeds are reproducible.
"""

from __future__ import annotations

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import Counts
from ..noise import NoiseModel
from .apply import apply_matrix_to_statevector_batch, statevector_probabilities_batch
from .fusion import choose_fusion_width, fuse_circuit
from .kernels import apply_fused_operation, resolve_backend
from .trajectory import _apply_channel_stochastically, _tally, _trajectory_plan, read_out

__all__ = ["simulate_trajectories_ensemble"]

# Amplitude budget per chunk: chunk_size * 2**n <= this (complex128, ~128 MiB).
DEFAULT_MAX_BATCH_ELEMENTS = 1 << 23


def simulate_trajectories_ensemble(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    shots: int = 4096,
    seed: int | None = None,
    max_trajectories: int = 600,
    fusion: bool = True,
    fusion_max_qubits: int | None = None,
    max_batch_elements: int = DEFAULT_MAX_BATCH_ELEMENTS,
    kernel_backend: str | None = None,
) -> tuple[Counts, list[int]]:
    """Sample ``shots`` noisy measurement outcomes from a trajectory ensemble.

    Same interface and statistics as
    :func:`~repro.simulators.trajectory.simulate_trajectories`; see the
    module docstring for how the inner loops differ.  ``fusion=False`` runs
    the exact gate-by-gate program (one block per gate), which is the
    like-for-like baseline for the fused path.  ``fusion_max_qubits=None``
    lets :func:`~repro.simulators.fusion.choose_fusion_width` size blocks
    from the trajectory batch; ``kernel_backend`` routes classified blocks
    (see :mod:`repro.simulators.kernels`; ``None`` reads
    ``REPRO_KERNEL_BACKEND``).
    """
    noise_model = noise_model or NoiseModel.ideal()
    rng = np.random.default_rng(seed)
    measured_qubits = circuit.measurement_layout()
    num_trajectories, shots_per_trajectory = _trajectory_plan(
        shots, noise_model, max_trajectories
    )
    shots_per_trajectory = np.asarray(shots_per_trajectory)

    num_qubits = circuit.num_qubits
    backend = resolve_backend(kernel_backend)
    width = choose_fusion_width(num_qubits, num_trajectories, fusion_max_qubits)
    program = fuse_circuit(circuit, noise_model, max_qubits=width if fusion else 0)
    dim = 2**num_qubits
    chunk_size = max(1, min(num_trajectories, max_batch_elements // dim))

    all_outcomes: list[np.ndarray] = []
    for start in range(0, num_trajectories, chunk_size):
        chunk_shots = shots_per_trajectory[start : start + chunk_size]
        states = _evolve_ensemble(program, len(chunk_shots), num_qubits, rng, backend)
        probs = statevector_probabilities_batch(states, measured_qubits, num_qubits)
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        all_outcomes.append(_sample_outcomes_inverse_cdf(probs, chunk_shots, rng))

    counts = _tally(all_outcomes, len(measured_qubits))
    return read_out(counts, noise_model, measured_qubits, seed), measured_qubits


def _evolve_ensemble(
    program, batch: int, num_qubits: int, rng, backend: str = "numpy"
) -> np.ndarray:
    """Run ``batch`` independent noise realisations through a fused program.

    Fused blocks route through the kernel tier on their fusion-time
    classification; the noise-mixture sub-batch applications below stay on
    the generic path (they are rare, state-dependent, and keeping them off
    the dispatch counters pins ``kernel_dispatch_counts`` to exactly one
    increment per fused block).
    """
    states = np.zeros((batch, 2**num_qubits), dtype=complex)
    states[:, 0] = 1.0
    for op in program.operations:
        states = apply_fused_operation(
            states, op.kernel, op.matrix, op.qubits, num_qubits,
            backend=backend, inplace=True,
        )
        for channel, qubits in op.sites:
            mixture = channel.unitary_mixture()
            if mixture is None:
                # Non-unitary-mixture channel: Born probabilities depend on
                # the state, so only this site pays the per-trajectory cost.
                for t in range(batch):
                    states[t] = _apply_channel_stochastically(
                        states[t], channel.operators, qubits, num_qubits, rng
                    )
                continue
            probabilities, unitaries, identity_flags = mixture
            indices = rng.choice(len(unitaries), size=batch, p=probabilities)
            for index in np.unique(indices):
                if identity_flags[index]:
                    continue
                selected = np.nonzero(indices == index)[0]
                states[selected] = apply_matrix_to_statevector_batch(
                    states[selected], unitaries[index], qubits, num_qubits
                )
    return states


def _sample_outcomes_inverse_cdf(
    probs: np.ndarray, shots_per_row: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``shots_per_row[t]`` outcomes from row ``t`` of a probability
    block in one pass.

    Each row's CDF is offset by its row index, making the flattened array
    globally non-decreasing, so a single :func:`numpy.searchsorted` resolves
    every (trajectory, shot) pair at once.
    """
    total = int(shots_per_row.sum())
    num_rows, num_outcomes = probs.shape
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = 1.0  # guard against round-off at the top of each row
    rows = np.repeat(np.arange(num_rows), shots_per_row)
    flat = (cdf + np.arange(num_rows)[:, None]).ravel()
    positions = np.searchsorted(flat, rows + rng.random(total), side="right")
    return positions - rows * num_outcomes
