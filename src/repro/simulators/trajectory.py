"""Monte-Carlo (quantum trajectory) simulation of noisy circuits.

The exact density-matrix simulator needs ``4**n`` memory, which rules out the
paper's 12-15 qubit VQE workloads.  The trajectory simulator keeps a pure
statevector and, after each gate, samples one Kraus operator of the noise
channel with the Born probability ``<psi| K^dagger K |psi>``.  Averaging over
trajectories (and sampling measurement shots within each trajectory)
converges to the density-matrix result.

Every sampler here and in :mod:`~repro.simulators.ensemble` ends with
:func:`read_out`: readout
flips are drawn from a generator keyed by the seed alone, so the outcomes
before readout do not depend on the readout model.  The engine relies on
that to run a sampled circuit once without readout errors and apply each
requester's readout on top.
"""

from __future__ import annotations

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import Counts
from ..noise import NoiseModel
from .apply import (
    apply_matrix_to_statevector,
    reduced_density_matrix_from_statevector,
    statevector_probabilities,
)

__all__ = ["simulate_trajectories", "simulate_trajectories_batched"]


def simulate_trajectories(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    shots: int = 4096,
    seed: int | None = None,
    max_trajectories: int = 600,
) -> tuple[Counts, list[int]]:
    """Sample ``shots`` noisy measurement outcomes.

    Returns the counts and the list of measured qubits in clbit order (bit
    ``i`` of an outcome corresponds to ``qubits[i]``).

    ``max_trajectories`` bounds the number of independent noise realisations;
    measurement shots are spread evenly across trajectories.  For ideal noise
    models a single trajectory is used.

    Readout flips are applied to the whole shot batch by :func:`read_out`,
    the readout tail every sampler shares.
    """
    noise_model = noise_model or NoiseModel.ideal()
    rng = np.random.default_rng(seed)
    measured_qubits = circuit.measurement_layout()
    num_trajectories, shots_per_trajectory = _trajectory_plan(
        shots, noise_model, max_trajectories
    )

    num_qubits = circuit.num_qubits
    all_outcomes: list[np.ndarray] = []
    for trajectory_shots in shots_per_trajectory:
        state = _run_single_trajectory(circuit, noise_model, rng)
        probs = statevector_probabilities(state, measured_qubits, num_qubits)
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        if trajectory_shots:
            all_outcomes.append(rng.choice(probs.size, size=trajectory_shots, p=probs))
    counts = _tally(all_outcomes, len(measured_qubits))
    return read_out(counts, noise_model, measured_qubits, seed), measured_qubits


def simulate_trajectories_batched(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    shots: int = 4096,
    seed: int | None = None,
    max_trajectories: int = 600,
) -> tuple[Counts, list[int]]:
    """Vectorized variant of :func:`simulate_trajectories`.

    Same interface and statistics, different inner loop:

    * **Batched error-insertion sampling** — for *unitary-mixture* channels
      (Pauli/depolarizing channels, where every Kraus operator is a scaled
      unitary) the Born probability ``<psi|K^dagger K|psi> = p_k`` is
      state-independent, so the inserted operator index is pre-sampled for
      every (trajectory, error site) pair in one vectorized draw per site
      instead of computing a reduced density matrix per trajectory per site.
      Non-unitary channels (amplitude damping) keep exact per-state sampling.
    * **Vectorized readout flips** — measurement bit flips are applied to the
      whole shot batch with array operations (:func:`read_out`) rather than
      shot-by-shot.

    The RNG stream differs from :func:`simulate_trajectories`, so the two
    functions agree in distribution but not shot-for-shot.  Results are
    reproducible for a fixed ``seed``.
    """
    noise_model = noise_model or NoiseModel.ideal()
    rng = np.random.default_rng(seed)
    measured_qubits = circuit.measurement_layout()
    num_trajectories, shots_per_trajectory = _trajectory_plan(
        shots, noise_model, max_trajectories
    )
    shots_per_trajectory = np.array(shots_per_trajectory)

    # ------------------------------------------------------------------
    # One pass over the circuit: collect the gate list and classify every
    # error-insertion site.
    # ------------------------------------------------------------------
    gate_ops: list[tuple[np.ndarray, tuple[int, ...]]] = []
    # Per gate, a list of sites; each site is either
    #   ("mixture", qubits, unitaries, identity_flags, presampled_indices) or
    #   ("general", qubits, operators).
    sites_per_gate: list[list[tuple]] = []
    for inst in circuit.data:
        if inst.is_barrier or inst.is_measurement:
            continue
        if not inst.is_gate:
            raise ValueError(f"cannot simulate instruction {inst.name!r}")
        gate_ops.append((inst.operation.matrix, inst.qubits))
        sites: list[tuple] = []
        for channel, qubits in noise_model.channels_for(inst):
            if channel.is_identity():
                continue
            mixture = channel.unitary_mixture()
            if mixture is not None:
                probabilities, unitaries, identity_flags = mixture
                indices = rng.choice(
                    len(unitaries), size=num_trajectories, p=probabilities
                )
                sites.append(("mixture", qubits, unitaries, identity_flags, indices))
            else:
                sites.append(("general", qubits, channel.operators))
        sites_per_gate.append(sites)

    # ------------------------------------------------------------------
    # Run the trajectories with the pre-sampled insertions.
    # ------------------------------------------------------------------
    num_qubits = circuit.num_qubits
    all_outcomes: list[np.ndarray] = []
    for trajectory in range(num_trajectories):
        state = np.zeros(2**num_qubits, dtype=complex)
        state[0] = 1.0
        for (matrix, qubits), sites in zip(gate_ops, sites_per_gate):
            state = apply_matrix_to_statevector(state, matrix, qubits, num_qubits)
            for site in sites:
                if site[0] == "mixture":
                    _, site_qubits, unitaries, identity_flags, indices = site
                    index = int(indices[trajectory])
                    if identity_flags[index]:
                        continue
                    state = apply_matrix_to_statevector(
                        state, unitaries[index], site_qubits, num_qubits
                    )
                else:
                    _, site_qubits, operators = site
                    state = _apply_channel_stochastically(
                        state, operators, site_qubits, num_qubits, rng
                    )
        probs = statevector_probabilities(state, measured_qubits, num_qubits)
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        trajectory_shots = int(shots_per_trajectory[trajectory])
        if trajectory_shots:
            all_outcomes.append(rng.choice(probs.size, size=trajectory_shots, p=probs))

    counts = _tally(all_outcomes, len(measured_qubits))
    return read_out(counts, noise_model, measured_qubits, seed), measured_qubits


def _tally(all_outcomes: list[np.ndarray], num_bits: int) -> Counts:
    """Pre-readout counts of the sampled outcome arrays (``np.unique`` tally)."""
    outcomes = np.concatenate(all_outcomes) if all_outcomes else np.zeros(0, dtype=int)
    values, frequencies = np.unique(outcomes, return_counts=True)
    return Counts({int(v): int(f) for v, f in zip(values, frequencies)}, num_bits)


def read_out(
    counts: Counts, noise_model: NoiseModel, measured_qubits: list[int], seed: int | None
) -> Counts:
    """Apply ``noise_model``'s readout flips to pre-readout ``counts``.

    The one readout tail of the sampled methods: every sampler ends with it,
    and the engine calls it on a cached readout-free run, so both return the
    same counts for the same seed.  The counts are expanded in sorted
    outcome order and the flips come from a generator keyed by ``seed``
    alone, independent of the stream that drew the outcomes; ``seed=None``
    draws fresh entropy.  Without readout errors ``counts`` is returned
    unchanged.
    """
    readout = noise_model.readout_errors_for(measured_qubits)
    if not readout or not counts.shots:
        return counts
    values, frequencies = zip(*sorted(counts.items()))
    outcomes = np.repeat(np.array(values, dtype=np.int64), frequencies)
    num_bits = len(measured_qubits)
    flip_given_0 = np.array(
        [readout[q].prob_1_given_0 if q in readout else 0.0 for q in measured_qubits]
    )
    flip_given_1 = np.array(
        [readout[q].prob_0_given_1 if q in readout else 0.0 for q in measured_qubits]
    )
    bits = (outcomes[:, None] >> np.arange(num_bits)) & 1
    flip_probabilities = np.where(bits == 1, flip_given_1, flip_given_0)
    rng = np.random.default_rng(None if seed is None else [seed, 1])
    flipped = bits ^ (rng.random(bits.shape) < flip_probabilities)
    return _tally([(flipped << np.arange(num_bits)).sum(axis=1)], num_bits)


def _trajectory_plan(
    shots: int, noise_model: NoiseModel, max_trajectories: int
) -> tuple[int, list[int]]:
    """Number of noise realisations and the per-trajectory shot split."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if max_trajectories <= 0:
        raise ValueError("max_trajectories must be positive")
    num_trajectories = 1 if not noise_model.has_gate_errors else min(shots, max_trajectories)
    return num_trajectories, _spread(shots, num_trajectories)


def _spread(total: int, parts: int) -> list[int]:
    base = total // parts
    remainder = total % parts
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def _run_single_trajectory(
    circuit: QuantumCircuit, noise_model: NoiseModel, rng: np.random.Generator
) -> np.ndarray:
    num_qubits = circuit.num_qubits
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    for inst in circuit.data:
        if inst.is_barrier or inst.is_measurement:
            continue
        if not inst.is_gate:
            raise ValueError(f"cannot simulate instruction {inst.name!r}")
        state = apply_matrix_to_statevector(state, inst.operation.matrix, inst.qubits, num_qubits)
        for channel, qubits in noise_model.channels_for(inst):
            if channel.is_identity():
                continue
            state = _apply_channel_stochastically(state, channel.operators, qubits, num_qubits, rng)
    return state


def _apply_channel_stochastically(
    state: np.ndarray,
    operators: list[np.ndarray],
    qubits: tuple[int, ...],
    num_qubits: int,
    rng: np.random.Generator,
) -> np.ndarray:
    if len(operators) == 1:
        new_state = apply_matrix_to_statevector(state, operators[0], qubits, num_qubits)
        norm = np.linalg.norm(new_state)
        return new_state / norm if norm > 0 else new_state
    # Born probabilities only involve the reduced state on the channel's qubits.
    rho = reduced_density_matrix_from_statevector(state, qubits, num_qubits)
    probs = np.array([max(float(np.real(np.trace(op.conj().T @ op @ rho))), 0.0) for op in operators])
    total = probs.sum()
    if total <= 0:  # pragma: no cover - numerically degenerate state
        probs = np.full(len(operators), 1.0 / len(operators))
    else:
        probs = probs / total
    index = int(rng.choice(len(operators), p=probs))
    new_state = apply_matrix_to_statevector(state, operators[index], qubits, num_qubits)
    norm = np.linalg.norm(new_state)
    if norm <= 1e-15:  # pragma: no cover - selected operator annihilated the state
        return state
    return new_state / norm
