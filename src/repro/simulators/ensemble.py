"""Monte-Carlo (quantum trajectory) simulation of noisy circuits.

The exact density-matrix simulator needs ``4**n`` memory, which rules out the
paper's 12-15 qubit VQE workloads.  A trajectory keeps a pure statevector
and, after each gate, samples one Kraus operator of the noise channel with
the Born probability ``<psi| K^dagger K |psi>``.  Averaging over
trajectories (and sampling measurement shots within each trajectory)
converges to the density-matrix result.

This module is the one trajectory sampler.  It evolves a batch of ``T``
trajectories together, one gate kernel per batch rather than per
trajectory, and stores one state per distinct noise history rather than one
per trajectory: at low error rates most trajectories draw no error, so they
share a row.

* **Distinct-history rows** — the batch is an ``(R, 2**n)`` array of
  distinct states plus a ``row`` index from each of the ``T`` trajectories
  to its state.  It starts as one row, and ``R`` only grows when a
  trajectory draws a non-identity noise operator.
* **Batched gate kernel** — each fused block is applied **once** to the
  ``R`` rows through the kernel tier
  (:func:`~repro.simulators.kernels.apply_fused_operation`), with the row
  axis untouched.
* **Grouped stochastic insertions** — for unitary-mixture channels the
  operator index is drawn per (site, trajectory).  The trajectories that
  drew a non-identity operator are grouped by (row, operator), and each
  group gets its own row: a copy of its source row with the operator
  applied once.  A source row no trajectory stays on is reused by one of
  its groups.  Pauli operators run on the perm/diag kernels.  General
  (non-unitary-mixture) channels expand the batch to one row per
  trajectory at their first site and run exact per-trajectory Born
  sampling from there on.
* **Gate fusion** — the circuit is lowered through
  :func:`~repro.simulators.fusion.fuse_circuit` at the width
  :func:`~repro.simulators.fusion.choose_fusion_width` picks for the
  trajectory batch, so a run of adjacent gates costs one batched kernel.
* **Vectorized shot sampling** — outcome probabilities are computed once
  per row, gathered to the trajectories, and every trajectory's shots are
  drawn in one inverse-CDF pass over the ``(T, 2**m)`` probability block.

Wide ensembles are processed in chunks of at most ``max_batch_elements``
state amplitudes (counted per trajectory, so a chunk's rows stay within
the budget) and the draw order does not depend on the row sharing: the
states and counts equal those of a batch that carries every trajectory as
its own row.  The tests hold the sampler to two references: that
full-batch loop shot for shot, and the exact density matrix in
distribution.  Fixed seeds are reproducible.

The sampler ends with :func:`read_out`: readout flips are drawn from a
generator keyed by the seed alone, so the outcomes before readout do not
depend on the readout model.  The engine relies on that to run a sampled
circuit once without readout errors and apply each requester's readout on
top.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import Counts
from ..noise import NoiseModel
from .apply import (
    apply_matrix_to_statevector,
    reduced_density_matrix_from_statevector,
    statevector_probabilities_batch,
)
from .fusion import choose_fusion_width, fuse_circuit
from .kernels import KernelPlan, apply_fused_operation, apply_plan, build_plan, resolve_backend

__all__ = ["simulate_trajectories_ensemble"]

# Amplitude budget per chunk: chunk_size * 2**n <= this (complex128, ~128 MiB).
DEFAULT_MAX_BATCH_ELEMENTS = 1 << 23


def simulate_trajectories_ensemble(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    shots: int = 4096,
    seed: int | None = None,
    max_trajectories: int = 600,
    max_batch_elements: int = DEFAULT_MAX_BATCH_ELEMENTS,
    kernel_backend: str | None = None,
) -> tuple[Counts, list[int]]:
    """Sample ``shots`` noisy measurement outcomes from a trajectory ensemble.

    Returns the counts and the list of measured qubits in clbit order (bit
    ``i`` of an outcome corresponds to ``qubits[i]``).

    ``max_trajectories`` bounds the number of independent noise realisations;
    measurement shots are spread evenly across trajectories.  Without gate
    errors a single trajectory is used.  ``kernel_backend`` routes classified
    blocks (see :mod:`repro.simulators.kernels`).  Readout flips are applied
    to the whole shot batch by :func:`read_out`.
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
    program = fuse_circuit(
        circuit, noise_model, max_qubits=choose_fusion_width(num_qubits, num_trajectories)
    )
    dim = 2**num_qubits
    chunk_size = max(1, min(num_trajectories, max_batch_elements // dim))

    all_outcomes: list[np.ndarray] = []
    for start in range(0, num_trajectories, chunk_size):
        chunk_shots = shots_per_trajectory[start : start + chunk_size]
        states, row = _evolve_ensemble(program, len(chunk_shots), num_qubits, rng, backend)
        probs = statevector_probabilities_batch(states, measured_qubits, num_qubits)
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        all_outcomes.append(_sample_outcomes_inverse_cdf(probs[row], chunk_shots, rng))

    counts = _tally(all_outcomes, len(measured_qubits))
    return read_out(counts, noise_model, measured_qubits, seed), measured_qubits


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


def _evolve_ensemble(
    program, batch: int, num_qubits: int, rng, backend: str = "numpy"
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``batch`` noise realisations through a fused program.

    Returns ``(states, row)``: one state per distinct noise history, and for
    each trajectory the index of its history's row in ``states``.  All
    trajectories start on one row; every fused block is applied once to the
    distinct rows through the counted kernel tier.

    At a unitary-mixture site the operator indices are drawn for all
    ``batch`` trajectories, as in a full-batch run.  Trajectories that drew
    an identity operator stay on their row.  The others are grouped by
    (source row, operator), and each group moves to a copy of its source row
    with the operator applied; a source row left with no trajectory is
    reused in place by its first group, so no row is ever dead.  These
    insertions are not fused blocks: they go through :func:`apply_plan`,
    which leaves the dispatch counters at one per fused block.

    At the first general channel site, whose Born probabilities depend on
    the state, the rows are expanded to one per trajectory for the
    per-trajectory loop.
    """
    states = np.zeros((1, 2**num_qubits), dtype=complex)
    states[0, 0] = 1.0
    row = np.zeros(batch, dtype=np.intp)
    expanded = False
    classified: dict[int, KernelPlan] = {}
    plans: dict[tuple[int, tuple[int, ...]], KernelPlan | None] = {}

    def insertion_plan(unitary: np.ndarray, qubits: tuple[int, ...]) -> KernelPlan | None:
        key = (id(unitary), qubits)
        if key not in plans:
            plans[key] = None
            if backend != "generic":
                # Classify each operator once; a plan depends on its wires
                # only through the full-register vectors derived on first use.
                if id(unitary) not in classified:
                    classified[id(unitary)] = build_plan(unitary, qubits, num_qubits)
                plan = classified[id(unitary)]
                # Paulis classify as perm or diag; the dense kernels expect a
                # sorted wire tuple, which a noise site need not have.
                if plan.kind in ("perm", "diag"):
                    plans[key] = dataclasses.replace(plan, qubits=qubits)
        return plans[key]

    # ``states`` is the first ``R`` rows of ``buffer``.  New rows go into
    # the buffer's spare rows; only a buffer without spare rows is replaced,
    # by one of ``batch`` rows, which every row count fits (no row is dead).
    buffer = states
    for op in program.operations:
        states = apply_fused_operation(
            states, op.kernel, op.matrix, op.qubits, num_qubits,
            backend=backend, inplace=True,
        )
        if states.base is not buffer:
            buffer = states
        for channel, qubits in op.sites:
            mixture = channel.unitary_mixture()
            if mixture is None:
                if not expanded:
                    states, row, expanded = states[row], np.arange(batch), True
                    buffer = states
                for t in range(batch):
                    states[t] = _apply_channel_stochastically(
                        states[t], channel.operators, qubits, num_qubits, rng
                    )
                continue
            probabilities, unitaries, identity_flags = mixture
            indices = rng.choice(len(unitaries), size=batch, p=probabilities)
            stay = np.asarray(identity_flags)[indices]
            if stay.all():
                continue
            # One group per drawn (operator, source row), operator-major.
            moved = np.flatnonzero(~stay)
            count = len(states)
            slot = indices[moved] * count + row[moved]
            drawn = np.zeros(len(unitaries) * count, dtype=bool)
            drawn[slot] = True
            operators, sources = np.divmod(np.flatnonzero(drawn), count)
            # A source row that keeps no trajectory is reused by its first
            # group; every other group gets a new row.
            group = np.arange(len(sources))
            owner = np.full(count, len(sources))
            owner[row[stay]] = -1
            np.minimum.at(owner, sources, group)
            reused = owner[sources] == group
            targets = np.where(reused, sources, count - 1 + np.cumsum(~reused))
            target_of = np.empty(len(drawn), dtype=np.intp)
            target_of[drawn] = targets
            row[moved] = target_of[slot]
            # Gather every source before any row is overwritten.
            inserted = states[sources]
            start = 0
            for index, size in enumerate(np.bincount(operators).tolist()):
                if size:
                    block = slice(start, start + size)
                    inserted[block] = apply_plan(
                        inserted[block], insertion_plan(unitaries[index], qubits),
                        unitaries[index], qubits, num_qubits, backend,
                    )
                    start += size
            rows = count + len(sources) - np.count_nonzero(reused)
            if rows > len(buffer):
                buffer = np.empty((batch, states.shape[1]), dtype=complex)
                buffer[:count] = states
            states = buffer[:rows]
            states[targets] = inserted
    return states, row


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
