"""Ensemble trajectory simulation: one gate kernel per batch, not per trajectory.

:func:`~repro.simulators.trajectory.simulate_trajectories_batched` pre-samples
noise insertions but still evolves each trajectory in its own Python loop —
``num_trajectories x num_gates`` small ``tensordot`` calls, dominated by numpy
dispatch overhead for the compacted 2-6 qubit circuits of subset-tracing
workloads.  This module evolves a batch of ``T`` trajectories together, and
stores one state per distinct noise history rather than one per trajectory:
at low error rates most trajectories draw no error, so they share a row.

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
  drawn in one inverse-CDF pass over the ``(T, 2**m)`` probability block
  instead of a per-trajectory ``rng.choice`` loop.

Wide ensembles are processed in chunks of at most ``max_batch_elements``
state amplitudes (counted per trajectory, so a chunk's rows stay within
the budget) and the draw order does not depend on the row sharing: the
states and counts equal those of a batch that carries every trajectory as
its own row.

The RNG stream differs from both samplers in :mod:`repro.simulators.trajectory`
(which remain the reference implementations), so results agree in
distribution but not shot-for-shot; fixed seeds are reproducible.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import Counts
from ..noise import NoiseModel
from .apply import statevector_probabilities_batch
from .fusion import choose_fusion_width, fuse_circuit
from .kernels import KernelPlan, apply_fused_operation, apply_plan, build_plan, resolve_backend
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
    max_batch_elements: int = DEFAULT_MAX_BATCH_ELEMENTS,
    kernel_backend: str | None = None,
) -> tuple[Counts, list[int]]:
    """Sample ``shots`` noisy measurement outcomes from a trajectory ensemble.

    Same interface and statistics as
    :func:`~repro.simulators.trajectory.simulate_trajectories`; see the
    module docstring for how the inner loops differ.  ``kernel_backend``
    routes classified blocks (see :mod:`repro.simulators.kernels`).
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
