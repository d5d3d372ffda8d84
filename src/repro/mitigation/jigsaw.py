"""Jigsaw: measurement subsetting [13].

Jigsaw splits the shot budget between (i) the original circuit with all
qubits measured — the noisy *global* distribution — and (ii) copies of the
circuit that measure only a small subset of qubits — the *local*
distributions, which suffer less measurement error (in particular less
measurement crosstalk on hardware).  The local distributions then refine the
global one through Bayesian recombination.

Gate errors are untouched, which is the limitation QuTracer addresses.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..circuits import QuantumCircuit
from ..core import default_subsets
from ..distributions import ProbabilityDistribution, iterative_bayesian_update
from ..noise import NoiseModel, as_noise_model
from ..simulators import ExecutionEngine, get_default_engine

__all__ = ["JigsawResult", "default_subsets", "build_subset_circuit", "run_jigsaw"]


@dataclasses.dataclass
class JigsawResult:
    """Output of a Jigsaw run."""

    global_distribution: ProbabilityDistribution
    local_distributions: list[tuple[ProbabilityDistribution, list[int]]]
    mitigated_distribution: ProbabilityDistribution
    subsets: list[list[int]]
    shots_global: int
    shots_per_subset: int

    @property
    def total_shots(self) -> int:
        return self.shots_global + self.shots_per_subset * len(self.subsets)


def build_subset_circuit(circuit: QuantumCircuit, subset: Sequence[int]) -> QuantumCircuit:
    """Copy of ``circuit`` measuring only ``subset`` (gates untouched)."""
    subset = list(subset)
    measured = set(circuit.measured_qubits or range(circuit.num_qubits))
    for q in subset:
        if q not in measured:
            raise ValueError(f"qubit {q} is not measured by the original circuit")
    stripped = circuit.remove_final_measurements()
    stripped.measure_subset(subset)
    stripped.name = f"{circuit.name}_subset_{'_'.join(map(str, subset))}"
    return stripped


def run_jigsaw(
    circuit: QuantumCircuit,
    noise_model: NoiseModel,
    shots: int = 8192,
    subset_size: int = 2,
    subsets: Sequence[Sequence[int]] | None = None,
    update_rounds: int = 1,
    seed: int | None = None,
    max_trajectories: int = 600,
    engine: ExecutionEngine | None = None,
) -> JigsawResult:
    """Run the Jigsaw protocol.

    Half the shots produce the global distribution, the other half are split
    evenly across the subset circuits (the paper's configuration in
    Sec. VI).  The mitigated distribution is the global distribution after a
    Bayesian update from every local distribution.

    The subset circuits are submitted as one batch through ``engine``
    (default: the process-wide engine), which deduplicates identical subset
    circuits and caches results across repeated runs of the same workload.
    """
    if not circuit.has_measurements:
        circuit = circuit.copy()
        circuit.measure_all()
    # Accepts a DeviceModel wherever a NoiseModel fits
    # (None still means ideal noise, resolved by the engine).
    if noise_model is not None:
        noise_model = as_noise_model(noise_model)
    engine = engine or get_default_engine()
    measured = circuit.measured_qubits
    if subsets is None:
        subsets = default_subsets(measured, subset_size)
    subsets = [list(s) for s in subsets]
    if not subsets:
        raise ValueError("at least one subset is required")

    shots_global = max(shots // 2, 1)
    shots_per_subset = max((shots - shots_global) // len(subsets), 1)

    global_result = engine.execute(
        circuit,
        noise_model,
        shots=shots_global,
        seed=seed,
        max_trajectories=max_trajectories,
    )
    global_distribution = global_result.distribution

    subset_circuits = [build_subset_circuit(circuit, subset) for subset in subsets]
    local_results = engine.execute_many(
        subset_circuits,
        noise_model,
        shots=shots_per_subset,
        seed=None if seed is None else seed + 101,
        max_trajectories=max_trajectories,
    )
    local_distributions: list[tuple[ProbabilityDistribution, list[int]]] = []
    for subset, local_result in zip(subsets, local_results):
        # Bits of the local distribution follow clbit order (sorted subset).
        ordered_subset = [q for q in sorted(subset)]
        subset_bits = [global_result.bit_for_qubit(q) for q in ordered_subset]
        local_distributions.append((local_result.distribution, subset_bits))

    mitigated = iterative_bayesian_update(global_distribution, local_distributions, rounds=update_rounds)
    return JigsawResult(
        global_distribution=global_distribution,
        local_distributions=local_distributions,
        mitigated_distribution=mitigated,
        subsets=subsets,
        shots_global=shots_global,
        shots_per_subset=shots_per_subset,
    )
