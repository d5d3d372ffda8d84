"""The QuTracer framework driver (Sec. V).

Workflow (Fig. 4): the original circuit is executed once to obtain the noisy
*global* distribution; for every traced qubit subset the circuit is analysed
into segments, each entangling segment is protected by a virtual qubit
subsetting Pauli check (QSPC) while single-qubit segments are simulated
classically; the resulting high-fidelity *local* distributions then refine
the global distribution with the Bayesian recombination also used by Jigsaw
and SQEM.

All circuit executions — the global run and every QSPC prepare/run/measure
copy — go through one :class:`~repro.simulators.engine.ExecutionEngine`
shared across subsets and layers, so identical subset circuits (repeated
layers, repeated check variants) are deduplicated and cached instead of
re-simulated.  See ``docs/architecture.md`` for the engine's cache-key
design and batching semantics.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import (
    ProbabilityDistribution,
    hellinger_fidelity,
    iterative_bayesian_update,
)
from ..noise import DeviceModel, NoiseModel, as_noise_model
from ..simulators import ExecutionEngine, ideal_distribution
from ..tracing import maybe_span
from ..transpiler import count_two_qubit_basis_gates, noise_aware_layout
from .analysis import SubsetAnalysis, analyse_subset
from .optimizations import (
    apply_local_unitary,
    conjugate_observables_through,
    extract_trailing_local_gates,
    false_dependency_removal,
)
from .qspc import QSPCOptions, all_pauli_strings, virtual_pauli_check

__all__ = ["QuTracerOptions", "SubsetTraceResult", "QuTracerResult", "QuTracer", "default_subsets"]


def default_subsets(qubits: Sequence[int], subset_size: int) -> list[list[int]]:
    """Adjacent subsets of the measured qubits (one per qubit for size 1)."""
    qubits = list(qubits)
    if subset_size < 1:
        raise ValueError("subset_size must be positive")
    return [qubits[i : i + subset_size] for i in range(0, len(qubits), subset_size) if qubits[i : i + subset_size]]


@dataclasses.dataclass
class QuTracerOptions:
    """Feature toggles; the defaults are the full QuTracer configuration.

    Disabling individual optimizations is used by the ablation benchmarks and
    by the SQEM baseline (which disables all of them).
    """

    enable_checks: bool = True
    false_dependency_removal: bool = True
    state_traceback: bool = True
    state_preparation_reduction: bool = True
    restrict_measurement_bases: bool = True
    update_rounds: int = 2


@dataclasses.dataclass
class SubsetTraceResult:
    """Mitigated local information for one traced subset."""

    subset: list[int]
    local_distribution: ProbabilityDistribution
    density_matrix: np.ndarray
    num_circuits: int
    num_checked_layers: int
    two_qubit_gate_counts: list[int]

    @property
    def average_two_qubit_gates(self) -> float:
        if not self.two_qubit_gate_counts:
            return 0.0
        return float(np.mean(self.two_qubit_gate_counts))


@dataclasses.dataclass
class QuTracerResult:
    """Full output of a QuTracer run."""

    circuit: QuantumCircuit
    global_distribution: ProbabilityDistribution
    mitigated_distribution: ProbabilityDistribution
    ideal_distribution: ProbabilityDistribution
    subset_results: list[SubsetTraceResult]
    shots: int
    shots_per_circuit: int

    @property
    def num_circuits(self) -> int:
        return 1 + sum(r.num_circuits for r in self.subset_results)

    @property
    def normalized_shots(self) -> float:
        """Total shots used, normalised to the original circuit's shot budget."""
        copies = sum(r.num_circuits for r in self.subset_results)
        return 1.0 + copies * self.shots_per_circuit / max(self.shots, 1)

    @property
    def average_copy_two_qubit_gates(self) -> float:
        counts = [c for r in self.subset_results for c in r.two_qubit_gate_counts]
        return float(np.mean(counts)) if counts else 0.0

    def fidelity_vs(self, reference: ProbabilityDistribution) -> float:
        return hellinger_fidelity(self.mitigated_distribution, reference)

    @property
    def unmitigated_fidelity(self) -> float:
        return hellinger_fidelity(self.global_distribution, self.ideal_distribution)

    @property
    def mitigated_fidelity(self) -> float:
        return hellinger_fidelity(self.mitigated_distribution, self.ideal_distribution)


class QuTracer:
    """The qubit subsetting framework.

    Parameters
    ----------
    noise_model:
        Gate and readout noise applied to every executed circuit (original
        and QSPC copies).  Optional when ``device`` is given.
    device:
        A :class:`~repro.noise.DeviceModel`.  When present, each executed
        circuit is assigned to physical qubits with
        the noise-aware layout (the *qubit remapping* optimization) and its
        noise model is derived from the calibration of those qubits.
    compile:
        Hardware-aware execution (requires ``device``).  Instead of the
        assignment-derived noise abstraction, every executed circuit — the
        global run and each QSPC prepare/run/measure copy — is transpiled
        onto the device (noise-aware layout, SABRE routing, basis
        translation) through the engine's
        :class:`~repro.transpiler.CompilationCache` and executed under the
        device's own noise model (an explicit ``noise_model`` overrides it
        and is interpreted over *physical device wires*, see
        :meth:`~repro.simulators.engine.ExecutionEngine.execute_many`);
        ``two_qubit_gate_counts`` then report the *post-transpile* counts
        of the compiled copies (the paper's metric), including routed SWAP
        overhead.
    shots:
        Shot budget of the original circuit (the global distribution).
    shots_per_circuit:
        Shots per QSPC circuit copy; defaults to ``shots / 10`` (the copies
        measure only the subset, so they need far fewer shots — Sec. V-E).
    engine:
        The :class:`~repro.simulators.engine.ExecutionEngine` all executions
        are submitted through.  Pass a shared engine to pool the result cache
        with other methods running the same workload (the benchmark harness
        does this), or one built with ``workers`` / ``cache_dir`` to shard
        the QSPC batches across processes or warm-start from a persistent
        cache; by default each tracer builds its own plain engine.
    """

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        device: DeviceModel | None = None,
        shots: int = 8192,
        shots_per_circuit: int | None = None,
        seed: int | None = None,
        options: QuTracerOptions | None = None,
        max_trajectories: int = 300,
        engine: ExecutionEngine | None = None,
        compile: bool = False,
    ) -> None:
        if noise_model is None and device is None:
            raise ValueError("provide a noise_model, a device, or both")
        if compile and device is None:
            raise ValueError("compile=True requires a device to compile onto")
        self.device = device
        self.compile = bool(compile)
        # A DeviceModel is accepted wherever a NoiseModel fits; its
        # derived noise_model() is what executions see.
        self.noise_model = as_noise_model(noise_model) if noise_model is not None else None
        self.shots = int(shots)
        self.shots_per_circuit = int(shots_per_circuit or max(shots // 10, 256))
        self.seed = seed
        self.options = options or QuTracerOptions()
        self.max_trajectories = max_trajectories
        self._owns_engine = engine is None
        self.engine = engine or ExecutionEngine(max_trajectories=max_trajectories)
        # assignment -> derived NoiseModel; building a device noise model is
        # expensive (channel composition + Kraus reduction) and the same
        # assignment recurs for every circuit copy that uses the same wires.
        self._assignment_noise: dict[tuple, NoiseModel] = {}

    def close(self) -> None:
        """Close the engine if this tracer built it.

        An engine passed in by the caller is left untouched (its owner
        decides its lifetime).  The tracer stays usable after ``close()``.
        """
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "QuTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Noise-model selection (qubit remapping optimization)
    # ------------------------------------------------------------------

    def _noise_for(self, circuit: QuantumCircuit) -> NoiseModel | None:
        if self.compile:
            # Hardware-aware mode: the engine compiles the circuit onto the
            # device and executes it under the device's own noise model
            # (unless an explicit noise_model overrides it) — the
            # assignment-penalty abstraction below is superseded by real
            # routed SWAPs on real couplers.
            return self.noise_model
        if self.device is None:
            return self.noise_model
        used = sorted(circuit.qubits_used() | set(circuit.measured_qubits))
        if not used:
            used = list(range(min(circuit.num_qubits, 1)))
        compact_map = {q: i for i, q in enumerate(used)}
        compact = circuit.remap_qubits(compact_map, num_qubits=len(used))
        layout = noise_aware_layout(compact, self.device)
        assignment = {q: layout.physical(compact_map[q]) for q in used}
        key = tuple(sorted(assignment.items()))
        model = self._assignment_noise.get(key)
        if model is None:
            model = self.device.noise_model_for_assignment(assignment)
            self._assignment_noise[key] = model
        return model

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        subsets: Sequence[Sequence[int]] | None = None,
        subset_size: int = 1,
        checked_layers: int | None = None,
    ) -> QuTracerResult:
        """Trace the subsets of ``circuit`` and refine its output distribution.

        ``checked_layers`` limits mitigation to the last N entangling layers
        (Fig. 9's sweep); ``None`` checks every layer.
        """
        if not circuit.has_measurements:
            circuit = circuit.copy()
            circuit.measure_all()
        measured = circuit.measured_qubits
        if subsets is None:
            subsets = default_subsets(measured, subset_size)
        subsets = [list(s) for s in subsets]
        for subset in subsets:
            for q in subset:
                if q not in measured:
                    raise ValueError(f"subset qubit {q} is not measured by the circuit")

        # When the shared engine records traces, the whole mitigation run
        # becomes ONE trace: a qutracer root span with the global run, each
        # subset sweep and the Bayesian update as child stages, and every
        # engine batch (and its compile/cache/execute events) nested inside
        # the stage that submitted it.
        tracer = getattr(self.engine, "tracer", None)
        with maybe_span(
            tracer,
            "qutracer.run",
            subsets=[list(s) for s in subsets],
            shots=self.shots,
            seed=self.seed,
        ):
            with maybe_span(tracer, "qutracer.global"):
                global_result = self.engine.execute(
                    circuit,
                    self._noise_for(circuit),
                    shots=self.shots,
                    seed=self.seed,
                    max_trajectories=self.max_trajectories,
                    device=self.device if self.compile else None,
                )
                ideal = ideal_distribution(circuit)

            stripped = circuit.remove_final_measurements()
            subset_results = []
            locals_for_update = []
            for index, subset in enumerate(subsets):
                subset_seed = None if self.seed is None else self.seed + 13 * (index + 1)
                with maybe_span(tracer, "qutracer.subset", subset=list(subset)):
                    result = self.trace_subset(
                        stripped, subset, checked_layers=checked_layers, seed=subset_seed
                    )
                subset_results.append(result)
                ordered = sorted(subset)
                bits = [sorted(measured).index(q) for q in ordered]
                # local_distribution bit i corresponds to subset[i]; reorder to the
                # sorted-qubit convention used by the global distribution.
                reorder = [subset.index(q) for q in ordered]
                local_sorted = result.local_distribution.marginal(reorder)
                locals_for_update.append((local_sorted, bits))

            with maybe_span(tracer, "qutracer.update", rounds=self.options.update_rounds):
                mitigated = iterative_bayesian_update(
                    global_result.distribution, locals_for_update, rounds=self.options.update_rounds
                )
        return QuTracerResult(
            circuit=circuit,
            global_distribution=global_result.distribution,
            mitigated_distribution=mitigated,
            ideal_distribution=ideal,
            subset_results=subset_results,
            shots=self.shots,
            shots_per_circuit=self.shots_per_circuit,
        )

    # ------------------------------------------------------------------
    # Tracing one subset
    # ------------------------------------------------------------------

    def trace_subset(
        self,
        circuit: QuantumCircuit,
        subset: Sequence[int],
        checked_layers: int | None = None,
        seed: int | None = None,
    ) -> SubsetTraceResult:
        """Track ``subset`` through ``circuit`` (no measurements) and return
        its mitigated local distribution."""
        subset = [int(q) for q in subset]
        options = self.options
        analysis: SubsetAnalysis = analyse_subset(circuit, subset)
        entangling_indices = [
            i for i, seg in enumerate(analysis.segments) if seg.kind in ("checked", "unchecked")
            and seg.touches_subset(subset)
        ]
        num_entangling = len(entangling_indices)
        first_checked_position = 0
        if checked_layers is not None:
            first_checked_position = max(num_entangling - int(checked_layers), 0)

        dim = 2 ** len(subset)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0

        num_circuits = 0
        gate_counts: list[int] = []
        checked_count = 0
        final_z_distribution: ProbabilityDistribution | None = None
        history: list = []  # context instructions (not touching the subset) seen so far

        entangling_seen = 0
        segments = analysis.segments
        for seg_index, segment in enumerate(segments):
            if segment.kind == "local" or not segment.touches_subset(subset):
                if segment.kind == "local":
                    subset_gates = [i for i in segment.instructions if set(i.qubits) & set(subset)]
                    rho = apply_local_unitary(rho, subset_gates, subset)
                    history.extend(i for i in segment.instructions if not set(i.qubits) & set(subset))
                else:
                    history.extend(segment.instructions)
                continue

            # Entangling segment touching the subset.
            entangling_seen += 1
            is_last_entangling = entangling_seen == num_entangling
            use_checks = (
                options.enable_checks
                and segment.kind == "checked"
                and (entangling_seen - 1) >= first_checked_position
            )
            checks = []
            if use_checks:
                checks = [
                    "".join("Z" if i == pos else "I" for i in range(len(subset)))
                    for pos in range(len(subset))
                ]
                checked_count += 1

            downstream = QuantumCircuit(circuit.num_qubits, 0, f"{circuit.name}_seg{seg_index}")
            for inst in history:
                downstream.append_instruction(inst)
            for inst in segment.instructions:
                downstream.append_instruction(inst)
            history.extend(i for i in segment.instructions if not set(i.qubits) & set(subset))

            if options.false_dependency_removal:
                downstream = false_dependency_removal(downstream, subset)

            trailing_map = None
            if is_last_entangling and options.state_traceback:
                trailing_gates = [
                    inst
                    for later in segments[seg_index + 1 :]
                    for inst in later.instructions
                    if later.kind == "local" and set(inst.qubits) & set(subset)
                ]
                z_observables = [
                    "".join(p) for p in _z_type_strings(len(subset))
                ]
                trailing_map = conjugate_observables_through(z_observables, trailing_gates, subset)
                needed = sorted(
                    {p for expansion in trailing_map.values() for p in expansion if set(p) != {"I"}}
                )
                observables = needed or z_observables
            else:
                observables = all_pauli_strings(len(subset))

            qspc_options = QSPCOptions(
                shots_per_circuit=self.shots_per_circuit,
                state_preparation_reduction=options.state_preparation_reduction,
                restrict_measurement_bases=options.restrict_measurement_bases,
                max_trajectories=self.max_trajectories,
            )
            check_result = virtual_pauli_check(
                downstream,
                subset,
                rho,
                checks,
                self._noise_for(downstream),
                observables=observables,
                options=qspc_options,
                seed=seed,
                engine=self.engine,
                device=self.device if self.compile else None,
            )
            num_circuits += check_result.num_circuits
            if self.compile:
                # Post-transpile count of the compiled copy (the paper's
                # reported metric): layout + routed SWAPs + basis, served
                # from the engine's CompilationCache.
                copy_gate_count = self.engine.compile(
                    downstream, self.device
                ).two_qubit_gate_count
            else:
                copy_gate_count = count_two_qubit_basis_gates(downstream)
            gate_counts.extend([copy_gate_count] * check_result.num_circuits)

            if trailing_map is not None:
                # State traceback: convert the measured expectations into the
                # final Z-type expectations and stop — later local gates are
                # already accounted for.
                z_expectations = {}
                for final_obs, expansion in trailing_map.items():
                    value = 0.0
                    for pauli, coefficient in expansion.items():
                        if set(pauli) == {"I"}:
                            value += float(np.real(coefficient))
                        else:
                            value += float(np.real(coefficient)) * check_result.expectations.get(pauli, 0.0)
                    z_expectations[final_obs] = float(np.clip(value, -1.0, 1.0))
                final_z_distribution = _z_distribution_from_expectations(z_expectations, len(subset))
                rho = check_result.density_matrix
                break
            rho = check_result.density_matrix

        if final_z_distribution is None:
            # Every segment (including trailing local gates) was already folded
            # into rho by the loop above; read off the Z-basis distribution.
            probabilities = np.clip(np.real(np.diagonal(rho)), 0.0, None)
            total = probabilities.sum()
            if total <= 0:
                final_z_distribution = ProbabilityDistribution.uniform(len(subset))
            else:
                final_z_distribution = ProbabilityDistribution(probabilities / total, len(subset))

        return SubsetTraceResult(
            subset=subset,
            local_distribution=final_z_distribution,
            density_matrix=rho,
            num_circuits=num_circuits,
            num_checked_layers=checked_count,
            two_qubit_gate_counts=gate_counts,
        )


def _z_type_strings(num_qubits: int) -> list[str]:
    import itertools

    strings = ["".join(p) for p in itertools.product("IZ", repeat=num_qubits)]
    return [s for s in strings if set(s) != {"I"}]


def _z_distribution_from_expectations(
    expectations: dict[str, float], num_qubits: int
) -> ProbabilityDistribution:
    """Z-basis distribution from the expectations of all Z-type Pauli strings."""
    dim = 2**num_qubits
    probabilities = np.zeros(dim)
    for outcome in range(dim):
        value = 1.0
        for label, expectation in expectations.items():
            parity = 1.0
            for position, ch in enumerate(label):
                if ch == "Z" and (outcome >> position) & 1:
                    parity = -parity
            value += parity * expectation
        probabilities[outcome] = value / dim
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum()
    if total <= 0:
        return ProbabilityDistribution.uniform(num_qubits)
    return ProbabilityDistribution(probabilities / total, num_qubits)
