"""Qubit Subsetting Pauli Checks (QSPC) — Sec. IV of the paper.

A QSPC virtualises the Pauli-Check-Sandwiching protocol: instead of adding
an ancilla and controlled checks around a protected segment, the
post-selected expectation values of Eq. (4) are computed classically from an
ensemble of *prepare -> run segment -> measure* circuits (Eqs. (5)-(9)).

For a set of ``k`` check pairs ``C_1 .. C_k`` (Pauli strings on the traced
subset, ``C_L = C_R = C_i``) the post-selected expectation of an observable
``O`` on the subset is::

            sum_{S,T subseteq [k]}  tr( Lambda(C_S rho C_T) . C_T O C_S )
  <O>  =   -----------------------------------------------------------------
            sum_{S,T subseteq [k]}  tr( Lambda(C_S rho C_T) . C_T C_S )

where ``C_S`` is the product of the checks in ``S``, ``rho`` is the subset
state at the cut, and ``Lambda`` is the *physical* (noisy) channel of the
downstream segment — including the measurement error, which is why QSPC
mitigates readout errors as well (Sec. IV-D).  With a single check this is
exactly the four-term expression (5)-(8).

Every trace reduces, by linearity, to measured Pauli expectation values of
the prepared basis states {|0>,|1>,|+>,|i>} (state preparation reduction),
so the quantum cost is a handful of circuits that differ from the original
only by single-qubit preparations and basis rotations.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Mapping, Sequence

import numpy as np

from ..circuits import Instruction, Measurement, QuantumCircuit, StatePreparation, standard_gate
from ..cutting import (
    decompose_in_pauli_basis,
    decompose_in_preparation_basis,
    multiply_pauli_strings,
    pauli_string_matrix,
    project_to_physical_state,
    reconstruct_density_matrix,
)
from ..distributions import ProbabilityDistribution
from ..noise import NoiseModel
from ..simulators import ExecutionEngine, get_default_engine

__all__ = ["QSPCOptions", "VirtualCheckResult", "virtual_pauli_check", "all_pauli_strings"]


def all_pauli_strings(num_qubits: int, include_identity: bool = False) -> list[str]:
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=num_qubits)]
    if not include_identity:
        labels = [l for l in labels if set(l) != {"I"}]
    return labels


@dataclasses.dataclass
class QSPCOptions:
    """Cost/accuracy knobs of a virtual check.

    ``state_preparation_reduction`` — use the 4-state preparation basis
    (paper default).  Disabling it prepares the full 6-state wire-cutting
    basis, which is what SQEM does.
    ``restrict_measurement_bases`` — only run the measurement bases needed
    for the requested observables (gate bypassing / state traceback);
    disabling it always runs all ``3**s`` bases (SQEM-style tomography).
    """

    shots_per_circuit: int | None = None
    state_preparation_reduction: bool = True
    restrict_measurement_bases: bool = True
    max_trajectories: int = 300


@dataclasses.dataclass
class VirtualCheckResult:
    """Mitigated subset state produced by one virtual check."""

    density_matrix: np.ndarray
    expectations: dict[str, float]
    post_selection_denominator: float
    num_circuits: int
    executed_prep_labels: list[tuple[str, ...]]
    executed_bases: list[tuple[str, ...]]
    segment_circuit: QuantumCircuit

    @property
    def z_distribution(self) -> ProbabilityDistribution:
        """Z-basis distribution of the mitigated subset state."""
        probabilities = np.clip(np.real(np.diagonal(self.density_matrix)), 0.0, None)
        total = probabilities.sum()
        if total <= 0:
            return ProbabilityDistribution.uniform(int(np.log2(self.density_matrix.shape[0])))
        return ProbabilityDistribution(probabilities / total, int(np.log2(self.density_matrix.shape[0])))


# ---------------------------------------------------------------------------
# Preparation decomposition (with and without the 4-state reduction)
# ---------------------------------------------------------------------------

_FULL_PAULI_IN_PREP: dict[str, dict[str, complex]] = {
    "I": {"0": 1.0, "1": 1.0},
    "Z": {"0": 1.0, "1": -1.0},
    "X": {"+": 1.0, "-": -1.0},
    "Y": {"i": 1.0, "-i": -1.0},
}


def _decompose_operator(operator: np.ndarray, reduced: bool) -> dict[tuple[str, ...], complex]:
    if reduced:
        return decompose_in_preparation_basis(operator)
    pauli_coefficients = decompose_in_pauli_basis(operator)
    result: dict[tuple[str, ...], complex] = {}
    for pauli_label, coefficient in pauli_coefficients.items():
        expansions = [_FULL_PAULI_IN_PREP[ch] for ch in pauli_label]
        for combination in itertools.product(*(exp.items() for exp in expansions)):
            labels = tuple(item[0] for item in combination)
            weight = coefficient
            for item in combination:
                weight *= item[1]
            if abs(weight) > 1e-15:
                result[labels] = result.get(labels, 0.0) + weight
    return {k: v for k, v in result.items() if abs(v) > 1e-12}


def _check_products(checks: Sequence[str], num_qubits: int) -> list[tuple[complex, str]]:
    """Products ``C_S`` for every subset ``S`` of the check list (with phase)."""
    identity = "I" * num_qubits
    products: list[tuple[complex, str]] = []
    for mask in range(2 ** len(checks)):
        phase: complex = 1.0
        label = identity
        for index, check in enumerate(checks):
            if (mask >> index) & 1:
                extra_phase, label = multiply_pauli_strings(label, check)
                phase *= extra_phase
        products.append((phase, label))
    return products


# ---------------------------------------------------------------------------
# The virtual check itself
# ---------------------------------------------------------------------------

def virtual_pauli_check(
    segment: QuantumCircuit,
    subset_qubits: Sequence[int],
    rho_in: np.ndarray,
    checks: Sequence[str],
    noise_model: NoiseModel,
    observables: Sequence[str] | None = None,
    options: QSPCOptions | None = None,
    seed: int | None = None,
    engine: ExecutionEngine | None = None,
) -> VirtualCheckResult:
    """Run one virtual Pauli check over ``segment``.

    Parameters
    ----------
    segment:
        The downstream circuit to execute.  Subset wires must start in |0>
        at the cut — state-preparation gates are prepended to them.  All
        other wires carry whatever history the caller included.
    subset_qubits:
        The traced wires, little-endian with respect to ``rho_in`` and the
        check / observable labels (label character ``i`` refers to
        ``subset_qubits[i]``).
    rho_in:
        Subset density matrix at the cut (``2^s x 2^s``).
    checks:
        Pauli-string check operators (e.g. ``["Z"]`` for a single-qubit
        subset, ``["ZI", "IZ"]`` for the paper's subset-size-2 configuration).
        An empty list disables mitigation (plain cut-and-resume).
    observables:
        Pauli strings whose mitigated expectations are required.  ``None``
        requests the full set (needed when the result seeds the next layer).
    engine:
        The :class:`~repro.simulators.engine.ExecutionEngine` that runs the
        prepare/run/measure ensemble as one batch.  Sharing an engine across
        layers and subsets lets repeated check configurations hit its cache;
        defaults to the process-wide engine.
    """
    options = options or QSPCOptions()
    subset_qubits = [int(q) for q in subset_qubits]
    num_subset = len(subset_qubits)
    dim = 2**num_subset
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (dim, dim):
        raise ValueError(f"rho_in must be {dim}x{dim} for a subset of {num_subset} qubits")
    identity = "I" * num_subset
    for check in checks:
        if len(check) != num_subset:
            raise ValueError(f"check {check!r} has wrong length for subset size {num_subset}")
    if observables is None:
        observables = all_pauli_strings(num_subset)
    observables = [o.upper() for o in observables]
    for observable in observables:
        if len(observable) != num_subset:
            raise ValueError(f"observable {observable!r} has wrong length")

    check_products = _check_products(checks, num_subset)

    # ------------------------------------------------------------------
    # 1. Which operators must be prepared and which Paulis measured?
    # ------------------------------------------------------------------
    prepared_operators: dict[tuple[str, str], dict[tuple[str, ...], complex]] = {}
    for (_, label_s), (_, label_t) in itertools.product(check_products, repeat=2):
        key = (label_s, label_t)
        if key in prepared_operators:
            continue
        operator = (
            pauli_string_matrix(label_s) @ rho_in @ pauli_string_matrix(label_t)
        )
        prepared_operators[key] = _decompose_operator(
            operator, reduced=options.state_preparation_reduction
        )

    needed_preparations: set[tuple[str, ...]] = set()
    for decomposition in prepared_operators.values():
        needed_preparations.update(decomposition.keys())

    required_paulis: set[str] = set()
    for observable in list(observables) + [identity]:
        for (_, label_s), (_, label_t) in itertools.product(check_products, repeat=2):
            _, combined = multiply_pauli_strings(label_t, observable)
            _, combined = multiply_pauli_strings(combined, label_s)
            if set(combined) != {"I"}:
                required_paulis.add(combined)

    if options.restrict_measurement_bases:
        needed_bases = _covering_bases(required_paulis, num_subset)
    else:
        needed_bases = [tuple(b) for b in itertools.product("XYZ", repeat=num_subset)]

    # ------------------------------------------------------------------
    # 2. Execute the prepare/run/measure ensemble as one batch and record
    #    Pauli expectations.  The engine deduplicates identical circuits
    #    within the batch and caches across calls, so repeated layers and
    #    repeated check configurations are not re-simulated.
    # ------------------------------------------------------------------
    engine = engine or get_default_engine()
    variants = [
        (prep_labels, basis)
        for prep_labels in sorted(needed_preparations)
        for basis in needed_bases
    ]
    results = engine.execute_many(
        _prepared_circuits(segment, subset_qubits, variants),
        noise_model,
        shots=options.shots_per_circuit,
        seed=seed,
        max_trajectories=options.max_trajectories,
    )

    # Each basis covers the same Paulis in every copy: (Pauli, support wires).
    covered = {
        basis: [
            (pauli, [i for i, ch in enumerate(pauli) if ch != "I"])
            for pauli in _paulis_covered_by(basis, required_paulis)
        ]
        for basis in needed_bases
    }
    expectations: dict[tuple[tuple[str, ...], str], float] = {}
    num_circuits = 0
    executed_preps: list[tuple[str, ...]] = []
    executed_bases: list[tuple[str, ...]] = []
    for (prep_labels, basis), result in zip(variants, results):
        distribution = result.distribution
        bits = [result.bit_for_qubit(q) for q in subset_qubits]
        for pauli, support in covered[basis]:
            expectations[(prep_labels, pauli)] = distribution.expectation_z(
                [bits[i] for i in support]
            )
        num_circuits += 1
        executed_preps.append(prep_labels)
        executed_bases.append(basis)

    def measured_expectation(prep_labels: tuple[str, ...], pauli: str) -> float:
        if set(pauli) == {"I"}:
            return 1.0
        return expectations[(prep_labels, pauli)]

    # ------------------------------------------------------------------
    # 3. Combine the terms of Eq. (5)-(8) / the general multi-check formula.
    # ------------------------------------------------------------------
    def post_selected_numerator(observable: str) -> complex:
        total: complex = 0.0
        for (phase_s, label_s), (phase_t, label_t) in itertools.product(check_products, repeat=2):
            phase_obs, combined = multiply_pauli_strings(label_t, observable)
            phase_obs2, combined = multiply_pauli_strings(combined, label_s)
            # A = C_S rho C_T = (phase_s phase_t) P_S rho P_T and
            # B = C_T O C_S = (phase_t phase_s phase_obs phase_obs2) P_combined;
            # the prepared operator and the measured expectation use the plain
            # Pauli labels, so both phase products multiply the contribution.
            operator_phase = (phase_s * phase_t) ** 2 * phase_obs * phase_obs2
            decomposition = prepared_operators[(label_s, label_t)]
            contribution: complex = 0.0
            for prep_labels, coefficient in decomposition.items():
                contribution += coefficient * measured_expectation(prep_labels, combined)
            total += operator_phase * contribution
        return total

    denominator = post_selected_numerator(identity)
    denominator_real = float(np.real(denominator))
    mitigated: dict[str, float] = {}
    for observable in observables:
        numerator = post_selected_numerator(observable)
        if abs(denominator_real) < 1e-9:
            mitigated[observable] = 0.0
        else:
            value = float(np.real(numerator) / denominator_real)
            mitigated[observable] = float(np.clip(value, -1.0, 1.0))

    density_matrix = reconstruct_density_matrix(mitigated, num_subset)
    density_matrix = project_to_physical_state(density_matrix)
    return VirtualCheckResult(
        density_matrix=density_matrix,
        expectations=mitigated,
        post_selection_denominator=denominator_real,
        num_circuits=num_circuits,
        executed_prep_labels=executed_preps,
        executed_bases=executed_bases,
        segment_circuit=segment,
    )


# ---------------------------------------------------------------------------
# Circuit construction helpers
# ---------------------------------------------------------------------------

# Gates that rotate a measurement basis onto Z (a Z basis needs none).
_BASIS_ROTATIONS = {"X": ("h",), "Y": ("sdg", "h")}


def _prepared_circuits(
    segment: QuantumCircuit,
    subset_qubits: Sequence[int],
    variants: Sequence[tuple[tuple[str, ...], tuple[str, ...]]],
) -> list[QuantumCircuit]:
    """The prepare/run/measure copy of ``segment`` for each (labels, basis).

    A copy prepares each subset wire whose label is not ``"0"``, runs the
    segment without its measurements, rotates each subset wire into its
    basis (``X``: H; ``Y``: S†, H) and measures subset wire ``q`` into
    clbit ``q``.  Those pieces are built once per check and shared by the
    copies (instructions are never mutated): the payload once, one
    preparation per (label, wire) and one rotation-and-measurement suffix
    per basis.
    """
    for qubit in subset_qubits:
        if qubit >= segment.num_qubits:
            raise ValueError(
                f"qubit {qubit} out of range for circuit with {segment.num_qubits} qubits"
            )
    payload = [inst for inst in segment.data if not inst.is_measurement]
    num_clbits = max([segment.num_clbits] + [q + 1 for q in subset_qubits])
    name = f"{segment.name}_qspc"
    measure = Measurement()
    readout = [Instruction(measure, (q,), (q,)) for q in subset_qubits]
    preparations: dict[tuple[str, int], Instruction] = {}
    suffixes: dict[tuple[str, ...], list[Instruction]] = {}
    circuits = []
    for labels, basis in variants:
        prefix = []
        for label, qubit in zip(labels, subset_qubits):
            if label != "0":
                inst = preparations.get((label, qubit))
                if inst is None:
                    inst = preparations[label, qubit] = Instruction(StatePreparation(label), (qubit,))
                prefix.append(inst)
        suffix = suffixes.get(basis)
        if suffix is None:
            suffix = suffixes[basis] = [
                Instruction(standard_gate(gate), (qubit,))
                for axis, qubit in zip(basis, subset_qubits)
                for gate in _BASIS_ROTATIONS.get(axis, ())
            ] + readout
        circuit = QuantumCircuit(segment.num_qubits, num_clbits, name)
        circuit.data = prefix + payload + suffix
        circuits.append(circuit)
    return circuits


def _covering_bases(required_paulis: set[str], num_subset: int) -> list[tuple[str, ...]]:
    """Greedy set cover: measurement-basis tuples covering every required Pauli."""
    if not required_paulis:
        return [tuple("Z" * num_subset)]
    candidates: set[tuple[str, ...]] = set()
    for pauli in required_paulis:
        candidates.add(tuple(ch if ch != "I" else "Z" for ch in pauli))
    remaining = set(required_paulis)
    chosen: list[tuple[str, ...]] = []
    while remaining:
        best = max(
            sorted(candidates),
            key=lambda basis: sum(1 for p in remaining if _pauli_covered(p, basis)),
        )
        covered = {p for p in remaining if _pauli_covered(p, best)}
        if not covered:  # pragma: no cover - cannot happen: own basis covers each Pauli
            break
        chosen.append(best)
        remaining -= covered
        candidates.discard(best)
    return chosen


def _pauli_covered(pauli: str, basis: tuple[str, ...]) -> bool:
    return all(ch == "I" or ch == basis[i] for i, ch in enumerate(pauli))


def _paulis_covered_by(basis: tuple[str, ...], required: set[str]) -> list[str]:
    return [pauli for pauli in required if _pauli_covered(pauli, basis)]
