"""Pauli Check Sandwiching (PCS) [19].

A pair of Pauli checks ``C_L`` / ``C_R`` with ``C_R U C_L = U`` is wrapped
around a protected circuit region using an ancilla qubit: the ancilla is put
in ``|+>``, a controlled-``C_L`` is applied before the region and a
controlled-``C_R`` after it, the ancilla is rotated back and measured, and
runs where the ancilla reads 1 are discarded.  Errors inside the region that
anticommute with the check are removed by the post-selection (Eq. (4)).

The module also provides the paper's "ideal PCS" baseline: the same circuit,
but the checking gates and the ancilla readout are noise-free.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from ..circuits import Instruction, QuantumCircuit, standard_gate
from ..distributions import ProbabilityDistribution
from ..noise import NoiseModel, as_noise_model
from ..simulators import ExecutionEngine, get_default_engine

__all__ = ["PauliCheck", "PCSResult", "build_pcs_circuit", "post_select", "run_pcs"]

_CONTROLLED_GATE_FOR_PAULI = {"X": "cx", "Y": "cy", "Z": "cz"}


@dataclasses.dataclass(frozen=True)
class PauliCheck:
    """One pair of sandwiching checks.

    Attributes
    ----------
    pauli:
        The check operator as a mapping payload-qubit -> Pauli letter
        (identity elsewhere).  The same operator is used for the left and
        right check, which is the single-qubit-Z configuration the paper
        uses (``C_L = C_R``); it must commute with the protected region.
    region:
        Instruction index range ``(start, end)`` of the payload circuit that
        the check protects (half-open, measurement instructions excluded).
    """

    pauli: Mapping[int, str]
    region: tuple[int, int]

    def __post_init__(self) -> None:
        for qubit, letter in self.pauli.items():
            if letter.upper() not in _CONTROLLED_GATE_FOR_PAULI:
                raise ValueError(f"unsupported check Pauli {letter!r} on qubit {qubit}")
        start, end = self.region
        if start > end:
            raise ValueError("check region start must not exceed end")


@dataclasses.dataclass
class PCSResult:
    """Post-selected output of a PCS run."""

    mitigated_distribution: ProbabilityDistribution
    raw_distribution: ProbabilityDistribution
    post_selection_rate: float
    circuit: QuantumCircuit
    ancilla_qubits: list[int]


def build_pcs_circuit(
    circuit: QuantumCircuit, checks: Sequence[PauliCheck]
) -> tuple[QuantumCircuit, list[int]]:
    """Insert sandwiching checks (one ancilla per check) into ``circuit``.

    Returns the instrumented circuit and the ancilla qubit indices.  Payload
    measurements are preserved; each ancilla is measured into a fresh
    classical bit.
    """
    if not checks:
        raise ValueError("at least one check is required")
    num_payload_qubits = circuit.num_qubits
    num_checks = len(checks)
    ancilla_qubits = [num_payload_qubits + i for i in range(num_checks)]

    payload_instructions = [inst for inst in circuit.data if not inst.is_measurement]
    measurements = [inst for inst in circuit.data if inst.is_measurement]
    for check in checks:
        if check.region[1] > len(payload_instructions):
            raise ValueError("check region exceeds the payload length")

    new = QuantumCircuit(
        num_payload_qubits + num_checks,
        max(circuit.num_clbits, num_payload_qubits) + num_checks,
        f"{circuit.name}_pcs",
    )
    new.metadata = dict(circuit.metadata)

    def apply_check(check_index: int, check: PauliCheck) -> None:
        ancilla = ancilla_qubits[check_index]
        for qubit, letter in sorted(check.pauli.items()):
            gate = standard_gate(_CONTROLLED_GATE_FOR_PAULI[letter.upper()])
            new.append(gate, (ancilla, qubit))

    # Hadamards opening every ancilla.
    for ancilla in ancilla_qubits:
        new.h(ancilla)
    for index, inst in enumerate(payload_instructions):
        for check_index, check in enumerate(checks):
            if check.region[0] == index:
                apply_check(check_index, check)
        new.append_instruction(inst)
        for check_index, check in enumerate(checks):
            if check.region[1] == index + 1:
                apply_check(check_index, check)
    # Checks whose region ends at the very start (empty circuits) or at the end
    # when the payload is empty.
    if not payload_instructions:
        for check_index, check in enumerate(checks):
            apply_check(check_index, check)
            apply_check(check_index, check)
    for ancilla in ancilla_qubits:
        new.h(ancilla)
    for inst in measurements:
        new.append_instruction(inst)
    clbit_base = max(circuit.num_clbits, num_payload_qubits)
    for i, ancilla in enumerate(ancilla_qubits):
        new.measure(ancilla, clbit_base + i)
    return new, ancilla_qubits


def post_select(
    distribution: ProbabilityDistribution,
    required_zero_bits: Sequence[int],
    keep_bits: Sequence[int],
) -> tuple[ProbabilityDistribution, float]:
    """Keep outcomes whose ``required_zero_bits`` are all zero.

    Returns the renormalised distribution over ``keep_bits`` and the fraction
    of probability mass that survived post-selection.
    """
    required_zero_bits = list(required_zero_bits)
    keep_bits = list(keep_bits)
    surviving: dict[int, float] = {}
    kept_mass = 0.0
    for outcome, probability in distribution.items():
        if any((outcome >> bit) & 1 for bit in required_zero_bits):
            continue
        kept_mass += probability
        reduced = 0
        for i, bit in enumerate(keep_bits):
            if (outcome >> bit) & 1:
                reduced |= 1 << i
        surviving[reduced] = surviving.get(reduced, 0.0) + probability
    if not surviving:
        return ProbabilityDistribution.uniform(len(keep_bits)), 0.0
    return (
        ProbabilityDistribution(surviving, len(keep_bits)).normalized(),
        kept_mass / max(distribution.total, 1e-15),
    )


def run_pcs(
    circuit: QuantumCircuit,
    checks: Sequence[PauliCheck],
    noise_model: NoiseModel,
    shots: int | None = None,
    ideal_checks: bool = False,
    seed: int | None = None,
    max_trajectories: int = 600,
    engine: ExecutionEngine | None = None,
    device=None,
) -> PCSResult:
    """Execute the PCS-instrumented circuit and post-select on the ancillas.

    ``device`` (a :class:`~repro.noise.DeviceModel`)
    switches on hardware-aware execution: the instrumented circuit is
    compiled onto the device — noise-aware layout, SABRE routing, basis
    translation — through the engine's
    :class:`~repro.transpiler.CompilationCache` and executed under the
    device's noise model (``noise_model`` may then be ``None``; an explicit
    model overrides the device's and is interpreted over *physical device
    wires*, see :meth:`~repro.simulators.engine.ExecutionEngine.execute_many`).
    ``ideal_checks=True`` is incompatible with ``device=``: the ideal-PCS
    baseline is defined on the *logical* circuit (noise-free ancilla wires),
    and after routing the ancillas share physical wires with the payload, so
    the per-wire perfection has no physical counterpart.

    ``ideal_checks=True`` reproduces the paper's *ideal PCS* baseline: every
    gate touching an ancilla and the ancilla readout are error free, so only
    the payload noise remains (Sec. VII-A / VII-C).

    The instrumented circuit runs through ``engine`` (default: the
    process-wide :class:`~repro.simulators.engine.ExecutionEngine`), so a
    sweep that re-runs the same checked circuit hits the result cache.
    """
    if device is not None and ideal_checks:
        raise ValueError(
            "ideal_checks=True is a logical-circuit baseline; it cannot be "
            "compiled onto a device (routed ancillas share physical wires "
            "with the payload)"
        )
    if not circuit.has_measurements:
        circuit = circuit.copy()
        circuit.measure_all()
    # Accepts a DeviceModel wherever a NoiseModel fits
    # (None still means ideal noise, resolved by the engine).
    if noise_model is not None:
        noise_model = as_noise_model(noise_model)
    engine = engine or get_default_engine()
    instrumented, ancilla_qubits = build_pcs_circuit(circuit, checks)
    model = noise_model
    if ideal_checks and noise_model is not None:
        model = noise_model.with_perfect_qubits(ancilla_qubits)
    result = engine.execute(
        instrumented,
        model,
        shots=shots,
        seed=seed,
        max_trajectories=max_trajectories,
        device=device,
    )
    payload_bits = [
        result.bit_for_qubit(q) for q in circuit.measured_qubits
    ]
    # Keep bits ordered by clbit so the mitigated distribution lines up with
    # the original circuit's distribution.
    payload_bits = sorted(payload_bits)
    ancilla_bits = [result.bit_for_qubit(q) for q in ancilla_qubits]
    mitigated, rate = post_select(result.distribution, ancilla_bits, payload_bits)
    return PCSResult(
        mitigated_distribution=mitigated,
        raw_distribution=result.distribution,
        post_selection_rate=rate,
        circuit=instrumented,
        ancilla_qubits=ancilla_qubits,
    )
