"""Tests for the Jigsaw, PCS and SQEM baselines."""

import numpy as np
import pytest

from repro.algorithms import vqe_circuit
from repro.circuits import QuantumCircuit
from repro.distributions import ProbabilityDistribution, hellinger_fidelity
from repro.mitigation import (
    PauliCheck,
    build_pcs_circuit,
    build_subset_circuit,
    default_subsets,
    post_select,
    run_jigsaw,
    run_pcs,
    run_sqem,
)
from repro.noise import NoiseModel
from repro.simulators import execute, ideal_distribution


def ghz(n=3):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    qc.measure_all()
    return qc


class TestJigsaw:
    def test_default_subsets(self):
        assert default_subsets([0, 1, 2, 3], 2) == [[0, 1], [2, 3]]
        assert default_subsets([0, 1, 2], 2) == [[0, 1], [2]]
        assert default_subsets([5, 7], 1) == [[5], [7]]
        with pytest.raises(ValueError):
            default_subsets([0], 0)

    def test_build_subset_circuit(self):
        circuit = ghz(3)
        subset_circuit = build_subset_circuit(circuit, [0, 2])
        assert subset_circuit.measured_qubits == [0, 2]
        assert subset_circuit.count_ops()["cx"] == 2

    def test_build_subset_requires_measured_qubit(self):
        qc = QuantumCircuit(3)
        qc.h(0).measure_subset([0])
        with pytest.raises(ValueError):
            build_subset_circuit(qc, [2])

    def test_jigsaw_mitigates_readout_on_subset_qubits(self):
        # A product-state circuit where readout errors dominate: Jigsaw's local
        # distributions see the same errors in our crosstalk-free model, so the
        # result should not be *worse* than the original (paper Fig. 7).
        circuit = ghz(4)
        noise = NoiseModel.depolarizing(p1=0.001, p2=0.01, readout=0.08)
        ideal = ideal_distribution(circuit)
        result = run_jigsaw(circuit, noise, shots=6000, subset_size=2, seed=1)
        raw_fidelity = hellinger_fidelity(result.global_distribution, ideal)
        mitigated_fidelity = hellinger_fidelity(result.mitigated_distribution, ideal)
        assert mitigated_fidelity >= raw_fidelity - 0.05

    def test_jigsaw_result_accounting(self):
        circuit = ghz(4)
        noise = NoiseModel.depolarizing(p2=0.01)
        result = run_jigsaw(circuit, noise, shots=4000, subset_size=2, seed=0)
        assert result.shots_global == 2000
        assert len(result.subsets) == 2
        assert result.total_shots <= 4000 + len(result.subsets)

    def test_jigsaw_adds_measurements_if_missing(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        noise = NoiseModel.depolarizing(p2=0.02)
        result = run_jigsaw(qc, noise, shots=2000, subset_size=1, seed=3)
        assert result.mitigated_distribution.num_bits == 2

    def test_jigsaw_requires_subsets(self):
        with pytest.raises(ValueError):
            run_jigsaw(ghz(2), NoiseModel.ideal(), shots=100, subsets=[])


class TestPostSelect:
    def test_basic_post_selection(self):
        dist = ProbabilityDistribution({0b00: 0.4, 0b01: 0.4, 0b10: 0.1, 0b11: 0.1}, 2)
        kept, rate = post_select(dist, required_zero_bits=[1], keep_bits=[0])
        assert rate == pytest.approx(0.8)
        assert kept[0] == pytest.approx(0.5)
        assert kept[1] == pytest.approx(0.5)

    def test_everything_post_selected_away(self):
        dist = ProbabilityDistribution({0b10: 1.0}, 2)
        kept, rate = post_select(dist, [1], [0])
        assert rate == 0.0
        assert kept[0] == pytest.approx(0.5)


class TestPCS:
    def test_check_validation(self):
        with pytest.raises(ValueError):
            PauliCheck(pauli={0: "Q"}, region=(0, 1))
        with pytest.raises(ValueError):
            PauliCheck(pauli={0: "Z"}, region=(2, 1))

    def test_build_adds_ancilla_and_checks(self):
        circuit = ghz(2)
        check = PauliCheck(pauli={0: "Z"}, region=(0, 2))
        instrumented, ancillas = build_pcs_circuit(circuit, [check])
        assert ancillas == [2]
        ops = instrumented.count_ops()
        assert ops["h"] >= 3  # original H + two ancilla Hadamards
        assert ops["cz"] == 2  # left + right check
        assert ops["measure"] == 3

    def test_region_out_of_range(self):
        circuit = ghz(2)
        with pytest.raises(ValueError):
            build_pcs_circuit(circuit, [PauliCheck(pauli={0: "Z"}, region=(0, 99))])

    def test_noiseless_pcs_preserves_distribution(self):
        # Z check on the control of the CX chain commutes with the payload.
        circuit = ghz(3)
        check = PauliCheck(pauli={0: "Z"}, region=(1, 3))
        result = run_pcs(circuit, [check], NoiseModel.ideal())
        assert result.post_selection_rate == pytest.approx(1.0)
        assert hellinger_fidelity(result.mitigated_distribution, ideal_distribution(circuit)) == pytest.approx(1.0)

    def test_ideal_checks_without_a_noise_model(self):
        # None means ideal noise; perfect ancillas change nothing then.
        circuit = ghz(3)
        check = PauliCheck(pauli={0: "Z"}, region=(1, 3))
        perfect = run_pcs(circuit, [check], None, ideal_checks=True)
        plain = run_pcs(circuit, [check], None)
        assert perfect.post_selection_rate == pytest.approx(1.0)
        assert perfect.raw_distribution.items() == plain.raw_distribution.items()
        assert perfect.mitigated_distribution.items() == plain.mitigated_distribution.items()

    def test_ideal_pcs_mitigates_gate_errors(self):
        circuit = vqe_circuit(4, 1, seed=2)
        noise = NoiseModel.depolarizing(p1=0.002, p2=0.03)
        ideal = ideal_distribution(circuit)
        raw = execute(circuit, noise)
        checks = [
            PauliCheck(pauli={q: "Z"}, region=_cz_region(circuit)) for q in range(4)
        ]
        mitigated = run_pcs(circuit, checks, noise, ideal_checks=True, seed=1)
        assert hellinger_fidelity(mitigated.mitigated_distribution, ideal) > hellinger_fidelity(
            raw.distribution, ideal
        )
        assert 0.0 < mitigated.post_selection_rate <= 1.0

    def test_noisy_checks_cost_fidelity_vs_ideal_checks(self):
        circuit = vqe_circuit(4, 1, seed=2)
        noise = NoiseModel.depolarizing(p1=0.002, p2=0.03, readout=0.02)
        ideal = ideal_distribution(circuit)
        checks = [PauliCheck(pauli={1: "Z"}, region=_cz_region(circuit))]
        noisy = run_pcs(circuit, checks, noise, ideal_checks=False, seed=1)
        perfect = run_pcs(circuit, checks, noise, ideal_checks=True, seed=1)
        assert hellinger_fidelity(perfect.mitigated_distribution, ideal) >= hellinger_fidelity(
            noisy.mitigated_distribution, ideal
        ) - 0.02


def _cz_region(circuit):
    """Instruction index range covering the CZ entangling block."""
    gate_indices = [i for i, inst in enumerate(circuit.data) if not inst.is_measurement]
    cz_positions = [i for i, inst in enumerate(circuit.data) if inst.name == "cz"]
    start = min(cz_positions)
    end = max(cz_positions) + 1
    return (start, end)


class TestSQEM:
    def test_sqem_improves_over_raw_and_costs_more_than_qutracer(self):
        from repro.core import QuTracer

        circuit = vqe_circuit(5, 1, seed=3)
        noise = NoiseModel.depolarizing(p1=0.001, p2=0.01, readout=0.08)
        ideal = ideal_distribution(circuit)
        raw = execute(circuit, noise)
        sqem = run_sqem(circuit, noise, shots=6000, shots_per_circuit=None, seed=4)
        tracer = QuTracer(noise_model=noise, shots=6000, shots_per_circuit=None, seed=4).run(circuit)
        assert sqem.mitigated_fidelity > hellinger_fidelity(raw.distribution, ideal)
        # SQEM runs more circuit copies and larger copies than QuTracer.
        assert sqem.num_circuits > tracer.num_circuits
        assert sqem.average_copy_two_qubit_gates >= tracer.average_copy_two_qubit_gates

    def test_sqem_requires_noise_source(self):
        with pytest.raises(ValueError):
            run_sqem(ghz(2))
