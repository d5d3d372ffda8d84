"""Tests for the statevector, density-matrix and trajectory simulators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.distributions import hellinger_fidelity
from repro.noise import NoiseModel, depolarizing_channel, fake_mumbai
from repro.simulators import (
    DensityMatrix,
    Statevector,
    execute,
    ideal_distribution,
    noisy_distribution_density_matrix,
    simulate_density_matrix,
    simulate_statevector,
    simulate_trajectories,
)


def bell_circuit():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1)
    return qc


def ghz_circuit(n=3):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


class TestStatevector:
    def test_zero_state(self):
        state = Statevector.zero_state(2)
        assert np.allclose(state.data, [1, 0, 0, 0])

    def test_from_label_msb_first(self):
        state = Statevector.from_label("10")  # q1=1, q0=0
        assert np.allclose(state.data, np.eye(4)[0b10])

    def test_normalisation(self):
        state = Statevector([2.0, 0.0])
        assert np.linalg.norm(state.data) == pytest.approx(1.0)

    def test_zero_norm_raises(self):
        with pytest.raises(ValueError):
            Statevector([0.0, 0.0])

    def test_bell_probabilities(self):
        state = simulate_statevector(bell_circuit())
        assert np.allclose(state.probabilities(), [0.5, 0, 0, 0.5])

    def test_single_qubit_marginal(self):
        state = simulate_statevector(bell_circuit())
        assert np.allclose(state.probabilities([0]), [0.5, 0.5])

    def test_marginal_ordering(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        state = simulate_statevector(qc)
        assert np.allclose(state.probabilities([0]), [0, 1])
        assert np.allclose(state.probabilities([1]), [1, 0])
        assert np.allclose(state.probabilities([1, 0]), [0, 0, 1, 0])

    def test_expectation_pauli(self):
        state = simulate_statevector(bell_circuit())
        assert state.expectation_pauli({0: "Z", 1: "Z"}) == pytest.approx(1.0)
        assert state.expectation_pauli({0: "Z"}) == pytest.approx(0.0)
        assert state.expectation_pauli({0: "X", 1: "X"}) == pytest.approx(1.0)
        assert state.expectation_pauli("ZZ") == pytest.approx(1.0)

    def test_reduced_density_matrix_of_bell_is_mixed(self):
        state = simulate_statevector(bell_circuit())
        rho = state.reduced_density_matrix([0])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_reduced_density_matrix_ordering(self):
        qc = QuantumCircuit(2)
        qc.x(1)
        rho = simulate_statevector(qc).reduced_density_matrix([1, 0])
        # q1=1 is bit 0 of the reduced index, q0=0 is bit 1 -> outcome 0b01
        assert rho[0b01, 0b01] == pytest.approx(1.0)

    def test_fidelity(self):
        a = simulate_statevector(bell_circuit())
        b = Statevector.from_label("00")
        assert a.fidelity(a) == pytest.approx(1.0)
        assert a.fidelity(b) == pytest.approx(0.5)

    def test_evolve_circuit_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            simulate_statevector(bell_circuit(), initial_state=Statevector.zero_state(3))

    def test_ideal_distribution_measured_subset(self):
        qc = ghz_circuit(3)
        qc.measure_subset([0, 2])
        dist = ideal_distribution(qc)
        assert dist.num_bits == 2
        assert dist[0b00] == pytest.approx(0.5)
        assert dist[0b11] == pytest.approx(0.5)

    def test_ideal_distribution_no_measurements(self):
        dist = ideal_distribution(bell_circuit())
        assert dist.num_bits == 2
        assert dist[0b11] == pytest.approx(0.5)

    def test_iqft_phase_readout(self):
        # Encode the phase 5/8 and read it back through the inverse QFT.
        n = 3
        value = 5
        qc = QuantumCircuit(n)
        for q in range(n):
            qc.h(q)
            qc.p(2 * math.pi * value / 2 ** (n - q), q)
        # textbook inverse QFT
        for q in reversed(range(n)):
            for other in range(q + 1, n):
                qc.cp(-math.pi / 2 ** (other - q), other, q)
            qc.h(q)
        dist = ideal_distribution(qc)
        assert dist[value] == pytest.approx(1.0, abs=1e-9)


class TestDensityMatrix:
    def test_from_statevector_purity(self):
        rho = DensityMatrix.from_statevector(simulate_statevector(bell_circuit()))
        assert rho.purity == pytest.approx(1.0)
        assert rho.trace == pytest.approx(1.0)

    def test_ideal_simulation_matches_statevector(self):
        qc = ghz_circuit(4)
        rho = simulate_density_matrix(qc)
        sv = simulate_statevector(qc)
        assert np.allclose(rho.probabilities(), sv.probabilities())

    def test_depolarizing_reduces_purity(self):
        noise = NoiseModel.depolarizing(p1=0.05, p2=0.1)
        rho = simulate_density_matrix(ghz_circuit(3), noise)
        assert rho.purity < 0.99
        assert rho.trace == pytest.approx(1.0)

    def test_full_depolarizing_gives_uniform(self):
        noise = NoiseModel()
        noise.set_default_2q_error(depolarizing_channel(1.0, 2))
        rho = simulate_density_matrix(bell_circuit(), noise)
        assert np.allclose(rho.probabilities(), np.full(4, 0.25))

    def test_expectation_pauli(self):
        rho = simulate_density_matrix(bell_circuit())
        assert rho.expectation_pauli({0: "Z", 1: "Z"}) == pytest.approx(1.0)
        assert rho.expectation_pauli("IZ") == pytest.approx(0.0)

    def test_reduced(self):
        rho = simulate_density_matrix(bell_circuit())
        reduced = rho.reduced([1])
        assert np.allclose(reduced.data, np.eye(2) / 2)

    def test_readout_error_applied_to_distribution(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        noise = NoiseModel.depolarizing(readout=0.2)
        dist, qubits = noisy_distribution_density_matrix(qc, noise)
        assert qubits == [0]
        assert dist[1] == pytest.approx(0.2)

    def test_asymmetric_readout(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0).measure(0, 0)
        noise = NoiseModel()
        from repro.noise import ReadoutError

        noise.set_readout_error(ReadoutError(0.0, 0.3), 0)
        dist, _ = noisy_distribution_density_matrix(qc, noise)
        assert dist[0] == pytest.approx(0.3)
        assert dist[1] == pytest.approx(0.7)

    def test_measured_subset_ordering(self):
        qc = ghz_circuit(3)
        qc.measure_subset([2])
        dist, qubits = noisy_distribution_density_matrix(qc, NoiseModel.ideal())
        assert qubits == [2]
        assert dist[0] == pytest.approx(0.5)


class TestTrajectory:
    def test_ideal_single_trajectory(self):
        counts, qubits = simulate_trajectories(ghz_circuit(3), NoiseModel.ideal(), shots=2000, seed=1)
        dist = counts.to_distribution()
        assert qubits == [0, 1, 2]
        assert dist[0b000] == pytest.approx(0.5, abs=0.05)
        assert dist[0b111] == pytest.approx(0.5, abs=0.05)

    def test_matches_density_matrix_under_noise(self):
        qc = ghz_circuit(3)
        qc.measure_all()
        noise = NoiseModel.depolarizing(p1=0.01, p2=0.05, readout=0.05)
        exact, _ = noisy_distribution_density_matrix(qc, noise)
        counts, _ = simulate_trajectories(qc, noise, shots=20000, seed=7, max_trajectories=400)
        assert hellinger_fidelity(exact, counts.to_distribution()) > 0.995

    def test_readout_errors_sampled(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        noise = NoiseModel.depolarizing(readout=0.25)
        counts, _ = simulate_trajectories(qc, noise, shots=20000, seed=3)
        assert counts[1] / counts.shots == pytest.approx(0.25, abs=0.02)

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            simulate_trajectories(bell_circuit(), shots=0)

    def test_reproducible_with_seed(self):
        noise = NoiseModel.depolarizing(p1=0.02, p2=0.05)
        a, _ = simulate_trajectories(bell_circuit(), noise, shots=500, seed=11)
        b, _ = simulate_trajectories(bell_circuit(), noise, shots=500, seed=11)
        assert a.to_dict() == b.to_dict()


class TestExecute:
    def test_auto_statevector_for_ideal(self):
        result = execute(bell_circuit())
        assert result.method == "statevector"
        assert result.distribution[0b00] == pytest.approx(0.5)

    def test_auto_density_matrix_for_small_noisy(self):
        result = execute(bell_circuit(), NoiseModel.depolarizing(p1=0.01))
        assert result.method == "density_matrix"

    def test_auto_trajectory_for_wide_noisy(self):
        qc = ghz_circuit(12)
        qc.t(0)  # non-Clifford: wide Clifford programs go to the stabilizer backend
        qc.measure_all()
        result = execute(
            qc, NoiseModel.depolarizing(p2=0.01), shots=200, seed=0, max_trajectories=20
        )
        assert result.method == "trajectory"
        assert result.shots == 200

    def test_auto_stabilizer_for_wide_noisy_clifford(self):
        qc = ghz_circuit(12)
        qc.measure_all()
        result = execute(qc, NoiseModel.depolarizing(p2=0.01), shots=200, seed=0)
        assert result.method == "stabilizer"
        assert result.shots == 200

    def test_shots_sampling_on_exact_method(self):
        result = execute(bell_circuit(), shots=1000, seed=5)
        assert result.counts is not None
        assert result.counts.shots == 1000

    def test_statevector_method_rejects_noise(self):
        with pytest.raises(ValueError):
            execute(bell_circuit(), NoiseModel.depolarizing(p1=0.1), method="statevector")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            execute(bell_circuit(), method="qpu")

    @pytest.mark.parametrize("shots", [None, 200], ids=["exact", "sampled"])
    def test_accepts_a_device_model(self, shots):
        # Like the engine, execute() runs a device under its noise model.
        device = fake_mumbai()
        circuit = ghz_circuit(3)
        circuit.measure_all()
        by_device = execute(circuit, device, shots=shots, seed=1)
        by_model = execute(circuit, device.noise_model(), shots=shots, seed=1)
        assert by_device.method == by_model.method == "density_matrix"
        assert by_device.distribution.items() == by_model.distribution.items()
        if shots is not None:
            assert by_device.counts.items() == by_model.counts.items()

    def test_result_helpers(self):
        qc = ghz_circuit(3)
        qc.measure_subset([0, 2])
        result = execute(qc)
        assert result.measured_qubits == [0, 2]
        assert result.bit_for_qubit(2) == 1
        with pytest.raises(KeyError):
            result.bit_for_qubit(1)
        marginal = result.marginal_for_qubits([2])
        assert marginal[0] == pytest.approx(0.5)

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_basis_state_circuits_are_deterministic(self, value):
        qc = QuantumCircuit(3)
        for bit in range(3):
            if (value >> bit) & 1:
                qc.x(bit)
        qc.measure_all()
        result = execute(qc)
        assert result.distribution[value] == pytest.approx(1.0)
