"""Cross-backend equivalence property tests.

Every simulator backend claims to compute the same physics; this suite
pins that claim on *random* circuits and *random* noise models instead of
the hand-picked workloads the unit tests use (the systematic-cross-check
discipline: independent implementations must agree before either is
trusted):

* **statevector vs density matrix** — for ideal (noise-free) circuits both
  are exact, so they must agree to numerical precision on either kernel
  tier, and the fused statevector must match the gate-by-gate reference;
* **density matrix vs trajectory backends** — with noise, the exact
  density-matrix distribution is the reference; the sampled ensemble (on
  either kernel tier) and per-trajectory backends must land within a
  total-variation budget that the sampling statistics justify;
* **density matrix vs stabilizer** — on *Clifford-restricted* random
  circuits the tableau backend is a fourth independent implementation of
  the same statistics, held to the same TV budget, and its engine tasks
  must be bit-identical between parallel and serial execution.

All randomness is drawn through the shared seeded-rng fixture
(``tests/conftest.py``), so every case is deterministic and reproducible
from its seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import NoiseModel
from repro.simulators import (
    ExecutionEngine,
    ideal_distribution,
    is_clifford_program,
    noisy_distribution_density_matrix,
    simulate_stabilizer_trajectories,
    simulate_statevector,
    simulate_trajectories_batched,
    simulate_trajectories_ensemble,
)

from test_fusion import gate_by_gate_statevector

# One- and two-qubit gates that exercise distinct matrix structures
# (Cliffords, non-Cliffords, parameterised rotations).
_ONE_QUBIT = ["h", "x", "s", "t", "sx", "rz", "ry"]
_TWO_QUBIT = ["cx", "cz"]
# Clifford-only menu for the stabilizer column (the tableau backend rejects
# non-Clifford gates by design; the angle-free subset keeps every draw valid).
_CLIFFORD_ONE_QUBIT = ["h", "x", "s", "sdg", "sx", "y", "z"]
# Both kernel tiers: the specialized kernels and the generic tensordot path
# they are checked against.
KERNEL_BACKENDS = ["numpy", "generic"]


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int = 20) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.35:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            getattr(qc, str(rng.choice(_TWO_QUBIT)))(int(a), int(b))
        else:
            name = str(rng.choice(_ONE_QUBIT))
            qubit = int(rng.integers(num_qubits))
            if name in ("rz", "ry"):
                getattr(qc, name)(float(rng.uniform(0, 2 * np.pi)), qubit)
            else:
                getattr(qc, name)(qubit)
    qc.measure_all()
    return qc


def random_clifford_circuit(
    rng: np.random.Generator, num_qubits: int, num_gates: int = 20
) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.35:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            getattr(qc, str(rng.choice(_TWO_QUBIT)))(int(a), int(b))
        else:
            getattr(qc, str(rng.choice(_CLIFFORD_ONE_QUBIT)))(int(rng.integers(num_qubits)))
    qc.measure_all()
    return qc


def random_noise_model(rng: np.random.Generator, num_qubits: int) -> NoiseModel:
    """Depolarizing gate noise + readout, with random per-qubit variation."""
    model = NoiseModel.depolarizing(
        p1=float(rng.uniform(0.001, 0.015)),
        p2=float(rng.uniform(0.005, 0.04)),
        readout={q: float(rng.uniform(0.0, 0.05)) for q in range(num_qubits)},
    )
    return model


def total_variation(sampled, exact, num_bits: int) -> float:
    return 0.5 * sum(
        abs(sampled.get(outcome) - exact.get(outcome)) for outcome in range(2**num_bits)
    )


class TestStatevectorVsDensityMatrix:
    """Both exact backends must agree to numerical precision when ideal."""

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
    def test_ideal_distributions_agree_exactly(self, num_qubits, kernel_backend, make_rng):
        rng = make_rng(1000 + num_qubits)
        for _ in range(4):
            circuit = random_circuit(rng, num_qubits)
            sv = ideal_distribution(circuit, kernel_backend=kernel_backend)
            dm, measured = noisy_distribution_density_matrix(
                circuit, NoiseModel.ideal(), kernel_backend=kernel_backend
            )
            assert measured == sorted(circuit.measured_qubits)
            for outcome in range(2**num_qubits):
                assert dm.get(outcome) == pytest.approx(sv.get(outcome), abs=1e-10)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_statevector_fusion_invariance(self, num_qubits, make_rng):
        rng = make_rng(2000 + num_qubits)
        for _ in range(4):
            circuit = random_circuit(rng, num_qubits).remove_final_measurements()
            fused = simulate_statevector(circuit)
            plain = gate_by_gate_statevector(circuit)
            assert fused.fidelity(plain) == pytest.approx(1.0, abs=1e-10)


class TestTrajectoryBackendsVsDensityMatrix:
    """Sampled backends vs the exact noisy reference, within a TV budget.

    Tolerance: TV 0.06 over K <= 32 outcomes with N = 20000 shots and 400
    noise realisations.  Shot noise alone gives E[TV] <= sqrt((K-1)/(4N))
    ~= 0.020 with a McDiarmid tail P(TV >= E + t) <= exp(-2 N t^2), so the
    0.06 budget leaves >= 0.03 for finite-trajectory error (measured ~0.02
    at these noise rates); overall failure probability under re-seeding is
    well below 1e-3, and the pinned seeds make each case deterministic.
    """

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    @pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
    def test_ensemble_within_tv_budget(self, num_qubits, kernel_backend, make_rng):
        rng = make_rng(3000 + num_qubits)
        circuit = random_circuit(rng, num_qubits)
        model = random_noise_model(rng, num_qubits)
        exact, _ = noisy_distribution_density_matrix(circuit, model)
        counts, measured = simulate_trajectories_ensemble(
            circuit,
            model,
            shots=20000,
            seed=int(rng.integers(2**31)),
            max_trajectories=400,
            kernel_backend=kernel_backend,
        )
        assert measured == sorted(circuit.measured_qubits)
        tv = total_variation(counts.to_distribution(), exact, num_qubits)
        assert tv <= 0.06, f"ensemble TV {tv:.4f} vs density matrix ({kernel_backend} kernels)"

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_trajectory_loop_within_tv_budget(self, num_qubits, make_rng):
        rng = make_rng(4000 + num_qubits)
        circuit = random_circuit(rng, num_qubits)
        model = random_noise_model(rng, num_qubits)
        exact, _ = noisy_distribution_density_matrix(circuit, model)
        counts, _ = simulate_trajectories_batched(
            circuit, model, shots=20000, seed=int(rng.integers(2**31)), max_trajectories=400
        )
        tv = total_variation(counts.to_distribution(), exact, num_qubits)
        assert tv <= 0.06, f"trajectory-loop TV {tv:.4f} vs density matrix"

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_ensemble_matches_loop_statistics(self, num_qubits, make_rng):
        # The two trajectory backends draw different RNG streams, so they
        # cannot match bit-for-bit — but both estimate the same physics, so
        # their empirical distributions must agree within twice the
        # single-backend budget (triangle inequality through the exact
        # reference).
        rng = make_rng(5000 + num_qubits)
        circuit = random_circuit(rng, num_qubits)
        model = random_noise_model(rng, num_qubits)
        ensemble, _ = simulate_trajectories_ensemble(
            circuit, model, shots=20000, seed=7, max_trajectories=400
        )
        loop, _ = simulate_trajectories_batched(
            circuit, model, shots=20000, seed=7, max_trajectories=400
        )
        tv = total_variation(ensemble.to_distribution(), loop.to_distribution(), num_qubits)
        assert tv <= 0.12, f"ensemble vs trajectory-loop TV {tv:.4f}"


class TestStabilizerVsDensityMatrix:
    """The stabilizer tableau backend as a fourth column: on Clifford
    workloads it must estimate the same physics as the exact density-matrix
    reference, within the same TV budget as the other sampled backends (see
    TestTrajectoryBackendsVsDensityMatrix for the 0.06 derivation — here
    K <= 32, N = 20000 shots, 400 trajectories)."""

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_stabilizer_within_tv_budget(self, num_qubits, make_rng):
        rng = make_rng(6000 + num_qubits)
        circuit = random_clifford_circuit(rng, num_qubits)
        model = random_noise_model(rng, num_qubits)
        assert is_clifford_program(circuit, model)
        exact, _ = noisy_distribution_density_matrix(circuit, model)
        counts, measured = simulate_stabilizer_trajectories(
            circuit, model, shots=20000, seed=int(rng.integers(2**31)), max_trajectories=400
        )
        assert measured == sorted(circuit.measured_qubits)
        tv = total_variation(counts.to_distribution(), exact, num_qubits)
        assert tv <= 0.06, f"stabilizer TV {tv:.4f} vs density matrix"

    def test_parallel_vs_serial_bit_identity(self, make_rng):
        # Stabilizer engine tasks must be bit-identical whether they run in
        # pool workers or in-process — same contract the trajectory tasks
        # already honour (worker-purity: the derived seed travels with the
        # task, so scheduling cannot change any result).
        rng = make_rng(6100)
        circuits = [random_clifford_circuit(rng, 11, num_gates=25) for _ in range(6)]
        model = random_noise_model(rng, 11)
        for circuit in circuits:
            assert is_clifford_program(circuit, model)
        with ExecutionEngine(workers=2, density_matrix_threshold=4) as parallel_engine:
            parallel = parallel_engine.execute_many(
                circuits, model, shots=2000, seed=13
            )
            assert parallel_engine.stats.stabilizer_executed > 0
        with ExecutionEngine(workers=1, density_matrix_threshold=4) as serial_engine:
            serial = serial_engine.execute_many(circuits, model, shots=2000, seed=13)
        for fast, slow in zip(parallel, serial):
            assert fast.method == "stabilizer"
            assert slow.method == "stabilizer"
            assert dict(fast.counts.items()) == dict(slow.counts.items())
            assert fast.measured_qubits == slow.measured_qubits
