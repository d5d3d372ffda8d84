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
* **noisy Clifford programs on the trajectory ensemble** — the backend
  ``auto`` gives every noisy program wider than the density-matrix
  threshold, Clifford or not, checked on random Clifford circuits under
  random Pauli noise.

All randomness is drawn through the shared seeded-rng fixture
(``tests/conftest.py``), so every case is deterministic and reproducible
from its seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import NoiseModel
from repro.noise.channels import pauli_channel
from repro.simulators import (
    ideal_distribution,
    noisy_distribution_density_matrix,
    simulate_statevector,
    simulate_trajectories_batched,
    simulate_trajectories_ensemble,
)

from test_fusion import gate_by_gate_statevector

# One- and two-qubit gates that exercise distinct matrix structures
# (Cliffords, non-Cliffords, parameterised rotations).
_ONE_QUBIT = ["h", "x", "s", "t", "sx", "rz", "ry"]
_TWO_QUBIT = ["cx", "cz"]
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


def random_noise_model(rng: np.random.Generator, num_qubits: int) -> NoiseModel:
    """Depolarizing gate noise + readout, with random per-qubit variation."""
    model = NoiseModel.depolarizing(
        p1=float(rng.uniform(0.001, 0.015)),
        p2=float(rng.uniform(0.005, 0.04)),
        readout={q: float(rng.uniform(0.0, 0.05)) for q in range(num_qubits)},
    )
    return model


# The Clifford menu: every gate maps Pauli strings to Pauli strings.
_CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z", "sx", "sxdg"]
_CLIFFORD_2Q = ["cx", "cz", "swap"]


def random_clifford_circuit(
    rng: np.random.Generator, num_qubits: int, num_gates: int = 30
) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.35:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            getattr(qc, str(rng.choice(_CLIFFORD_2Q)))(int(a), int(b))
        else:
            getattr(qc, str(rng.choice(_CLIFFORD_1Q)))(int(rng.integers(num_qubits)))
    qc.measure_all()
    return qc


def random_pauli_noise(rng: np.random.Generator, num_qubits: int) -> NoiseModel:
    """Depolarizing base rates, a random Pauli channel overriding ``h``, and
    per-qubit readout error."""
    model = random_noise_model(rng, num_qubits)
    probabilities = {
        "X": float(rng.uniform(0.0, 0.01)),
        "Y": float(rng.uniform(0.0, 0.01)),
        "Z": float(rng.uniform(0.0, 0.01)),
    }
    model.set_gate_error("h", pauli_channel(probabilities))
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


class TestNoisyCliffordOnTrajectories:
    """Clifford programs under Pauli noise on the trajectory ensemble.

    ``auto`` resolves a noisy program wider than the density-matrix
    threshold to the ensemble whether or not it is Clifford, so the
    ensemble alone carries this class.  Exact facts (the support of a
    stabilizer state, basis-state circuits, qubits no gate touches) are
    asserted exactly; sampled counts get the TV budget of
    :class:`TestTrajectoryBackendsVsDensityMatrix`, which holds for K <= 64
    outcomes: E[TV] <= sqrt(63 / (4 * 20000)) ~= 0.028, and the McDiarmid
    tail at t = 0.032 is exp(-2 * 20000 * 0.032^2) ~= 1.6e-18, leaving the
    finite-trajectory error its ~0.03.
    """

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_ideal_support_is_a_uniform_affine_subspace(self, num_qubits, make_rng):
        # A stabilizer state measures to a coset of a GF(2) subspace, each
        # outcome with weight 2**-k.  Exact statevector check, then the
        # ideal ensemble may sample nothing outside that coset.
        rng = make_rng(6000 + num_qubits)
        for _ in range(5):
            circuit = random_clifford_circuit(rng, num_qubits)
            exact = ideal_distribution(circuit)
            support = [outcome for outcome, p in exact.items() if p > 1e-9]
            base = support[0]
            subspace = {outcome ^ base for outcome in support}
            assert all(a ^ b in subspace for a in subspace for b in subspace)
            for outcome in range(2**num_qubits):
                expected = 1.0 / len(support) if outcome in set(support) else 0.0
                assert exact.get(outcome) == pytest.approx(expected, abs=1e-9)
            counts, _ = simulate_trajectories_ensemble(
                circuit, NoiseModel.ideal(), shots=2000, seed=int(rng.integers(2**31))
            )
            assert {outcome for outcome, _ in counts.items()} <= set(support)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kernel_backend", KERNEL_BACKENDS)
    def test_noisy_counts_within_tv_budget(self, num_qubits, kernel_backend, make_rng):
        rng = make_rng(7000 + num_qubits)
        circuit = random_clifford_circuit(rng, num_qubits)
        model = random_pauli_noise(rng, num_qubits)
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
        assert tv <= 0.06, f"Clifford TV {tv:.4f} vs density matrix ({kernel_backend} kernels)"

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_quarter_turn_rotations_within_tv_budget(self, num_qubits, make_rng):
        # Rotations by multiples of pi/2 are Clifford gates written as
        # parameterised ones; they take the dense rotation kernels.
        rng = make_rng(7500 + num_qubits)
        qc = QuantumCircuit(num_qubits, num_qubits)
        for _ in range(25):
            name = str(rng.choice(["rz", "rx", "ry", "p", "h", "cx"]))
            if name == "cx":
                a, b = rng.choice(num_qubits, size=2, replace=False)
                qc.cx(int(a), int(b))
            elif name == "h":
                qc.h(int(rng.integers(num_qubits)))
            else:
                angle = float(rng.integers(-4, 5)) * np.pi / 2
                getattr(qc, name)(angle, int(rng.integers(num_qubits)))
        qc.measure_all()
        model = random_pauli_noise(rng, num_qubits)
        exact, _ = noisy_distribution_density_matrix(qc, model)
        counts, _ = simulate_trajectories_ensemble(
            qc, model, shots=20000, seed=int(rng.integers(2**31)), max_trajectories=400
        )
        tv = total_variation(counts.to_distribution(), exact, num_qubits)
        # Same 0.06 budget (K <= 16 here, so E[TV] <= 0.014).
        assert tv <= 0.06, f"quarter-turn TV {tv:.4f} vs density matrix"

    def test_untouched_qubit_never_flips(self):
        # H(0), H(1), CX(0,2), CX(1,2) with gate noise only: noise lands on
        # the wires of the gates, so qubit 3 reads 0 on every shot, and the
        # sampled support stays inside the exact one.
        qc = QuantumCircuit(4, 4)
        qc.h(0)
        qc.h(1)
        qc.cx(0, 2)
        qc.cx(1, 2)
        qc.measure_all()
        model = NoiseModel.depolarizing(p1=0.001, p2=0.001)
        exact, _ = noisy_distribution_density_matrix(qc, model)
        counts, _ = simulate_trajectories_ensemble(qc, model, shots=4000, seed=1)
        support = {outcome for outcome, p in exact.items() if p > 0}
        assert all(outcome < 0b1000 for outcome in support)
        assert {outcome for outcome, _ in counts.items()} <= support
        # Only 8 outcomes carry mass: E[TV] <= sqrt(7 / (4 * 4000)) ~= 0.021
        # and the McDiarmid tail at t = 0.039 is exp(-2 * 4000 * 0.039^2)
        # ~= 5e-6.
        tv = total_variation(counts.to_distribution(), exact, 4)
        assert tv <= 0.06, f"trajectory TV {tv:.4f} vs density matrix"

    def test_basis_state_circuits_are_deterministic(self, make_rng):
        # x/cx circuits keep a computational basis state, so every shot
        # must land on the one outcome the statevector gives — exactly.
        rng = make_rng(7900)
        for _ in range(10):
            qc = QuantumCircuit(4, 4)
            for _ in range(12):
                if rng.random() < 0.5:
                    qc.x(int(rng.integers(4)))
                else:
                    a, b = rng.choice(4, size=2, replace=False)
                    qc.cx(int(a), int(b))
            qc.measure_all()
            exact = ideal_distribution(qc)
            counts, _ = simulate_trajectories_ensemble(qc, NoiseModel.ideal(), shots=200, seed=1)
            ((outcome, n),) = counts.items()
            assert n == 200
            assert exact.get(outcome) == pytest.approx(1.0, abs=1e-12)

    def test_fuzz_mixed_circuits_sample_their_ideal_distribution(self, make_rng):
        # Random circuits from Cliffords, T gates and rotations (odd cases
        # only quarter turns, so half the cases stay Clifford): the ideal
        # ensemble's frequencies track the statevector.  Hoeffding at 20000
        # shots: P(|freq - p| >= 0.02) <= 2 exp(-2 * 20000 * 0.02^2) ~= 2e-7
        # per outcome, under 1e-4 over all 60 cases.
        rng = make_rng(8000)
        for case in range(60):
            quarter_turns_only = case % 2 == 1
            menu = _CLIFFORD_1Q + ["rz", "ry", "rx"]
            if not quarter_turns_only:
                menu += ["t", "tdg"]
            num_qubits = int(rng.integers(2, 5))
            qc = QuantumCircuit(num_qubits, num_qubits)
            for _ in range(int(rng.integers(5, 25))):
                if rng.random() < 0.3:
                    a, b = rng.choice(num_qubits, size=2, replace=False)
                    getattr(qc, str(rng.choice(_CLIFFORD_2Q)))(int(a), int(b))
                    continue
                name = str(rng.choice(menu))
                qubit = int(rng.integers(num_qubits))
                if name in ("rz", "ry", "rx"):
                    if quarter_turns_only or rng.random() < 0.5:
                        angle = float(rng.integers(-4, 5)) * np.pi / 2
                    else:
                        angle = float(rng.uniform(0, 2 * np.pi))
                    getattr(qc, name)(angle, qubit)
                else:
                    getattr(qc, name)(qubit)
            qc.measure_all()
            exact = ideal_distribution(qc)
            counts, _ = simulate_trajectories_ensemble(
                qc, NoiseModel.ideal(), shots=20000, seed=int(rng.integers(2**31))
            )
            sampled = counts.to_distribution()
            for outcome in range(2**num_qubits):
                assert abs(sampled.get(outcome) - exact.get(outcome)) < 0.02, (
                    f"case {case}: outcome {outcome}"
                )
