"""Stabilizer backend: tableau unit tests, Clifford-detector fuzzing, and the
property-based differential suite against the dense tier.

The differential discipline mirrors ``tests/test_backend_equivalence.py``:
the exact density-matrix distribution is the reference; stabilizer-sampled
counts must land within a total-variation budget the sampling statistics
justify (derivations on each assertion, per the conftest tolerance policy).
Deterministic facts — ideal deterministic outcomes, affine-model support,
misclassification impossibility — are asserted exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import NoiseModel
from repro.noise.channels import (
    amplitude_damping_channel,
    depolarizing_channel,
    pauli_channel,
    phase_flip_channel,
)
from repro.simulators import (
    ExecutionEngine,
    StabilizerTableau,
    ideal_distribution,
    is_clifford_program,
    noisy_distribution_density_matrix,
    simulate_stabilizer_trajectories,
)
from repro.simulators.stabilizer import _affine_measurement_model

# The full Clifford menu the recognizer accepts (quarter-turn rotations get
# dedicated cases below — mixing exact multiples of pi/2 into float angles
# here would just re-test the same code path with noisier bookkeeping).
_CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z", "sx", "sxdg"]
_CLIFFORD_2Q = ["cx", "cz", "swap"]
_NON_CLIFFORD_1Q = ["t", "tdg"]


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
    """Random Pauli-mixture noise: depolarizing base rates plus a random
    per-gate Pauli channel override, and readout error — everything the
    stabilizer backend claims to support."""
    model = NoiseModel.depolarizing(
        p1=float(rng.uniform(0.001, 0.02)),
        p2=float(rng.uniform(0.005, 0.05)),
        readout={q: float(rng.uniform(0.0, 0.05)) for q in range(num_qubits)},
    )
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


class TestTableau:
    """Hand-checkable tableau facts (no sampling)."""

    def test_fresh_tableau_measures_zero(self):
        t = StabilizerTableau(3)
        for q in range(3):
            assert not t.measurement_is_random(q)
            outcome, was_random = t.measure(q)
            assert outcome == 0 and not was_random

    def test_x_flips_deterministic_outcome(self):
        t = StabilizerTableau(2)
        t.x(1)
        assert t.measure(0)[0] == 0
        assert t.measure(1)[0] == 1

    def test_h_makes_outcome_random_and_collapses(self):
        t = StabilizerTableau(1)
        t.h(0)
        assert t.measurement_is_random(0)
        outcome, was_random = t.measure(0, forced=1)
        assert (outcome, was_random) == (1, True)
        # Collapsed: repeating the measurement is now deterministic.
        assert t.measure(0) == (1, False)

    def test_bell_pair_correlates(self):
        for forced in (0, 1):
            t = StabilizerTableau(2)
            t.h(0)
            t.cx(0, 1)
            first, was_random = t.measure(0, forced=forced)
            assert was_random and first == forced
            assert t.measure(1) == (forced, False)

    def test_composed_gates_match_their_definitions(self):
        # sdg = s;s;s, sx = h;s;h, cz = h(t);cx;h(t): verify on a state where
        # the difference would show — the stabilizer group determines the
        # state, so identical measurement statistics on all qubits after a
        # basis change pin the composition.
        a, b = StabilizerTableau(1), StabilizerTableau(1)
        a.h(0); a.sdg(0); a.h(0)
        b.h(0); b.s(0); b.s(0); b.s(0); b.h(0)
        assert np.array_equal(a.x_bits, b.x_bits)
        assert np.array_equal(a.z_bits, b.z_bits)
        assert np.array_equal(a.phases, b.phases)

    def test_y_equals_x_then_z_up_to_tableau_sign_pair(self):
        # Y = iXZ: as a channel (conjugation) they are identical, so the
        # tableaus must agree exactly — signs included, because X and Z
        # anticommute with the same stabilizer rows.
        a, b = StabilizerTableau(1), StabilizerTableau(1)
        a.h(0); a.y(0)
        b.h(0); b.z(0); b.x(0)
        assert np.array_equal(a.phases, b.phases)

    def test_reset_after_entanglement(self):
        t = StabilizerTableau(2)
        t.h(0)
        t.cx(0, 1)
        t.reset(0, rng=np.random.default_rng(0))
        assert t.measure(0) == (0, False)
        # Reset measures before flipping, so the Bell partner collapsed to a
        # definite (randomly chosen) value — deterministic from here on.
        outcome, was_random = t.measure(1, forced=0)
        assert not was_random and outcome in (0, 1)

    def test_ghz_affine_model(self):
        t = StabilizerTableau(3)
        t.h(0)
        t.cx(0, 1)
        t.cx(1, 2)
        base, columns = _affine_measurement_model(t, [0, 1, 2])
        assert base == 0
        assert columns == [0b111]

    def test_measure_without_rng_or_forced_raises(self):
        t = StabilizerTableau(1)
        t.h(0)
        with pytest.raises(ValueError, match="rng or a forced bit"):
            t.measure(0)


class TestAffineModelMatchesIdealDistribution:
    """The affine measurement model must reproduce the exact statevector
    distribution of random Clifford circuits: identical support, uniform
    weight 2**-k on it.  This is a deterministic (non-sampling) check."""

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_support_and_uniformity(self, num_qubits, make_rng):
        rng = make_rng(6000 + num_qubits)
        for _ in range(5):
            circuit = random_clifford_circuit(rng, num_qubits)
            tableau = StabilizerTableau(num_qubits)
            for instruction in circuit.data:
                if instruction.is_gate:
                    tableau.apply(instruction.name, instruction.qubits)
            base, columns = _affine_measurement_model(
                tableau, circuit.measurement_layout()
            )
            support = {base}
            for column in columns:
                support |= {outcome ^ column for outcome in support}
            assert len(support) == 2 ** len(columns)
            exact = ideal_distribution(circuit)
            weight = 1.0 / len(support)
            for outcome in range(2**num_qubits):
                expected = weight if outcome in support else 0.0
                assert exact.get(outcome) == pytest.approx(expected, abs=1e-9)


class TestDifferentialVsDenseTier:
    """Stabilizer counts vs the exact density-matrix reference on random
    Clifford circuits with random Pauli noise.

    Tolerance: TV 0.06 over K <= 64 outcomes with N = 20000 shots and 400
    noise realisations — same budget as the trajectory-backend suite
    (tests/test_backend_equivalence.py): shot noise alone gives E[TV] <=
    sqrt((K - 1)/(4 N)) ~= 0.028 at K = 64 with a McDiarmid tail
    P(TV >= E + t) <= exp(-2 N t^2), leaving ~0.03 for finite-trajectory
    error; re-seeding failure probability is far below 1e-3.
    """

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
    def test_noisy_counts_within_tv_budget(self, num_qubits, make_rng):
        rng = make_rng(7000 + num_qubits)
        circuit = random_clifford_circuit(rng, num_qubits)
        model = random_pauli_noise(rng, num_qubits)
        assert is_clifford_program(circuit, model)
        exact, _ = noisy_distribution_density_matrix(circuit, model)
        counts, measured = simulate_stabilizer_trajectories(
            circuit, model, shots=20000, seed=int(rng.integers(2**31)), max_trajectories=400
        )
        assert measured == sorted(circuit.measured_qubits)
        tv = total_variation(counts.to_distribution(), exact, num_qubits)
        assert tv <= 0.06, f"stabilizer TV {tv:.4f} vs density matrix"

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_quarter_turn_rotations_match_dense(self, num_qubits, make_rng):
        # rz/p/rx/ry at multiples of pi/2 are the recognizer's only
        # angle-dependent acceptances; check the translation against the
        # dense reference, not just the classifier.
        rng = make_rng(7500 + num_qubits)
        qc = QuantumCircuit(num_qubits, num_qubits)
        for _ in range(25):
            name = str(rng.choice(["rz", "rx", "ry", "p", "h", "cx"]))
            if name == "cx":
                if num_qubits < 2:
                    continue
                a, b = rng.choice(num_qubits, size=2, replace=False)
                qc.cx(int(a), int(b))
            elif name == "h":
                qc.h(int(rng.integers(num_qubits)))
            else:
                angle = float(rng.integers(-4, 5)) * np.pi / 2
                getattr(qc, name)(angle, int(rng.integers(num_qubits)))
        qc.measure_all()
        assert is_clifford_program(qc)
        model = random_pauli_noise(rng, num_qubits)
        exact, _ = noisy_distribution_density_matrix(qc, model)
        counts, _ = simulate_stabilizer_trajectories(
            qc, model, shots=20000, seed=int(rng.integers(2**31)), max_trajectories=400
        )
        tv = total_variation(counts.to_distribution(), exact, num_qubits)
        # Same 0.06 budget as above (K <= 16 here, so E[TV] <= 0.014).
        assert tv <= 0.06, f"quarter-turn TV {tv:.4f} vs density matrix"

    def test_overlapping_columns_combine_by_xor(self):
        # H(0), H(1), CX(0,2), CX(1,2): the two random measurement columns
        # share the bit of qubit 2, so adding them as integers carries into
        # qubit 3, which no gate touches.  An outcome is base XOR columns.
        qc = QuantumCircuit(4, 4)
        qc.h(0)
        qc.h(1)
        qc.cx(0, 2)
        qc.cx(1, 2)
        qc.measure_all()
        model = NoiseModel.depolarizing(p1=0.001, p2=0.001)
        exact, _ = noisy_distribution_density_matrix(qc, model)
        counts, _ = simulate_stabilizer_trajectories(qc, model, shots=4000, seed=1)
        support = {outcome for outcome, p in exact.items() if p > 0}
        assert {outcome for outcome, _ in counts.items()} <= support
        # Same 0.06 budget as above.  Only 8 outcomes carry mass here, so
        # E[TV] <= sqrt(7 / (4 * 4000)) ~= 0.021 and the McDiarmid tail at
        # t = 0.039 is exp(-2 * 4000 * 0.039^2) ~= 5e-6.
        tv = total_variation(counts.to_distribution(), exact, 4)
        assert tv <= 0.06, f"stabilizer TV {tv:.4f} vs density matrix"

    def test_wide_gate_only_outcomes_stay_in_range(self, make_rng):
        # The 20-qubit RB circuit of benchmarks/test_engine_speedup.py with
        # gate noise only: no readout step masks the high bits, so an
        # integer carry out of the top column would leave the 20-bit range.
        rng = make_rng(3)
        num_qubits = 20
        qc = QuantumCircuit(num_qubits, num_qubits)
        for _ in range(40):
            for q in range(num_qubits):
                getattr(qc, str(rng.choice(["h", "s", "sdg", "sx", "x", "y", "z"])))(q)
            offset = int(rng.integers(2))
            for q in range(offset, num_qubits - 1, 2):
                qc.cx(q, q + 1)
        qc.measure_all()
        noise = NoiseModel.depolarizing(p1=0.001, p2=0.008)
        with ExecutionEngine() as engine:
            result = engine.execute(qc, noise, shots=4096, seed=7)
        assert result.method == "stabilizer"
        assert result.counts.shots == 4096
        assert all(0 <= outcome < 2**num_qubits for outcome, _ in result.counts.items())

    def test_ideal_deterministic_outcomes_agree_exactly(self, make_rng):
        # Circuits built only from x/cx keep the state a computational basis
        # state: every measurement is deterministic, so stabilizer counts
        # must put all shots on the density-matrix argmax — exactly.
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
            counts, _ = simulate_stabilizer_trajectories(qc, shots=200, seed=1)
            (outcome, n), = counts.items()
            assert n == 200
            assert exact.get(outcome) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_reproducibility(self, make_rng):
        rng = make_rng(7950)
        circuit = random_clifford_circuit(rng, 3)
        model = random_pauli_noise(rng, 3)
        a, _ = simulate_stabilizer_trajectories(circuit, model, shots=3000, seed=42)
        b, _ = simulate_stabilizer_trajectories(circuit, model, shots=3000, seed=42)
        assert dict(a.items()) == dict(b.items())


class TestCliffordRecognizer:
    def test_accepts_clifford_menu(self):
        qc = QuantumCircuit(2, 2)
        for name in _CLIFFORD_1Q:
            getattr(qc, name)(0)
        qc.cx(0, 1)
        qc.cz(0, 1)
        qc.swap(0, 1)
        qc.rz(np.pi / 2, 0)
        qc.rx(-np.pi, 1)
        qc.ry(3 * np.pi / 2, 0)
        qc.reset(1)
        qc.measure_all()
        assert is_clifford_program(qc)

    def test_accepts_state_preparations(self):
        from repro.circuits.operations import StatePreparation

        qc = QuantumCircuit(2, 2)
        qc.append(StatePreparation("+"), (0,))
        qc.append(StatePreparation("-i"), (1,))
        qc.measure_all()
        assert is_clifford_program(qc)

    @pytest.mark.parametrize("name", _NON_CLIFFORD_1Q)
    def test_rejects_non_clifford_gates(self, name):
        qc = QuantumCircuit(1, 1)
        getattr(qc, name)(0)
        qc.measure(0, 0)
        assert not is_clifford_program(qc)

    def test_rejects_generic_angles(self):
        qc = QuantumCircuit(1, 1)
        qc.rz(0.3, 0)
        qc.measure(0, 0)
        assert not is_clifford_program(qc)

    def test_rejects_non_pauli_noise(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        model = NoiseModel()
        model.set_gate_error("h", amplitude_damping_channel(0.05))
        assert is_clifford_program(qc)  # gates alone are fine
        assert not is_clifford_program(qc, model)

    def test_accepts_pauli_mixture_noise(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        model = NoiseModel()
        model.set_gate_error("h", phase_flip_channel(0.02))
        assert is_clifford_program(qc, model)

    def test_pauli_mixture_extraction(self):
        probabilities, labels, identity_flags = depolarizing_channel(0.1, 1).pauli_mixture()
        assert sorted(labels) == ["I", "X", "Y", "Z"]
        assert identity_flags == [label == "I" for label in labels]
        assert np.isclose(probabilities.sum(), 1.0)
        assert amplitude_damping_channel(0.1).pauli_mixture() is None
        two_qubit = pauli_channel({"XY": 0.05, "ZZ": 0.02}, num_qubits=2)
        _, labels2, _ = two_qubit.pauli_mixture()
        assert set(labels2) == {"II", "XY", "ZZ"}


class TestDetectorFuzz:
    """Random mixed (Clifford + non-Clifford) circuits must never be
    *mis*classified: whenever the detector says Clifford, the stabilizer
    sampler must agree with a dense re-simulation.  (The converse — a missed
    Clifford — costs only speed, never correctness.)"""

    _MIXED = _CLIFFORD_1Q + _NON_CLIFFORD_1Q + ["rz", "ry", "rx"]

    def test_fuzz_classified_clifford_always_agrees_with_dense(self, make_rng):
        rng = make_rng(8000)
        classified_clifford = 0
        for case in range(60):
            # Even cases draw from the full mixed menu (almost surely
            # non-Clifford — exercising the reject path); odd cases restrict
            # to Cliffords + quarter-turn angles so the accept path is
            # exercised deterministically often.
            clifford_only = case % 2 == 1
            menu = _CLIFFORD_1Q + ["rz", "ry", "rx"] if clifford_only else self._MIXED
            num_qubits = int(rng.integers(2, 5))
            qc = QuantumCircuit(num_qubits, num_qubits)
            for _ in range(int(rng.integers(5, 25))):
                if num_qubits >= 2 and rng.random() < 0.3:
                    a, b = rng.choice(num_qubits, size=2, replace=False)
                    getattr(qc, str(rng.choice(_CLIFFORD_2Q)))(int(a), int(b))
                else:
                    name = str(rng.choice(menu))
                    q = int(rng.integers(num_qubits))
                    if name in ("rz", "ry", "rx"):
                        # Mix exact quarter turns with generic angles.
                        if clifford_only or rng.random() < 0.5:
                            angle = float(rng.integers(-4, 5)) * np.pi / 2
                        else:
                            angle = float(rng.uniform(0, 2 * np.pi))
                        getattr(qc, name)(angle, q)
                    else:
                        getattr(qc, name)(q)
            qc.measure_all()
            if not is_clifford_program(qc):
                continue
            classified_clifford += 1
            # Exact check: the sampled support must be the statevector
            # support and uniform on it (Hoeffding at 20000 shots bounds
            # each frequency within 0.02 of its 2**-k value at ~1e-8 per
            # outcome; zero-probability outcomes can never be sampled if
            # the classification is right, so any appearance is a bug).
            exact = ideal_distribution(qc)
            counts, _ = simulate_stabilizer_trajectories(
                qc, shots=20000, seed=int(rng.integers(2**31))
            )
            for outcome, n in counts.items():
                assert exact.get(outcome) > 0.0, (
                    f"stabilizer sampled impossible outcome {outcome}"
                )
                assert abs(n / 20000 - exact.get(outcome)) < 0.02
        # The fuzz must actually exercise the accept path to mean anything
        # (the 30 clifford_only cases guarantee it does).
        assert classified_clifford >= 25

    def test_engine_fallback_counted(self):
        noise = NoiseModel.depolarizing(p1=0.002, p2=0.01)
        clifford = QuantumCircuit(12, 12)
        clifford.h(0)
        for i in range(11):
            clifford.cx(i, i + 1)
        clifford.measure_all()
        non_clifford = QuantumCircuit(12, 12)
        non_clifford.h(0)
        non_clifford.t(0)
        for i in range(11):
            non_clifford.cx(i, i + 1)
        non_clifford.measure_all()
        with ExecutionEngine() as engine:
            fast = engine.execute(clifford, noise, shots=500, seed=3)
            assert fast.method == "stabilizer"
            assert engine.stats.stabilizer_executed == 1
            # Explicit stabilizer request on a non-Clifford program falls
            # back to the dense tier and is *not* counted as stabilizer.
            dense = engine.execute(
                non_clifford, noise, shots=500, seed=3, method="stabilizer"
            )
            assert dense.method == "trajectory"
            assert engine.stats.stabilizer_executed == 1
            assert engine.stats.executed == 2
            # And the fallback shares cache lines with the equivalent dense
            # submission (same resolved key).
            again = engine.execute(non_clifford, noise, shots=500, seed=3)
            assert engine.stats.cache_hits == 1
            assert dict(again.counts.items()) == dict(dense.counts.items())
            snapshot = engine.stats.to_dict()
            assert snapshot["stabilizer_executed"] == 1
            engine.stats.reset()
            assert engine.stats.stabilizer_executed == 0
