"""Tests for the trajectory sampler (:mod:`repro.simulators.ensemble`):
statistical agreement with the exact density-matrix distribution, seeded
reproducibility, the grouped-insertion and general-channel paths, Born
sampling at a general channel site, the trajectory plan, chunking, the
engine rewiring, and a differential check of the row-shared evolution
against the full-batch loop it replaced.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.noise import KrausChannel, NoiseModel, fake_mumbai
from repro.noise.channels import (
    amplitude_damping_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
)
from repro.simulators import (
    ExecutionEngine,
    execute,
    noisy_distribution_density_matrix,
    simulate_trajectories_ensemble,
)
from repro.simulators import ensemble
from repro.simulators.apply import (
    apply_kraus_to_density_matrix,
    apply_matrix_to_density_matrix,
    apply_matrix_to_statevector,
    apply_matrix_to_statevector_batch,
    statevector_probabilities_batch,
)
from repro.simulators.ensemble import (
    _apply_channel_stochastically,
    _evolve_ensemble,
    _sample_outcomes_inverse_cdf,
    _spread,
    _tally,
    _trajectory_plan,
    read_out,
)
from repro.simulators.fusion import choose_fusion_width, fuse_circuit
from repro.simulators.kernels import apply_fused_operation, resolve_backend


def total_variation(distribution, exact, num_bits: int) -> float:
    return 0.5 * sum(
        abs(distribution.get(outcome) - exact.get(outcome))
        for outcome in range(2**num_bits)
    )


def noisy_circuit(num_qubits: int = 4) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    for q in range(num_qubits):
        qc.rz(0.1 * (q + 1), q)
    qc.measure_all()
    return qc


class TestStatisticalAgreement:
    @pytest.mark.parametrize("kernel_backend", ["numpy", "generic"])
    def test_matches_density_matrix_within_tv_bound(self, kernel_backend):
        # Acceptance criterion: a seeded ensemble run matches the exact
        # distribution of a <= 6-qubit noisy circuit within TV 0.05, on the
        # specialized kernel tier and on the generic path alike.
        qc = noisy_circuit(5)
        model = NoiseModel.depolarizing(p1=0.01, p2=0.03, readout=0.02)
        exact, _ = noisy_distribution_density_matrix(qc, model)
        counts, qubits = simulate_trajectories_ensemble(
            qc, model, shots=40000, seed=11, max_trajectories=500,
            kernel_backend=kernel_backend,
        )
        assert qubits == list(range(5))
        # TV tolerance 0.05 over K=32 outcomes, N=40000 shots (plus ~500
        # trajectories of gate-noise sampling): E[TV] <= sqrt((K-1)/(4N))
        # ~= 0.014; McDiarmid tail P(TV >= 0.014 + 0.036) <= exp(-2N*0.036^2)
        # ~= 1e-45, so the slack is dominated by the finite trajectory
        # budget (measured ~0.02).  Failure probability under re-seeding
        # << 1e-3; the pinned seed makes the test deterministic.
        assert total_variation(counts.to_distribution(), exact, 5) <= 0.05

    def test_ideal_model_single_trajectory(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0).cx(0, 1).cx(1, 2)
        qc.measure_all()
        counts, _ = simulate_trajectories_ensemble(qc, None, shots=4000, seed=1)
        dist = counts.to_distribution()
        assert dist[0b000] == pytest.approx(0.5, abs=0.05)
        assert dist[0b111] == pytest.approx(0.5, abs=0.05)

    def test_general_channel_fallback(self):
        # Amplitude damping is not a unitary mixture; the affected sites pay
        # the per-trajectory Born-sampling cost but must still agree.
        model = NoiseModel()
        model.set_default_1q_error(amplitude_damping_channel(0.3))
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        exact, _ = noisy_distribution_density_matrix(qc, model)
        counts, _ = simulate_trajectories_ensemble(
            qc, model, shots=20000, seed=9, max_trajectories=500
        )
        sampled = counts.to_distribution()
        assert sampled[0] == pytest.approx(exact[0], abs=0.03)
        assert sampled[1] == pytest.approx(exact[1], abs=0.03)

    def test_readout_confusion_applied(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        model = NoiseModel.depolarizing(readout=0.25)
        counts, _ = simulate_trajectories_ensemble(qc, model, shots=20000, seed=3)
        assert counts[1] / counts.shots == pytest.approx(0.25, abs=0.02)

    def test_measured_subset_ordering(self):
        qc = noisy_circuit(4).remove_final_measurements()
        qc.measure_subset([2])
        model = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        counts, qubits = simulate_trajectories_ensemble(qc, model, shots=2000, seed=5)
        assert qubits == [2]
        assert counts.num_bits == 1


class TestReproducibilityAndPlumbing:
    def test_seed_reproducible(self):
        qc = noisy_circuit(4)
        model = NoiseModel.depolarizing(p1=0.01, p2=0.03, readout=0.02)
        a, _ = simulate_trajectories_ensemble(qc, model, shots=3000, seed=21)
        b, _ = simulate_trajectories_ensemble(qc, model, shots=3000, seed=21)
        assert a.to_dict() == b.to_dict()

    def test_shot_budget_exact(self):
        qc = noisy_circuit(3)
        model = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        counts, _ = simulate_trajectories_ensemble(
            qc, model, shots=1234, seed=2, max_trajectories=100
        )
        assert counts.shots == 1234

    def test_invalid_shots(self):
        with pytest.raises(ValueError, match="shots"):
            simulate_trajectories_ensemble(noisy_circuit(2), None, shots=0)

    def test_chunked_execution_statistics(self):
        # A tiny per-chunk amplitude budget forces many chunks; statistics
        # and reproducibility must be unaffected.
        qc = noisy_circuit(4)
        model = NoiseModel.depolarizing(p1=0.01, p2=0.03)
        exact, _ = noisy_distribution_density_matrix(qc, model)
        kwargs = dict(shots=30000, seed=7, max_trajectories=300, max_batch_elements=256)
        counts, _ = simulate_trajectories_ensemble(qc, model, **kwargs)
        again, _ = simulate_trajectories_ensemble(qc, model, **kwargs)
        assert counts.to_dict() == again.to_dict()
        # Same TV-0.05 budget as above with K=16, N=30000: E[TV] ~= 0.011,
        # tail negligible; failure probability under re-seeding << 1e-3.
        assert total_variation(counts.to_distribution(), exact, 4) <= 0.05

    def test_inverse_cdf_sampler_deterministic_rows(self, make_rng):
        probs = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        )
        shots = np.array([5, 4, 3])
        rng = make_rng(0)
        outcomes = _sample_outcomes_inverse_cdf(probs, shots, rng)
        assert outcomes.tolist() == [0] * 5 + [2] * 4 + [1] * 3

    def test_inverse_cdf_sampler_distribution(self, make_rng):
        probs = np.array([[0.25, 0.75], [0.5, 0.5]])
        shots = np.array([40000, 40000])
        rng = make_rng(12)
        outcomes = _sample_outcomes_inverse_cdf(probs, shots, rng)
        first = outcomes[:40000]
        second = outcomes[40000:]
        # Hoeffding per row: P(|mean - p| >= 0.01) <= 2 exp(-2 * 40000 * 1e-4)
        # ~= 6.7e-4 under re-seeding; the pinned seed makes it deterministic.
        assert first.mean() == pytest.approx(0.75, abs=0.01)
        assert second.mean() == pytest.approx(0.5, abs=0.01)

    def test_inverse_cdf_sampler_zero_shot_rows(self, make_rng):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        shots = np.array([0, 3])
        rng = make_rng(1)
        assert _sample_outcomes_inverse_cdf(probs, shots, rng).tolist() == [1, 1, 1]


class TestEngineRewiring:
    def wide_noisy_circuit(self) -> QuantumCircuit:
        qc = QuantumCircuit(12, 12)
        for q in range(12):
            qc.h(q)
        for q in range(11):
            qc.cx(q, q + 1)
        qc.t(0)
        qc.measure_all()
        return qc

    def test_execute_trajectory_method_uses_ensemble(self):
        qc = noisy_circuit(3)
        model = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        direct, qubits = simulate_trajectories_ensemble(
            qc, model, shots=500, seed=13, max_trajectories=600
        )
        via_execute = execute(qc, model, shots=500, seed=13, method="trajectory")
        assert via_execute.method == "trajectory"
        assert via_execute.measured_qubits == qubits
        assert via_execute.counts.to_dict() == direct.to_dict()

    def test_kernel_backend_is_part_of_the_trajectory_cache_key(self, tmp_path):
        # The kernel tiers agree only to a few ulp, enough to flip a sampled
        # outcome near a CDF boundary, so engines on different tiers must
        # not serve each other's trajectory results.
        qc = self.wide_noisy_circuit()
        model = NoiseModel.depolarizing(p1=0.005, p2=0.02)
        ExecutionEngine(cache_dir=str(tmp_path)).execute(qc, model, shots=300, seed=5)
        generic = ExecutionEngine(cache_dir=str(tmp_path), kernel_backend="generic")
        assert generic.execute(qc, model, shots=300, seed=5).method == "trajectory"
        assert generic.stats.executed == 1
        assert generic.stats.persistent_hits == 0
        warm = ExecutionEngine(cache_dir=str(tmp_path))
        warm.execute(qc, model, shots=300, seed=5)
        assert warm.stats.executed == 0
        assert warm.stats.persistent_hits == 1

    def test_exact_methods_share_cache_lines_across_kernel_backends(self, tmp_path):
        # A density-matrix result key omits the kernel tier (its dm-state
        # key carries it instead), so a result written by one tier serves
        # an engine on the other.
        qc = noisy_circuit(3)
        model = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        a = ExecutionEngine(cache_dir=str(tmp_path)).execute(qc, model)
        generic = ExecutionEngine(cache_dir=str(tmp_path), kernel_backend="generic")
        b = generic.execute(qc, model)
        assert a.method == b.method == "density_matrix"
        assert generic.stats.executed == 0
        assert generic.stats.persistent_hits == 1

    def test_engine_trajectory_reproducible(self):
        qc = self.wide_noisy_circuit()
        model = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
        a = ExecutionEngine().execute(qc, model, shots=300, seed=5)
        b = ExecutionEngine().execute(qc, model, shots=300, seed=5)
        assert a.method == "trajectory"
        assert a.counts.to_dict() == b.counts.to_dict()


def _full_batch_evolve(program, batch, num_qubits, rng, backend):
    """Reference: the full-batch loop, one ``(batch, 2**n)`` row per
    trajectory from the start and each insertion applied to the fancy-indexed
    trajectories that drew it."""
    states = np.zeros((batch, 2**num_qubits), dtype=complex)
    states[:, 0] = 1.0
    for op in program.operations:
        states = apply_fused_operation(
            states, op.kernel, op.matrix, op.qubits, num_qubits,
            backend=backend, inplace=True,
        )
        for channel, qubits in op.sites:
            mixture = channel.unitary_mixture()
            if mixture is None:
                for t in range(batch):
                    states[t] = _apply_channel_stochastically(
                        states[t], channel.operators, qubits, num_qubits, rng
                    )
                continue
            probabilities, unitaries, identity_flags = mixture
            indices = rng.choice(len(unitaries), size=batch, p=probabilities)
            for index in np.unique(indices):
                if identity_flags[index]:
                    continue
                selected = np.nonzero(indices == index)[0]
                states[selected] = apply_matrix_to_statevector_batch(
                    states[selected], unitaries[index], qubits, num_qubits
                )
    return states


def _full_batch_run(circuit, noise, shots, seed, rng, max_trajectories, max_batch_elements, backend):
    """Reference sampler over :func:`_full_batch_evolve`: the counts and the
    per-chunk trajectory states.  ``rng`` is the generator the sampler would
    build from ``seed``; the readout tail keys on ``seed`` itself."""
    measured = circuit.measurement_layout()
    num_trajectories, shots_per_trajectory = _trajectory_plan(shots, noise, max_trajectories)
    shots_per_trajectory = np.asarray(shots_per_trajectory)
    num_qubits = circuit.num_qubits
    width = choose_fusion_width(num_qubits, num_trajectories)
    program = fuse_circuit(circuit, noise, max_qubits=width)
    chunk_size = max(1, min(num_trajectories, max_batch_elements // 2**num_qubits))
    outcomes, chunk_states = [], []
    for start in range(0, num_trajectories, chunk_size):
        chunk_shots = shots_per_trajectory[start : start + chunk_size]
        states = _full_batch_evolve(
            program, len(chunk_shots), num_qubits, rng, resolve_backend(backend)
        )
        chunk_states.append(states)
        probs = statevector_probabilities_batch(states, measured, num_qubits)
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        outcomes.append(_sample_outcomes_inverse_cdf(probs, chunk_shots, rng))
    counts = read_out(_tally(outcomes, len(measured)), noise, measured, seed)
    return counts, chunk_states


def _damping_on_rz() -> NoiseModel:
    # Depolarizing h/cx sites split the rows before the first amplitude
    # damping site (on rz) expands them to one row per trajectory.
    model = NoiseModel.depolarizing(p1=0.02, p2=0.05)
    model.set_gate_error("rz", amplitude_damping_channel(0.2))
    return model


DIFFERENTIAL_NOISE = {
    "light": lambda: NoiseModel.depolarizing(p1=0.001, p2=0.01, readout=0.02),
    "heavy": lambda: NoiseModel.depolarizing(p1=0.05, p2=0.2),
    "damping": _damping_on_rz,
}


class TestRowSharedEvolution:
    """The ensemble keeps one row per distinct noise history; its draws,
    per-trajectory states and counts must equal the full-batch loop's."""

    @pytest.mark.parametrize("backend", ["numpy", "generic"])
    @pytest.mark.parametrize("max_batch_elements", [ensemble.DEFAULT_MAX_BATCH_ELEMENTS, 256])
    @pytest.mark.parametrize("noise", sorted(DIFFERENTIAL_NOISE))
    @pytest.mark.parametrize("seed", [4, 31])
    def test_matches_full_batch_loop(
        self, monkeypatch, make_rng, noise, max_batch_elements, backend, seed
    ):
        circuit = noisy_circuit(4)
        model = DIFFERENTIAL_NOISE[noise]()
        evolved = []

        def recording_evolve(*args):
            states, row = _evolve_ensemble(*args)
            # Every row carries at least one trajectory: no dead rows.
            assert np.array_equal(np.unique(row), np.arange(len(states)))
            evolved.append(states[row])
            return states, row

        monkeypatch.setattr(ensemble, "_evolve_ensemble", recording_evolve)
        counts, _ = simulate_trajectories_ensemble(
            circuit, model, shots=900, seed=seed, max_trajectories=120,
            max_batch_elements=max_batch_elements, kernel_backend=backend,
        )
        expected_counts, expected_states = _full_batch_run(
            circuit, model, 900, seed, make_rng(seed), 120, max_batch_elements, backend
        )
        assert counts.to_dict() == expected_counts.to_dict()
        # 256 amplitudes hold 16 four-qubit trajectories: 8 chunks of 120.
        assert len(evolved) == len(expected_states)
        assert len(evolved) == (1 if max_batch_elements > 120 * 16 else 8)
        for got, want in zip(evolved, expected_states):
            assert np.array_equal(got, want)

    def _rows(self, model, rng, trajectories=300):
        circuit = noisy_circuit(5)
        program = fuse_circuit(circuit, model, max_qubits=choose_fusion_width(5, trajectories))
        return _evolve_ensemble(program, trajectories, 5, rng)

    def test_light_noise_keeps_few_rows(self, make_rng):
        # 14 sites with non-identity probability 0.00075 (1q) or 0.0094
        # (2q) give about 0.045 insertions per trajectory, so 300
        # trajectories hold about 14 insertions and at most one row per
        # insertion plus the error-free row; 30 rows would be a Poisson(14)
        # tail of about 1e-4, and the pinned seed makes it deterministic.
        states, row = self._rows(NoiseModel.depolarizing(p1=0.001, p2=0.01), make_rng(8))
        assert len(row) == 300
        assert 1 < len(states) < 30
        assert np.array_equal(np.unique(row), np.arange(len(states)))

    def test_one_row_when_no_site_fires(self, make_rng):
        model = NoiseModel.depolarizing(p1=1e-12, p2=1e-12)
        assert model.has_gate_errors
        states, row = self._rows(model, make_rng(8))
        assert states.shape == (1, 2**5)
        assert not row.any()


class TestTrajectoryBudgetValidation:
    @pytest.mark.parametrize("budget", [0, -1])
    def test_ensemble_rejects_non_positive_budget(self, budget):
        model = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        with pytest.raises(ValueError, match="max_trajectories must be positive"):
            simulate_trajectories_ensemble(
                noisy_circuit(2), model, shots=100, seed=1, max_trajectories=budget
            )

    def test_execute_rejects_zero_budget(self):
        model = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        with pytest.raises(ValueError, match="max_trajectories must be positive"):
            execute(noisy_circuit(2), model, shots=100, seed=1, method="trajectory",
                    max_trajectories=0)


class TestTrajectoryPlan:
    """How the sampler splits its shots over noise realisations."""

    @pytest.mark.parametrize(
        "total, parts",
        [(1, 1), (5, 1), (7, 7), (10, 3), (600, 600), (601, 600), (1024, 60), (4096, 600)],
    )
    def test_spread_is_an_even_split(self, total, parts):
        split = _spread(total, parts)
        assert len(split) == parts
        assert sum(split) == total
        # The remainder goes one shot each to the first trajectories.
        assert split == sorted(split, reverse=True)
        assert min(split) == total // parts
        assert max(split) - min(split) <= 1

    @pytest.mark.parametrize("shots, budget", [(1, 600), (100, 600), (1024, 60), (4096, 600)])
    @pytest.mark.parametrize("noise", ["ideal", "readout_only", "gate"])
    def test_plan_counts_trajectories_and_splits_shots(self, noise, shots, budget):
        model = {
            "ideal": NoiseModel.ideal,
            "readout_only": lambda: NoiseModel.depolarizing(readout=0.05),
            "gate": lambda: NoiseModel.depolarizing(p1=0.01),
        }[noise]()
        num_trajectories, shots_per_trajectory = _trajectory_plan(shots, model, budget)
        # Without gate errors every trajectory is the same state, so one
        # suffices; readout is drawn after sampling and needs none.
        expected = min(shots, budget) if noise == "gate" else 1
        assert num_trajectories == expected
        assert shots_per_trajectory == _spread(shots, expected)
        assert min(shots_per_trajectory) >= 1


def _random_channel(rng, num_qubits: int, num_operators: int) -> KrausChannel:
    """A random trace-preserving channel: the blocks of a random isometry."""
    dim = 2**num_qubits
    block = rng.normal(size=(num_operators * dim, dim)) + 1j * rng.normal(
        size=(num_operators * dim, dim)
    )
    isometry, _ = np.linalg.qr(block)
    return KrausChannel([isometry[k * dim : (k + 1) * dim] for k in range(num_operators)])


def _mumbai_channel(num_qubits: int) -> KrausChannel:
    model = fake_mumbai().noise_model_for_assignment({0: 0, 1: 1})
    gate = QuantumCircuit(2)
    if num_qubits == 1:
        gate.sx(0)
    else:
        gate.cx(0, 1)
    ((channel, _),) = model.channels_for(gate.data[0])
    return channel


BORN_CHANNELS = {
    "amplitude_damping": lambda rng: amplitude_damping_channel(0.3),
    "phase_damping": lambda rng: phase_damping_channel(0.4),
    "thermal_relaxation": lambda rng: thermal_relaxation_channel(50.0, 70.0, 30.0),
    "mumbai_1q": lambda rng: _mumbai_channel(1),
    "mumbai_2q": lambda rng: _mumbai_channel(2),
    "random_2q": lambda rng: _random_channel(rng, 2, 3),
}


class TestBornSampling:
    """A general channel site draws Kraus operator ``K`` with the Born
    weight ``<psi|K^dagger K|psi>``: the trace of ``K rho K^dagger``, that
    operator's term of the density matrix's Kraus sum."""

    @pytest.mark.parametrize(
        "name, qubits",
        [
            ("amplitude_damping", (0,)),
            ("amplitude_damping", (2,)),
            ("phase_damping", (1,)),
            ("thermal_relaxation", (2,)),
            ("mumbai_1q", (1,)),
            ("mumbai_2q", (0, 2)),
            ("mumbai_2q", (2, 1)),
            ("random_2q", (1, 0)),
        ],
    )
    def test_draw_frequencies_match_the_kraus_weights(self, make_rng, name, qubits):
        num_qubits, draws = 3, 6000
        rng = make_rng(sum(map(ord, name)) + 10 * qubits[0])
        channel = BORN_CHANNELS[name](rng)
        psi = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        weights = np.array([
            np.trace(apply_matrix_to_density_matrix(rho, op, qubits, num_qubits)).real
            for op in channel.operators
        ])
        assert weights.sum() == pytest.approx(1.0)
        # Operators with parallel images of psi are one outcome: their
        # weights add up.
        images = [apply_matrix_to_statevector(psi, op, qubits, num_qubits) for op in channel.operators]
        branches: list[tuple[np.ndarray, float]] = []
        for image, weight in zip(images, weights):
            if weight < 1e-12:
                continue
            image = image / np.linalg.norm(image)
            for index, (other, total) in enumerate(branches):
                if abs(np.vdot(other, image)) ** 2 > 1 - 1e-9:
                    branches[index] = (other, total + weight)
                    break
            else:
                branches.append((image, weight))

        states = np.array([
            _apply_channel_stochastically(psi, channel.operators, qubits, num_qubits, rng)
            for _ in range(draws)
        ])
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0)
        overlaps = np.abs(states @ np.array([image for image, _ in branches]).conj().T) ** 2
        # Every draw lands exactly on one operator's image of psi.
        assert (overlaps.max(axis=1) > 1 - 1e-9).all()
        counts = np.bincount(overlaps.argmax(axis=1), minlength=len(branches))
        # Hoeffding per branch: P(|freq - w| >= 0.03) <= 2 exp(-2 * 6000 *
        # 0.03^2) ~= 4e-5, so even 16 branches fail together with
        # probability below 1e-3 under re-seeding.
        for (_, weight), count in zip(branches, counts):
            assert count / draws == pytest.approx(weight, abs=0.03)
        # The average post-draw state is the channel's output on the
        # density matrix.  Each entry of |psi'><psi'| has real and imaginary
        # parts in [-1, 1]: Hoeffding gives P(dev >= 0.07) <= 2 exp(-6000 *
        # 0.07^2 / 2) ~= 8e-7 per part, 128 parts together below 1e-4.
        mean = states.T @ states.conj() / draws
        exact = apply_kraus_to_density_matrix(rho, channel.superoperator(), qubits, num_qubits)
        assert np.abs((mean - exact).real).max() < 0.07
        assert np.abs((mean - exact).imag).max() < 0.07

    def test_single_operator_applies_without_a_draw(self, make_rng):
        # A one-operator channel has nothing to sample: the operator is
        # applied, the state renormalised, and the generator left untouched.
        rng = make_rng(3)
        psi = np.full(8, 1 / np.sqrt(8), dtype=complex)
        operator = np.diag([1.0, np.exp(0.7j)])
        state = _apply_channel_stochastically(psi, [operator], (1,), 3, rng)
        assert np.allclose(state, apply_matrix_to_statevector(psi, operator, (1,), 3))
        assert rng.bit_generator.state == make_rng(3).bit_generator.state
