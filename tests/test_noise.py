"""Tests for noise channels, readout errors, noise models and devices."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms import iqft_benchmark_circuit
from repro.circuits import Instruction, QuantumCircuit, standard_gate
from repro.core import QuTracer, virtual_pauli_check
from repro.mitigation import PauliCheck, run_jigsaw, run_pcs
from repro.noise import (
    DeviceModel,
    EdgeCalibration,
    KrausChannel,
    NoiseModel,
    QubitCalibration,
    ReadoutError,
    as_noise_model,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    depolarizing_from_average_infidelity,
    fake_cusco,
    fake_device,
    fake_hanoi,
    fake_kyoto,
    fake_mumbai,
    falcon_27_coupling,
    heavy_hex_coupling,
    identity_channel,
    linear_coupling,
    pauli_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
)
from repro.simulators import ExecutionEngine
from repro.transpiler import CouplingMap


def _maximally_mixed(n=1):
    return np.eye(2**n) / 2**n


class TestKrausChannel:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError):
            KrausChannel([np.array([[0.5, 0], [0, 0.5]])])

    def test_identity_channel(self):
        channel = identity_channel(1)
        assert channel.is_identity()
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        assert np.allclose(channel.apply_to_density_matrix(rho), rho)

    def test_depolarizing_moves_towards_mixed(self):
        channel = depolarizing_channel(1.0, 1)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.allclose(channel.apply_to_density_matrix(rho), _maximally_mixed())

    def test_depolarizing_partial(self):
        p = 0.2
        channel = depolarizing_channel(p, 1)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        expected = (1 - p) * rho + p * _maximally_mixed()
        assert np.allclose(channel.apply_to_density_matrix(rho), expected)

    def test_depolarizing_two_qubit_dimensions(self):
        channel = depolarizing_channel(0.1, 2)
        assert channel.num_qubits == 2
        assert len(channel.operators) == 16

    def test_bit_flip_channel(self):
        channel = bit_flip_channel(0.25)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        out = channel.apply_to_density_matrix(rho)
        assert out[1, 1] == pytest.approx(0.25)

    def test_phase_flip_kills_coherence(self):
        channel = phase_flip_channel(0.5)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = channel.apply_to_density_matrix(rho)
        assert abs(out[0, 1]) == pytest.approx(0.0)

    def test_pauli_channel_probability_validation(self):
        with pytest.raises(ValueError):
            pauli_channel({"X": 0.7, "Z": 0.5})
        with pytest.raises(ValueError):
            pauli_channel({"XY": 0.1}, num_qubits=1)
        with pytest.raises(ValueError):
            pauli_channel({"X": -0.1})

    def test_amplitude_damping_decays_excited_state(self):
        channel = amplitude_damping_channel(0.3)
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        out = channel.apply_to_density_matrix(rho)
        assert out[0, 0] == pytest.approx(0.3)
        assert out[1, 1] == pytest.approx(0.7)

    def test_phase_damping_preserves_populations(self):
        channel = phase_damping_channel(0.4)
        rho = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
        out = channel.apply_to_density_matrix(rho)
        assert out[0, 0] == pytest.approx(0.6)
        assert abs(out[0, 1]) < 0.3

    def test_thermal_relaxation_limits(self):
        channel = thermal_relaxation_channel(t1=100.0, t2=150.0, gate_time=50.0)
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        out = channel.apply_to_density_matrix(rho)
        assert out[0, 0] == pytest.approx(1 - np.exp(-0.5), rel=1e-6)

    def test_thermal_relaxation_zero_time_is_identity(self):
        assert thermal_relaxation_channel(100.0, 100.0, 0.0).is_identity()

    def test_thermal_relaxation_validation(self):
        with pytest.raises(ValueError):
            thermal_relaxation_channel(-1, 10, 1)
        with pytest.raises(ValueError):
            thermal_relaxation_channel(10, 30, 1)  # t2 > 2 t1

    def test_compose_and_reduce(self):
        a = depolarizing_channel(0.1, 1)
        b = amplitude_damping_channel(0.2)
        composed = a.compose(b)
        reduced = composed.reduced()
        assert len(reduced.operators) <= 4
        rho = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
        assert np.allclose(
            composed.apply_to_density_matrix(rho), reduced.apply_to_density_matrix(rho)
        )

    def test_tensor_acts_on_correct_qubits(self):
        # bit flip on low qubit, identity on high qubit
        channel = bit_flip_channel(1.0).tensor(identity_channel(1))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        out = channel.apply_to_density_matrix(rho)
        assert out[0b01, 0b01] == pytest.approx(1.0)

    def test_average_gate_fidelity(self):
        assert identity_channel().average_gate_fidelity() == pytest.approx(1.0)
        assert depolarizing_channel(1.0, 1).average_gate_fidelity() == pytest.approx(0.5)

    def test_channel_width_checks(self):
        with pytest.raises(ValueError):
            KrausChannel([np.eye(3)])
        with pytest.raises(ValueError):
            depolarizing_channel(1.5, 1)


# One instance of every channel constructor, on one and two qubits, and a
# channel given by complex Kraus operators (a mixture with the S gate).
_CHANNELS = {
    "s_mixture": lambda: KrausChannel(
        [np.sqrt(0.8) * np.eye(2), np.sqrt(0.2) * np.diag([1, 1j])], name="s_mixture"
    ),
    "depolarizing_1q": lambda: depolarizing_channel(0.07, 1),
    "depolarizing_2q": lambda: depolarizing_channel(0.05, 2),
    "bit_flip": lambda: bit_flip_channel(0.1),
    "phase_flip": lambda: phase_flip_channel(0.2),
    "pauli_1q": lambda: pauli_channel({"X": 0.01, "Y": 0.02, "Z": 0.03}),
    "pauli_2q": lambda: pauli_channel({"XY": 0.05, "ZZ": 0.02}, num_qubits=2),
    "amplitude_damping": lambda: amplitude_damping_channel(0.3),
    "phase_damping": lambda: phase_damping_channel(0.4),
    "thermal_relaxation": lambda: thermal_relaxation_channel(50.0, 70.0, 10.0),
}
# Unitary mixtures: every Kraus operator is a scaled unitary.
_UNITARY_MIXTURES = [
    "depolarizing_1q", "depolarizing_2q", "bit_flip", "phase_flip", "pauli_1q", "pauli_2q",
    "s_mixture",
]
_ONE_QUBIT_CHANNELS = [name for name in sorted(_CHANNELS) if _CHANNELS[name]().num_qubits == 1]


def _random_density_matrix(rng, num_qubits):
    dim = 2**num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _assert_is_state(rho):
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


class TestChannelProperties:
    """Every constructor builds a CPTP map whose Kraus, Liouville, reduced
    and unitary-mixture forms are one and the same map."""

    @pytest.mark.parametrize("name", sorted(_CHANNELS))
    def test_kraus_superoperator_and_reduced_forms_agree(self, name, make_rng):
        channel = _CHANNELS[name]()
        rho = _random_density_matrix(make_rng(50), channel.num_qubits)
        out = channel.apply_to_density_matrix(rho)
        _assert_is_state(out)
        # Row-major vectorisation, the convention of the density-matrix kernels.
        via_liouville = (channel.superoperator() @ rho.reshape(-1)).reshape(rho.shape)
        assert np.allclose(via_liouville, out, atol=1e-12)
        reduced = channel.reduced()
        assert len(reduced.operators) <= channel.dim**2
        assert np.allclose(reduced.apply_to_density_matrix(rho), out, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(_CHANNELS))
    def test_completely_positive_on_an_entangled_input(self, name):
        # The channel on the low qubits of a maximally entangled state, the
        # identity on as many reference qubits above them: the output is a
        # state (the normalised Choi matrix), the reference keeps I/d, and
        # the system half is the channel applied to I/d.
        channel = _CHANNELS[name]()
        dim = channel.dim
        phi = np.eye(dim).reshape(-1) / np.sqrt(dim)
        extended = channel.tensor(identity_channel(channel.num_qubits))
        out = extended.apply_to_density_matrix(np.outer(phi, phi.conj()))
        _assert_is_state(out)
        blocks = out.reshape(dim, dim, dim, dim)  # (ref, sys, ref', sys')
        assert np.allclose(np.einsum("ijkj->ik", blocks), np.eye(dim) / dim, atol=1e-12)
        assert np.allclose(
            np.einsum("ijil->jl", blocks),
            channel.apply_to_density_matrix(np.eye(dim) / dim),
            atol=1e-12,
        )

    @pytest.mark.parametrize("name", _ONE_QUBIT_CHANNELS)
    def test_average_gate_fidelity_matches_the_pauli_eigenstate_average(self, name):
        # The six Pauli eigenstates form a one-qubit 2-design, so their
        # mean fidelity is the average gate fidelity exactly.
        channel = _CHANNELS[name]()
        s = 1 / np.sqrt(2)
        states = [
            np.array(v, dtype=complex)
            for v in ([1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s])
        ]
        mean = np.mean(
            [
                np.real(psi.conj() @ channel.apply_to_density_matrix(np.outer(psi, psi.conj())) @ psi)
                for psi in states
            ]
        )
        assert channel.average_gate_fidelity() == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize("name", _UNITARY_MIXTURES)
    def test_unitary_mixture_reproduces_the_channel(self, name, make_rng):
        # The trajectory samplers pre-draw operator indices from this
        # decomposition, so it has to be the channel itself.
        channel = _CHANNELS[name]()
        probabilities, unitaries, identity_flags = channel.unitary_mixture()
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probabilities > 0).all()
        rho = _random_density_matrix(make_rng(51), channel.num_qubits)
        mixed = sum(p * u @ rho @ u.conj().T for p, u in zip(probabilities, unitaries))
        assert np.allclose(mixed, channel.apply_to_density_matrix(rho), atol=1e-12)
        identity = np.eye(channel.dim)
        for unitary, flag in zip(unitaries, identity_flags):
            assert np.allclose(unitary.conj().T @ unitary, identity, atol=1e-10)
            assert flag == np.allclose(unitary, unitary[0, 0] * identity)
        assert sum(identity_flags) == 1

    @pytest.mark.parametrize("name", ["amplitude_damping", "thermal_relaxation"])
    def test_relaxation_has_no_unitary_mixture(self, name):
        # A mixture of unitaries fixes I/2; relaxation moves it towards |0>.
        channel = _CHANNELS[name]()
        assert not np.allclose(channel.apply_to_density_matrix(np.eye(2) / 2), np.eye(2) / 2)
        assert channel.unitary_mixture() is None

    @pytest.mark.parametrize("num_qubits", [1, 2])
    @pytest.mark.parametrize("error", [1e-4, 3e-3, 5e-2])
    def test_depolarizing_parameter_round_trips_average_infidelity(self, error, num_qubits):
        # Device gate channels take their depolarizing part from the
        # calibrated error; the channel must give that error back.
        channel = depolarizing_channel(
            depolarizing_from_average_infidelity(error, num_qubits), num_qubits
        )
        assert 1.0 - channel.average_gate_fidelity() == pytest.approx(error, rel=1e-9)


class TestReadoutError:
    def test_confusion_matrix(self):
        error = ReadoutError(0.1, 0.2)
        matrix = error.confusion_matrix
        assert matrix[1, 0] == pytest.approx(0.1)
        assert matrix[0, 1] == pytest.approx(0.2)
        assert np.allclose(matrix.sum(axis=0), [1, 1])

    def test_symmetric_default(self):
        error = ReadoutError(0.05)
        assert error.prob_0_given_1 == pytest.approx(0.05)
        assert error.average_error == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutError(1.2)


class TestNoiseModel:
    def test_ideal_model(self):
        model = NoiseModel.ideal()
        assert model.is_ideal
        inst = Instruction(standard_gate("cx"), (0, 1))
        assert model.channels_for(inst) == []
        assert model.readout_error(0) is None

    def test_depolarizing_constructor(self):
        model = NoiseModel.depolarizing(p1=0.001, p2=0.01, readout=0.05)
        one_q = model.channels_for(Instruction(standard_gate("h"), (0,)))
        two_q = model.channels_for(Instruction(standard_gate("cz"), (0, 1)))
        assert len(one_q) == 1 and one_q[0][1] == (0,)
        assert len(two_q) == 1 and two_q[0][1] == (0, 1)
        assert model.readout_error(3).average_error == pytest.approx(0.05)

    def test_per_qubit_readout_mapping(self):
        model = NoiseModel.depolarizing(readout={0: 0.1, 2: 0.3})
        assert model.readout_error(0).average_error == pytest.approx(0.1)
        assert model.readout_error(1) is None
        assert model.readout_error(2).average_error == pytest.approx(0.3)

    def test_per_qubit_and_per_pair_overrides(self):
        model = NoiseModel()
        model.set_default_1q_error(depolarizing_channel(0.001, 1))
        model.set_qubit_error(2, depolarizing_channel(0.05, 1))
        model.set_pair_error((0, 1), depolarizing_channel(0.1, 2))
        default = model.channels_for(Instruction(standard_gate("h"), (0,)))
        override = model.channels_for(Instruction(standard_gate("h"), (2,)))
        assert default[0][0].name != override[0][0].name or default[0][0] is not override[0][0]
        pair = model.channels_for(Instruction(standard_gate("cx"), (1, 0)))
        assert pair[0][1] == (1, 0)

    def test_gate_name_override(self):
        model = NoiseModel.depolarizing(p1=0.01)
        model.set_gate_error("x", depolarizing_channel(0.2, 1))
        x_channels = model.channels_for(Instruction(standard_gate("x"), (0,)))
        assert "0.2" in x_channels[0][0].name

    def test_noise_free_gate_names(self):
        model = NoiseModel.depolarizing(p1=0.01)
        model.add_noise_free_gate("h")
        assert model.channels_for(Instruction(standard_gate("h"), (0,))) == []
        assert model.channels_for(Instruction(standard_gate("x"), (0,))) != []

    def test_with_perfect_qubits(self):
        model = NoiseModel.depolarizing(p1=0.01, p2=0.05, readout=0.1)
        perfect = model.with_perfect_qubits([3])
        assert perfect.channels_for(Instruction(standard_gate("cx"), (3, 1))) == []
        assert perfect.channels_for(Instruction(standard_gate("cx"), (0, 1))) != []
        assert perfect.readout_error(3) is None
        assert perfect.readout_error(0) is not None
        # original untouched
        assert model.channels_for(Instruction(standard_gate("cx"), (3, 1))) != []

    def test_add_noise_free_qubits_bumps_version(self):
        model = NoiseModel.depolarizing(p1=0.01, readout=0.1)
        version = model.version
        model.add_noise_free_qubits(2)
        assert model.version > version
        assert model.readout_error(2) is None
        version = model.version
        model.add_noise_free_qubits([0, 1])
        assert model.version > version
        assert model.noise_free_qubits == frozenset({0, 1, 2})

    def test_noise_free_sets_are_read_only_views(self):
        model = NoiseModel.depolarizing(p1=0.01)
        with pytest.raises(AttributeError):
            model.noise_free_qubits.add(0)
        with pytest.raises(AttributeError):
            model.noise_free_gate_names.add("h")

    def test_without_readout_errors(self):
        model = NoiseModel.depolarizing(p1=0.01, p2=0.05, readout=0.1)
        assert model.without_readout_errors().readout_error(0) is None

    def test_with_readout_scaled(self):
        model = NoiseModel.depolarizing(readout=0.1)
        scaled = model.with_readout_scaled(2.0)
        assert scaled.readout_error(0).average_error == pytest.approx(0.2)

    def test_three_qubit_gate_noise_decomposition(self):
        model = NoiseModel.depolarizing(p1=0.001, p2=0.01)
        channels = model.channels_for(Instruction(standard_gate("ccx"), (0, 1, 2)))
        widths = sorted(len(q) for _, q in channels)
        assert widths == [1, 1, 1, 2, 2]

    def test_1q_channel_width_validation(self):
        model = NoiseModel()
        with pytest.raises(ValueError):
            model.set_default_1q_error(depolarizing_channel(0.1, 2))
        with pytest.raises(ValueError):
            model.set_pair_error((0,), depolarizing_channel(0.1, 1))


class TestDeviceModels:
    def test_coupling_maps(self):
        assert len(linear_coupling(5)) == 4
        falcon = falcon_27_coupling()
        assert max(max(e) for e in falcon) == 26
        eagle = heavy_hex_coupling()
        assert max(max(e) for e in eagle) + 1 == 127

    def test_fake_mumbai_matches_paper_medians(self):
        device = fake_mumbai()
        assert device.num_qubits == 27
        assert device.median_cx_error() == pytest.approx(7.611e-3, rel=0.5)
        assert device.median_readout_error() == pytest.approx(1.81e-2, rel=0.6)
        assert device.median_t1() == pytest.approx(125.94e3, rel=0.5)

    def test_devices_are_deterministic(self):
        a = fake_hanoi()
        b = fake_hanoi()
        assert a.qubit_calibrations[5] == b.qubit_calibrations[5]

    def test_eagle_devices_have_127_qubits(self):
        assert fake_kyoto().num_qubits == 127
        assert fake_cusco().num_qubits == 127

    def test_unknown_device_raises(self):
        with pytest.raises(ValueError):
            fake_device("osaka")

    def test_noise_model_has_pair_and_qubit_channels(self):
        device = fake_hanoi()
        model = device.noise_model()
        edge = device.coupling_edges[0]
        channels = model.channels_for(Instruction(standard_gate("cx"), edge))
        assert channels and channels[0][0].num_qubits == 2
        readout = model.readout_error(0)
        assert readout is not None and readout.average_error > 0

    def test_assignment_models_share_memoised_channels(self):
        # The channel builders are memoised on the calibration records, so a
        # repeated assignment reuses the channel objects (and with them each
        # channel's memoised superoperator) and fingerprints identically.
        device = fake_mumbai()
        assignment = {0: 4, 1: 7, 2: 10}
        first = device.noise_model_for_assignment(assignment)
        second = device.noise_model_for_assignment(dict(assignment))
        for instruction in (
            Instruction(standard_gate("x"), (1,)),
            Instruction(standard_gate("cx"), (0, 1)),  # coupled pair
            Instruction(standard_gate("cx"), (0, 2)),  # distance penalty
        ):
            ours = [channel for channel, _ in first.channels_for(instruction)]
            theirs = [channel for channel, _ in second.channels_for(instruction)]
            assert ours and len(ours) == len(theirs)
            assert all(a is b for a, b in zip(ours, theirs))
        assert first.fingerprint() == second.fingerprint()

    def test_best_qubits_ranking(self):
        device = fake_hanoi()
        best = device.best_qubits(5)
        assert len(best) == 5
        qualities = [device.qubit_calibrations[q].quality() for q in best]
        assert qualities == sorted(qualities)

    def test_neighbors(self):
        device = fake_hanoi()
        assert 1 in device.neighbors(0)

    def test_depolarizing_from_average_infidelity(self):
        assert depolarizing_from_average_infidelity(0.01, 1) == pytest.approx(0.02)
        assert depolarizing_from_average_infidelity(0.03, 2) == pytest.approx(0.04)
        with pytest.raises(ValueError):
            depolarizing_from_average_infidelity(-0.1, 1)


def _tiny_device() -> DeviceModel:
    """A 3-qubit line device with per-qubit and per-coupler variation."""
    qubit_calibrations = {
        q: QubitCalibration(
            t1=120e3, t2=150e3, readout_error=(0.03, 0.06, 0.02)[q],
            sq_error=(3e-4, 5e-4, 2e-4)[q], sq_gate_time=35.56,
        )
        for q in range(3)
    }
    edge_calibrations = {
        (0, 1): EdgeCalibration(cx_error=8e-3, gate_time=400.0),
        (1, 2): EdgeCalibration(cx_error=1.2e-2, gate_time=450.0),
    }
    return DeviceModel("tiny", 3, [(0, 1), (1, 2)], qubit_calibrations, edge_calibrations)


class TestDeviceFingerprint:
    """Every calibration scalar reaches the derived noise model's fingerprint,
    which keys every result computed under the device."""

    QUBIT_FIELDS = ("t1", "t2", "readout_error", "sq_error", "sq_gate_time")
    EDGE_FIELDS = ("cx_error", "gate_time")

    @pytest.mark.parametrize("field", QUBIT_FIELDS + EDGE_FIELDS)
    def test_every_calibration_scalar_is_hashed(self, field):
        device = _tiny_device()
        qubits = dict(device.qubit_calibrations)
        edges = dict(device.edge_calibrations)
        if field in self.QUBIT_FIELDS:
            qubits[1] = dataclasses.replace(qubits[1], **{field: getattr(qubits[1], field) * 0.9})
        else:
            edge = edges[(1, 2)]
            edges[(1, 2)] = dataclasses.replace(edge, **{field: getattr(edge, field) * 0.9})
        changed = DeviceModel("tiny", 3, device.coupling_edges, qubits, edges)
        # A fingerprint that missed a scalar would serve results computed
        # under other noise.
        assert changed.noise_model().fingerprint() != device.noise_model().fingerprint()


class TestDeviceCoercion:
    """A device is accepted wherever a noise model is (``as_noise_model``)."""

    def test_as_noise_model_coercion(self):
        device = _tiny_device()
        model = as_noise_model(device)
        assert isinstance(model, NoiseModel)
        assert as_noise_model(model) is model
        with pytest.raises(TypeError):
            as_noise_model(42)

    def test_engine_and_mitigation_accept_devices_directly(self):
        device = _tiny_device()
        circuit = iqft_benchmark_circuit(3, value=5)
        engine = ExecutionEngine()
        result = engine.execute(circuit, device, shots=256, seed=1)
        assert result.counts.shots == 256
        jig = run_jigsaw(circuit, device, shots=512, subset_size=1, seed=1, engine=engine)
        assert jig.mitigated_distribution.num_bits == 3

    @pytest.mark.parametrize("entry", ["engine", "qspc", "jigsaw", "pcs"])
    def test_a_device_runs_as_its_noise_model(self, entry):
        # No entry point takes a separate device: each coerces one passed
        # as its noise model, bit-identically to the derived model.
        device = _tiny_device()
        circuit = iqft_benchmark_circuit(3, value=5)

        def run(noise):
            engine = ExecutionEngine()
            if entry == "engine":
                return engine.execute(circuit, noise, shots=256, seed=1).distribution
            if entry == "qspc":
                segment = QuantumCircuit(3)
                segment.h(1).cx(1, 0).cx(0, 2)
                rho = np.array([[1, 0], [0, 0]], dtype=complex)
                check = virtual_pauli_check(segment, [0], rho, ["Z"], noise, seed=1, engine=engine)
                return check.z_distribution
            if entry == "jigsaw":
                return run_jigsaw(
                    circuit, noise, shots=512, subset_size=1, seed=1, engine=engine
                ).mitigated_distribution
            checks = [PauliCheck(pauli={0: "Z"}, region=(0, 1))]
            return run_pcs(circuit, checks, noise, shots=512, seed=1, engine=engine).raw_distribution

        assert run(device).items() == run(device.noise_model()).items()

    def test_device_noise_model_is_memoised(self):
        # Repeated coercions (passing the device per engine call) must reuse
        # one derived model, not rebuild every channel.
        device = _tiny_device()
        assert device.noise_model() is device.noise_model()
        assert as_noise_model(device) is as_noise_model(device)

    def test_none_noise_model_still_means_ideal(self):
        # Coercion must not break the pre-existing None -> ideal contract.
        circuit = iqft_benchmark_circuit(3, value=5)
        jig = run_jigsaw(circuit, None, shots=256, subset_size=1, seed=1)
        assert jig.mitigated_distribution.num_bits == 3
        pcs = run_pcs(circuit, [PauliCheck(pauli={0: "Z"}, region=(0, 1))], None)
        assert pcs.mitigated_distribution.num_bits == 3

    def test_qutracer_runs_against_a_device(self):
        # A device passed as the noise model runs exactly as its derived
        # model, and QSPC mitigation beats the unmitigated run on it.
        device = _tiny_device()
        circuit = iqft_benchmark_circuit(3, value=5)
        outcomes = []
        for noise in (device, device.noise_model()):
            with QuTracer(noise, shots=2048, shots_per_circuit=512, seed=7) as tracer:
                outcomes.append(tracer.run(circuit, subset_size=1))
        by_device, by_model = outcomes
        assert by_device.mitigated_fidelity == by_model.mitigated_fidelity
        assert by_device.unmitigated_fidelity == by_model.unmitigated_fidelity
        assert 0.0 <= by_device.mitigated_fidelity <= 1.0
        assert by_device.mitigated_fidelity > by_device.unmitigated_fidelity


class TestCouplingInvariants:
    @staticmethod
    def _degree_and_connectivity(edges):
        import networkx as nx

        graph = nx.Graph(edges)
        return max(dict(graph.degree).values()), nx.is_connected(graph)

    def test_falcon_27_graph_invariants(self):
        edges = falcon_27_coupling()
        assert len(edges) == 28
        assert len({tuple(sorted(e)) for e in edges}) == 28  # no duplicates
        assert {q for e in edges for q in e} == set(range(27))
        degree, connected = self._degree_and_connectivity(edges)
        assert degree <= 3 and connected

    def test_heavy_hex_edge_count_formula(self):
        # rows * (row_length - 1) chain edges + 2 per bridge qubit.
        for rows, length, connectors in ((7, 13, 6), (3, 5, 2), (2, 4, 3)):
            edges = heavy_hex_coupling(rows, length, connectors)
            expected_edges = rows * (length - 1) + 2 * connectors * (rows - 1)
            assert len(edges) == expected_edges
            num_qubits = rows * length + connectors * (rows - 1)
            assert {q for e in edges for q in e} == set(range(num_qubits))
            degree, connected = self._degree_and_connectivity(edges)
            assert degree <= 3 and connected

    def test_fake_device_name_to_layout_table(self):
        # Falcon-era names map to the 27-qubit layout, Eagle-era to 127;
        # ibm_/ibmq_/fake_ prefixes and case are all accepted.
        expectations = {
            "mumbai": 27, "hanoi": 27, "kyoto": 127, "cusco": 127,
        }
        for name, num_qubits in expectations.items():
            for prefix in ("", "ibm_", "ibmq_", "fake_"):
                device = fake_device(f"{prefix}{name}")
                assert device.num_qubits == num_qubits
                assert device.name == f"fake_{name}"
        falcon_edges = {tuple(sorted(e)) for e in falcon_27_coupling()}
        assert {tuple(sorted(e)) for e in fake_device("Mumbai").coupling_edges} == falcon_edges


_FAKE_DEVICES = {
    "mumbai": fake_mumbai, "hanoi": fake_hanoi, "kyoto": fake_kyoto, "cusco": fake_cusco,
}


class TestFakeDeviceInvariants:
    """Facts every fake device keeps, Falcon (27 qubits) and Eagle (127)."""

    @pytest.mark.parametrize("name", sorted(_FAKE_DEVICES))
    def test_topology_is_connected_and_calibrated(self, name):
        device = _FAKE_DEVICES[name]()
        degree, connected = TestCouplingInvariants._degree_and_connectivity(
            device.coupling_edges
        )
        assert connected and degree <= 3
        assert set(device.edge_calibrations) == set(device.coupling_edges)
        assert all(0 <= a < b < device.num_qubits for a, b in device.coupling_edges)
        # The coupling map noise_aware_layout builds from the edges agrees
        # with the device's own adjacency.
        coupling = CouplingMap(device.coupling_edges, device.num_qubits)
        for qubit in range(device.num_qubits):
            assert device.neighbors(qubit) == coupling.neighbors(qubit)
            for neighbor in device.neighbors(qubit):
                assert qubit in device.neighbors(neighbor)

    @pytest.mark.parametrize("name", sorted(_FAKE_DEVICES))
    def test_noise_model_follows_the_calibration(self, name):
        # Each gate channel is depolarizing (the calibrated error) composed
        # with thermal relaxation R over the gate time.  Entanglement
        # fidelities obey F(R o D) = (1 - p) F(R) + p / d^2, so the channel
        # infidelity r lies in [r_D, r_D + r_R] exactly.
        device = _FAKE_DEVICES[name]()
        model = device.noise_model()

        def infidelity(channel):
            return 1.0 - channel.average_gate_fidelity()

        for qubit, calibration in device.qubit_calibrations.items():
            readout = model.readout_error(qubit)
            assert readout.average_error == pytest.approx(calibration.readout_error)
            ((channel, wires),) = model.channels_for(Instruction(standard_gate("x"), (qubit,)))
            assert wires == (qubit,)
            relaxation = thermal_relaxation_channel(
                calibration.t1, calibration.t2, calibration.sq_gate_time
            )
            assert calibration.sq_error - 1e-12 <= infidelity(channel)
            assert infidelity(channel) <= calibration.sq_error + infidelity(relaxation) + 1e-12
        for edge, calibration in device.edge_calibrations.items():
            ((channel, wires),) = model.channels_for(Instruction(standard_gate("cx"), edge))
            assert wires == edge
            a, b = (device.qubit_calibrations[q] for q in edge)
            relaxation = thermal_relaxation_channel(a.t1, a.t2, calibration.gate_time).tensor(
                thermal_relaxation_channel(b.t1, b.t2, calibration.gate_time)
            )
            assert calibration.cx_error - 1e-12 <= infidelity(channel)
            assert infidelity(channel) <= calibration.cx_error + infidelity(relaxation) + 1e-12

    @pytest.mark.parametrize("name", sorted(_FAKE_DEVICES))
    def test_fingerprint_tracks_every_calibration_record(self, name):
        # The derived noise model's fingerprint is content, not identity: a
        # renamed copy shares it, and one changed qubit or coupler record
        # changes it, while the topology stays put.
        device = _FAKE_DEVICES[name]()

        def rebuild(qubits=None, edges=None):
            return DeviceModel(
                "copy",
                device.num_qubits,
                device.coupling_edges,
                qubits or device.qubit_calibrations,
                edges or device.edge_calibrations,
            )

        assert rebuild().noise_model().fingerprint() == device.noise_model().fingerprint()
        qubits = dict(device.qubit_calibrations)
        qubits[0] = dataclasses.replace(qubits[0], readout_error=qubits[0].readout_error * 1.5)
        edges = dict(device.edge_calibrations)
        edge = device.coupling_edges[-1]
        edges[edge] = dataclasses.replace(edges[edge], cx_error=edges[edge].cx_error * 1.5)
        changed_qubit, changed_edge = rebuild(qubits=qubits), rebuild(edges=edges)
        fingerprints = {d.noise_model().fingerprint() for d in (device, changed_qubit, changed_edge)}
        assert len(fingerprints) == 3
        for changed in (changed_qubit, changed_edge):
            assert changed.coupling_edges == device.coupling_edges

    @pytest.mark.parametrize("name", sorted(_FAKE_DEVICES))
    def test_ranking_covers_every_qubit_by_quality(self, name):
        device = _FAKE_DEVICES[name]()
        best = device.best_qubits(device.num_qubits)
        assert sorted(best) == list(range(device.num_qubits))
        qualities = [device.qubit_calibrations[q].quality() for q in best]
        assert qualities == sorted(qualities)
