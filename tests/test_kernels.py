"""Differential tests for the specialized dense-kernel tier.

The contract under test (see ``src/repro/simulators/kernels.py``) is
two-tier:

* **bit-identical** to the generic tensordot reference wherever the block's
  arithmetic is exact — permutation/diagonal entries drawn from
  ``{0, ±1, ±i}`` (X/Y/Z/S/CX/CZ/SWAP chains), where every product is
  representable and ``0 * x`` contributes exactly nothing;
* **ulp-bounded** everywhere else: BLAS contracts the tensordot path's
  multiply-adds with FMA while the elementwise kernels round each product,
  so arbitrary-phase blocks may differ in the last bits of an amplitude.

Noise channels on the density matrix follow the ulp-bounded tier: one
superoperator contraction (and the uniform-depolarizing closed form) against
the per-Kraus-operator conjugation sum, on every ordered wire tuple of 1-6
qubit registers; the closed form is also pinned bit for bit to its
partial-trace spelling.

Plus: structural classification, the fusion-width cost model, backend
resolution (default, no environment selector, rejected names), the
two-pass fusion rewrite's matrix equivalence, and the kernel-dispatch
counters pinned to the hot loop (counts sum to the fused-block count of a
traced ensemble run).
"""

import itertools

import numpy as np
import pytest

from repro.circuits import Instruction, QuantumCircuit, standard_gate
from repro.noise import (
    KrausChannel,
    NoiseModel,
    amplitude_damping_channel,
    depolarizing_channel,
    fake_mumbai,
    phase_damping_channel,
)
from repro.simulators import ExecutionEngine, Statevector, fuse_circuit
from repro.simulators.apply import (
    apply_kraus_to_density_matrix,
    apply_matrix_to_density_matrix,
    apply_matrix_to_statevector_batch,
    apply_uniform_depolarizing_to_density_matrix,
    reduced_density_matrix,
)
from repro.simulators.ensemble import simulate_trajectories_ensemble
from repro.simulators.fusion import (
    DEFAULT_FUSION_MAX_QUBITS,
    WIDE_FUSION_MAX_QUBITS,
    WIDE_FUSION_THRESHOLD,
    choose_fusion_width,
)
from repro.simulators.kernels import (
    apply_fused_operation,
    apply_plan,
    apply_plan_to_density_matrix,
    build_plan,
    classify_matrix,
    kernel_dispatch_counts,
    reset_kernel_dispatch_counts,
    resolve_backend,
)
from repro.simulators.ensemble import _trajectory_plan

from test_fusion import gate_by_gate_statevector

# Backends exercised by every differential test.
BACKENDS = ["numpy"]

EXACT_PHASES = np.array([1.0, -1.0, 1.0j, -1.0j])


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_diag(dim: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim)))


def _random_perm(dim: int, rng: np.random.Generator, exact: bool) -> np.ndarray:
    matrix = np.zeros((dim, dim), dtype=complex)
    # A random cyclic shift keeps every nonzero off the diagonal, so the
    # matrix always classifies as "perm" rather than "diag".
    columns = (np.arange(dim) + rng.integers(1, dim)) % dim
    phases = (
        rng.choice(EXACT_PHASES, size=dim)
        if exact
        else np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
    )
    matrix[np.arange(dim), columns] = phases
    return matrix


def _random_states(batch: int, num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    states = rng.standard_normal((batch, 2**num_qubits)) + 1j * rng.standard_normal(
        (batch, 2**num_qubits)
    )
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _random_embedding(k: int, num_qubits: int, rng: np.random.Generator) -> tuple:
    return tuple(sorted(rng.choice(num_qubits, size=k, replace=False)))


class TestClassification:
    def test_known_gate_kinds(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        rz = np.diag([1.0, np.exp(0.3j)])
        cx = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert classify_matrix(h) == "dense1q"
        assert classify_matrix(x) == "perm"
        assert classify_matrix(rz) == "diag"
        assert classify_matrix(cx) == "perm"
        assert classify_matrix(cz) == "diag"

    def test_dense_sizes(self):
        rng = np.random.default_rng(5)
        assert classify_matrix(_random_unitary(4, rng)) == "dense2q"
        assert classify_matrix(_random_unitary(8, rng)) == "generic"

    def test_diag_takes_priority_over_perm(self):
        # A diagonal matrix is also a generalized permutation; the one-pass
        # multiply must win.
        assert classify_matrix(np.diag([1.0, -1.0]).astype(complex)) == "diag"

    def test_plan_payloads(self):
        rng = np.random.default_rng(6)
        perm = _random_perm(4, rng, exact=True)
        plan = build_plan(perm, (0, 2), 4)
        assert plan.kind == "perm"
        # The payload reconstructs the matrix: row r has its only nonzero
        # (phases[r]) in column perm[r].
        rebuilt = np.zeros((4, 4), dtype=complex)
        rebuilt[np.arange(4), plan.perm] = plan.phases
        assert np.array_equal(rebuilt, perm)
        trivial = build_plan(np.eye(4, dtype=complex)[[1, 0, 2, 3]], (1, 3), 4)
        assert trivial.trivial_phases


class TestDifferentialEquivalence:
    """Every specialized kernel vs the generic tensordot path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("batch", [1, 13])
    def test_random_dense_gates(self, backend, k, batch):
        rng = np.random.default_rng(100 * k + batch)
        for num_qubits in (k, min(k + 2, 7)):
            qubits = _random_embedding(k, num_qubits, rng)
            matrix = _random_unitary(2**k, rng)
            plan = build_plan(matrix, qubits, num_qubits)
            states = _random_states(batch, num_qubits, rng)
            ref = apply_matrix_to_statevector_batch(states, matrix, qubits, num_qubits)
            out = apply_fused_operation(
                states.copy(), plan, matrix, qubits, num_qubits, backend=backend
            )
            assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("batch", [1, 13])
    def test_random_diag_gates(self, backend, k, batch):
        rng = np.random.default_rng(200 * k + batch)
        num_qubits = min(k + 2, 7)
        qubits = _random_embedding(k, num_qubits, rng)
        matrix = _random_diag(2**k, rng)
        plan = build_plan(matrix, qubits, num_qubits)
        assert plan.kind == "diag"
        states = _random_states(batch, num_qubits, rng)
        ref = apply_matrix_to_statevector_batch(states, matrix, qubits, num_qubits)
        out = apply_fused_operation(
            states.copy(), plan, matrix, qubits, num_qubits, backend=backend
        )
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("batch", [1, 13])
    def test_exact_perm_gates_bit_identical(self, backend, k, batch):
        """Permutation blocks with entries in {0, ±1, ±i} are exact — the
        gather kernel must agree with tensordot to the last bit."""
        rng = np.random.default_rng(300 * k + batch)
        num_qubits = min(k + 2, 7)
        qubits = _random_embedding(k, num_qubits, rng)
        matrix = _random_perm(2**k, rng, exact=True)
        plan = build_plan(matrix, qubits, num_qubits)
        assert plan.kind == "perm"
        states = _random_states(batch, num_qubits, rng)
        ref = apply_matrix_to_statevector_batch(states, matrix, qubits, num_qubits)
        out = apply_fused_operation(
            states.copy(), plan, matrix, qubits, num_qubits, backend=backend
        )
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_arbitrary_phase_perm_gates(self, backend):
        rng = np.random.default_rng(17)
        for k in (1, 2, 3):
            num_qubits = k + 2
            qubits = _random_embedding(k, num_qubits, rng)
            matrix = _random_perm(2**k, rng, exact=False)
            plan = build_plan(matrix, qubits, num_qubits)
            assert plan.kind == "perm" and not plan.trivial_phases
            states = _random_states(9, num_qubits, rng)
            ref = apply_matrix_to_statevector_batch(states, matrix, qubits, num_qubits)
            out = apply_fused_operation(
                states.copy(), plan, matrix, qubits, num_qubits, backend=backend
            )
            assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)

    def test_generic_backend_forces_reference_path(self):
        rng = np.random.default_rng(23)
        matrix = _random_diag(4, rng)
        plan = build_plan(matrix, (0, 1), 3)
        states = _random_states(4, 3, rng)
        ref = apply_matrix_to_statevector_batch(states, matrix, (0, 1), 3)
        out = apply_fused_operation(
            states.copy(), plan, matrix, (0, 1), 3, backend="generic"
        )
        # Same code path => bit-identical by construction.
        assert np.array_equal(out, ref)

    def test_single_state_shape_through_statevector(self):
        """The 1-row-batch spelling of Statevector.evolve_circuit matches the
        gate-by-gate evolution."""
        circuit = QuantumCircuit(4, 4)
        for q in range(4):
            circuit.h(q)
        for q in range(3):
            circuit.cx(q, q + 1)
        for q in range(4):
            circuit.rz(0.1 + 0.2 * q, q)
        reference = gate_by_gate_statevector(circuit)
        for backend in BACKENDS:
            fused = Statevector.zero_state(4).evolve_circuit(circuit, kernel_backend=backend)
            assert np.allclose(fused.data, reference.data, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("backend", BACKENDS + ["generic"])
    def test_density_matrix_fast_paths(self, backend):
        rng = np.random.default_rng(31)
        num_qubits = 3
        dim = 2**num_qubits
        base = _random_states(dim, num_qubits, rng)
        rho = base.conj().T @ base  # positive semidefinite
        rho = rho / np.trace(rho)
        for make in (
            lambda: _random_diag(4, rng),
            lambda: _random_perm(4, rng, exact=True),
            lambda: _random_perm(4, rng, exact=False),
        ):
            matrix = make()
            qubits = (0, 2)
            plan = build_plan(matrix, qubits, num_qubits)
            ref = apply_matrix_to_density_matrix(rho, matrix, qubits, num_qubits)
            fast = apply_plan_to_density_matrix(rho, plan, backend)
            if backend == "generic":
                assert fast is None  # forced back to the reference conjugation
                continue
            assert fast is not None
            assert np.allclose(fast, ref, rtol=1e-12, atol=1e-14)
        # Dense blocks have no fast path on any backend.
        dense_plan = build_plan(_random_unitary(4, rng), (0, 1), num_qubits)
        assert apply_plan_to_density_matrix(rho, dense_plan, "numpy") is None


def _device_channel(gate: str, qubits: tuple):
    # The paper's device composite (thermal relaxation after depolarizing):
    # not a uniform Pauli mixture, so the simulators take the contraction.
    model = fake_mumbai().noise_model()
    channel = model.channels_for(Instruction(standard_gate(gate), qubits))[0][0]
    assert channel.name == f"device_{len(qubits)}q"
    return channel


def _random_channel(num_qubits: int, count: int, seed: int) -> KrausChannel:
    # Complex Kraus operators: the blocks of a random isometry, so
    # sum K^dagger K = I.  Unlike the damping and Pauli channels, kron(K, K*)
    # and kron(K*, K) differ here, which pins the superoperator's layout.
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    isometry, _ = np.linalg.qr(
        rng.standard_normal((count * dim, dim)) + 1j * rng.standard_normal((count * dim, dim))
    )
    return KrausChannel([isometry[i * dim : (i + 1) * dim] for i in range(count)])


# name -> (builder, width, depolarizing probability or None)
CHANNELS = {
    "random_1q": (lambda: _random_channel(1, 3, 41), 1, None),
    "random_2q": (lambda: _random_channel(2, 5, 42), 2, None),
    "device_1q": (lambda: _device_channel("sx", (0,)), 1, None),
    "device_2q": (lambda: _device_channel("cx", (0, 1)), 2, None),
    "amplitude_damping": (lambda: amplitude_damping_channel(0.13), 1, None),
    "phase_damping": (lambda: phase_damping_channel(0.21), 1, None),
    "depolarizing_1q": (lambda: depolarizing_channel(0.07, 1), 1, 0.07),
    "depolarizing_2q": (lambda: depolarizing_channel(0.11, 2), 2, 0.11),
    "depolarizing_3q": (lambda: depolarizing_channel(0.05, 3), 3, 0.05),
}


def _depolarizing_reference(rho, probability, qubits, num_qubits):
    """The uniform-depolarizing closed form spelled as a partial trace, an
    outer product with ``I / 2**k`` and one ``moveaxis`` back to global axis
    order: the strided diagonal-block form must equal it bit for bit."""
    qubits = list(qubits)
    k = len(qubits)
    dim = 2**num_qubits
    if k == num_qubits:
        mixed = np.trace(rho) / dim * np.eye(dim, dtype=complex)
        return (1.0 - probability) * rho + probability * mixed
    keep = [q for q in range(num_qubits) if q not in qubits]
    traced = reduced_density_matrix(rho, keep, num_qubits)
    eye = np.eye(2**k, dtype=complex) / 2**k
    product = np.multiply.outer(
        traced.reshape([2] * (2 * len(keep))), eye.reshape([2] * (2 * k))
    )
    # Axes of product: traced rows, traced columns, eye rows, eye columns;
    # each group's first axis is its highest wire.
    destinations = [
        offset + num_qubits - 1 - q
        for wires in (keep, qubits)
        for offset in (0, num_qubits)
        for q in reversed(wires)
    ]
    mixed = np.moveaxis(product, range(2 * num_qubits), destinations).reshape(dim, dim)
    return (1.0 - probability) * rho + probability * mixed


class TestChannelApplication:
    """One superoperator contraction per noise site, and the
    uniform-depolarizing closed form, against the per-operator conjugation
    sum ``sum_K K rho K^dagger`` — ulp-bounded like the dense kernels.  The
    closed form also equals its partial-trace spelling bit for bit."""

    @pytest.mark.parametrize(
        "name, num_qubits",
        [(name, n) for name in sorted(CHANNELS) for n in range(CHANNELS[name][1], 7)],
    )
    def test_superoperator_matches_per_operator_sum(self, name, num_qubits):
        build, width, depolarizing = CHANNELS[name]
        channel = build()
        assert channel.num_qubits == width
        assert channel.superoperator() is channel.superoperator()
        assert channel.uniform_depolarizing_probability() == (
            pytest.approx(depolarizing) if depolarizing is not None else None
        )
        rng = np.random.default_rng(400 + num_qubits)
        base = _random_states(2**num_qubits, num_qubits, rng)
        rho = base.conj().T @ base
        rho = rho / np.trace(rho)
        # Shared body states are read-only: no channel path may write rho.
        rho.flags.writeable = False
        before = rho.copy()
        # Every ordered tuple, reversed ones such as (3, 1) included.
        for wires in itertools.permutations(range(num_qubits), width):
            reference = sum(
                apply_matrix_to_density_matrix(rho, op, wires, num_qubits)
                for op in channel.operators
            )
            out = apply_kraus_to_density_matrix(
                rho, channel.superoperator(), wires, num_qubits
            )
            assert out.shape == rho.shape and out.flags.c_contiguous
            assert np.allclose(out, reference, rtol=1e-12, atol=1e-14), wires
            if depolarizing is not None:
                p = channel.uniform_depolarizing_probability()
                closed = apply_uniform_depolarizing_to_density_matrix(
                    rho, p, wires, num_qubits
                )
                assert closed.flags.c_contiguous and closed.flags.writeable
                assert np.allclose(closed, reference, rtol=1e-12, atol=1e-14), wires
                assert np.array_equal(
                    closed, _depolarizing_reference(rho, p, wires, num_qubits)
                ), wires
        assert np.array_equal(rho, before)


class TestCostModel:
    def test_small_blocks_when_dispatch_dominates(self):
        # T=1, narrow circuit: far below the wide threshold.
        assert choose_fusion_width(5, 1) == DEFAULT_FUSION_MAX_QUBITS
        assert choose_fusion_width(2, 1) == 2  # capped at circuit width

    def test_wide_blocks_when_arithmetic_dominates(self):
        # A full trajectory ensemble over a mid-size register crosses the
        # threshold: 600 * 2**7 = 76800 >= 65536.
        assert 600 * 2**7 >= WIDE_FUSION_THRESHOLD
        assert choose_fusion_width(7, 600) == WIDE_FUSION_MAX_QUBITS
        # A single very wide state crosses it on width alone.
        assert choose_fusion_width(20, 1) == WIDE_FUSION_MAX_QUBITS
        # Width is still capped at the register.
        assert choose_fusion_width(4, 100_000) == 4

    def test_threshold_boundary(self):
        num_qubits = 8
        at = WIDE_FUSION_THRESHOLD // 2**num_qubits
        assert choose_fusion_width(num_qubits, at) == WIDE_FUSION_MAX_QUBITS
        assert choose_fusion_width(num_qubits, at - 1) == DEFAULT_FUSION_MAX_QUBITS


class TestBackendResolution:
    def test_default_is_numpy(self):
        assert resolve_backend(None) == "numpy"

    def test_environment_does_not_select_the_backend(self, monkeypatch):
        # The engine's ``kernel_backend`` argument is the only selector: the
        # retired REPRO_KERNEL_BACKEND variable is not read.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "generic")
        assert resolve_backend(None) == "numpy"
        assert ExecutionEngine().kernel_backend == "numpy"

    @pytest.mark.parametrize("name", ["numba", "auto"])
    def test_removed_backend_names_rejected(self, name):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(name)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")


class TestFusionTwoPass:
    """The quadratic re-embedding fix must not change fused semantics."""

    def _layered_circuit(self, num_qubits=5, depth=3):
        circuit = QuantumCircuit(num_qubits, num_qubits)
        for q in range(num_qubits):
            circuit.h(q)
        for layer in range(depth):
            for q in range(num_qubits - 1):
                circuit.cx(q, q + 1)
            for q in range(num_qubits):
                circuit.rz(0.1 + 0.05 * q + 0.2 * layer, q)
        circuit.measure_all()
        return circuit

    @pytest.mark.parametrize("max_qubits", [1, 2, 3, 5])
    def test_fused_program_matches_unfused_evolution(self, max_qubits):
        circuit = self._layered_circuit()
        program = fuse_circuit(circuit, max_qubits=max_qubits)
        unfused = fuse_circuit(circuit, max_qubits=0)
        rng = np.random.default_rng(41)
        states = _random_states(3, circuit.num_qubits, rng)
        fused_out, plain_out = states, states
        for op in program.operations:
            fused_out = apply_matrix_to_statevector_batch(
                fused_out, op.matrix, op.qubits, circuit.num_qubits
            )
        for op in unfused.operations:
            plain_out = apply_matrix_to_statevector_batch(
                plain_out, op.matrix, op.qubits, circuit.num_qubits
            )
        assert np.allclose(fused_out, plain_out, rtol=1e-12, atol=1e-14)

    def test_every_block_carries_a_plan(self):
        circuit = self._layered_circuit()
        noise = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        for max_qubits in (0, 2, 3):
            program = fuse_circuit(circuit, noise, max_qubits=max_qubits)
            for op in program.operations:
                assert op.kernel is not None
                assert op.kernel.kind == classify_matrix(op.matrix)
                assert op.kernel.qubits == op.qubits

    def test_single_wide_gate_block_matrix_is_verbatim(self):
        circuit = QuantumCircuit(2, 2)
        circuit.cx(0, 1)
        [inst] = [i for i in circuit.data if i.is_gate]
        program = fuse_circuit(circuit, max_qubits=1)  # cx wider than the cap
        [op] = program.operations
        # A lone gate already little-endian in its sorted support passes
        # through without any basis-evolution arithmetic.
        assert np.array_equal(op.matrix, inst.operation.matrix)


class TestDispatchAccounting:
    """Metrics satellite: counters live in the hot loop, not bookkeeping."""

    def _circuit(self, tag=0.0):
        circuit = QuantumCircuit(5, 5)
        for q in range(5):
            circuit.h(q)
        for q in range(4):
            circuit.cx(q, q + 1)
        for q in range(5):
            circuit.rz(0.11 + 0.07 * q + tag, q)
        circuit.measure_all()
        return circuit

    def test_ensemble_dispatches_once_per_fused_block(self):
        circuit = self._circuit()
        noise = NoiseModel.depolarizing(p1=0.01, p2=0.02, readout=0.01)
        num_trajectories, _ = _trajectory_plan(1024, noise, 60)
        width = choose_fusion_width(circuit.num_qubits, num_trajectories)
        expected = len(fuse_circuit(circuit, noise, max_qubits=width).operations)
        reset_kernel_dispatch_counts()
        simulate_trajectories_ensemble(
            circuit, noise, shots=1024, seed=3, max_trajectories=60
        )
        counts = kernel_dispatch_counts()
        assert sum(counts.values()) == expected
        assert counts["generic"] == 0  # every block classified on this circuit

    def test_traced_engine_run_reports_dispatch_counts_and_backend(self):
        circuit = self._circuit(tag=0.003)
        noise = NoiseModel.depolarizing(p1=0.01, p2=0.02, readout=0.01)
        with ExecutionEngine(max_trajectories=60) as engine:
            compact, _ = circuit.compact_qubits()
            num_trajectories, _ = _trajectory_plan(1024, noise, 60)
            width = choose_fusion_width(compact.num_qubits, num_trajectories)
            expected = len(fuse_circuit(compact, noise, max_qubits=width).operations)
            engine.install_tracer(__import__("repro.tracing", fromlist=["TraceRecorder"]).TraceRecorder())
            reset_kernel_dispatch_counts()
            result = engine.execute(
                circuit, noise, shots=1024, seed=3, method="trajectory"
            )
            assert result.ok
            # The hot-loop tallies count every fused block the engine ran.
            assert sum(kernel_dispatch_counts().values()) == expected
            # Trace stamp: every execute event names the kernel backend.
            executes = [
                e for e in engine.tracer.trace_events() if e.name == "execute"
            ]
            assert executes
            assert all(
                e.attrs.get("kernel_backend") == engine.kernel_backend
                for e in executes
            )

    @pytest.mark.parametrize("backend", BACKENDS + ["generic"])
    def test_apply_plan_routes_like_fused_operation_without_counting(self, backend, make_rng):
        program = fuse_circuit(self._circuit(), max_qubits=2)
        rng = make_rng(41)
        states = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
        for op in program.operations:
            reset_kernel_dispatch_counts()
            routed = apply_plan(states, op.kernel, op.matrix, op.qubits, 5, backend)
            assert sum(kernel_dispatch_counts().values()) == 0
            counted = apply_fused_operation(states, op.kernel, op.matrix, op.qubits, 5, backend)
            assert sum(kernel_dispatch_counts().values()) == 1
            assert np.array_equal(routed, counted)

    def test_generic_backend_counts_generic_only(self):
        circuit = self._circuit(tag=0.007)
        noise = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        reset_kernel_dispatch_counts()
        simulate_trajectories_ensemble(
            circuit, noise, shots=256, seed=5, max_trajectories=20,
            kernel_backend="generic",
        )
        counts = kernel_dispatch_counts()
        assert counts["generic"] > 0
        assert sum(v for k, v in counts.items() if k != "generic") == 0


class TestEngineIntegration:
    def test_backend_keys_sampled_cache_lines_apart(self):
        circuit = QuantumCircuit(3, 3)
        for q in range(3):
            circuit.h(q)
        circuit.cx(0, 1)
        circuit.measure_all()
        noise = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        with ExecutionEngine(kernel_backend="numpy") as fast, ExecutionEngine(
            kernel_backend="generic"
        ) as slow:
            a = fast.execute(circuit, noise, shots=256, seed=9, method="trajectory")
            b = slow.execute(circuit, noise, shots=256, seed=9, method="trajectory")
            # Identical RNG stream; backends agree to sampling resolution.
            assert a.shots == b.shots
            assert fast.kernel_backend != slow.kernel_backend

    def test_engine_serial_pool_identical_with_kernels(self):
        circuits = []
        for i in range(4):
            circuit = QuantumCircuit(4, 4)
            for q in range(4):
                circuit.h(q)
            circuit.cx(0, 1)
            circuit.rz(0.2 + 0.1 * i, 2)
            circuit.cx(2, 3)
            circuit.measure_all()
            circuits.append(circuit)
        noise = NoiseModel.depolarizing(p1=0.01, p2=0.02)
        with ExecutionEngine() as serial:
            expected = serial.execute_many(circuits, noise, shots=512, seed=21)
        with ExecutionEngine(workers=2) as pooled:
            observed = pooled.execute_many(circuits, noise, shots=512, seed=21)
        for left, right in zip(expected, observed):
            assert left.distribution == right.distribution  # bit-identical
