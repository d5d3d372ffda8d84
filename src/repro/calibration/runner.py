"""The :class:`CalibrationRunner`: plan -> execute -> fit -> record.

The runner treats a :class:`~repro.noise.DeviceModel` as opaque hardware:
it reads only the *public* facts (qubit count, coupling map, name) to plan
its experiments, executes the planned circuits against the device's noise —
never touching the calibration scalars themselves — and reconstructs them
from counts.  The plan is a fleet of hundreds of few-qubit circuits, which
is exactly the workload the :class:`~repro.simulators.ExecutionEngine` is
built for: the whole plan is submitted as **one seeded ``execute_many``
batch**, so idle wires compact away (a 27-qubit device is never simulated
at full width), identical circuits deduplicate, and an engine built with
``workers=`` shards the batch across processes, or with ``cache_dir=``
warm-starts re-calibration from the persistent on-disk cache.
"""

from __future__ import annotations

import functools
import time
from typing import Sequence

import numpy as np

from ..noise import DeviceModel, NoiseModel, as_noise_model
from ..simulators import ExecutionEngine
from .experiments import (
    PairReadoutSpec,
    PauliLearningSpec,
    RBSpec,
    ReadoutSpec,
    pair_readout_circuits,
    pauli_learning_circuits,
    rb_circuits,
    readout_calibration_circuits,
)
from .fitting import (
    average_infidelity_from_pauli_fidelities,
    bit_frequency,
    confusion_matrix_from_counts,
    fit_exponential_decay,
    interleaved_gate_error,
    readout_error_from_counts,
    survival_to_epc,
)
from .learned import CalibrationRecord, LearnedDeviceModel

__all__ = ["CalibrationRunner", "DEFAULT_PAULI_STRINGS"]

#: Sparse probe set: a handful of the 15 two-qubit Paulis whose mean decay
#: stands in for the full set (exact for depolarizing-dominated CX noise).
DEFAULT_PAULI_STRINGS = ("XX", "YY", "ZZ", "XZ", "ZX")


# A drift-monitoring cadence re-calibrates with the same parameters and seed,
# so every pass plans the identical circuits; building them costs about as
# much as fitting the counts.  Memoised on the parameters that determine the
# plan (the device enters only through its qubit count).
@functools.lru_cache(maxsize=4)
def _build_plan(
    num_qubits: int,
    qubits: tuple[int, ...],
    rb_qubits: tuple[int, ...],
    pairs: tuple[tuple[int, int], ...],
    rb_lengths: tuple[int, ...],
    rb_samples: int,
    interleaved_gate: str,
    pauli_strings: tuple[str, ...],
    pauli_depths: tuple[int, ...],
    pauli_samples: int,
    readout_chunk_size: int,
    seed: int,
) -> tuple:
    rng = np.random.default_rng(seed)
    plan: list = []
    plan.extend(readout_calibration_circuits(qubits, num_qubits, chunk_size=readout_chunk_size))
    plan.extend(pair_readout_circuits(pairs, num_qubits))
    for qubit in rb_qubits:
        plan.extend(rb_circuits(qubit, rb_lengths, rb_samples, rng, num_qubits))
        plan.extend(
            rb_circuits(
                qubit,
                rb_lengths,
                rb_samples,
                rng,
                num_qubits,
                interleaved_gate=interleaved_gate,
            )
        )
    for pair in pairs:
        plan.extend(
            pauli_learning_circuits(
                pair, pauli_strings, pauli_depths, pauli_samples, rng, num_qubits
            )
        )
    return tuple(plan)


class CalibrationRunner:
    """Measure a device and learn its noise model from the counts.

    Parameters
    ----------
    device:
        The hardware stand-in.  Only its topology (``num_qubits``,
        ``coupling_edges``, ``name``) and its executable noise are used.
    noise_model:
        Override for the noise the calibration circuits run under (default
        ``device.noise_model()``).  Accepts anything
        :func:`~repro.noise.as_noise_model` does.
    qubits:
        Qubits to readout-calibrate (default: all of them).
    rb_qubits:
        Qubits to run standard + interleaved RB on (default: ``qubits``).
        RB sequences are hundreds of gates long, so restricting this is the
        main budget knob on wide devices.
    pairs:
        Couplers to run Pauli noise learning on (default: every coupling
        edge).  Pair-correlated readout runs on the same pairs.
    shots:
        Shots per planned circuit (one budget for the whole plan; recorded).
    seed:
        Base seed: drives both the random sequence draws (Cliffords, twirls)
        and the engine's per-circuit sampling seeds, making the whole record
        reproducible bit for bit.
    engine:
        The :class:`~repro.simulators.ExecutionEngine` the plan runs on;
        pass one built with ``workers`` / ``cache_dir`` to shard the batch
        or warm-start from a persistent cache.  By default the runner
        builds its own plain engine, closed via :meth:`close` or the
        context manager.
    method:
        Execution method forwarded to :meth:`ExecutionEngine.execute_many`
        (default ``"auto"``).  Calibration circuits are pure Clifford, so
        ``method="stabilizer"`` routes the whole RB / twirl sweep through
        the tableau fast path — identical plan, identical fitting, sampled
        counts instead of exact narrow-circuit distributions.
    on_error:
        Failure semantics forwarded to :meth:`ExecutionEngine.execute_many`
        (default ``"raise"``).  Scheduled acquisitions should pass
        ``"isolate"``: a failed circuit then costs its own data point, not
        the session — the fitters skip failed slots, and the record's
        metadata counts them (``failed_circuits``) so a degraded
        calibration is visible in provenance.
    """

    def __init__(
        self,
        device: DeviceModel,
        noise_model: NoiseModel | None = None,
        qubits: Sequence[int] | None = None,
        rb_qubits: Sequence[int] | None = None,
        pairs: Sequence[tuple[int, int]] | None = None,
        shots: int = 4096,
        seed: int = 7,
        rb_lengths: Sequence[int] = (4, 16, 40, 80),
        rb_samples: int = 2,
        interleaved_gate: str = "x",
        pauli_strings: Sequence[str] = DEFAULT_PAULI_STRINGS,
        pauli_depths: Sequence[int] = (2, 6, 12, 20),
        pauli_samples: int = 2,
        readout_chunk_size: int = 6,
        engine: ExecutionEngine | None = None,
        method: str = "auto",
        on_error: str = "raise",
    ) -> None:
        if shots < 1:
            raise ValueError("shots must be positive")
        if on_error not in ("raise", "isolate"):
            raise ValueError("on_error must be 'raise' or 'isolate'")
        self.device = device
        self.noise_model = (
            as_noise_model(noise_model) if noise_model is not None else device.noise_model()
        )
        self.qubits = sorted(
            {int(q) for q in (qubits if qubits is not None else range(device.num_qubits))}
        )
        self.rb_qubits = (
            sorted({int(q) for q in rb_qubits}) if rb_qubits is not None else list(self.qubits)
        )
        self.pairs = [
            tuple(sorted((int(a), int(b))))
            for a, b in (pairs if pairs is not None else device.coupling_edges)
        ]
        for q in self.qubits + self.rb_qubits:
            if not 0 <= q < device.num_qubits:
                raise ValueError(f"qubit {q} is outside the device")
        for pair in self.pairs:
            if pair not in {tuple(sorted(e)) for e in device.coupling_edges}:
                raise ValueError(f"pair {pair} is not a coupler of {device.name}")
        self.shots = int(shots)
        self.seed = int(seed)
        self.rb_lengths = tuple(int(m) for m in rb_lengths)
        self.rb_samples = int(rb_samples)
        self.interleaved_gate = interleaved_gate
        self.pauli_strings = tuple(pauli_strings)
        self.pauli_depths = tuple(int(m) for m in pauli_depths)
        self.pauli_samples = int(pauli_samples)
        self.readout_chunk_size = int(readout_chunk_size)
        self.method = method
        self.on_error = on_error
        self._owns_engine = engine is None
        self.engine = engine or ExecutionEngine()
        self._plan: list | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the engine if this runner built it."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "CalibrationRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self) -> list:
        """The full experiment plan (memoised; deterministic in ``seed``).

        Returns every spec object in execution order: readout chunks, pair
        readout, standard RB, interleaved RB, Pauli learning.  Runners with
        the same plan parameters share the spec objects (see
        :func:`_build_plan`); treat them as read-only.
        """
        if self._plan is None:
            self._plan = list(
                _build_plan(
                    self.device.num_qubits,
                    tuple(self.qubits),
                    tuple(self.rb_qubits),
                    tuple(self.pairs),
                    self.rb_lengths,
                    self.rb_samples,
                    self.interleaved_gate,
                    self.pauli_strings,
                    self.pauli_depths,
                    self.pauli_samples,
                    self.readout_chunk_size,
                    self.seed,
                )
            )
        return self._plan

    # ------------------------------------------------------------------
    # Execution + fitting
    # ------------------------------------------------------------------

    def run(self) -> CalibrationRecord:
        """Execute the plan and fit a :class:`CalibrationRecord` from counts."""
        # Durations come from the monotonic clock: time.time() can step
        # backwards under NTP and poison persisted provenance with
        # negative durations.  Wall-clock time is only ever used for the
        # absolute created_at stamp below.
        started = time.perf_counter()
        specs = self.plan()
        stats_before = self.engine.stats.to_dict()
        # Continuous-monitoring hook: a calibration pipeline that reruns on
        # a schedule publishes its batch and fit latencies into the
        # engine's registry, labeled per experiment stage.
        metrics = (
            self.engine.metrics
            if getattr(self.engine, "metrics_enabled", False)
            else None
        )
        results = self.engine.execute_many(
            [spec.circuit for spec in specs],
            self.noise_model,
            shots=self.shots,
            seed=self.seed,
            method=self.method,
            on_error=self.on_error,
        )
        if metrics is not None:
            metrics.histogram(
                "repro_calibration_batch_seconds",
                "End-to-end calibration batch execution time, per device.",
                labelnames=("device",),
            ).labels(device=self.device.name).observe(time.perf_counter() - started)
        # Provenance link into the execution-trace layer: the calibration
        # batch just ran as one trace, so the record can name the exact
        # JSONL artifact that explains its timings and cache behaviour.
        tracer = getattr(self.engine, "tracer", None)
        trace_id = tracer.last_trace_id if tracer is not None else None
        failed_circuits = sum(1 for result in results if not result.ok)
        # Provenance wants *this run's* accounting; on a shared engine the
        # live counters are cumulative, so record the delta — of the
        # numeric counters only (EngineStats also carries non-numeric
        # telemetry such as ``fallback_reason``, reported as-is).
        stats_after = self.engine.stats.to_dict()
        engine_stats = {
            key: value - stats_before[key]
            for key, value in stats_after.items()
            if key != "hit_rate" and isinstance(value, (int, float))
        }
        if stats_after.get("fallback_reason"):
            engine_stats["fallback_reason"] = stats_after["fallback_reason"]
        served = engine_stats["cache_hits"] + engine_stats["batch_dedup_hits"]
        engine_stats["hit_rate"] = (
            round(served / engine_stats["requests"], 6) if engine_stats["requests"] else 0.0
        )
        qubit_fits: dict[int, dict] = {q: {} for q in self.qubits}
        pair_fits: dict[tuple[int, int], dict] = {pair: {} for pair in self.pairs}

        fit_hist = (
            metrics.histogram(
                "repro_calibration_fit_seconds",
                "Per-experiment estimator fitting time.",
                labelnames=("experiment",),
            )
            if metrics is not None
            else None
        )
        for experiment, fit in (
            ("readout", lambda: self._fit_readout(specs, results, qubit_fits)),
            ("pair_readout", lambda: self._fit_pair_readout(specs, results, pair_fits)),
            ("rb", lambda: self._fit_rb(specs, results, qubit_fits)),
            ("pauli_learning", lambda: self._fit_pauli_learning(specs, results, pair_fits)),
        ):
            fit_started = time.perf_counter()
            fit()
            if fit_hist is not None:
                fit_hist.labels(experiment=experiment).observe(
                    time.perf_counter() - fit_started
                )

        return CalibrationRecord(
            device_name=self.device.name,
            num_qubits=self.device.num_qubits,
            coupling_edges=[tuple(edge) for edge in self.device.coupling_edges],
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            seed=self.seed,
            shots=self.shots,
            qubits=qubit_fits,
            pairs=pair_fits,
            metadata={
                "num_circuits": len(specs),
                "failed_circuits": failed_circuits,
                "duration_seconds": round(time.perf_counter() - started, 3),
                "rb_lengths": list(self.rb_lengths),
                "rb_samples": self.rb_samples,
                "interleaved_gate": self.interleaved_gate,
                "pauli_strings": list(self.pauli_strings),
                "pauli_depths": list(self.pauli_depths),
                "pauli_samples": self.pauli_samples,
                "readout_chunk_size": self.readout_chunk_size,
                "engine_stats": engine_stats,
                **({"trace_id": trace_id} if trace_id is not None else {}),
            },
        )

    def learn(self, name: str | None = None) -> LearnedDeviceModel:
        """Run the calibration and assemble the learned device model."""
        return LearnedDeviceModel.from_record(self.run(), name=name)

    # -- per-experiment estimators --------------------------------------

    def _fit_readout(self, specs, results, qubit_fits) -> None:
        by_qubit: dict[int, dict[int, tuple]] = {}
        for spec, result in zip(specs, results):
            if not isinstance(spec, ReadoutSpec) or not result.ok:
                continue
            for qubit in spec.qubits:
                by_qubit.setdefault(qubit, {})[spec.prepared_bit] = (
                    result.counts,
                    result.bit_for_qubit(qubit),
                )
        for qubit, experiments in by_qubit.items():
            zero_counts, zero_bit = experiments[0]
            one_counts, one_bit = experiments[1]
            error, stderr = readout_error_from_counts(
                zero_counts, one_counts, zero_bit, one_bit
            )
            qubit_fits.setdefault(qubit, {})["readout"] = {
                "prob_1_given_0": error.prob_1_given_0,
                "prob_0_given_1": error.prob_0_given_1,
                "stderr": stderr,
            }

    def _fit_pair_readout(self, specs, results, pair_fits) -> None:
        by_pair: dict[tuple[int, int], dict[int, object]] = {}
        for spec, result in zip(specs, results):
            if not isinstance(spec, PairReadoutSpec) or not result.ok:
                continue
            by_pair.setdefault(spec.pair, {})[spec.pattern] = result.counts
        for pair, counts_by_pattern in by_pair.items():
            matrix = confusion_matrix_from_counts(counts_by_pattern, bits=(0, 1))
            pair_fits.setdefault(tuple(sorted(pair)), {})["joint_confusion"] = [
                [round(float(x), 6) for x in row] for row in matrix
            ]

    def _fit_rb(self, specs, results, qubit_fits) -> None:
        survivals: dict[tuple[int, bool], list[tuple[int, float]]] = {}
        gate_counts: dict[int, list[float]] = {}
        for spec, result in zip(specs, results):
            if not isinstance(spec, RBSpec) or not result.ok:
                continue
            interleaved = spec.interleaved_gate is not None
            survival = bit_frequency(result.counts, 0, value=0)
            survivals.setdefault((spec.qubit, interleaved), []).append(
                (spec.length, survival)
            )
            if not interleaved and spec.length:
                gate_counts.setdefault(spec.qubit, []).append(spec.num_gates / spec.length)
        # The survival asymptote is pinned at the fully-depolarized value
        # 1/d = 1/2: our sequences only decay to ~0.9, so a free offset is
        # not identifiable (a, b, p trade off along a degenerate valley) —
        # the standard RB practice.  Asymmetric readout shifts the true
        # asymptote by O(p01 - p10); the misfit lands in the amplitude and
        # cancels in the interleaved ratio.
        for qubit in sorted({q for q, _ in survivals}):
            standard = survivals.get((qubit, False), [])
            if len(standard) < 2:
                continue
            lengths, values = zip(*standard)
            fit = fit_exponential_decay(lengths, values, fixed_offset=0.5)
            entry = qubit_fits.setdefault(qubit, {})
            entry["rb"] = {
                "p": fit.rate,
                "stderr": fit.rate_stderr,
                "epc": survival_to_epc(fit.rate),
                "avg_gates_per_clifford": float(np.mean(gate_counts.get(qubit, [0.0]))),
            }
            interleaved = survivals.get((qubit, True), [])
            if len(interleaved) < 2:
                continue
            lengths, values = zip(*interleaved)
            interleaved_fit = fit_exponential_decay(lengths, values, fixed_offset=0.5)
            entry["interleaved_rb"] = {
                "p": interleaved_fit.rate,
                "stderr": interleaved_fit.rate_stderr,
                "gate": self.interleaved_gate,
            }
            entry["gate_error"] = interleaved_gate_error(fit.rate, interleaved_fit.rate)

    def _fit_pauli_learning(self, specs, results, pair_fits) -> None:
        # (pair, pauli, interleaved) -> [(depth, expectation), ...]
        decays: dict[tuple, list[tuple[int, float]]] = {}
        for spec, result in zip(specs, results):
            if not isinstance(spec, PauliLearningSpec) or not result.ok:
                continue
            expectation = spec.sign * result.distribution.expectation_z(spec.parity_bits)
            decays.setdefault((spec.pair, spec.pauli, spec.interleaved), []).append(
                (spec.depth, expectation)
            )
        for pair in sorted({pair for pair, _, _ in decays}):
            fidelities: dict[str, float] = {}
            stderrs: list[float] = []
            for pauli in self.pauli_strings:
                interleaved = decays.get((pair, pauli, True), [])
                reference = decays.get((pair, pauli, False), [])
                if len(interleaved) < 2 or len(reference) < 2:
                    continue
                lengths, values = zip(*interleaved)
                fit_cx = fit_exponential_decay(lengths, values, fixed_offset=0.0)
                lengths, values = zip(*reference)
                fit_ref = fit_exponential_decay(lengths, values, fixed_offset=0.0)
                ratio = min(max(fit_cx.rate / max(fit_ref.rate, 1e-9), 0.0), 1.0)
                fidelities[pauli] = ratio
                stderrs.append(
                    ratio
                    * float(
                        np.hypot(
                            fit_cx.rate_stderr / max(fit_cx.rate, 1e-9),
                            fit_ref.rate_stderr / max(fit_ref.rate, 1e-9),
                        )
                    )
                )
            if not fidelities:
                continue
            entry = pair_fits.setdefault(tuple(sorted(pair)), {})
            entry["pauli_fidelities"] = {k: float(v) for k, v in fidelities.items()}
            entry["cx_error"] = average_infidelity_from_pauli_fidelities(fidelities)
            # Rough propagated uncertainty on the average infidelity: the
            # (d-1)/(d+1)-weighted mean of the per-Pauli ratio errors,
            # shrunk by the number of independent probes.
            entry["stderr"] = float(
                (3.0 / 5.0) * np.mean(stderrs) / np.sqrt(len(stderrs))
            )
