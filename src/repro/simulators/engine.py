"""Batched, cached circuit execution — the shared front-end for subset-circuit
workloads.

QuTracer-style mitigation runs *many small circuits*: one per traced subset,
per Pauli-check variant, per layer.  Large fractions of those circuits repeat
— the same layer is re-checked for every subset, the same check configuration
recurs across layers, benchmark sweeps re-run identical baselines.  The
:class:`ExecutionEngine` turns those repeats into cache hits:

* :meth:`ExecutionEngine.execute_many` takes a whole batch of circuits and
  deduplicates identical members before running anything;
* results are stored in a **content-addressed cache** keyed by the circuit's
  structural fingerprint, the noise model's fingerprint, and the execution
  parameters (method, shots, derived seed), so repeats across calls — and
  across consumers sharing one engine — are free;
* idle wires are compacted away (with the noise model remapped to the
  surviving wires), so a subset circuit embedded on a wide device simulates
  in ``2**k`` rather than ``2**n`` memory and can use the exact
  density-matrix method instead of trajectory sampling;
* the trajectory path uses the ensemble backend
  (:func:`~repro.simulators.ensemble.simulate_trajectories_ensemble`), which
  carries every trajectory in one ``(T, 2**n)`` array, applies each fused
  gate once to the whole batch, and samples all measurement shots in one
  inverse-CDF pass — see ``docs/architecture.md``.

See ``docs/architecture.md`` for the cache-key design, batching semantics
and method auto-selection rules.

One batch pipeline
------------------
Every batch runs the same three steps, whatever the ``workers`` setting:

* **plan** walks the slots once.  Failed prepares, cache hits and
  duplicates of a key that missed earlier in the batch are settled here;
  every other slot becomes a task, except that density-matrix and seeded
  sampled requests share one readout-free run per state key (``dm-state``
  or ``traj-state``).  Density-matrix tasks whose circuits share a body
  (:func:`~repro.simulators.fusion.split_body`) carry one shared body
  object and their own tails;
* **execute** runs each task once — in-process, or with ``workers > 1``
  on the :class:`~repro.simulators.parallel.ParallelSharder` pool, which
  runs a task again only when its worker process died.  It is the only
  step that depends on the route, and both routes compute with
  :func:`~repro.simulators.parallel.run_compact_task` alone, handing it a
  one-entry body memo per batch (per chunk in a pool worker) so a shared
  body evolves once.  A failed task raises its fault or, isolating, fails
  its slots, on either route;
* **finish** writes cache lines, applies each state consumer's own
  readout (confusion plus seeded sampling on a density matrix, seeded
  flips on sampled counts), and fans results and failures out to
  duplicate slots.

Determinism and caching
-----------------------
A request is **cacheable** when its outcome is a pure function of its key:
exact methods without sampling always are; sampled requests are cacheable
only when a ``seed`` is given.  Unseeded sampling is executed fresh every
time so repeated calls stay statistically independent.

Per-circuit seeds are derived from the base seed *and the circuit
fingerprint*, so distinct circuits in a batch are decorrelated while
identical circuits receive identical seeds — which is exactly what makes
deduplication exact rather than approximate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import weakref
from collections import OrderedDict
from typing import Any, Sequence

from ..circuits import QuantumCircuit, circuit_fingerprint
from ..distributions import Counts, ProbabilityDistribution, scatter_outcomes
from ..noise import NoiseModel, as_noise_model
from ..tracing import TraceRecorder, TraceStore, result_digest
from .cache import DEFAULT_MAX_BYTES, PersistentResultCache
from .density_matrix import apply_readout_confusion
from .execute import DEFAULT_DENSITY_MATRIX_THRESHOLD
from .faults import EngineInvariantError, ExecutionFault, SimulationError, fault_annotation
from .fusion import split_body
from .kernels import resolve_backend
from .parallel import (
    DEFAULT_TRAJECTORY_SHOTS,
    METHODS,
    CompactTask,
    ParallelSharder,
    read_out_result,
    resolve_method,
    run_compact_task,
    sample_result,
)
from .result import ExecutionResult, FailedResult

__all__ = [
    "ExecutionEngine",
    "EngineStats",
    "circuit_fingerprint",
    "get_default_engine",
]

# DEFAULT_TRAJECTORY_SHOTS is defined next to the compute function in
# .parallel and imported above: the cache key (here) and the simulated shot
# count (there) must agree on what shots=None means.


# circuit_fingerprint lives in repro.circuits.fingerprint; re-exported here
# for compatibility.


# The pipeline stages each slot times ("bt" in execute_many).
_SLOT_STAGES = ("prepare", "cache", "deliver")


@dataclasses.dataclass
class EngineStats:
    """Cache and execution accounting for one :class:`ExecutionEngine`.

    A plain dataclass that only its engine writes: the engine's one store
    of counts.  Per-request detail (stage timings, serving tier, where each
    execution ran) lives in the execution trace instead.
    """

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batch_dedup_hits: int = 0
    uncacheable: int = 0
    executed: int = 0
    # Density-matrix and seeded sampled requests served by a readout-free
    # run they did not trigger: one earlier in the batch or a cached state
    # line (same circuit + gate noise under a different readout model).
    state_cache_hits: int = 0
    # Subset of cache_hits that were served from the persistent on-disk
    # layer (and promoted into the in-memory cache).
    persistent_hits: int = 0
    # Executions dispatched to pool workers (the rest ran in-process).
    parallel_executed: int = 0
    # --- fault accounting ----------------------------------------------
    # Request slots that terminated as FailedResult under on_error="isolate"
    # (duplicates of one poison circuit each count: the *executions* behind
    # them are deduplicated, the slots are not).
    isolated_failures: int = 0
    # Process-pool respawns after worker crashes / stuck-worker timeouts.
    pool_respawns: int = 0
    # Why the latest pool batch ran tasks in-process (None when the pool ran
    # them all); mirrors ParallelSharder.fallback_reason so silent in-process
    # degradation is visible on the engine's own accounting.
    fallback_reason: str | None = None

    @property
    def hit_rate(self) -> float:
        served = self.cache_hits + self.batch_dedup_hits
        return served / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (plus the derived hit rate).

        Used by consumers that archive execution accounting alongside their
        results.
        """
        snapshot = dataclasses.asdict(self)
        snapshot["hit_rate"] = round(self.hit_rate, 6)
        return snapshot

    def reset(self) -> None:
        """Return every field to its dataclass default.

        Field-driven (the dataclass initialiser) so a newly added counter
        can never be silently skipped — hand-listing fields here is how
        stale telemetry leaked across runs before.
        """
        self.__init__()


@dataclasses.dataclass
class _Prepared:
    """A request after compaction and key derivation.

    ``active`` and ``num_qubits`` record the original wire embedding: cached
    results live in *compact* space (they never mention original wire
    indices), and :meth:`ExecutionEngine._deliver` translates them into each
    requester's embedding.  Baking the embedding into the cached object would
    let a cache hit from a different embedding of the same compact structure
    hand back another requester's wire labels.
    """

    compact: QuantumCircuit
    active: list[int]
    num_qubits: int
    has_measurements: bool
    noise: NoiseModel
    method: str
    seed: int | None
    key: tuple | None  # None => not cacheable
    fingerprint: str = ""


@dataclasses.dataclass
class _Job:
    """One unit of planned work and the consumers its output serves.

    Each consumer is the list of slots one result reaches: the slot that
    missed first, then the batch-dedup duplicates of its key.  A job
    without a ``state_key`` has exactly one consumer.  A job keyed by
    ``state_key`` may serve many consumers that differ only in readout; its
    ``task`` is the readout-free run, or ``None`` when ``state`` came from
    the cache.  The state is the ``(distribution, measured_qubits)``
    pre-readout payload of a density matrix (``dm-state``) or the
    readout-free ``ExecutionResult`` of a seeded sampled run
    (``traj-state``).
    """

    consumers: list[list[int]]
    task: CompactTask | None
    state_key: tuple | None = None
    state: tuple | None = None


class ExecutionEngine:
    """Batched, cached execution front-end over the simulators.

    The engine is the one place execution is configured: the QuTracer and
    mitigation consumers take an ``engine=``, so sharding or a persistent
    cache for them means passing an engine built with ``workers`` /
    ``cache_dir``.  Every request compacts its idle wires
    (with the noise model remapped onto the surviving wires) and every
    simulator fuses at the width
    :func:`~repro.simulators.fusion.choose_fusion_width` picks.

    Parameters
    ----------
    density_matrix_threshold:
        Widest (compacted) noisy circuit simulated exactly; wider circuits
        use Monte-Carlo trajectories.
    max_trajectories:
        Trajectory budget per circuit for the stochastic path; must be
        positive.
    cache_size:
        Maximum number of cached results (LRU eviction).
    kernel_backend:
        Kernel tier for classified fused blocks
        (:mod:`repro.simulators.kernels`): ``"numpy"`` (specialized
        vectorized kernels, also what ``None`` means) or ``"generic"``
        (force the tensordot reference path).  The backend is part of the
        trajectory, statevector, ``dm-state`` and trajectory ``traj-state``
        cache keys and is stamped into trace events.
    workers:
        Process count for sharding :meth:`execute_many` batches across a
        :class:`~repro.simulators.parallel.ParallelSharder` pool.  ``None``
        or ``1`` keeps everything in-process.  Deduplication and cache
        lookups always happen in the parent; only novel work is dispatched,
        and results are bit-identical to a serial run (workers execute the
        same pure compute function with the same derived seeds).
    chunk_size:
        Tasks per pickled work unit when sharding (``None`` auto-sizes);
        must be at least 1, whatever ``workers`` is.
    cache_dir:
        Directory for the persistent on-disk result cache
        (:class:`~repro.simulators.cache.PersistentResultCache`).  Backs the
        in-memory LRU: misses fall through to disk, fresh results are
        written through, so repeated experiments warm-start across
        processes and sessions.  ``None`` (default) disables persistence.
    persistent_cache_bytes:
        Size cap for the on-disk cache tree (LRU eviction by mtime).
    task_timeout:
        Wall-clock seconds each *dispatched* task may take under
        ``workers > 1``, from when a worker is free to start it (a blown
        budget cancels the future, fails the slot with
        :class:`~repro.simulators.faults.TaskTimeoutError` and recycles the
        pool).  ``None`` disables timeouts; a value must be positive,
        whatever ``workers`` is.  The in-process path cannot preempt a
        running simulation, so timeouts only guard pool dispatch.
    tracer:
        A :class:`~repro.tracing.TraceRecorder` to record per-batch
        execution traces into (``None`` disables tracing; traced and
        untraced runs are bit-identical).  Every :meth:`execute_many`
        call becomes one trace: per-stage timings, cache-tier
        attribution, resolved methods and fault annotations, with pool
        workers reporting their pid and measured duration through the
        result metadata.
    trace_dir:
        Convenience: directory for persisted JSONL trace artifacts.
        Builds ``TraceRecorder(store=TraceStore(trace_dir))`` when no
        explicit ``tracer`` is given; ignored otherwise.

    The engine's telemetry is :attr:`stats` (an :class:`EngineStats` of
    counts) and, with a tracer, one trace per batch.  Without a tracer the
    hot path records no timings.
    """

    def __init__(
        self,
        density_matrix_threshold: int = DEFAULT_DENSITY_MATRIX_THRESHOLD,
        max_trajectories: int = 600,
        cache_size: int = 32768,
        kernel_backend: str | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        cache_dir: str | None = None,
        persistent_cache_bytes: int | None = DEFAULT_MAX_BYTES,
        task_timeout: float | None = None,
        tracer: TraceRecorder | None = None,
        trace_dir: str | None = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if max_trajectories <= 0:
            raise ValueError("max_trajectories must be positive")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for in-process)")
        self.density_matrix_threshold = int(density_matrix_threshold)
        self.max_trajectories = int(max_trajectories)
        self.cache_size = int(cache_size)
        # Resolved once: every task this engine dispatches (in-process or
        # pool) runs the same kernel tier, and the cache keys below carry it.
        self.kernel_backend = resolve_backend(kernel_backend)
        self.workers = int(workers) if workers is not None else None
        if tracer is None and trace_dir is not None:
            tracer = TraceRecorder(store=TraceStore(trace_dir))
        self.tracer = tracer
        # The pool route.  Built whatever ``workers`` is, so the sharder's
        # own checks reject a bad chunk_size or task_timeout here, not in a
        # later batch; batches go through it only with ``workers > 1``, and
        # it starts its worker processes on first use.
        self._sharder = ParallelSharder(
            self.workers or 1, chunk_size=chunk_size, task_timeout=task_timeout
        )
        self._persistent = (
            PersistentResultCache(cache_dir, max_bytes=persistent_cache_bytes)
            if cache_dir is not None
            else None
        )
        self.stats = EngineStats()
        # Maps result keys -> ExecutionResult, "dm-state" keys -> the
        # (distribution, measured_qubits) pre-readout payload and
        # "traj-state" keys -> the readout-free ExecutionResult.
        self._cache: OrderedDict[tuple, Any] = OrderedDict()
        # Per-object memos, all keyed weakly on the live NoiseModel and
        # tagged with its mutation version so an in-place ``set_*`` call
        # invalidates them instead of serving stale derived data.
        # noise model -> (version, fingerprint)
        self._noise_fingerprints: "weakref.WeakKeyDictionary[NoiseModel, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        # noise model -> (version, gate-noise-only model, its fingerprint);
        # avoids a deep copy + rehash per density-matrix request.
        self._gate_noise: "weakref.WeakKeyDictionary[NoiseModel, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        # noise model -> (version, {active-wire tuple: remapped model});
        # subset circuits sharing a compaction reuse one remapped model (and
        # therefore its memoised fingerprint) instead of rebuilding and
        # re-hashing the full device model on every request.
        self._remapped: "weakref.WeakKeyDictionary[NoiseModel, tuple]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(
        self,
        circuit: QuantumCircuit,
        noise_model: NoiseModel | None = None,
        shots: int | None = None,
        seed: int | None = None,
        method: str = "auto",
        max_trajectories: int | None = None,
        on_error: str = "raise",
    ) -> ExecutionResult:
        """Run one circuit through the cache (see :meth:`execute_many`).

        A single-request batch never shards (there is nothing to run
        concurrently), so this is always served in-process regardless of
        the engine's ``workers`` setting.
        """
        return self.execute_many(
            [circuit],
            noise_model=noise_model,
            shots=shots,
            seed=seed,
            method=method,
            max_trajectories=max_trajectories,
            on_error=on_error,
        )[0]

    def install_tracer(self, tracer: TraceRecorder | None) -> None:
        """Install (or, with ``None``, remove) an execution-trace recorder.

        Takes effect on the next :meth:`execute_many` call; traced and
        untraced runs return bit-identical results.
        """
        self.tracer = tracer

    def execute_many(
        self,
        circuits: Sequence[QuantumCircuit],
        noise_model: NoiseModel | None = None,
        shots: int | None = None,
        seed: int | None = None,
        method: str = "auto",
        max_trajectories: int | None = None,
        on_error: str = "raise",
    ) -> list[ExecutionResult | FailedResult]:
        """Run a batch of circuits, deduplicating and caching shared work.

        All circuits share the noise model and shot budget (the common case:
        one batch of subset/check-variant circuits per mitigation step).
        With ``workers > 1`` on the engine, requests that survive
        deduplication and cache lookup are sharded across a process pool
        and return bit-identical results to a serial run.
        Identical circuits are executed once; every requester receives a
        result equal to what a sequential :func:`~repro.simulators.execute.execute`
        call would produce.  ``seed`` decorrelates distinct circuits (each
        derives its own seed from the base seed and its fingerprint) while
        keeping identical circuits bit-identical.

        ``method`` accepts ``"auto"``, ``"statevector"``,
        ``"density_matrix"`` and ``"trajectory"``; any other name raises
        ``ValueError``.

        Results are internally cached in compact (idle-wires-dropped) space
        and translated into each requester's wire embedding on delivery, so
        two embeddings of the same structure (H on wire 2 of 3 vs. H on
        wire 0 of 3) share cache lines yet each see their own
        ``measured_qubits``.  Each returned result owns its payloads —
        mutating a returned distribution or counts object cannot corrupt
        later cache hits.

        One documented divergence from sequential ``execute``: a circuit
        with **no measurements** yields a full-width distribution in which
        idle wires read a deterministic 0 — they are never simulated, so
        (unlike an uncompacted sequential noisy run, which treats every
        wire of an unmeasured circuit as read out) they receive no readout
        confusion.

        Returns one :class:`~repro.simulators.result.ExecutionResult` per
        input circuit, in input order.

        ``noise_model`` may be anything :func:`~repro.noise.as_noise_model`
        accepts — in particular a :class:`~repro.noise.DeviceModel`, whose
        derived ``noise_model()`` is used.

        ``on_error`` picks the failure semantics of this call.  Under
        ``"raise"`` (the default) the first failed task aborts the batch
        with its structured fault; in-process, a bare backend exception
        (such as "statevector cannot apply noise") propagates unwrapped.
        Under ``"isolate"`` a circuit that fails yields a
        :class:`~repro.simulators.result.FailedResult` in its slot while
        every healthy slot completes bit-identically to a fault-free run;
        duplicates of one poison circuit are failed from a single execution
        (dedup applies to failures exactly as it does to results).  A
        circuit whose preparation fails raises its original exception under
        ``"raise"``; isolated, its slot holds a
        :class:`~repro.simulators.faults.SimulationError` with ``stage``
        ``"prepare"``.  Argument-validation errors (unknown method,
        non-positive shots, bad ``on_error``) always raise — they doom the
        whole batch, not a slot.
        """
        tracer = self.tracer
        if tracer is None:
            return self._execute_many_impl(
                circuits, noise_model, shots, seed, method, max_trajectories, on_error
            )
        # One execute_many call == one trace.  The root span closes (and
        # the trace flushes to storage) even when a terminal fault aborts
        # the batch in raise mode — an aborted batch still leaves a
        # complete post-mortem artifact.
        span = tracer.start_span(
            "engine.execute_many",
            requests=len(circuits),
            shots=shots,
            seed=seed,
            method=method,
            on_error=on_error,
        )
        try:
            results = self._execute_many_impl(
                circuits, noise_model, shots, seed, method, max_trajectories, on_error
            )
        except BaseException as exc:
            tracer.end_span(span, status="raised", **fault_annotation(exc))
            raise
        tracer.end_span(span, status="ok")
        return results

    def _execute_many_impl(
        self,
        circuits: Sequence[QuantumCircuit],
        noise_model,
        shots: int | None,
        seed: int | None,
        method: str,
        max_trajectories: int | None,
        on_error: str,
    ) -> list[ExecutionResult | FailedResult]:
        if on_error not in ("raise", "isolate"):
            raise ValueError("on_error must be 'raise' or 'isolate'")
        isolate = on_error == "isolate"
        # Batch-wide argument validation stays raise-always even in isolate
        # mode: these reject the call, not any one circuit.
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if shots is not None and shots <= 0:
            raise ValueError("shots must be positive")
        if max_trajectories is not None and max_trajectories <= 0:
            raise ValueError("max_trajectories must be positive")
        noise_model = as_noise_model(noise_model) if noise_model is not None else NoiseModel.ideal()
        max_trajectories = self.max_trajectories if max_trajectories is None else max_trajectories
        # Per-slot trace bookkeeping ("bt"): stage timings and cache-tier
        # attribution, emitted as one "request" event per slot at batch end.
        # None without a tracer — every emit site is guarded, so the
        # untraced hot path pays one comparison per slot.
        traced = self.tracer is not None
        bt = {key: [None] * len(circuits) for key in (*_SLOT_STAGES, "tiers")} if traced else None
        prepared: list[_Prepared | FailedResult] = []
        # One clock read per slot: each slot's prepare ends where the next begins.
        prepare_started = time.perf_counter() if traced else 0.0
        for circuit in circuits:
            try:
                prepared.append(
                    self._prepare(circuit, noise_model, shots, seed, method, max_trajectories)
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if not isolate:
                    raise  # historical contract: the original exception type
                try:
                    fingerprint: str | None = circuit_fingerprint(circuit)
                except Exception:
                    fingerprint = None
                prepared.append(
                    self._failure(exc, SimulationError, fingerprint, None, "prepare")
                )
            if bt is not None:
                prepare_ended = time.perf_counter()
                bt["prepare"][len(prepared) - 1] = prepare_ended - prepare_started
                prepare_started = prepare_ended

        # One pipeline for both routes — plan, execute, finish; only the
        # executor differs.  A single-slot batch never shards.
        results: list[ExecutionResult | FailedResult | None] = [None] * len(prepared)
        jobs = self._plan(prepared, shots, max_trajectories, results, bt)
        tasks = [job.task for job in jobs if job.task is not None]
        if self._sharder.workers > 1 and len(prepared) > 1:
            outputs = self._execute_pool(tasks, isolate)
        else:
            memo: dict = {}
            outputs = [self._execute_task(task, isolate, memo) for task in tasks]
        self._finish(jobs, outputs, prepared, shots, results, bt)
        self._publish_slots(results, prepared, bt)
        # One result per input, in input order — callers zip against their
        # inputs, so a silently shrunk list would misattribute results.
        self._check_delivered(results, prepared)
        return results  # type: ignore[return-value]

    def _plan(
        self,
        prepared: list[_Prepared | FailedResult],
        shots: int | None,
        max_trajectories: int,
        results: list,
        bt: dict | None,
    ) -> list[_Job]:
        """Walk the slots once; serve what is known, turn the rest into jobs.

        Each slot is a failed prepare, uncacheable, a batch-dedup of a key
        that missed earlier in this batch, a cache hit, or a new consumer.
        Cache hits and failed prepares are delivered here.  A consumer with
        a state key (see :meth:`_state`) joins the job of that key — a run
        already planned in this batch, a cached state, or a new readout-free
        task; any other consumer gets a task of its own.

        Density-matrix tasks are then grouped by body key: the fingerprint
        of the circuit's :func:`~repro.simulators.fusion.split_body` body
        plus the gate-noise fingerprint.  Each body two or more tasks share
        becomes one object on all of them, and their circuits become their
        tails; every other task runs its whole circuit.  Tasks keep their
        order and stay one per job, so keys and counts are those
        of an unsplit batch.
        """
        stats = self.stats
        jobs: list[_Job] = []
        by_key: dict[tuple, list[int]] = {}  # result key -> slots it serves
        by_state: dict[tuple, _Job] = {}
        by_body: dict[tuple, list] = {}  # body key -> [(job, body, tail), ...]
        for index, request in enumerate(prepared):
            stats.requests += 1
            if isinstance(request, FailedResult):
                # Prepare already failed this slot (isolate mode only).
                stats.isolated_failures += 1
                if bt is not None:
                    bt["tiers"][index] = "failed-prepare"
                results[index] = request
                continue
            if request.key is None:
                # Unseeded sampling: uncacheable and never deduplicated —
                # each occurrence is an independent draw.
                stats.uncacheable += 1
                if bt is not None:
                    bt["tiers"][index] = "uncacheable"
            else:
                slots = by_key.get(request.key)
                if slots is not None:
                    stats.batch_dedup_hits += 1
                    if bt is not None:
                        bt["tiers"][index] = "batch-dedup"
                    slots.append(index)
                    continue
                lookup_started = time.perf_counter() if bt is not None else 0.0
                persistent_before = stats.persistent_hits
                cached = self._cache_get(request.key)
                if bt is not None:
                    bt["cache"][index] = time.perf_counter() - lookup_started
                if cached is not None:
                    stats.cache_hits += 1
                    if bt is not None:
                        bt["tiers"][index] = (
                            "persistent" if stats.persistent_hits > persistent_before else "memory"
                        )
                    results[index] = self._deliver(cached, request, bt, index)
                    continue
                stats.cache_misses += 1
                if bt is not None:
                    bt["tiers"][index] = "executed"
            slots = [index]
            if request.key is not None:
                by_key[request.key] = slots
            state = self._state(request)
            if state is None:
                jobs.append(_Job([slots], self._task_for(request, shots, max_trajectories)))
                continue
            state_key, gate_noise = state
            job = by_state.get(state_key)
            if job is None:
                cached = self._cache_get(state_key)
                job = by_state[state_key] = _Job([], None, state_key, cached)
                jobs.append(job)
                if cached is None:
                    # The readout-free run.  A density matrix evolves
                    # exactly; its consumers sample after their confusion.
                    exact = request.method == "density_matrix"
                    job.task = dataclasses.replace(
                        self._task_for(request, None if exact else shots, max_trajectories),
                        noise=gate_noise,
                        seed=None if exact else request.seed,
                    )
                    split = split_body(request.compact, gate_noise) if exact else None
                    if split is not None:
                        body_key = (circuit_fingerprint(split[0]), state_key[2])
                        by_body.setdefault(body_key, []).append((job, *split))
            job.consumers.append(slots)
        for mates in by_body.values():
            if len(mates) > 1:
                body = mates[0][1]
                for job, _, tail in mates:
                    job.task = dataclasses.replace(job.task, circuit=tail, body=body)
        return jobs

    def _execute_task(
        self, task: CompactTask, isolate: bool, memo: dict
    ) -> ExecutionResult | FailedResult:
        """The in-process executor: run one task once.

        ``memo`` is the batch's body memo (see
        :func:`~repro.simulators.parallel.run_compact_task`).  When traced,
        the run is recorded as one execution.
        """
        tracer = self.tracer
        traced = tracer is not None and tracer.active
        started = time.perf_counter() if traced else 0.0
        try:
            outcome = run_compact_task(task, memo)
        except Exception as exc:
            outcome = exc
        if traced:
            self._record_execute(task, outcome, time.perf_counter() - started, "in-process")
        return self._settle(task, outcome, isolate)

    def _execute_pool(
        self, tasks: list[CompactTask], isolate: bool
    ) -> list[ExecutionResult | FailedResult]:
        """The pool executor: shard ``tasks`` across the process pool.

        The sharder returns each task's result or structured
        :class:`~repro.simulators.faults.ExecutionFault` (it already
        absorbed pool crashes and timeouts); a fault is settled exactly as
        an in-process one is.
        """
        sharder = self._sharder
        tracer = self.tracer
        dispatch_started = time.perf_counter() if tracer is not None else 0.0
        outputs = sharder.run(tasks)
        self.stats.parallel_executed += sharder.last_dispatched
        self.stats.pool_respawns += sharder.last_respawns
        self.stats.fallback_reason = sharder.fallback_reason
        if tracer is not None and tasks:
            tracer.event(
                "dispatch",
                duration=time.perf_counter() - dispatch_started,
                tasks=len(tasks),
                workers=self.workers,
                dispatched=sharder.last_dispatched,
                respawns=sharder.last_respawns,
                fallback=sharder.fallback_reason,
            )
        for position, (task, output) in enumerate(zip(tasks, outputs)):
            if isinstance(output, ExecutionFault):
                self._record_execute(task, output, None, "pool")
                outputs[position] = self._settle(task, output, isolate)
                continue
            # Pop the fragment before the result can reach the cache: a
            # persisted entry must not carry one run's residue into later hits.
            fragment = output.metadata.pop("trace_fragment")
            self._record_execute(
                task,
                output,
                fragment["duration"],
                "pool" if fragment["in_worker"] else "in-process-fallback",
                worker_pid=fragment["pid"],
            )
        return outputs

    def _settle(
        self, task: CompactTask, outcome: ExecutionResult | Exception, isolate: bool
    ) -> ExecutionResult | FailedResult:
        """A task's result, or its failure: raised, or isolated in a slot."""
        if isinstance(outcome, ExecutionResult):
            return outcome
        if not isolate:
            raise outcome
        return self._failure(outcome, SimulationError, task.fingerprint, task.method, "simulate")

    def _finish(
        self,
        jobs: list[_Job],
        outputs: list[ExecutionResult | FailedResult],
        prepared: list[_Prepared | FailedResult],
        shots: int | None,
        results: list,
        bt: dict | None,
    ) -> None:
        """Write cache lines and deliver every job's output to its consumers.

        A job with a state key first stores its readout-free run under that
        key; each consumer then gets its own readout on top — exact
        confusion plus optional seeded sampling on a density matrix, seeded
        flips (:func:`~repro.simulators.parallel.read_out_result`) on
        sampled counts.  Every consumer served by a run it did not trigger
        counts as one ``state_cache_hit``.
        """
        outputs_iter = iter(outputs)
        for job in jobs:
            output = next(outputs_iter) if job.task is not None else None
            if job.state_key is None:
                self._complete(job.consumers[0], output, prepared, results, bt)
                continue
            if isinstance(output, ExecutionResult):
                if job.state_key[0] == "traj-state":
                    job.state = output
                else:
                    job.state = (output.distribution, list(output.measured_qubits))
                self._cache_put(job.state_key, job.state)
            for position, slots in enumerate(job.consumers):
                if job.state is None:  # the run failed: so does every consumer
                    self._complete(slots, output, prepared, results, bt)
                    continue
                if job.task is None or position > 0:
                    self.stats.state_cache_hits += 1
                request = prepared[slots[0]]
                if isinstance(job.state, ExecutionResult):
                    result = read_out_result(job.state, request.noise, request.seed)
                else:
                    distribution, measured_qubits = job.state
                    result = sample_result(
                        ExecutionResult(
                            distribution=apply_readout_confusion(
                                distribution, measured_qubits, request.noise
                            ),
                            measured_qubits=list(measured_qubits),
                            method="density_matrix",
                        ),
                        shots,
                        request.seed,
                    )
                self._complete(slots, result, prepared, results, bt)

    def _complete(
        self,
        slots: list[int],
        output: ExecutionResult | FailedResult,
        prepared: list[_Prepared | FailedResult],
        results: list,
        bt: dict | None,
    ) -> None:
        """Cache one consumer's output and fan it out to every slot it serves.

        Failures fan out the same way: one poison execution fails every
        duplicate slot awaiting it, without re-running the poison.
        """
        if isinstance(output, FailedResult):
            for index in slots:
                self.stats.isolated_failures += 1
                results[index] = dataclasses.replace(output, metadata=dict(output.metadata))
            return
        self.stats.executed += 1
        key = prepared[slots[0]].key
        if key is not None:
            self._cache_put(key, output)
        for index in slots:
            # Each slot gets its own delivery — handing out the cache-backing
            # object would let caller mutations poison later hits on this key.
            results[index] = self._deliver(output, prepared[index], bt, index)

    def _check_delivered(
        self,
        results: list,
        prepared: list,
    ) -> None:
        """Every request slot must hold a result — name the lost ones if not."""
        undelivered = [
            request.key or request.fingerprint if isinstance(request, _Prepared) else None
            for request, result in zip(prepared, results)
            if result is None
        ]
        if undelivered:
            raise EngineInvariantError(
                "a request was dispatched without a result",
                undelivered=undelivered,
                stage="deliver",
            )

    # ------------------------------------------------------------------
    # Instrumentation: the trace's execute and request events
    # ------------------------------------------------------------------

    def _record_execute(
        self,
        task: CompactTask,
        outcome: ExecutionResult | BaseException,
        duration: float | None,
        location: str,
        worker_pid: int | None = None,
    ) -> None:
        """Record one execution, whatever route ran it.

        ``outcome`` is the result or the fault that ended the run; an open
        trace gets one ``execute`` event.
        """
        tracer = self.tracer
        if tracer is not None and tracer.active:
            attrs: dict[str, Any] = {
                "fingerprint": task.fingerprint,
                "resolved": task.method,
                "location": location,
                "kernel_backend": self.kernel_backend,
            }
            if worker_pid is not None:
                attrs["worker_pid"] = worker_pid
            if isinstance(outcome, ExecutionResult):
                attrs["status"] = "ok"
                attrs["method"] = outcome.method
            else:
                attrs["status"] = "failed"
                attrs.update(fault_annotation(outcome))
            tracer.emit("execute", attrs, duration)

    def _publish_slots(self, results: list, prepared: list, bt: dict | None) -> None:
        """Emit one ``request`` event per slot, with its tier and stage timings.

        Every slot gets exactly one event, whatever happened to it; the
        fault tests pivot on this invariant.  The events go to the trace in
        one :meth:`~repro.tracing.TraceRecorder.emit_many` call.
        """
        tracer = self.tracer
        if bt is None or tracer is None:
            return
        stages = [(f"t_{stage}", bt[stage]) for stage in _SLOT_STAGES]
        key_reprs: dict[tuple, str] = {}  # batch duplicates share a key
        events = []
        for slot, tier in enumerate(bt["tiers"]):
            attrs = {"slot": slot, "tier": tier or "uncacheable"}
            for name, timings in stages:
                timing = timings[slot]
                if timing is not None:
                    attrs[name] = timing
            request = prepared[slot]
            result = results[slot]
            if isinstance(request, _Prepared):
                attrs["fingerprint"] = request.fingerprint
                attrs["resolved"] = request.method
                key = request.key
                if key is not None:
                    text = key_reprs.get(key)
                    if text is None:
                        text = key_reprs[key] = repr(key)
                    attrs["key"] = text
            if isinstance(result, FailedResult):
                attrs["ok"] = False
                attrs["fingerprint"] = attrs.get("fingerprint") or result.fingerprint
                attrs["method"] = result.method
                attrs["stage"] = result.stage
                if result.error is not None:
                    attrs.update(fault_annotation(result.error))
            elif result is not None:
                attrs["ok"] = True
                attrs["method"] = result.method
            events.append(attrs)
        tracer.emit_many("request", events)

    @staticmethod
    def _failure(
        exc: Exception, wrap: type, fingerprint: str | None, method: str | None, stage: str
    ) -> FailedResult:
        """FailedResult for a terminal fault (isolate mode).

        Taxonomy faults are kept; any other exception is wrapped in ``wrap``
        with the original chained as its cause.
        """
        if isinstance(exc, ExecutionFault):
            fault = exc
        else:
            fault = wrap(str(exc), fingerprint=fingerprint, method=method, stage=stage)
            fault.__cause__ = exc
        return FailedResult(
            error=fault,
            fingerprint=fault.fingerprint or fingerprint,
            method=fault.method or method,
            stage=fault.stage or stage,
        )

    def _task_for(
        self, request: _Prepared, shots: int | None, max_trajectories: int
    ) -> CompactTask:
        return CompactTask(
            circuit=request.compact,
            noise=request.noise,
            method=request.method,
            shots=shots,
            seed=request.seed,
            max_trajectories=max_trajectories,
            kernel_backend=self.kernel_backend,
            fingerprint=request.fingerprint,
        )

    def close(self) -> None:
        """Release the worker pool (if any).  The engine stays usable; a
        later parallel call lazily recreates the pool."""
        self._sharder.shutdown()
        if self.tracer is not None:
            self.tracer.flush()  # publish any deferred trace artifact

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear_cache(self) -> None:
        """Drop the in-memory cache (the persistent layer is untouched)."""
        self._cache.clear()

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    @property
    def persistent_cache(self) -> PersistentResultCache | None:
        return self._persistent

    # ------------------------------------------------------------------
    # Request preparation
    # ------------------------------------------------------------------

    def _prepare(
        self,
        circuit: QuantumCircuit,
        noise_model: NoiseModel,
        shots: int | None,
        seed: int | None,
        method: str,
        max_trajectories: int,
    ) -> _Prepared:
        compact, active = circuit.compact_qubits()
        if len(active) < circuit.num_qubits:
            noise = self._remapped_noise(noise_model, active)
        else:
            noise = noise_model
        resolved = resolve_method(method, compact, noise, self.density_matrix_threshold)

        fingerprint = circuit_fingerprint(compact)
        derived_seed = _derive_seed(seed, fingerprint)
        sampled = resolved == "trajectory"
        stochastic = sampled or shots is not None
        cacheable = not stochastic or derived_seed is not None
        key = None
        if cacheable:
            # The trajectory path always samples; key its implicit default
            # shot budget explicitly so shots=None and shots=4096 (identical
            # work and identical results) share one cache line.
            key_shots = shots
            if sampled and shots is None:
                key_shots = DEFAULT_TRAJECTORY_SHOTS
            # Kernel backends agree only to a few ulp, enough to flip a
            # sampled outcome near a CDF boundary, so the backend is part of
            # the identity of a trajectory result; statevector results are
            # deterministic but keyed by backend for the same ulp reason.
            # Density-matrix keys carry it on the dm-state key instead
            # (readout factoring).
            backend = self.kernel_backend if resolved in ("trajectory", "statevector") else None
            key = (
                fingerprint,
                self._noise_fingerprint(noise),
                resolved,
                key_shots,
                derived_seed,
                max_trajectories if sampled else None,
                backend,
            )
        return _Prepared(
            compact=compact,
            active=active,
            num_qubits=circuit.num_qubits,
            has_measurements=compact.has_measurements,
            noise=noise,
            method=resolved,
            seed=derived_seed,
            key=key,
            fingerprint=fingerprint,
        )

    def _noise_fingerprint(self, noise_model: NoiseModel) -> str:
        # Noise models are reused across thousands of requests (QuTracer holds
        # one per layout assignment); memoise per live object.  The weak key
        # rules out id-reuse staleness, the version tag rules out in-place
        # mutation staleness (``set_*`` bumps ``NoiseModel.version``).
        version = noise_model.version
        cached = self._noise_fingerprints.get(noise_model)
        if cached is None or cached[0] != version:
            cached = (version, noise_model.fingerprint())
            self._noise_fingerprints[noise_model] = cached
        return cached[1]

    def _remapped_noise(self, noise_model: NoiseModel, active: Sequence[int]) -> NoiseModel:
        # Memoised noise_model.remap_qubits for a compaction: every subset
        # circuit with the same active wires shares one remapped model, so its
        # fingerprint is hashed once instead of once per request.
        version = noise_model.version
        entry = self._remapped.get(noise_model)
        if entry is None or entry[0] != version:
            entry = (version, {})
            self._remapped[noise_model] = entry
        per_subset = entry[1]
        key = tuple(active)
        remapped = per_subset.get(key)
        if remapped is None:
            if len(per_subset) >= 4096:  # runaway-subset backstop
                per_subset.clear()
            remapped = noise_model.remap_qubits({q: i for i, q in enumerate(active)})
            per_subset[key] = remapped
        return remapped

    # ------------------------------------------------------------------
    # Execution and delivery
    # ------------------------------------------------------------------

    def _state(self, request: _Prepared) -> tuple[tuple, NoiseModel] | None:
        """The readout-factored state key of a request and its gate noise.

        The expensive part of an execution — the gates and gate-noise
        channels — does not depend on the readout model, so it runs once
        without readout errors, is cached under a state key, and each
        request's readout is applied on top.  A sweep over
        measurement-error rates (Fig. 7) re-simulates nothing.  This is the
        only place that builds state keys:

        * a density-matrix request keys ``("dm-state", circuit fingerprint,
          gate-noise fingerprint, kernel backend)``.  The evolution is
          deterministic, so unseeded requests share it too;
        * a seeded sampled (trajectory) request keys
          ``("traj-state", circuit fingerprint, gate-noise fingerprint,
          resolved method, shots, derived seed, max_trajectories, kernel
          backend)`` — the result key's execution parameters,
          since they fix the pre-readout outcomes;
        * any other request returns ``None``: unseeded sampling has no key
          and runs its own full-noise task.

        The readout-free noise model and its fingerprint are memoised per
        live model (version-tagged), avoiding a deep copy and rehash per
        request.
        """
        sampled = request.key is not None and request.method == "trajectory"
        if not sampled and request.method != "density_matrix":
            return None
        noise = request.noise
        version = noise.version
        memo = self._gate_noise.get(noise)
        if memo is None or memo[0] != version:
            gate_noise = noise.without_readout_errors()
            memo = (version, gate_noise, self._noise_fingerprint(gate_noise))
            self._gate_noise[noise] = memo
        if sampled:
            # request.key[2:7]: (resolved method, shots, derived seed,
            # max_trajectories, kernel backend).
            return ("traj-state", request.fingerprint, memo[2], *request.key[2:7]), memo[1]
        return ("dm-state", request.fingerprint, memo[2], self.kernel_backend), memo[1]

    def _deliver(
        self, source: ExecutionResult, request: _Prepared, bt: dict | None, index: int
    ) -> ExecutionResult:
        """Translate a compact-space result into the requester's embedding.

        Every requester gets an independent ``ExecutionResult`` whose
        payloads it owns: ``measured_qubits`` are remapped through *this*
        request's active-wire list (two embeddings of one compact structure
        share a cache line but must each see their own labels), and the
        distribution/counts are copied so caller mutations cannot poison
        later hits on the cached object.  The time taken is slot
        ``index``'s deliver stage in ``bt``.
        """
        deliver_started = time.perf_counter() if bt is not None else 0.0
        if not request.has_measurements and len(request.active) < request.num_qubits:
            # No measurements: sequential execute() reports all wires, so
            # scatter the compact bits back to their original positions
            # (idle wires were never touched and read a deterministic 0).
            distribution = ProbabilityDistribution(
                scatter_outcomes(source.distribution.items(), request.active),
                request.num_qubits,
            )
            counts = (
                Counts(
                    scatter_outcomes(source.counts.items(), request.active),
                    request.num_qubits,
                )
                if source.counts is not None
                else None
            )
            measured_qubits = list(range(request.num_qubits))
        else:
            distribution = source.distribution.copy()
            counts = source.counts.copy() if source.counts is not None else None
            measured_qubits = [request.active[q] for q in source.measured_qubits]
        delivered = ExecutionResult(
            distribution=distribution,
            measured_qubits=measured_qubits,
            counts=counts,
            shots=source.shots,
            method=source.method,
            metadata=dict(source.metadata),
        )
        if bt is not None:
            bt["deliver"][index] = time.perf_counter() - deliver_started
        return delivered

    # ------------------------------------------------------------------
    # LRU cache plumbing
    # ------------------------------------------------------------------

    def _cache_get(self, key: tuple) -> Any:
        result = self._cache.get(key)
        if result is not None:
            self._cache.move_to_end(key)
            return result
        if self._persistent is not None:
            result = self._persistent.get(key)
            if result is not None:
                self.stats.persistent_hits += 1
                # Promote to memory without re-writing the disk entry.
                self._cache_put(key, result, persist=False)
        return result

    def _cache_put(self, key: tuple, result: Any, persist: bool = True) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.active and persist:
            # Provenance for replay: the key's repr (literal-evaluable back
            # into the tuple) plus a digest of the stored payload, so a
            # later `repro.tracing replay` can verify the persistent cache
            # still serves bit-identical bytes for this trace.
            tracer.event(
                "cache-put",
                key=repr(key),
                digest=result_digest(result),
                dm_state=bool(key) and key[0] == "dm-state",
            )
        if persist and self._persistent is not None:
            self._persistent.put(key, result)
        if self.cache_size == 0:
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)


def _derive_seed(seed: int | None, fingerprint: str) -> int | None:
    """Per-circuit seed: decorrelated across circuits, equal for equals."""
    if seed is None:
        return None
    digest = hashlib.sha256(f"{seed}:{fingerprint}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


_default_engine: ExecutionEngine | None = None


def get_default_engine() -> ExecutionEngine:
    """Process-wide shared engine used when a consumer does not bring its own."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExecutionEngine()
    return _default_engine
