"""Process-parallel sharding for :class:`~repro.simulators.engine.ExecutionEngine`.

``execute_many`` batches are embarrassingly parallel once the parent has
deduplicated them: each surviving request is an independent simulation of a
compact circuit under a remapped noise model.  This module carries those
requests across a :class:`~concurrent.futures.ProcessPoolExecutor`:

* the **parent** prepares every request (compaction, key derivation),
  deduplicates identical circuits and consults the in-memory + persistent
  caches — only genuinely novel work is dispatched;
* each **worker** runs :func:`run_compact_task`, the same pure compute
  function the engine's in-process route uses, so a parallel run is
  bit-identical to a serial one (same derived seeds, same RNG streams, same
  arithmetic);
* compact-space results are pickled back, cached by the parent, and merged
  into each requester's wire embedding through the engine's existing
  ``_deliver`` translation.

Method resolution (:func:`resolve_method`), the seeded sampling tail of
the exact methods (:func:`sample_result`) and the readout tail of the
sampled ones (:func:`read_out_result`) live here too, next to the compute
function, so :func:`~repro.simulators.execute.execute` and the engine share
them.

Worker determinism
------------------
A task carries everything that determines its result — the compact circuit
(or a shared body and the task's own tail), the remapped noise model, the
resolved method, the *derived* per-circuit seed and the kernel backend.
Workers never touch a cache.  The only state a worker keeps between tasks
is a one-entry body memo that lives for one chunk: the evolved state of the
last shared body it ran, reused by a later task of that chunk carrying the
same body object.  Evolving the body again gives the same bytes, so
scheduling order, worker count and chunking cannot change any result, only
the wall-clock.  Unseeded (uncacheable) requests draw fresh OS entropy in
the worker exactly as they would in the parent: independent across
occurrences either way.

Fault containment
-----------------
Failure is per-task, never per-batch, and a task runs once:

* an exception inside :func:`run_compact_task` is flattened into a
  picklable :class:`~repro.simulators.faults.TaskFailureMarker` by the
  chunk runner, so one poison circuit cannot lose its chunk-mates' results;
  :meth:`ParallelSharder.run` returns the rebuilt fault in that task's
  slot, and the engine alone decides whether it raises or isolates it;
* a **killed worker** breaks the whole pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`); the sharder
  respawns the pool and runs *only the in-flight chunks* again, splitting a
  multi-task chunk into singletons first so a crash-inducing task is
  isolated to its own run instead of repeatedly taking healthy neighbours
  down with it.  This is the only work that ever runs twice;
* with ``task_timeout`` set, at most ``workers`` tasks are in flight, each
  in its own future, so every task's wall-clock budget starts when the
  task can start; a blown budget cancels the future, yields a
  :class:`~repro.simulators.faults.TaskTimeoutError` for that slot, and the
  pool is recycled with its workers terminated (the stuck worker would
  otherwise poison later batches, and hold interpreter exit until its task
  returned);
* after :data:`MAX_POOL_ATTEMPTS` pool respawns within one batch the
  sharder **degrades to serial** in-process execution for the remainder of
  the batch (the parallel→serial rung, which records
  :attr:`ParallelSharder.fallback_reason`) and re-probes the pool on the
  next batch — a crash storm does not permanently cost the session its
  parallelism.

Fallback
--------
Sandboxes and exotic platforms sometimes cannot spawn worker processes at
all.  :class:`ParallelSharder` degrades to in-process serial execution when
the pool cannot be created, recording :attr:`ParallelSharder.fallback_reason`
(surfaced on ``EngineStats.fallback_reason``) and logging a warning — never
silently.  Creation is re-probed on the next batch, up to a small cap of
consecutive creation failures for platforms that genuinely cannot fork.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

import numpy as np

from ..circuits import QuantumCircuit
from ..noise import NoiseModel
from .density_matrix import (
    DensityMatrix,
    noisy_distribution_density_matrix,
    simulate_density_matrix,
)
from .ensemble import simulate_trajectories_ensemble
from .faults import (
    ExecutionFault,
    TaskFailureMarker,
    TaskTimeoutError,
    fault_from_marker,
    marker_from_exception,
)
from .result import ExecutionResult
from .statevector import ideal_distribution
from .trajectory import read_out

__all__ = [
    "CompactTask",
    "ParallelSharder",
    "run_compact_task",
    "resolve_method",
    "sample_result",
    "read_out_result",
    "METHODS",
    "DEFAULT_CHUNKS_PER_WORKER",
    "DEFAULT_TRAJECTORY_SHOTS",
]

logger = logging.getLogger(__name__)

# Shot budget used when the trajectory method (which always samples) is
# invoked without an explicit ``shots``.  Lives here — next to the compute
# function that consumes it — and is re-exported by the engine module,
# which keys it into trajectory cache lines; a single definition keeps the
# cache key and the simulated shot count in lockstep.
DEFAULT_TRAJECTORY_SHOTS = 4096

# Every ``method=`` a caller may request; "auto" picks one of the others.
METHODS = ("auto", "statevector", "density_matrix", "trajectory")

# With no explicit chunk size, a batch of N tasks over W workers is split
# into ~W * DEFAULT_CHUNKS_PER_WORKER chunks: enough slack that an uneven
# task (one slow density-matrix circuit among trajectories) does not leave
# workers idle, without paying per-task IPC for tiny tasks.
DEFAULT_CHUNKS_PER_WORKER = 4

# Consecutive pool-*creation* failures tolerated before the sharder stops
# re-probing each batch (platforms that cannot fork at all fail every time;
# re-probing forever would pay an exception per batch for nothing).
MAX_CREATION_FAILURES = 3

# Pool respawns one batch may take (one per worker crash) before the rest of
# that batch runs in-process.
MAX_POOL_ATTEMPTS = 3


@dataclasses.dataclass
class CompactTask:
    """One deduplicated, compact-space execution request (picklable).

    Fields mirror the engine's ``_Prepared`` after cache lookup: the circuit
    is already compacted, the noise model already remapped, the method
    already resolved and the seed already derived — a worker only computes.
    ``fingerprint`` is carried for fault attribution only (a failure marker
    names the offending circuit); it does not influence the computation.

    A density-matrix task may carry a ``body``
    (:func:`~repro.simulators.fusion.split_body`): the leading part of its
    circuit, one object shared by every task of the batch with that body,
    while ``circuit`` holds only the task's own tail.  The task still means
    "evolve body then tail", and :func:`run_compact_task` evolves a shared
    body once per executor memo.
    """

    circuit: QuantumCircuit
    noise: NoiseModel
    # Resolved: "statevector" | "density_matrix" | "trajectory".
    method: str
    shots: int | None
    seed: int | None
    max_trajectories: int
    # Kernel tier for classified fused blocks (repro.simulators.kernels).
    # Carried pre-resolved by the engine; None means "numpy".
    kernel_backend: str | None = None
    fingerprint: str | None = None
    body: QuantumCircuit | None = None


def resolve_method(
    method: str, circuit: QuantumCircuit, noise: NoiseModel, density_matrix_threshold: int
) -> str:
    """Pick the backend that runs ``circuit`` for a requested ``method``.

    ``method`` is one of :data:`METHODS` (callers validate it once per
    call).  ``"auto"`` picks, in order: statevector for ideal noise, the
    exact density matrix up to ``density_matrix_threshold`` qubits, and
    trajectories otherwise.
    """
    if method != "auto":
        return method
    if noise.is_ideal:
        return "statevector"
    if circuit.num_qubits <= density_matrix_threshold:
        return "density_matrix"
    return "trajectory"


def sample_result(result: ExecutionResult, shots: int | None, seed: int | None) -> ExecutionResult:
    """Replace an exact result's distribution by ``shots`` samples under ``seed``.

    A no-op when ``shots`` is ``None``.  The one sampling tail of the exact
    methods, so engine and worker results sample identically.
    """
    if shots is not None:
        counts = result.distribution.sample(shots, np.random.default_rng(seed))
        result.counts = counts
        result.shots = shots
        result.distribution = counts.to_distribution()
    return result


def read_out_result(
    state: ExecutionResult, noise: NoiseModel, seed: int | None
) -> ExecutionResult:
    """A sampled requester's result: its own readout flips on a readout-free run.

    ``state`` is what :func:`run_compact_task` returned for the request's
    task without readout errors.  Every sampler ends with the same
    :func:`~repro.simulators.trajectory.read_out` tail, so this equals
    running the task under ``noise`` bit for bit.
    """
    counts = read_out(state.counts, noise, state.measured_qubits, seed)
    return dataclasses.replace(
        state,
        distribution=counts.to_distribution(),
        measured_qubits=list(state.measured_qubits),
        counts=counts,
        metadata=dict(state.metadata),
    )


def run_compact_task(task: CompactTask, memo: dict | None = None) -> ExecutionResult:
    """Execute one compact-space task.

    A pure function of the task and the exact body state its executor may
    hand it.  This is the single source of truth for what an engine
    execution *is* — the engine's in-process route and every pool worker
    call it, which is what makes parallel results bit-identical to serial
    ones.  The engine submits density-matrix work and seeded sampled work
    without readout errors — a density-matrix task as an exact evolution
    (``shots=None``, no seed) — and applies each requester's readout on top
    (:func:`~repro.simulators.density_matrix.apply_readout_confusion` plus
    :func:`sample_result`, or :func:`read_out_result`).  With the full
    noise model every branch applies the same readout itself.

    ``memo`` is the executor's one-entry body memo, a dict that lives for
    one batch or one chunk.  A task with a ``body`` continues from the
    memo's state when the memo holds that same body object; otherwise it
    evolves the body, stores the read-only state there and continues from
    it.  A task without a body ignores the memo.
    """
    method = task.method
    if method in ("statevector", "density_matrix"):
        if method == "statevector":
            if not task.noise.is_ideal:
                raise ValueError("the statevector method cannot apply noise")
            distribution = ideal_distribution(task.circuit, kernel_backend=task.kernel_backend)
            measured_qubits = task.circuit.measurement_layout()
        else:
            distribution, measured_qubits = noisy_distribution_density_matrix(
                task.circuit,
                task.noise,
                initial_state=None if task.body is None else _body_state(task, memo),
                kernel_backend=task.kernel_backend,
            )
        result = ExecutionResult(
            distribution=distribution, measured_qubits=list(measured_qubits), method=method
        )
        return sample_result(result, task.shots, task.seed)
    if method != "trajectory":
        raise ValueError(f"unresolved method {task.method!r}")
    counts, measured_qubits = simulate_trajectories_ensemble(
        task.circuit,
        task.noise,
        shots=task.shots or DEFAULT_TRAJECTORY_SHOTS,
        seed=task.seed,
        max_trajectories=task.max_trajectories,
        kernel_backend=task.kernel_backend,
    )
    return ExecutionResult(
        distribution=counts.to_distribution(),
        measured_qubits=measured_qubits,
        counts=counts,
        shots=counts.shots,
        method=method,
    )


def _body_state(task: CompactTask, memo: dict | None) -> DensityMatrix:
    """The evolved state of ``task.body``, from ``memo`` when it holds that body.

    The state is stored only after the body evolved, and read-only, so a
    tail kernel that wrote into it in place would raise instead of
    corrupting the next body-mate.
    """
    if memo is not None and memo.get("body") is task.body:
        return memo["state"]
    state = simulate_density_matrix(task.body, task.noise, kernel_backend=task.kernel_backend)
    state.data.flags.writeable = False
    if memo is not None:
        memo.update(body=task.body, state=state)
    return state


def _timed_run(task: CompactTask, memo: dict, in_worker: bool) -> ExecutionResult:
    """Run one task; its result's ``trace_fragment`` says where and how long.

    The engine pops the fragment before anything is cached or delivered and
    records the execution from it.  Monotonic clocks are per-process, so it
    carries only the *duration* (comparable across processes) plus the
    executing ``pid``; :func:`run_compact_task` itself stays pure.
    """
    started = time.perf_counter()
    result = run_compact_task(task, memo)
    result.metadata["trace_fragment"] = {
        "pid": os.getpid(),
        "duration": time.perf_counter() - started,
        "in_worker": in_worker,
    }
    return result


def _run_task_chunk(tasks: list) -> list:
    """Worker entry point: run ``tasks``, isolating failures.

    Returns one slot per task: an :class:`ExecutionResult` on success, a
    picklable :class:`TaskFailureMarker` on failure — a raising task never
    loses its chunk-mates' finished results.  The chunk's tasks share one
    body memo; unpickling the chunk keeps a body shared by its tasks one
    object.
    """
    outcomes: list = []
    memo: dict = {}
    for task in tasks:
        try:
            outcomes.append(_timed_run(task, memo, in_worker=True))
        except Exception as exc:  # noqa: BLE001 - flattened for the parent
            outcomes.append(
                marker_from_exception(exc, fingerprint=task.fingerprint, method=task.method)
            )
    return outcomes


def _run_inprocess(task: CompactTask, memo: dict) -> ExecutionResult | ExecutionFault:
    """In-process twin of the worker loop body (fallback / serial rung)."""
    try:
        return _timed_run(task, memo, in_worker=False)
    except ExecutionFault as fault:
        return fault
    except Exception as exc:
        return fault_from_marker(
            marker_from_exception(exc, fingerprint=task.fingerprint, method=task.method)
        )


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Shut ``executor`` down without waiting and terminate its workers.

    ``shutdown(wait=False)`` alone leaves a busy worker running, and
    ``concurrent.futures``' exit hook then joins it until its task returns.
    Python 3.11 has no public call for this (3.14 adds
    ``terminate_workers()``): the workers are reachable only through the
    private ``_processes`` map, which ``shutdown`` clears, so it is read first.
    """
    processes = list((executor._processes or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()


class ParallelSharder:
    """A lazily-created process pool that shards :class:`CompactTask` batches.

    Parameters
    ----------
    workers:
        Worker process count.  ``1`` short-circuits to in-process serial
        execution (no pool is ever created).
    chunk_size:
        Tasks per pickled work unit.  ``None`` auto-sizes to about
        ``len(tasks) / (workers * DEFAULT_CHUNKS_PER_WORKER)``.  Forced to
        ``1`` when ``task_timeout`` is set (per-task budgets need per-task
        futures).
    task_timeout:
        Wall-clock seconds each dispatched task may take.  Under a timeout
        the sharder keeps at most ``workers`` tasks in flight, so a task is
        submitted, and its budget starts, when a worker is free to run it.
        ``None`` (default) disables timeouts.

    The sharder keeps no telemetry of its own: the owning engine reads
    :attr:`last_dispatched`, :attr:`last_respawns` and
    :attr:`fallback_reason` after every :meth:`run` into its
    :class:`~repro.simulators.engine.EngineStats`.

    The pool is created on first use and reused across batches (worker
    startup is paid once per engine, not once per ``execute_many`` call).
    Call :meth:`shutdown` (or use the owning engine as a context manager)
    to release the processes early.
    """

    def __init__(
        self,
        workers: int,
        chunk_size: int | None = None,
        task_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        self.workers = int(workers)
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        # Why the sharder last ran (or is running) without its pool; sticky
        # record for telemetry — the pool itself is re-probed per batch.
        self.fallback_reason: str | None = None
        # Tasks of the most recent run() that actually executed in pool
        # workers (0 when the run short-circuited in-process or fell back).
        # The engine adds this — not the task count — to
        # ``EngineStats.parallel_executed`` so the stat never overstates
        # parallelism.
        self.last_dispatched = 0
        # Pool respawns of the most recent run().
        self.last_respawns = 0
        self._executor: ProcessPoolExecutor | None = None
        self._creation_failures = 0

    def _pool(self) -> ProcessPoolExecutor | None:
        if self._creation_failures >= MAX_CREATION_FAILURES:
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ValueError, RuntimeError) as exc:
                # No /dev/shm, fork blocked, resource limits: degrade to
                # serial in-process execution — identical results.  The
                # reason is recorded (and surfaced on EngineStats) and
                # creation is re-probed on the next batch, up to the cap.
                self._creation_failures += 1
                self.fallback_reason = f"pool creation failed: {type(exc).__name__}: {exc}"
                logger.warning(
                    "ParallelSharder falling back in-process (%s); "
                    "re-probing on the next batch (%d/%d failures)",
                    self.fallback_reason,
                    self._creation_failures,
                    MAX_CREATION_FAILURES,
                )
                return None
        self._creation_failures = 0
        return self._executor

    def run(self, tasks: Sequence[CompactTask]) -> list:
        """Execute ``tasks`` and return one outcome per task, in task order.

        Each slot is the task's :class:`ExecutionResult` or the structured
        :class:`~repro.simulators.faults.ExecutionFault` that ended it; the
        caller decides whether a fault raises or is isolated.
        """
        tasks = list(tasks)
        self.last_dispatched = 0
        self.last_respawns = 0
        # The in-process rungs of this run share one body memo.
        memo: dict = {}
        # A single task gains nothing from IPC; the pool pays off from two.
        if self.workers == 1 or len(tasks) <= 1:
            return [_run_inprocess(task, memo) for task in tasks]

        outcomes: list = [None] * len(tasks)
        chunk = 1 if self.task_timeout is not None else self.chunk_size
        if chunk is None:
            chunk = max(1, -(-len(tasks) // (self.workers * DEFAULT_CHUNKS_PER_WORKER)))
        queue: deque = deque(
            tuple(range(start, min(start + chunk, len(tasks))))
            for start in range(0, len(tasks), chunk)
        )

        batch_respawns = 0
        while queue:
            pool = self._pool()
            if pool is None or batch_respawns >= MAX_POOL_ATTEMPTS:
                if pool is not None:
                    # Repeated crashes this batch: parallel -> serial rung.
                    self.fallback_reason = (
                        f"process pool broke {batch_respawns}x in one batch"
                    )
                    logger.warning(
                        "ParallelSharder degrading to serial for the rest of "
                        "the batch (%s)",
                        self.fallback_reason,
                    )
                while queue:
                    for i in queue.popleft():
                        outcomes[i] = _run_inprocess(tasks[i], memo)
                break

            if self.task_timeout is None:
                wave = list(queue)
                queue.clear()
            else:
                # One task per worker in flight: a task's budget must not
                # run while it waits in the pool's queue.
                wave = [queue.popleft() for _ in range(min(self.workers, len(queue)))]
            futures = []
            dispatched_at = time.monotonic()
            try:
                for indices in wave:
                    futures.append(
                        (pool.submit(_run_task_chunk, [tasks[i] for i in indices]), indices)
                    )
            except BrokenProcessPool:
                # Pool died while submitting: recycle and run the wave again.
                self._respawn("pool broke during submission")
                batch_respawns += 1
                queue.extend((i,) for indices in wave for i in indices)
                continue

            # A chunk lost to a broken pool runs again as singletons, so a
            # crash-inducing task cannot keep taking its chunk-mates down.
            # Chunks that finished before the pool broke keep their outcomes.
            broken = False
            timed_out = False
            for future, indices in futures:
                budget = None
                if self.task_timeout is not None:
                    budget = max(0.001, dispatched_at + self.task_timeout - time.monotonic())
                try:
                    chunk_outcomes = future.result(timeout=budget)
                except BrokenProcessPool:
                    if not broken:
                        broken = True
                        self._respawn("worker process died mid-task")
                        batch_respawns += 1
                    queue.extend((i,) for i in indices)
                    continue
                except FutureTimeoutError:
                    timed_out = True
                    future.cancel()
                    for i in indices:
                        task = tasks[i]
                        outcomes[i] = TaskTimeoutError(
                            f"task exceeded its {self.task_timeout:.3f}s wall-clock budget",
                            fingerprint=task.fingerprint,
                            method=task.method,
                            stage="dispatch",
                        )
                    continue
                self.last_dispatched += len(indices)
                for i, outcome in zip(indices, chunk_outcomes):
                    if isinstance(outcome, TaskFailureMarker):
                        outcomes[i] = fault_from_marker(outcome)
                    else:
                        outcomes[i] = outcome
            if timed_out and not broken:
                # A stuck worker would silently poison the next batch's
                # capacity; recycle the pool and stop its workers.
                self._respawn("stuck worker after task timeout", terminate=True)
        return outcomes

    def _respawn(self, reason: str, terminate: bool = False) -> None:
        """Drop the broken/stuck pool; the next :meth:`_pool` call respawns.

        ``terminate`` stops the pool's workers instead of waiting for them,
        for a worker stuck in a task that may never return.
        """
        executor = self._executor
        self._executor = None
        if executor is not None:
            try:
                if terminate:
                    _terminate_workers(executor)
                else:
                    executor.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        self.last_respawns += 1
        logger.warning("ParallelSharder respawning process pool: %s", reason)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ParallelSharder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
