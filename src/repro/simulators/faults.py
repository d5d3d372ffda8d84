"""Fault-tolerant execution substrate: error taxonomy, retry policy, chaos injection.

A long-lived multi-tenant execution service must treat partial failure as the
normal case: a single poison circuit, a killed worker process or a corrupted
cache shard must degrade one result slot, not abort a thousand-circuit batch.
This module is the reliability vocabulary the rest of the engine speaks:

* a **structured exception taxonomy** rooted at :class:`ExecutionFault` —
  every fault on the execute path carries the offending circuit fingerprint,
  the resolved simulation method and the pipeline stage it fired in, so a
  post-mortem never starts from a bare ``RuntimeError`` with no context;
* a :class:`RetryPolicy` — bounded attempts, exponential backoff with
  *seeded deterministic jitter* (two runs with the same seed retry at the
  same instants; a fleet of tenants with distinct seeds does not
  thundering-herd), and a retryable-class filter so poison circuits are
  never retried while transient worker crashes are;
* a :class:`FaultInjector` — the deterministic chaos harness the test-suite
  drives.  Faults are scheduled by *task ordinal* in dispatch order (and by
  cache-operation ordinal for the persistent cache), so an injected schedule
  replays bit-identically regardless of pool scheduling.

Fault classification
--------------------
The engine reacts differently per class:

============================ ============ =========================
class                        retryable?   typical cause
============================ ============ =========================
``SimulationError``          no           deterministic backend
                                          failure (poison circuit)
``TransientSimulationError`` yes          flaky numerical blowup,
                                          injected transient fault
``TranspilationError``       no           layout/routing/basis
                                          failure (``device=``)
``WorkerCrashError``         yes          killed/OOMed pool worker
``TaskTimeoutError``         no           wall-clock budget blown
``CacheCorruptionError``     n/a          bad on-disk entry
                                          (quarantined, recomputed)
``EngineInvariantError``     no           engine bug: a request
                                          was dispatched without
                                          a result
============================ ============ =========================

"Retryable" means the default :class:`RetryPolicy` re-attempts it; the set
is caller-configurable.

Each class also inherits the legacy built-in it replaced
(``RuntimeError``/``TimeoutError``), so pre-taxonomy ``except RuntimeError``
call sites keep working.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Iterable, Mapping

__all__ = [
    "ExecutionFault",
    "SimulationError",
    "TransientSimulationError",
    "TranspilationError",
    "WorkerCrashError",
    "TaskTimeoutError",
    "CacheCorruptionError",
    "EngineInvariantError",
    "RetryPolicy",
    "FaultInjector",
    "apply_injected_directive",
    "fault_annotation",
    "fault_from_marker",
    "TaskFailureMarker",
]


# ----------------------------------------------------------------------
# Taxonomy
# ----------------------------------------------------------------------


class ExecutionFault(Exception):
    """Base class for structured faults on the execute path.

    Attributes
    ----------
    fingerprint:
        Content fingerprint of the offending (compact) circuit, when known.
    method:
        The resolved simulation method that was executing when the fault
        fired (``"stabilizer"``, ``"trajectory"``, ...).
    stage:
        Pipeline stage: ``"prepare"``, ``"transpile"``, ``"dispatch"``,
        ``"simulate"``, ``"cache"`` or ``"deliver"``.
    """

    def __init__(
        self,
        message: str,
        *,
        fingerprint: str | None = None,
        method: str | None = None,
        stage: str | None = None,
    ) -> None:
        super().__init__(message)
        self.fingerprint = fingerprint
        self.method = method
        self.stage = stage

    def __str__(self) -> str:  # noqa: D105
        base = super().__str__()
        context = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("stage", self.stage),
                ("method", self.method),
                ("fingerprint", (self.fingerprint or "")[:12] or None),
            )
            if value
        )
        return f"{base} [{context}]" if context else base

    # Exceptions pickle through (cls, self.args); keyword-only context would
    # be dropped crossing the process boundary without this.
    def __reduce__(self):  # noqa: D105
        return (_rebuild_fault, (type(self), self.args, self.__dict__.copy()))


def _rebuild_fault(cls, args, state):
    fault = cls(*args)
    fault.__dict__.update(state)
    return fault


class SimulationError(ExecutionFault, RuntimeError):
    """A backend failed deterministically while simulating a circuit."""


class TransientSimulationError(SimulationError):
    """A simulation failure expected to succeed on retry (default-retryable)."""


class TranspilationError(ExecutionFault, RuntimeError):
    """Hardware-aware compilation (layout / routing / basis) failed."""


class WorkerCrashError(ExecutionFault, RuntimeError):
    """A pool worker died (killed, OOMed, segfaulted) mid-task."""


class TaskTimeoutError(ExecutionFault, TimeoutError):
    """A dispatched task blew its wall-clock budget and was cancelled."""


class CacheCorruptionError(ExecutionFault, RuntimeError):
    """A persistent-cache entry failed integrity checks (quarantined)."""


class EngineInvariantError(ExecutionFault, RuntimeError):
    """An engine-internal invariant broke (a request has no result).

    Carries ``undelivered`` — the request keys (or fingerprints, for
    uncacheable requests) that were dispatched but never received a result —
    so the failure names the lost work instead of just asserting.
    """

    def __init__(self, message: str, *, undelivered: Iterable | None = None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.undelivered = list(undelivered or [])


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for fault recovery.

    Parameters
    ----------
    max_attempts:
        Total attempts per task including the first (``1`` disables retry).
    base_delay / backoff / max_delay:
        Attempt ``k`` (1-based) sleeps ``base_delay * backoff**(k-1)``
        seconds, capped at ``max_delay``, before the next try.
    jitter:
        Fraction of the delay added as *deterministic* jitter: the jitter
        for ``(seed, attempt)`` is derived from a hash, so a fixed seed
        replays the exact same schedule while distinct seeds decorrelate.
    retryable:
        Exception classes worth re-attempting.  Everything else fails
        immediately (poison circuits must fail once, not ``max_attempts``
        times).
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    backoff: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    retryable: tuple = (TransientSimulationError, WorkerCrashError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt, no sleeping)."""
        return cls(max_attempts=1, base_delay=0.0, jitter=0.0)

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, tuple(self.retryable))

    def delay(self, attempt: int, seed: int | None = None) -> float:
        """Backoff before attempt ``attempt + 1`` (after failed attempt ``attempt``).

        Deterministic in ``(attempt, seed)``: chaos tests replay the exact
        sleep schedule, and tenants with distinct seeds spread out instead
        of retrying in lockstep.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.base_delay * self.backoff ** (attempt - 1), self.max_delay)
        if self.jitter and delay:
            digest = hashlib.sha256(f"retry:{seed}:{attempt}".encode()).digest()
            unit = int.from_bytes(digest[:8], "big") / 2**64
            delay += delay * self.jitter * unit
        return delay

    def sleep(self, attempt: int, seed: int | None = None) -> float:
        """Sleep the backoff for ``attempt`` and return the slept duration."""
        delay = self.delay(attempt, seed)
        if delay:
            time.sleep(delay)
        return delay


DEFAULT_RETRY_POLICY = RetryPolicy()


# ----------------------------------------------------------------------
# Worker-safe failure marker
# ----------------------------------------------------------------------


@dataclasses.dataclass
class TaskFailureMarker:
    """Picklable record of a fault raised inside a pool worker.

    Workers never pickle live exception objects back (tracebacks and
    exception subclasses pickle fragilely); they return this flat marker and
    the parent rebuilds the taxonomy instance via :func:`fault_from_marker`.
    """

    kind: str  # taxonomy class name
    message: str
    fingerprint: str | None = None
    method: str | None = None
    stage: str | None = None
    cause: str | None = None  # "<ExcType>: <str>" of the original exception


_FAULT_CLASSES: Mapping[str, type] = {
    cls.__name__: cls
    for cls in (
        ExecutionFault,
        SimulationError,
        TransientSimulationError,
        TranspilationError,
        WorkerCrashError,
        TaskTimeoutError,
        CacheCorruptionError,
        EngineInvariantError,
    )
}


def fault_from_marker(marker: TaskFailureMarker) -> ExecutionFault:
    """Rebuild a taxonomy exception from a worker's failure marker."""
    cls = _FAULT_CLASSES.get(marker.kind, SimulationError)
    message = marker.message
    if marker.cause:
        message = f"{message} (caused by {marker.cause})"
    return cls(
        message,
        fingerprint=marker.fingerprint,
        method=marker.method,
        stage=marker.stage or "simulate",
    )


def fault_annotation(exc: BaseException) -> dict:
    """Flat, JSON-safe trace attributes describing a fault.

    The tracing layer stamps these onto execute/request events so a trace
    names the taxonomy class, pipeline stage and attempt count of every
    failure without pickling exception objects into the artifact.  Works
    for bare exceptions too (only ``error`` is populated then).
    """
    annotation: dict = {"error": type(exc).__name__}
    stage = getattr(exc, "stage", None)
    if stage is not None:
        annotation["error_stage"] = stage
    attempts = getattr(exc, "attempts", None)
    if attempts is not None:
        annotation["attempts"] = attempts
    method = getattr(exc, "method", None)
    if method is not None:
        annotation["error_method"] = method
    return annotation


def marker_from_exception(
    exc: BaseException, *, fingerprint: str | None, method: str | None
) -> TaskFailureMarker:
    """Flatten any exception raised in a worker into a picklable marker."""
    if isinstance(exc, ExecutionFault):
        return TaskFailureMarker(
            kind=type(exc).__name__,
            message=exc.args[0] if exc.args else str(exc),
            fingerprint=exc.fingerprint or fingerprint,
            method=exc.method or method,
            stage=exc.stage or "simulate",
        )
    return TaskFailureMarker(
        kind="SimulationError",
        message="backend raised while simulating",
        fingerprint=fingerprint,
        method=method,
        stage="simulate",
        cause=f"{type(exc).__name__}: {exc}",
    )


# ----------------------------------------------------------------------
# Chaos fault injection
# ----------------------------------------------------------------------


class FaultInjector:
    """Deterministic fault-injection harness for chaos testing.

    Installable on an :class:`~repro.simulators.engine.ExecutionEngine`
    (``engine.install_fault_injector(injector)``), which threads directives
    to the sharder's workers and installs the cache hooks on the persistent
    cache.  Faults are scheduled by **ordinal**:

    * *task ordinals* count executions in dispatch order — cache hits,
      batch-dedup duplicates and density-matrix requests served by a
      shared or cached gate-noise evolution do not consume ordinals, so a
      schedule names the Nth genuinely executed task regardless of dedup;
    * *cache-read / cache-write ordinals* count persistent-cache operations.

    Directives
    ----------
    ``fail_tasks``:
        Ordinals that raise a :class:`TransientSimulationError` **once**
        (a retry succeeds — models flaky numerical blowups).
    ``poison_tasks``:
        Ordinals whose circuit becomes permanently poisoned: the first and
        every subsequent attempt on that circuit *fingerprint* raises
        :class:`SimulationError` (models a circuit that deterministically
        crashes the backend).
    ``kill_tasks``:
        Ordinals whose pool worker dies via ``os._exit`` (the parent sees
        ``BrokenProcessPool`` and exercises respawn + chunk retry).  On the
        in-process path the directive raises :class:`WorkerCrashError`
        instead — killing would take the parent down.
    ``latency``:
        ``{ordinal: seconds}`` of injected sleep before the task runs
        (drives the timeout path).
    ``corrupt_reads``:
        Persistent-cache read ordinals whose entry file gets a byte flipped
        *before* the read (drives the quarantine path).
    ``fail_writes``:
        Persistent-cache write ordinals that behave as an I/O error (drives
        the cache degradation ladder).
    """

    def __init__(
        self,
        fail_tasks: Iterable[int] = (),
        poison_tasks: Iterable[int] = (),
        kill_tasks: Iterable[int] = (),
        latency: Mapping[int, float] | None = None,
        corrupt_reads: Iterable[int] = (),
        fail_writes: Iterable[int] = (),
    ) -> None:
        self.fail_tasks = frozenset(int(i) for i in fail_tasks)
        self.poison_tasks = frozenset(int(i) for i in poison_tasks)
        self.kill_tasks = frozenset(int(i) for i in kill_tasks)
        self.latency = {int(k): float(v) for k, v in (latency or {}).items()}
        self.corrupt_reads = frozenset(int(i) for i in corrupt_reads)
        self.fail_writes = frozenset(int(i) for i in fail_writes)
        # Mutable state lives in the parent process only: directives are
        # resolved before dispatch, so worker-side execution is stateless.
        self.tasks_dispatched = 0
        self.cache_reads = 0
        self.cache_writes = 0
        self.faults_injected = 0
        self.poisoned_fingerprints: set[str] = set()

    # -- task directives ------------------------------------------------

    def take_directive(self, fingerprint: str | None) -> tuple[str, float | None] | None:
        """Directive for the next dispatched task (consumes one ordinal)."""
        ordinal = self.tasks_dispatched
        self.tasks_dispatched += 1
        if fingerprint is not None and fingerprint in self.poisoned_fingerprints:
            self.faults_injected += 1
            return ("poison", None)
        if ordinal in self.poison_tasks:
            if fingerprint is not None:
                self.poisoned_fingerprints.add(fingerprint)
            self.faults_injected += 1
            return ("poison", None)
        if ordinal in self.fail_tasks:
            self.faults_injected += 1
            return ("fail", None)
        if ordinal in self.kill_tasks:
            self.faults_injected += 1
            return ("kill", None)
        if ordinal in self.latency:
            self.faults_injected += 1
            return ("latency", self.latency[ordinal])
        return None

    def retry_directive(self, fingerprint: str | None) -> tuple[str, float | None] | None:
        """Directive for a *retry* attempt: only sticky poison re-fires."""
        if fingerprint is not None and fingerprint in self.poisoned_fingerprints:
            self.faults_injected += 1
            return ("poison", None)
        return None

    # -- cache hooks -----------------------------------------------------

    def on_cache_read(self) -> bool:
        """True if the entry behind this read should be corrupted first."""
        ordinal = self.cache_reads
        self.cache_reads += 1
        if ordinal in self.corrupt_reads:
            self.faults_injected += 1
            return True
        return False

    def on_cache_write(self) -> bool:
        """True if this write should fail as an I/O error."""
        ordinal = self.cache_writes
        self.cache_writes += 1
        if ordinal in self.fail_writes:
            self.faults_injected += 1
            return True
        return False

    @staticmethod
    def corrupt_file(path: str, offset: int | None = None) -> None:
        """Flip one byte of ``path`` in place (deterministic at ``offset``)."""
        try:
            with open(path, "r+b") as handle:
                data = handle.read()
                if not data:
                    return
                position = len(data) // 2 if offset is None else min(offset, len(data) - 1)
                handle.seek(position)
                handle.write(bytes([data[position] ^ 0xFF]))
        except OSError:  # pragma: no cover - racing eviction
            pass


def apply_injected_directive(
    directive: tuple[str, float | None] | None,
    *,
    fingerprint: str | None = None,
    method: str | None = None,
    in_worker: bool = False,
) -> None:
    """Execute a fault directive at a task's execution site.

    Called by pool workers (``in_worker=True``) and the engine's in-process
    path just before the simulation runs.  ``latency`` sleeps and returns
    (the task then runs normally); the fault directives raise; ``kill``
    terminates the worker process — or, in-process, raises
    :class:`WorkerCrashError` because killing would take the parent down.
    """
    if directive is None:
        return
    kind, arg = directive
    if kind == "latency":
        time.sleep(float(arg or 0.0))
        return
    if kind == "fail":
        raise TransientSimulationError(
            "injected transient fault", fingerprint=fingerprint, method=method, stage="simulate"
        )
    if kind == "poison":
        raise SimulationError(
            "injected poison circuit", fingerprint=fingerprint, method=method, stage="simulate"
        )
    if kind == "kill":
        if in_worker:
            os._exit(86)
        raise WorkerCrashError(
            "injected worker crash (in-process)",
            fingerprint=fingerprint,
            method=method,
            stage="dispatch",
        )
    raise ValueError(f"unknown fault directive {kind!r}")
