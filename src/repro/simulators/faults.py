"""The execute path's fault taxonomy and its pool-boundary marker.

One poison circuit, a killed worker or a corrupt cache entry must cost one
result slot, not a thousand-circuit batch.  This module is the vocabulary
the engine reports such failures in: a **structured exception taxonomy**
rooted at :class:`ExecutionFault`.  Every fault on the execute path carries
the offending circuit fingerprint, the resolved simulation method and the
pipeline stage it fired in, so a post-mortem never starts from a bare
``RuntimeError`` with no context.

A task runs once.  :func:`~repro.simulators.parallel.run_compact_task` is a
pure function of its task, so running a failed task again would fail the
same way; the only work that runs again is a task whose pool worker died,
which the sharder re-dispatches (see :mod:`repro.simulators.parallel`).

Fault classification
--------------------
============================ =========================================
class                        typical cause
============================ =========================================
``SimulationError``          deterministic backend failure (poison
                             circuit)
``TranspilationError``       layout/routing/basis failure (``device=``)
``TaskTimeoutError``         a pool task blew its wall-clock budget
``EngineInvariantError``     engine bug: a request was dispatched
                             without a result
============================ =========================================

A corrupt persistent-cache entry raises nothing: it is quarantined and the
request recomputes (:mod:`repro.simulators.cache`).

Each class also inherits the legacy built-in it replaced
(``RuntimeError``/``TimeoutError``), so pre-taxonomy ``except RuntimeError``
call sites keep working.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

__all__ = [
    "ExecutionFault",
    "SimulationError",
    "TranspilationError",
    "TaskTimeoutError",
    "EngineInvariantError",
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
        fired (``"density_matrix"``, ``"trajectory"``, ...).
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


class TranspilationError(ExecutionFault, RuntimeError):
    """Hardware-aware compilation (layout / routing / basis) failed."""


class TaskTimeoutError(ExecutionFault, TimeoutError):
    """A dispatched task blew its wall-clock budget and was cancelled."""


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
        TranspilationError,
        TaskTimeoutError,
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
    names the taxonomy class and pipeline stage of every failure without
    pickling exception objects into the artifact.  Works for bare
    exceptions too (only ``error`` is populated then).
    """
    annotation: dict = {"error": type(exc).__name__}
    stage = getattr(exc, "stage", None)
    if stage is not None:
        annotation["error_stage"] = stage
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
