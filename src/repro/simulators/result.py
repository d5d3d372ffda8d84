"""Execution results returned by :func:`repro.simulators.execute.execute`.

A batch run in isolated-failure mode (``execute_many(on_error="isolate")``)
returns a :class:`FailedResult` in the slot of each circuit that could not
be executed; healthy slots carry :class:`ExecutionResult` as usual.  Both
expose ``ok`` so callers can filter without ``isinstance`` checks.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..distributions import Counts, ProbabilityDistribution

__all__ = ["ExecutionResult", "FailedResult"]


@dataclasses.dataclass
class ExecutionResult:
    """Output of a (possibly noisy) circuit execution.

    Attributes
    ----------
    distribution:
        Probability distribution over the measured bits.  Bit ``i`` of an
        outcome corresponds to ``measured_qubits[i]``.
    measured_qubits:
        Qubits backing each bit of the distribution, in clbit order.
    counts:
        Raw shot counts when the execution was sampled (``None`` for exact
        methods without sampling).
    shots:
        Number of shots sampled, if any.
    method:
        Simulation method actually used: ``"statevector"``,
        ``"density_matrix"`` or ``"trajectory"``.
    metadata:
        Free-form extras (e.g. the noise model name).
    """

    distribution: ProbabilityDistribution
    measured_qubits: list[int]
    counts: Counts | None = None
    shots: int | None = None
    method: str = "statevector"
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Healthy result — the counterpart of :attr:`FailedResult.ok`."""
        return True

    @property
    def num_bits(self) -> int:
        return self.distribution.num_bits

    def bit_for_qubit(self, qubit: int) -> int:
        """Position of ``qubit`` inside the outcome bitstrings."""
        try:
            return self.measured_qubits.index(qubit)
        except ValueError as exc:
            raise KeyError(f"qubit {qubit} was not measured") from exc


@dataclasses.dataclass
class FailedResult:
    """Placeholder slot for a circuit that failed in isolated-failure mode.

    Returned by ``execute_many(on_error="isolate")`` in the position of each
    circuit whose preparation or execution failed.  A task runs once, so
    the fault is final.  Carries the structured fault so the caller can
    triage without re-running:

    Attributes
    ----------
    error:
        The terminal :class:`~repro.simulators.faults.ExecutionFault`.
    fingerprint / method / stage:
        Context mirrored off the fault for quick filtering: the offending
        circuit's content fingerprint, the resolved simulation method, and
        the pipeline stage that failed.
    """

    error: Exception
    fingerprint: str | None = None
    method: str | None = None
    stage: str | None = None
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return False

    def raise_error(self) -> None:
        """Re-raise the terminal fault (for callers that want raise semantics)."""
        raise self.error
