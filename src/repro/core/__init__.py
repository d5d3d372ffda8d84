"""QuTracer: the paper's contribution (QSPC + analysis + optimizations + driver)."""

from .analysis import Segment, SubsetAnalysis, analyse_subset
from .optimizations import (
    apply_local_unitary,
    conjugate_observables_through,
    false_dependency_removal,
)
from .qspc import QSPCOptions, VirtualCheckResult, all_pauli_strings, virtual_pauli_check
from .tracer import (
    QuTracer,
    QuTracerOptions,
    QuTracerResult,
    SubsetTraceResult,
    default_subsets,
)

__all__ = [
    "analyse_subset",
    "Segment",
    "SubsetAnalysis",
    "false_dependency_removal",
    "apply_local_unitary",
    "conjugate_observables_through",
    "QSPCOptions",
    "VirtualCheckResult",
    "virtual_pauli_check",
    "all_pauli_strings",
    "QuTracer",
    "QuTracerOptions",
    "QuTracerResult",
    "SubsetTraceResult",
    "default_subsets",
]
