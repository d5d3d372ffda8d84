"""Statevector, density-matrix and trajectory simulators, plus the batched
cached :class:`ExecutionEngine` front-end with process-parallel sharding and
a persistent on-disk result cache (see ``docs/architecture.md``)."""

from .cache import CACHE_FORMAT_VERSION, PersistentResultCache
from .density_matrix import (
    DensityMatrix,
    noisy_distribution_density_matrix,
    simulate_density_matrix,
)
from .engine import (
    EngineStats,
    ExecutionEngine,
    circuit_fingerprint,
    get_default_engine,
)
from .ensemble import simulate_trajectories_ensemble
from .execute import DEFAULT_DENSITY_MATRIX_THRESHOLD, execute
from .faults import (
    EngineInvariantError,
    ExecutionFault,
    SimulationError,
    TaskTimeoutError,
)
from .parallel import CompactTask, ParallelSharder, run_compact_task
from .fusion import (
    DEFAULT_FUSION_MAX_QUBITS,
    FusedOperation,
    FusedProgram,
    choose_fusion_width,
    fuse_circuit,
)
from .kernels import (
    KernelPlan,
    kernel_dispatch_counts,
    reset_kernel_dispatch_counts,
    resolve_backend,
)
from .result import ExecutionResult, FailedResult
from .statevector import Statevector, ideal_distribution, simulate_statevector

__all__ = [
    "Statevector",
    "DensityMatrix",
    "ExecutionResult",
    "FailedResult",
    "ExecutionEngine",
    "EngineStats",
    "ExecutionFault",
    "SimulationError",
    "TaskTimeoutError",
    "EngineInvariantError",
    "PersistentResultCache",
    "CACHE_FORMAT_VERSION",
    "CompactTask",
    "ParallelSharder",
    "run_compact_task",
    "FusedOperation",
    "FusedProgram",
    "circuit_fingerprint",
    "fuse_circuit",
    "get_default_engine",
    "simulate_statevector",
    "simulate_density_matrix",
    "simulate_trajectories_ensemble",
    "noisy_distribution_density_matrix",
    "ideal_distribution",
    "execute",
    "DEFAULT_DENSITY_MATRIX_THRESHOLD",
    "DEFAULT_FUSION_MAX_QUBITS",
    "choose_fusion_width",
    "KernelPlan",
    "kernel_dispatch_counts",
    "reset_kernel_dispatch_counts",
    "resolve_backend",
]
