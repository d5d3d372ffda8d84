"""Per-layer timing for the traced benchmark run.

The benchmark times the public entry points of each ``repro`` layer from the
outside: :class:`LayerTracer` replaces every module attribute that binds one
of the functions in :data:`PROBES` (``engine.py`` imports
``noisy_distribution_density_matrix`` by name, ``density_matrix.py`` imports
the ``apply_*`` kernels, ...) with a wrapper that records a span, and puts the
originals back on :meth:`LayerTracer.uninstall`.  Spans nest on one stack, so
each probe's *self* time is its duration minus the time its child probes
covered.  Nothing under ``src/`` is edited.

Work that runs inside pool worker processes is invisible here: the parent
only sees ``ParallelSharder.run`` (``simulators.parallel.pool_s``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

from repro.simulators.kernels import KERNEL_KINDS


@dataclasses.dataclass(frozen=True)
class Probe:
    """One timed entry point.

    ``target`` is ``module:function`` or ``module:Class.method``.  ``seconds``
    names the metric the span's self time adds to (a callable picks it from
    the call's arguments); ``calls`` names the call counter, if any;
    ``count`` adds a work count derived from the call to ``calls``'s layer.
    An ``opaque`` probe times everything it calls as its own work: probes
    nested inside it record nothing (a Kraus channel's per-operator
    conjugations count as channel time, not gate time).
    """

    target: str
    seconds: str | Callable
    calls: str | None = None
    count: Callable | None = None
    opaque: bool = False


def _kernel_kind(args, kwargs) -> str:
    plan = kwargs.get("plan", args[1] if len(args) > 1 else None)
    backend = kwargs.get("backend", args[5] if len(args) > 5 else "numpy")
    kind = "generic" if plan is None or backend == "generic" else plan.kind
    return f"simulators.kernels.{kind}_s"


def _ensemble_amplitudes(args, kwargs, result) -> tuple[str, int]:
    # Trajectories x 2**n, the ensemble's working set (trajectory.py's plan).
    circuit = kwargs.get("circuit", args[0])
    noise = kwargs.get("noise_model", args[1] if len(args) > 1 else None)
    shots = kwargs.get("shots", args[2] if len(args) > 2 else 4096)
    budget = kwargs.get("max_trajectories", args[4] if len(args) > 4 else 600)
    noisy = noise is not None and noise.has_gate_errors
    trajectories = min(shots, budget) if noisy else 1
    return "simulators.ensemble.amplitudes", trajectories * 2**circuit.num_qubits


def _qspc_circuits(args, kwargs, result) -> tuple[str, int]:
    return "core.qspc.circuits", result.num_circuits


PROBES: tuple[Probe, ...] = (
    Probe("repro.simulators.apply:apply_kraus_to_density_matrix",
          "simulators.apply.kraus_s", "simulators.apply.kraus_calls", opaque=True),
    Probe("repro.simulators.apply:apply_uniform_depolarizing_to_density_matrix",
          "simulators.apply.depol_s", "simulators.apply.depol_calls", opaque=True),
    Probe("repro.simulators.apply:apply_matrix_to_density_matrix",
          "simulators.apply.dm_gate_s"),
    Probe("repro.simulators.density_matrix:noisy_distribution_density_matrix",
          "simulators.density_matrix.self_s", "simulators.density_matrix.calls"),
    Probe("repro.simulators.ensemble:simulate_trajectories_ensemble",
          "simulators.ensemble.self_s", "simulators.ensemble.calls", _ensemble_amplitudes),
    Probe("repro.simulators.kernels:apply_fused_operation", _kernel_kind),
    Probe("repro.simulators.kernels:apply_plan_to_density_matrix",
          "simulators.kernels.dm_plan_s"),
    Probe("repro.simulators.fusion:fuse_circuit",
          "simulators.fusion.self_s", "simulators.fusion.calls"),
    Probe("repro.simulators.statevector:ideal_distribution",
          "simulators.statevector.self_s", "simulators.statevector.calls"),
    Probe("repro.simulators.engine:ExecutionEngine.execute_many",
          "simulators.engine.self_s", "simulators.engine.batches"),
    Probe("repro.simulators.cache:PersistentResultCache.get",
          "simulators.cache.get_s", "simulators.cache.get_calls"),
    Probe("repro.simulators.cache:PersistentResultCache.put",
          "simulators.cache.put_s", "simulators.cache.put_calls"),
    Probe("repro.simulators.parallel:run_compact_task",
          "simulators.parallel.task_s", "simulators.parallel.task_calls"),
    Probe("repro.simulators.parallel:ParallelSharder.run", "simulators.parallel.pool_s"),
    Probe("repro.circuits.fingerprint:circuit_fingerprint",
          "circuits.fingerprint.self_s", "circuits.fingerprint.calls"),
    Probe("repro.noise.device:DeviceModel.noise_model_for_assignment",
          "noise.device.self_s", "noise.device.calls"),
    Probe("repro.transpiler.layout:noise_aware_layout",
          "transpiler.layout.self_s", "transpiler.layout.calls"),
    Probe("repro.core.tracer:QuTracer.run", "core.tracer.self_s", "core.tracer.calls"),
    Probe("repro.core.tracer:QuTracer.trace_subset", "core.tracer.self_s", "core.tracer.calls"),
    Probe("repro.core.analysis:analyse_subset", "core.analysis.self_s", "core.analysis.calls"),
    Probe("repro.core.optimizations:false_dependency_removal",
          "core.optimizations.self_s", "core.optimizations.calls"),
    Probe("repro.core.optimizations:conjugate_observables_through",
          "core.optimizations.self_s", "core.optimizations.calls"),
    Probe("repro.core.optimizations:apply_local_unitary",
          "core.optimizations.self_s", "core.optimizations.calls"),
    Probe("repro.core.qspc:virtual_pauli_check",
          "core.qspc.self_s", "core.qspc.calls", _qspc_circuits),
    Probe("repro.mitigation.jigsaw:run_jigsaw", "mitigation.jigsaw.self_s"),
    Probe("repro.mitigation.pcs:run_pcs", "mitigation.pcs.self_s"),
    Probe("repro.mitigation.sqem:run_sqem", "mitigation.sqem.self_s"),
    Probe("repro.distributions.bayesian:iterative_bayesian_update",
          "distributions.bayesian.self_s"),
    Probe("repro.distributions.probability:ProbabilityDistribution.sample",
          "distributions.sample.self_s", "distributions.sample.calls"),
)

# Every metric the probes can produce, so a layer that did no work reads 0.
SPAN_METRICS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [p.seconds for p in PROBES if isinstance(p.seconds, str)]
        + [f"simulators.kernels.{kind}_s" for kind in KERNEL_KINDS]
        + [p.calls for p in PROBES if p.calls]
        + ["simulators.ensemble.amplitudes", "core.qspc.circuits"]
    )
)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise LookupError(f"{target} is not defined where the probe expects it")
    return owner, name, vars(owner)[name]


class LayerTracer:
    """Installs the :data:`PROBES` wrappers and accumulates their spans."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = [0.0]
        self._opaque = [0]  # depth of open opaque spans
        # (namespace, attribute, original, wrapper) for every binding site.
        self._bindings: list[tuple[object, str, object, object]] = []
        functions: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        for probe in PROBES:
            owner, name, original = _resolve(probe.target)
            wrapper = self._wrap(original, probe)
            if isinstance(owner, type):
                self._bindings.append((owner, name, original, wrapper))
            else:
                functions[id(original)] = (original, wrapper)
        # A function imported by name elsewhere is bound there too; wrap
        # every binding, or calls through that name would go untimed.
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                found = functions.get(id(value))
                if found is not None and found[0] is value:
                    self._bindings.append((module, attr, *found))

    def _wrap(self, original, probe: Probe):
        stack, seconds, counts, opaque = self._stack, self.seconds, self.counts, self._opaque
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if opaque[0]:
                return original(*args, **kwargs)
            stack.append(0.0)
            opaque[0] += probe.opaque
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                opaque[0] -= probe.opaque
                covered = stack.pop()
                stack[-1] += elapsed
                key = probe.seconds if isinstance(probe.seconds, str) else probe.seconds(args, kwargs)
                seconds[key] += elapsed - covered
                if probe.calls:
                    counts[probe.calls] += 1
            if probe.count is not None:
                name, amount = probe.count(args, kwargs, result)
                counts[name] += amount
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Every span metric, 0 for probes that never fired."""
        return {
            name: float(self.seconds.get(name, 0.0) if name.endswith("_s") else self.counts.get(name, 0))
            for name in SPAN_METRICS
        }
