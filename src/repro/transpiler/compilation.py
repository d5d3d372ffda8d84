"""Content-addressed compilation caching.

Hardware-aware compilation (layout + SABRE routing + basis translation) is
pure: its output is a function of the circuit's structure, the device's
coupling/calibration, and the pipeline configuration — nothing else.  The
:class:`CompilationCache` therefore addresses compiled artifacts by

    (circuit fingerprint, device fingerprint, pipeline signature)

exactly as the execution engine addresses results, and layers the same two
storage tiers: an in-memory LRU, and (optionally) the engine's persistent
on-disk result cache — so repeated submissions and parallel shards never
re-route the same circuit, within a process or across sessions.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from ..circuits import QuantumCircuit, circuit_fingerprint
from .transpile import TranspileResult, build_preset_pipeline, transpile

__all__ = ["CompiledCircuit", "CompilationCache"]


@dataclasses.dataclass
class CompiledCircuit:
    """One cached compilation artifact.

    ``circuit`` is the routed, basis-translated physical circuit — always
    carrying measurements (an unmeasured submission is measure-all'd before
    compilation, so the routed permutation is absorbed by the classical
    bits).  ``logical_measurement_layout`` maps each classical bit back to
    the *logical* qubit of the original submission: bit ``i`` of an outcome
    is logical qubit ``logical_measurement_layout[i]``.  ``layout`` /
    ``final_layout`` are the logical -> physical maps at circuit start/end.
    """

    circuit: QuantumCircuit
    layout: dict[int, int]
    final_layout: dict[int, int]
    logical_measurement_layout: list[int]
    two_qubit_gate_count: int
    swaps_inserted: int
    source_fingerprint: str

    @classmethod
    def from_transpile_result(
        cls, result: TranspileResult, logical_measurement_layout: list[int], source_fingerprint: str
    ) -> "CompiledCircuit":
        return cls(
            circuit=result.circuit,
            layout=dict(result.layout.logical_to_physical),
            final_layout=dict(result.final_layout.logical_to_physical),
            logical_measurement_layout=list(logical_measurement_layout),
            two_qubit_gate_count=result.two_qubit_gate_count,
            swaps_inserted=result.swaps_inserted,
            source_fingerprint=source_fingerprint,
        )


class CompilationCache:
    """Two-tier (memory + optional persistent) cache of compiled circuits.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity (compiled circuits are small).
    persistent:
        Any object with the :class:`~repro.simulators.cache.PersistentResultCache`
        ``get(key)`` / ``put(key, value)`` interface, or ``None``.  The
        engine passes its own persistent cache, so compiled artifacts share
        the result store's versioning, atomic writes and size cap.
    seed:
        Routing tie-break seed baked into the pipeline signature — part of
        the cache key, never ambient state.
    """

    def __init__(self, max_entries: int = 1024, persistent=None, seed: int = 0) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = int(max_entries)
        self.persistent = persistent
        self.seed = int(seed)
        self.pipeline_signature = build_preset_pipeline(noise_aware=True, seed=self.seed).signature()
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        # (circuit fingerprint, serving tier) of the most recent
        # get_or_compile: "memory" | "persistent" | "compiled".  Read by
        # the engine's tracing layer for compile-event attribution; kept
        # off CompiledCircuit itself so persisted artifacts keep their
        # layout (a dataclass-shape change would quarantine every cached
        # entry written by earlier versions).
        self.last_lookup: tuple[str, str] | None = None
        self._cache: OrderedDict[tuple, CompiledCircuit] = OrderedDict()

    def key_for(self, circuit: QuantumCircuit, device) -> tuple:
        """The content address of one (circuit, device) compilation."""
        return (
            "compiled",
            circuit_fingerprint(circuit),
            device.fingerprint(),
            self.pipeline_signature,
        )

    def get_or_compile(self, circuit: QuantumCircuit, device) -> CompiledCircuit:
        """Serve the compiled form of ``circuit`` on ``device``, compiling on miss.

        Unmeasured circuits are measure-all'd first (classical bits then
        carry the logical identity through routing), so every cached
        artifact is deliverable without a separate permutation step.
        """
        measured = circuit
        if not circuit.has_measurements:
            measured = circuit.copy()
            measured.measure_all()
        key = self.key_for(measured, device)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            self.last_lookup = (key[1], "memory")
            return cached
        if self.persistent is not None:
            stored = self.persistent.get(key)
            if stored is not None:
                self.hits += 1
                self.persistent_hits += 1
                self._remember(key, stored)
                self.last_lookup = (key[1], "persistent")
                return stored
        self.misses += 1
        self.last_lookup = (key[1], "compiled")
        result = transpile(measured, device=device, seed=self.seed)
        compiled = CompiledCircuit.from_transpile_result(
            result,
            logical_measurement_layout=measured.measurement_layout(),
            source_fingerprint=key[1],
        )
        if self.persistent is not None:
            self.persistent.put(key, compiled)
        self._remember(key, compiled)
        return compiled

    def _remember(self, key: tuple, compiled: CompiledCircuit) -> None:
        if self.max_entries == 0:
            return
        self._cache[key] = compiled
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop the in-memory tier (the persistent layer is untouched)."""
        self._cache.clear()

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "persistent_hits": self.persistent_hits,
            "entries": len(self._cache),
        }
