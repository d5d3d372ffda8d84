"""The :class:`NoiseModel`: mapping circuit instructions to noise channels.

A noise model answers two questions for the simulators:

* :meth:`NoiseModel.channels_for` — which Kraus channels to apply (and on
  which wires) after executing a given gate instruction;
* :meth:`NoiseModel.readout_error` — the classical confusion to apply to the
  measurement of a given qubit.

The two parameterisations used by the paper are provided as constructors:
:meth:`NoiseModel.depolarizing` (uniform gate depolarizing + uniform readout,
Sec. VII-A/B) and the device models built by :mod:`repro.noise.device`
(per-qubit calibration, Sec. VII-C/D/E).

"Ideal PCS" support: gates acting on a qubit listed in
:attr:`noise_free_qubits` receive no gate noise and its readout is perfect,
which is exactly the paper's definition of ideal Pauli checks (no errors on
the checking circuit or ancilla measurement).
"""

from __future__ import annotations

import copy as _copy
from typing import Iterable, Mapping, Sequence

from ..circuits.instruction import Instruction
from .channels import KrausChannel, depolarizing_channel
from .readout import ReadoutError

__all__ = ["NoiseModel", "as_noise_model"]


def as_noise_model(source: "NoiseModel | object") -> "NoiseModel":
    """Coerce ``source`` into a :class:`NoiseModel`.

    Accepts a :class:`NoiseModel` (returned unchanged) or any object with a
    ``noise_model()`` method, such as a :class:`~repro.noise.DeviceModel`,
    so every entry point that takes gate/readout noise (the execution
    engine, the one-shot :func:`~repro.simulators.execute`, ``run_jigsaw``,
    ``run_pcs``, ``run_sqem``, :class:`~repro.core.QuTracer`) can be handed
    a device directly.  Duck-typed rather than
    ``isinstance(DeviceModel)`` to avoid a circular import (``device``
    imports this module).
    """
    if isinstance(source, NoiseModel):
        return source
    builder = getattr(source, "noise_model", None)
    if callable(builder):
        model = builder()
        if isinstance(model, NoiseModel):
            return model
    raise TypeError(
        f"expected a NoiseModel or an object with a noise_model() method, got {type(source).__name__}"
    )


class NoiseModel:
    """Per-gate and per-qubit noise description."""

    def __init__(self) -> None:
        self._default_1q: list[KrausChannel] = []
        self._default_2q: list[KrausChannel] = []
        self._qubit_1q: dict[int, list[KrausChannel]] = {}
        self._pair_2q: dict[tuple[int, int], list[KrausChannel]] = {}
        self._gate_overrides: dict[str, list[KrausChannel]] = {}
        self._readout: dict[int, ReadoutError] = {}
        self._default_readout: ReadoutError | None = None
        self._noise_free_qubits: set[int] = set()
        self._noise_free_gate_names: set[str] = set()
        self._version = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def ideal(cls) -> "NoiseModel":
        """A noise model with no errors at all."""
        return cls()

    @classmethod
    def depolarizing(
        cls,
        p1: float = 0.0,
        p2: float = 0.0,
        readout: float | Mapping[int, float] = 0.0,
    ) -> "NoiseModel":
        """Uniform depolarizing noise: ``p1`` on 1-qubit gates, ``p2`` on
        2-qubit gates, and symmetric readout error ``readout`` (a single value
        for all qubits or a per-qubit mapping)."""
        model = cls()
        if p1 > 0:
            model.set_default_1q_error(depolarizing_channel(p1, 1))
        if p2 > 0:
            model.set_default_2q_error(depolarizing_channel(p2, 2))
        if isinstance(readout, Mapping):
            for qubit, value in readout.items():
                if value > 0:
                    model.set_readout_error(ReadoutError(value), qubit)
        elif readout > 0:
            model.set_readout_error(ReadoutError(readout))
        return model

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def set_default_1q_error(self, channel: KrausChannel) -> "NoiseModel":
        self._require_width(channel, 1)
        self._default_1q = [channel]
        self._version += 1
        return self

    def set_default_2q_error(self, channel: KrausChannel) -> "NoiseModel":
        self._require_width(channel, 2)
        self._default_2q = [channel]
        self._version += 1
        return self

    def set_qubit_error(self, qubit: int, channel: KrausChannel) -> "NoiseModel":
        """Noise applied after every 1-qubit gate on ``qubit`` (replaces defaults)."""
        self._require_width(channel, 1)
        self._qubit_1q.setdefault(int(qubit), []).append(channel)
        self._version += 1
        return self

    def set_pair_error(self, pair: Sequence[int], channel: KrausChannel) -> "NoiseModel":
        """Noise applied after every 2-qubit gate on ``pair`` (replaces defaults).

        The channel may be 2-qubit (applied to the pair in the instruction's
        wire order) or 1-qubit (applied to each wire independently).
        """
        if channel.num_qubits not in (1, 2):
            raise ValueError("pair errors must be 1- or 2-qubit channels")
        key = tuple(sorted(int(q) for q in pair))
        if len(key) != 2:
            raise ValueError("a pair needs exactly two distinct qubits")
        self._pair_2q.setdefault(key, []).append(channel)
        self._version += 1
        return self

    def set_gate_error(self, gate_name: str, channel: KrausChannel) -> "NoiseModel":
        """Noise applied after every gate with this name (replaces defaults)."""
        self._gate_overrides.setdefault(gate_name.lower(), []).append(channel)
        self._version += 1
        return self

    def set_readout_error(self, error: ReadoutError, qubit: int | None = None) -> "NoiseModel":
        if qubit is None:
            self._default_readout = error
        else:
            self._readout[int(qubit)] = error
        self._version += 1
        return self

    def add_noise_free_gate(self, gate_name: str) -> "NoiseModel":
        self._noise_free_gate_names.add(gate_name.lower())
        self._version += 1
        return self

    def add_noise_free_qubits(self, qubits: Iterable[int] | int) -> "NoiseModel":
        """Mark ``qubits`` as error free (no gate noise, perfect readout)."""
        if isinstance(qubits, int):
            qubits = (qubits,)
        self._noise_free_qubits.update(int(q) for q in qubits)
        self._version += 1
        return self

    @property
    def noise_free_qubits(self) -> frozenset[int]:
        """Qubits whose gates and readout are error free (read-only view).

        Mutate through :meth:`add_noise_free_qubits` so the model's
        :attr:`version` is bumped and engine-side memos are invalidated.
        """
        return frozenset(self._noise_free_qubits)

    @property
    def noise_free_gate_names(self) -> frozenset[str]:
        """Gate names that receive no noise (read-only view).

        Mutate through :meth:`add_noise_free_gate` so the model's
        :attr:`version` is bumped and engine-side memos are invalidated.
        """
        return frozenset(self._noise_free_gate_names)

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every in-place ``set_*``/``add_*`` call.

        Caches that memoise per-object derived data (the execution engine's
        fingerprint and remapped-model memos) pair this with object identity
        so an in-place mutation invalidates stale entries.
        """
        return self._version

    def _require_width(self, channel: KrausChannel, num_qubits: int) -> None:
        if channel.num_qubits != num_qubits:
            raise ValueError(
                f"expected a {num_qubits}-qubit channel, got {channel.num_qubits}-qubit"
            )

    # ------------------------------------------------------------------
    # Derived models
    # ------------------------------------------------------------------

    def copy(self) -> "NoiseModel":
        return _copy.deepcopy(self)

    def with_perfect_qubits(self, qubits: Iterable[int]) -> "NoiseModel":
        """Copy of the model where gates touching ``qubits`` and their readout
        are error free.  Used to build the paper's "ideal PCS" baseline."""
        model = self.copy()
        model.add_noise_free_qubits(qubits)
        return model

    def with_readout_scaled(self, factor: float) -> "NoiseModel":
        """Copy with every readout error probability multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        model = self.copy()
        if model._default_readout is not None:
            model._default_readout = ReadoutError(
                min(model._default_readout.prob_1_given_0 * factor, 1.0),
                min(model._default_readout.prob_0_given_1 * factor, 1.0),
            )
        for qubit, error in list(model._readout.items()):
            model._readout[qubit] = ReadoutError(
                min(error.prob_1_given_0 * factor, 1.0),
                min(error.prob_0_given_1 * factor, 1.0),
            )
        return model

    def without_readout_errors(self) -> "NoiseModel":
        model = self.copy()
        model._readout = {}
        model._default_readout = None
        return model

    def remap_qubits(self, mapping: Mapping[int, int]) -> "NoiseModel":
        """Copy of the model with qubit-indexed noise renamed through ``mapping``.

        Entries for qubits absent from ``mapping`` are dropped — they refer to
        wires that no longer exist.  Defaults and per-gate overrides are not
        qubit-indexed and carry over unchanged.  Used by the execution engine
        when it compacts idle wires out of a circuit: the compacted circuit
        must see exactly the noise its surviving wires had.
        """
        model = NoiseModel()
        model._default_1q = list(self._default_1q)
        model._default_2q = list(self._default_2q)
        model._gate_overrides = {k: list(v) for k, v in self._gate_overrides.items()}
        model._default_readout = self._default_readout
        model._noise_free_gate_names = set(self._noise_free_gate_names)
        for qubit, channels in self._qubit_1q.items():
            if qubit in mapping:
                model._qubit_1q[mapping[qubit]] = list(channels)
        for (a, b), channels in self._pair_2q.items():
            if a in mapping and b in mapping:
                key = tuple(sorted((mapping[a], mapping[b])))
                model._pair_2q[key] = list(channels)
        for qubit, error in self._readout.items():
            if qubit in mapping:
                model._readout[mapping[qubit]] = error
        model._noise_free_qubits = {
            mapping[q] for q in self._noise_free_qubits if q in mapping
        }
        return model

    def fingerprint(self) -> str:
        """Content hash of the model, stable across equivalent instances.

        Two models built from the same channels and readout errors produce
        the same fingerprint even when they are distinct objects.  The
        execution engine combines this with a circuit fingerprint to build
        its content-addressed cache keys.
        """
        import hashlib

        import numpy as np

        digest = hashlib.sha256()

        def add_channels(tag: str, channels: Sequence[KrausChannel]) -> None:
            digest.update(tag.encode())
            for channel in channels:
                for op in channel.operators:
                    digest.update(np.ascontiguousarray(op).tobytes())

        add_channels("d1", self._default_1q)
        add_channels("d2", self._default_2q)
        for qubit in sorted(self._qubit_1q):
            add_channels(f"q{qubit}", self._qubit_1q[qubit])
        for pair in sorted(self._pair_2q):
            add_channels(f"p{pair}", self._pair_2q[pair])
        for name in sorted(self._gate_overrides):
            add_channels(f"g{name}", self._gate_overrides[name])
        if self._default_readout is not None:
            digest.update(
                f"r*:{self._default_readout.prob_1_given_0}:{self._default_readout.prob_0_given_1}".encode()
            )
        for qubit in sorted(self._readout):
            error = self._readout[qubit]
            digest.update(f"r{qubit}:{error.prob_1_given_0}:{error.prob_0_given_1}".encode())
        digest.update(f"nfq{sorted(self._noise_free_qubits)}".encode())
        digest.update(f"nfg{sorted(self._noise_free_gate_names)}".encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Queries used by the simulators
    # ------------------------------------------------------------------

    @property
    def is_ideal(self) -> bool:
        return (
            not self._default_1q
            and not self._default_2q
            and not self._qubit_1q
            and not self._pair_2q
            and not self._gate_overrides
            and not self._readout
            and self._default_readout is None
        )

    @property
    def has_gate_errors(self) -> bool:
        return bool(
            self._default_1q
            or self._default_2q
            or self._qubit_1q
            or self._pair_2q
            or self._gate_overrides
        )

    def channels_for(self, instruction: Instruction) -> list[tuple[KrausChannel, tuple[int, ...]]]:
        """Noise channels (with target wires) to apply after ``instruction``."""
        if not instruction.is_gate:
            return []
        name = instruction.name.lower()
        if name in self._noise_free_gate_names:
            return []
        if self._noise_free_qubits and set(instruction.qubits) & self._noise_free_qubits:
            return []

        channels: list[KrausChannel] = []
        if name in self._gate_overrides:
            channels = self._gate_overrides[name]
        elif instruction.operation.num_qubits == 1:
            qubit = instruction.qubits[0]
            channels = self._qubit_1q.get(qubit, self._default_1q)
        elif instruction.operation.num_qubits == 2:
            key = tuple(sorted(instruction.qubits))
            channels = self._pair_2q.get(key, self._default_2q)
        else:
            # Multi-qubit gates (ccx, cswap): apply the 2-qubit default to
            # each adjacent wire pair as a pragmatic approximation.
            result: list[tuple[KrausChannel, tuple[int, ...]]] = []
            for channel in self._default_2q:
                for a, b in zip(instruction.qubits, instruction.qubits[1:]):
                    result.append((channel, (a, b)))
            for channel in self._default_1q:
                for q in instruction.qubits:
                    result.append((channel, (q,)))
            return result

        result = []
        for channel in channels:
            if channel.num_qubits == instruction.operation.num_qubits:
                result.append((channel, instruction.qubits))
            elif channel.num_qubits == 1:
                for q in instruction.qubits:
                    result.append((channel, (q,)))
            else:  # pragma: no cover - configuration error
                raise ValueError(
                    f"channel width {channel.num_qubits} incompatible with gate {name!r}"
                )
        return result

    def readout_error(self, qubit: int) -> ReadoutError | None:
        if qubit in self._noise_free_qubits:
            return None
        error = self._readout.get(int(qubit), self._default_readout)
        if error is None or error.is_trivial():
            return None
        return error

    def readout_errors_for(self, qubits: Sequence[int]) -> dict[int, ReadoutError]:
        result = {}
        for q in qubits:
            error = self.readout_error(q)
            if error is not None:
                result[int(q)] = error
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NoiseModel(default_1q={bool(self._default_1q)}, default_2q={bool(self._default_2q)}, "
            f"per_qubit={len(self._qubit_1q)}, per_pair={len(self._pair_2q)}, "
            f"readout={len(self._readout) or (self._default_readout is not None)})"
        )
