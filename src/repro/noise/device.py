"""Synthetic quantum-device models.

The paper's experiments run on IBM machines (``ibmq_mumbai`` noise model for
simulation, ``ibm_hanoi`` / ``ibm_kyoto`` / ``ibm_cusco`` for the real-device
tables).  Those devices and their calibration APIs are not available here, so
this module builds *synthetic* devices with the same structure:

* a heavy-hex-like sparse coupling map (27-qubit Falcon layout for
  hanoi/mumbai, a generated 127-qubit heavy-hex lattice for kyoto/cusco);
* per-qubit T1/T2, readout error and single-qubit gate error;
* per-edge two-qubit (CX/CZ) error and gate duration.

Calibration values are drawn from a seeded random generator around the
medians reported in Sec. VII-C of the paper (CNOT error 7.611e-3, readout
error 1.81e-2, T1 125.94 µs, T2 188.75 µs, two-qubit gate time 426.667 ns),
so the noise magnitude matches the paper while still exhibiting the
qubit-to-qubit variability that QuTracer's noise-aware remapping exploits.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .channels import (
    KrausChannel,
    depolarizing_channel,
    thermal_relaxation_channel,
)
from .model import NoiseModel
from .readout import ReadoutError

__all__ = [
    "QubitCalibration",
    "EdgeCalibration",
    "DeviceModel",
    "falcon_27_coupling",
    "heavy_hex_coupling",
    "linear_coupling",
    "fake_device",
    "fake_mumbai",
    "fake_hanoi",
    "fake_kyoto",
    "fake_cusco",
    "depolarizing_from_average_infidelity",
]


@dataclasses.dataclass(frozen=True)
class QubitCalibration:
    """Calibration data of one physical qubit (times in nanoseconds)."""

    t1: float
    t2: float
    readout_error: float
    sq_error: float
    sq_gate_time: float

    def quality(self) -> float:
        """A single figure of merit (lower is better) used for layout ranking."""
        return self.readout_error + 10.0 * self.sq_error + 1e5 / self.t1


@dataclasses.dataclass(frozen=True)
class EdgeCalibration:
    """Calibration data of one coupler (times in nanoseconds)."""

    cx_error: float
    gate_time: float


class DeviceModel:
    """A synthetic device: coupling map + calibration + derived noise model."""

    def __init__(
        self,
        name: str,
        num_qubits: int,
        coupling_edges: Sequence[tuple[int, int]],
        qubit_calibrations: dict[int, QubitCalibration],
        edge_calibrations: dict[tuple[int, int], EdgeCalibration],
    ) -> None:
        self.name = name
        self.num_qubits = int(num_qubits)
        self.coupling_edges = [tuple(sorted((int(a), int(b)))) for a, b in coupling_edges]
        self.qubit_calibrations = dict(qubit_calibrations)
        self.edge_calibrations = {tuple(sorted(k)): v for k, v in edge_calibrations.items()}
        if set(self.qubit_calibrations) != set(range(self.num_qubits)):
            raise ValueError("qubit calibrations must cover every qubit")
        for edge in self.coupling_edges:
            if edge not in self.edge_calibrations:
                raise ValueError(f"missing calibration for edge {edge}")
        self._derived_noise_model: NoiseModel | None = None
        self._fingerprint: str | None = None

    # -- content identity / topology ----------------------------------------

    def fingerprint(self) -> str:
        """Content hash of the device: topology + every calibration scalar.

        Two devices with identical coupling maps and calibration data share
        a fingerprint regardless of name or object identity — this is the
        device component of the engine's compilation-cache key, mirroring
        ``circuit_fingerprint`` / ``NoiseModel.fingerprint``.  Readout is
        hashed both as the scalar and as the confusion
        :meth:`_readout_error_for` builds from it.  Memoised: calibrations
        are immutable by construction.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(f"{self.num_qubits}".encode())
            for edge in sorted(self.coupling_edges):
                digest.update(repr(edge).encode())
            for qubit in sorted(self.qubit_calibrations):
                calibration = self.qubit_calibrations[qubit]
                readout = self._readout_error_for(qubit)
                digest.update(
                    (
                        f"q{qubit}:{calibration.t1!r}:{calibration.t2!r}:"
                        f"{calibration.readout_error!r}:{calibration.sq_error!r}:"
                        f"{calibration.sq_gate_time!r}:"
                        f"{readout.prob_1_given_0!r}:{readout.prob_0_given_1!r}"
                    ).encode()
                )
            for edge in sorted(self.edge_calibrations):
                calibration = self.edge_calibrations[edge]
                digest.update(
                    f"e{edge!r}:{calibration.cx_error!r}:{calibration.gate_time!r}".encode()
                )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def coupling_map(self):
        """The device topology as a :class:`~repro.transpiler.CouplingMap`.

        This is the hook that lets a device drive hardware-aware compilation.
        """
        from ..transpiler.coupling import CouplingMap

        return CouplingMap(self.coupling_edges, self.num_qubits)

    # -- summary statistics (match the quantities the paper reports) -------

    def median_cx_error(self) -> float:
        return float(np.median([c.cx_error for c in self.edge_calibrations.values()]))

    def median_readout_error(self) -> float:
        return float(np.median([c.readout_error for c in self.qubit_calibrations.values()]))

    def median_t1(self) -> float:
        return float(np.median([c.t1 for c in self.qubit_calibrations.values()]))

    def median_t2(self) -> float:
        return float(np.median([c.t2 for c in self.qubit_calibrations.values()]))

    def summary(
        self,
        qubits: Sequence[int] | None = None,
        pairs: Sequence[tuple[int, int]] | None = None,
    ) -> dict[str, float]:
        """Per-parameter medians, optionally restricted to a qubit/pair subset.

        Besides the raw calibration scalars, the summary reports the **channel
        infidelities** ``median_1q_channel_infidelity`` /
        ``median_2q_channel_infidelity`` — ``1 - F_avg`` of the channels the
        model actually applies (depolarizing composed with thermal
        relaxation).
        """
        qubit_list = sorted(self.qubit_calibrations) if qubits is None else [int(q) for q in qubits]
        pair_list = (
            list(self.edge_calibrations)
            if pairs is None
            else [tuple(sorted((int(a), int(b)))) for a, b in pairs]
        )
        for q in qubit_list:
            if q not in self.qubit_calibrations:
                raise ValueError(f"qubit {q} has no calibration")
        for pair in pair_list:
            if pair not in self.edge_calibrations:
                raise ValueError(f"pair {pair} has no calibration")
        qcals = [self.qubit_calibrations[q] for q in qubit_list]
        ecals = [self.edge_calibrations[p] for p in pair_list]
        summary: dict[str, float] = {
            "median_sq_error": float(np.median([c.sq_error for c in qcals])),
            "median_readout_error": float(
                np.median([self._readout_error_for(q).average_error for q in qubit_list])
            ),
            "median_t1": float(np.median([c.t1 for c in qcals])),
            "median_t2": float(np.median([c.t2 for c in qcals])),
            "median_1q_channel_infidelity": float(
                np.median(
                    [1.0 - self._single_qubit_channel(c).average_gate_fidelity() for c in qcals]
                )
            ),
        }
        if ecals:
            summary["median_cx_error"] = float(np.median([c.cx_error for c in ecals]))
            summary["median_2q_channel_infidelity"] = float(
                np.median(
                    [
                        1.0
                        - self._two_qubit_channel(
                            self.edge_calibrations[pair],
                            self.qubit_calibrations[pair[0]],
                            self.qubit_calibrations[pair[1]],
                        ).average_gate_fidelity()
                        for pair in pair_list
                    ]
                )
            )
        return summary

    # -- noise model --------------------------------------------------------

    def noise_model(self) -> NoiseModel:
        """The NoiseModel equivalent of this device's calibration.

        Memoised: a device's calibrations are immutable, so the derived
        model is built once and the same object returned thereafter —
        repeated :func:`~repro.noise.as_noise_model` coercions (passing the
        device itself to the engine per call) reuse its memoised
        fingerprint instead of rebuilding every channel.  Treat the
        returned model as read-only; copy it (or use
        :meth:`noise_model_for_assignment`) before mutating.
        """
        if self._derived_noise_model is None:
            self._derived_noise_model = self._build_noise_model()
        return self._derived_noise_model

    def _build_noise_model(self) -> NoiseModel:
        model = NoiseModel()
        median_qubit = QubitCalibration(
            t1=self.median_t1(),
            t2=self.median_t2(),
            readout_error=self.median_readout_error(),
            sq_error=float(np.median([c.sq_error for c in self.qubit_calibrations.values()])),
            sq_gate_time=float(
                np.median([c.sq_gate_time for c in self.qubit_calibrations.values()])
            ),
        )
        median_edge = EdgeCalibration(
            cx_error=self.median_cx_error(),
            gate_time=float(np.median([c.gate_time for c in self.edge_calibrations.values()])),
        )
        model.set_default_1q_error(self._single_qubit_channel(median_qubit))
        model.set_default_2q_error(self._two_qubit_channel(median_edge, median_qubit, median_qubit))

        for qubit, calibration in self.qubit_calibrations.items():
            model.set_qubit_error(qubit, self._single_qubit_channel(calibration))
            readout = self._readout_error_for(qubit)
            if not readout.is_trivial():
                model.set_readout_error(readout, qubit)
        for edge, calibration in self.edge_calibrations.items():
            a, b = edge
            channel = self._two_qubit_channel(
                calibration, self.qubit_calibrations[a], self.qubit_calibrations[b]
            )
            model.set_pair_error(edge, channel)
        return model

    def _readout_error_for(self, qubit: int) -> ReadoutError:
        """Confusion of one qubit; the single hook all noise-model builders use.

        Reads the symmetric ``readout_error`` scalar from the calibration.
        """
        return ReadoutError(self.qubit_calibrations[qubit].readout_error)

    # The builders are memoised on the (frozen, hashable) calibration records:
    # every noise model built for the same calibration shares one channel
    # object, so its Choi reduction runs once and its memoised superoperator
    # outlives the model.  256 entries cover every qubit and coupler of the
    # 127-qubit devices.
    @staticmethod
    @functools.lru_cache(maxsize=256)
    def _single_qubit_channel(calibration: QubitCalibration) -> KrausChannel:
        channel = depolarizing_channel(
            depolarizing_from_average_infidelity(calibration.sq_error, 1), 1
        )
        relaxation = thermal_relaxation_channel(
            calibration.t1, calibration.t2, calibration.sq_gate_time
        )
        combined = channel.compose(relaxation).reduced()
        combined.name = "device_1q"
        return combined

    @staticmethod
    @functools.lru_cache(maxsize=256)
    def _two_qubit_channel(
        edge: EdgeCalibration, qubit_a: QubitCalibration, qubit_b: QubitCalibration
    ) -> KrausChannel:
        channel = depolarizing_channel(
            depolarizing_from_average_infidelity(edge.cx_error, 2), 2
        )
        relax_a = thermal_relaxation_channel(qubit_a.t1, qubit_a.t2, edge.gate_time)
        relax_b = thermal_relaxation_channel(qubit_b.t1, qubit_b.t2, edge.gate_time)
        combined = channel.compose(relax_a.tensor(relax_b)).reduced()
        combined.name = "device_2q"
        return combined

    def noise_model_for_assignment(self, assignment: dict[int, int]) -> NoiseModel:
        """Noise model for a *logical* circuit under a logical->physical assignment.

        Logical qubits keep their indices; their gate and readout noise is
        taken from the calibration of the physical qubit they are assigned
        to.  Two-qubit noise between logical qubits whose physical images are
        adjacent uses that coupler's calibration; non-adjacent pairs get a
        penalty channel whose strength grows with the coupling-map distance,
        standing in for the SWAP overhead that routing would add.  This is
        how the benchmark harness models "running on ibm_hanoi/kyoto/cusco"
        without simulating all 27/127 physical wires.
        """
        import networkx as nx

        graph = nx.Graph(self.coupling_edges)
        median_qubit = QubitCalibration(
            t1=self.median_t1(),
            t2=self.median_t2(),
            readout_error=self.median_readout_error(),
            sq_error=float(np.median([c.sq_error for c in self.qubit_calibrations.values()])),
            sq_gate_time=float(
                np.median([c.sq_gate_time for c in self.qubit_calibrations.values()])
            ),
        )
        median_edge = EdgeCalibration(
            cx_error=self.median_cx_error(),
            gate_time=float(np.median([c.gate_time for c in self.edge_calibrations.values()])),
        )
        model = NoiseModel()
        model.set_default_1q_error(self._single_qubit_channel(median_qubit))
        model.set_default_2q_error(self._two_qubit_channel(median_edge, median_qubit, median_qubit))
        model.set_readout_error(ReadoutError(median_qubit.readout_error))
        for logical, physical in assignment.items():
            calibration = self.qubit_calibrations[physical]
            model.set_qubit_error(logical, self._single_qubit_channel(calibration))
            model.set_readout_error(self._readout_error_for(physical), logical)
        logicals = sorted(assignment)
        for i, a in enumerate(logicals):
            for b in logicals[i + 1 :]:
                pa, pb = assignment[a], assignment[b]
                edge = tuple(sorted((pa, pb)))
                if edge in self.edge_calibrations:
                    channel = self._two_qubit_channel(
                        self.edge_calibrations[edge],
                        self.qubit_calibrations[pa],
                        self.qubit_calibrations[pb],
                    )
                else:
                    try:
                        distance = nx.shortest_path_length(graph, pa, pb)
                    except nx.NetworkXNoPath:  # pragma: no cover - disconnected devices
                        distance = self.num_qubits
                    # Each extra hop costs roughly one SWAP (three CX) on top
                    # of the gate itself.
                    penalty = EdgeCalibration(
                        cx_error=min(median_edge.cx_error * (3 * (distance - 1) + 1), 0.5),
                        gate_time=median_edge.gate_time * (2 * distance - 1),
                    )
                    channel = self._two_qubit_channel(
                        penalty, self.qubit_calibrations[pa], self.qubit_calibrations[pb]
                    )
                model.set_pair_error((a, b), channel)
        return model

    # -- helpers for noise-aware layout -------------------------------------

    def best_qubits(self, count: int) -> list[int]:
        """The ``count`` best qubits by the quality figure of merit."""
        ranked = sorted(
            self.qubit_calibrations, key=lambda q: self.qubit_calibrations[q].quality()
        )
        return ranked[:count]

    def neighbors(self, qubit: int) -> list[int]:
        result = []
        for a, b in self.coupling_edges:
            if a == qubit:
                result.append(b)
            elif b == qubit:
                result.append(a)
        return sorted(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DeviceModel({self.name!r}, qubits={self.num_qubits}, "
            f"edges={len(self.coupling_edges)}, median_cx_error={self.median_cx_error():.2e})"
        )


def depolarizing_from_average_infidelity(error: float, num_qubits: int) -> float:
    """Convert an average gate infidelity into a depolarizing parameter.

    For a ``d``-dimensional depolarizing channel with parameter ``p`` the
    average gate infidelity is ``p * (d - 1) / d`` (for the parameterisation
    rho -> (1 - p) rho + p I/d the average fidelity is
    ``1 - p (d - 1)/d``... more precisely ``1 - p (d-1)/(d)`` with the
    uniform-Pauli convention used by :func:`depolarizing_channel`).  We use
    ``p = error * d / (d - 1)`` clipped to [0, 1].
    """
    if error < 0:
        raise ValueError("error must be non-negative")
    d = 2**num_qubits
    return min(error * d / (d - 1), 1.0)


# ---------------------------------------------------------------------------
# Coupling maps
# ---------------------------------------------------------------------------

def linear_coupling(num_qubits: int) -> list[tuple[int, int]]:
    """Nearest-neighbour chain (used for small tests and the VQE ansatz)."""
    return [(i, i + 1) for i in range(num_qubits - 1)]


def falcon_27_coupling() -> list[tuple[int, int]]:
    """Heavy-hex coupling of the 27-qubit IBM Falcon family (hanoi/mumbai)."""
    return [
        (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
        (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
        (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
        (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
    ]


def heavy_hex_coupling(num_rows: int = 7, row_length: int = 13, connectors_per_gap: int = 6) -> list[tuple[int, int]]:
    """Generate a heavy-hex-like lattice.

    Rows of ``row_length`` qubits are connected as chains; between adjacent
    rows, ``connectors_per_gap`` bridge qubits connect matching columns.  The
    defaults give ``7*13 + 6*6 = 127`` qubits, the size of the IBM Eagle
    devices (kyoto/cusco) used in the paper.
    """
    edges: list[tuple[int, int]] = []
    row_start = [r * row_length for r in range(num_rows)]
    next_index = num_rows * row_length
    for r in range(num_rows):
        for c in range(row_length - 1):
            edges.append((row_start[r] + c, row_start[r] + c + 1))
    for r in range(num_rows - 1):
        columns = np.linspace(0, row_length - 1, connectors_per_gap, dtype=int)
        # Alternate the column offsets between gaps like the real lattice.
        if r % 2 == 1:
            columns = np.clip(columns + 1, 0, row_length - 1)
        for c in columns:
            bridge = next_index
            next_index += 1
            edges.append((row_start[r] + int(c), bridge))
            edges.append((bridge, row_start[r + 1] + int(c)))
    return edges


def _num_qubits_of(edges: Iterable[tuple[int, int]]) -> int:
    return max(max(a, b) for a, b in edges) + 1


# ---------------------------------------------------------------------------
# Synthetic devices
# ---------------------------------------------------------------------------

_DEVICE_SPECS: dict[str, dict] = {
    # medians follow Sec. VII-C; eagle devices get slightly worse 2q errors,
    # matching the relative behaviour reported for kyoto / cusco runs.
    "mumbai": {"edges": "falcon", "cx_error": 7.611e-3, "readout": 1.810e-2, "seed": 11},
    "hanoi": {"edges": "falcon", "cx_error": 6.9e-3, "readout": 1.3e-2, "seed": 23},
    "kyoto": {"edges": "eagle", "cx_error": 9.5e-3, "readout": 2.2e-2, "seed": 37},
    "cusco": {"edges": "eagle", "cx_error": 1.25e-2, "readout": 2.6e-2, "seed": 51},
}


def fake_device(name: str) -> DeviceModel:
    """Build one of the named synthetic devices (mumbai/hanoi/kyoto/cusco)."""
    key = name.lower().replace("ibmq_", "").replace("ibm_", "").replace("fake_", "")
    if key not in _DEVICE_SPECS:
        raise ValueError(f"unknown device {name!r}; available: {sorted(_DEVICE_SPECS)}")
    spec = _DEVICE_SPECS[key]
    edges = falcon_27_coupling() if spec["edges"] == "falcon" else heavy_hex_coupling()
    num_qubits = _num_qubits_of(edges)
    rng = np.random.default_rng(spec["seed"])

    median_t1 = 125.94e3  # ns
    median_t2 = 188.75e3  # ns (t2 may exceed t1 but not 2*t1)
    sq_time = 35.56  # ns
    tq_time = 426.667  # ns
    median_sq_error = 2.5e-4

    qubit_calibrations: dict[int, QubitCalibration] = {}
    for q in range(num_qubits):
        t1 = median_t1 * rng.lognormal(mean=0.0, sigma=0.35)
        t2 = min(median_t2 * rng.lognormal(mean=0.0, sigma=0.35), 1.95 * t1)
        readout = float(np.clip(spec["readout"] * rng.lognormal(0.0, 0.5), 1e-3, 0.35))
        sq_error = float(np.clip(median_sq_error * rng.lognormal(0.0, 0.5), 1e-5, 5e-3))
        qubit_calibrations[q] = QubitCalibration(
            t1=t1, t2=t2, readout_error=readout, sq_error=sq_error, sq_gate_time=sq_time
        )

    edge_calibrations: dict[tuple[int, int], EdgeCalibration] = {}
    for edge in edges:
        cx_error = float(np.clip(spec["cx_error"] * rng.lognormal(0.0, 0.4), 1e-3, 0.25))
        gate_time = tq_time * float(rng.uniform(0.75, 1.25))
        edge_calibrations[tuple(sorted(edge))] = EdgeCalibration(cx_error=cx_error, gate_time=gate_time)

    return DeviceModel(
        name=f"fake_{key}",
        num_qubits=num_qubits,
        coupling_edges=edges,
        qubit_calibrations=qubit_calibrations,
        edge_calibrations=edge_calibrations,
    )


def fake_mumbai() -> DeviceModel:
    return fake_device("mumbai")


def fake_hanoi() -> DeviceModel:
    return fake_device("hanoi")


def fake_kyoto() -> DeviceModel:
    return fake_device("kyoto")


def fake_cusco() -> DeviceModel:
    return fake_device("cusco")
