"""CHP-style stabilizer tableau backend for Clifford + Pauli-noise programs.

Calibration workloads — randomized benchmarking and Pauli-twirled CX
circuits — are pure Clifford, yet the dense backends pay ``2**n`` (state
vector) or ``4**n`` (density matrix) per gate to simulate them.  This module
simulates such programs in the stabilizer formalism instead:

* :class:`StabilizerTableau` is an Aaronson-Gottesman CHP tableau — binary
  X/Z matrices over ``2n + 1`` rows (``n`` destabilizers, ``n`` stabilizers,
  one scratch row) plus a sign vector — with the standard update rules for
  ``h``/``s``/``cx`` (everything else is composed from those and column
  swaps), deterministic and random measurement outcomes, and ``reset``;
* :func:`is_clifford_program` is the recognition pass: a circuit (plus the
  noise model that will decorate it) is stabilizer-simulable when every gate
  is expressible as a Clifford primitive sequence and every noise channel is
  a probabilistic mixture of Pauli strings
  (:meth:`~repro.noise.KrausChannel.pauli_mixture`);
* :func:`simulate_stabilizer_trajectories` is the sampling backend: same
  contract as :func:`~repro.simulators.ensemble.simulate_trajectories_ensemble`
  (trajectory plan, readout flips, ``Counts`` over the measurement layout),
  but each noise realisation is a *Pauli frame* — two bit-vectors conjugated
  through the circuit — instead of a dense state, so cost scales with the
  gate count and qubit count, not ``2**n``.  This is what opens 20-30 qubit
  RB, which the dense tier cannot represent at all.

How sampling works
------------------
For a Clifford circuit under Pauli noise every trajectory's state is
``P |psi>`` where ``|psi>`` is the noiseless stabilizer state and ``P`` the
accumulated Pauli error (the *frame*).  Measuring qubit ``q`` on ``P |psi>``
gives the outcome ``|psi>`` would give, flipped iff ``P`` has an X (or Y)
component on ``q``.  So the sampler:

1. evolves **one** tableau through the noiseless circuit;
2. propagates all ``T`` trajectory frames through the circuit together,
   bit-packed as one Python integer per qubit per X/Z component (bit ``t`` =
   trajectory ``t``), so a Clifford gate conjugates every frame with one or
   two arbitrary-precision XOR/swap operations — no per-trajectory loop and
   no small-array overhead;
3. samples reference outcomes from the final stabilizer state and XORs each
   trajectory's frame flips on top, then tallies them and applies the
   shared readout tail (:func:`repro.simulators.trajectory.read_out`).

Noise sites are sampled sparsely: at error rates of interest almost every
trajectory draws the identity at almost every site, so instead of one
categorical draw per (site, trajectory) the sampler draws, per site, the
*number* of error events from ``Binomial(T, p_error)``, then distinct
trajectory positions uniformly and operator identities from the
error-conditional distribution.  That factorisation is exactly equivalent to
``T`` independent categorical draws and costs ``O(errors)`` instead of
``O(T)`` per site.  The noiseless tableau is bit-packed the same way (one
integer per X/Z column over the ``2n + 1`` rows) during evolution and
unpacked into a :class:`StabilizerTableau` only where row arithmetic is
needed (``reset``, final measurement).

Reference outcomes use the affine structure of stabilizer measurements: the
joint distribution over the measured qubits is uniform over an affine
subspace ``base ^ span(columns)``, where ``k`` is the number of random
(rank-deficient) measurement outcomes.  Collapsing with outcome 1 instead
of 0 differs from the outcome-0 branch by a Pauli correction, so later
outcomes depend GF(2)-linearly on earlier random bits; replaying the
sequential measurement once per injected basis vector (``k + 1`` replays)
recovers ``base`` and the ``columns``, after which any number of shots is a
vectorized XOR.

Contract with the dense tier
----------------------------
* Counts agree with the dense backends **in distribution**, not
  shot-for-shot — the RNG streams differ (documented TV budgets in
  ``tests/test_stabilizer.py``).  Ideal deterministic outcomes agree
  exactly.
* Like the dense backends, measurement *position* is not tracked: the
  reported distribution is that of the final state over
  ``circuit.measurement_layout()``.
* ``reset`` is supported natively (measure + conditional X on the tableau;
  frames are cleared on the reset wire) — the dense simulators reject it.
* Results are reproducible for a fixed seed: the RNG stream is consumed in
  a fixed order (per-channel error-count draws in first-appearance order,
  then that channel's positions and operator identities, then per-site
  collision redraws in site order, then reset draws in circuit order, then
  reference-outcome draws); readout flips come from the separate
  seed-keyed generator of :func:`~repro.simulators.trajectory.read_out`.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuits import QuantumCircuit
from ..distributions import Counts
from ..noise import NoiseModel
from .trajectory import _tally, _trajectory_plan, read_out

__all__ = [
    "StabilizerTableau",
    "is_clifford_program",
    "simulate_stabilizer_trajectories",
]

_QUARTER_TURN = math.pi / 2.0

# Gates with a native tableau update.
_PRIMITIVES = frozenset(
    {"h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "cx", "cz", "swap"}
)

# Single-qubit state preparations (wire assumed |0>, as StatePreparation
# documents) expressed as primitive sequences applied in circuit order.
_PREP_SEQUENCES = {
    "prep_0": (),
    "prep_1": ("x",),
    "prep_+": ("h",),
    "prep_-": ("x", "h"),
    "prep_i": ("h", "s"),
    "prep_-i": ("h", "sdg"),
}

# Quarter-turn rotations: index = angle / (pi/2) mod 4.  ``rz`` and ``p``
# differ from these only by a global phase; ``ry(pi/2) = H Z`` as matrices
# (sequences are applied in circuit order, so ("z", "h") means Z then H).
_ROTATION_SEQUENCES = {
    "rz": ((), ("s",), ("z",), ("sdg",)),
    "p": ((), ("s",), ("z",), ("sdg",)),
    "rx": ((), ("sx",), ("x",), ("sxdg",)),
    "ry": ((), ("z", "h"), ("y",), ("h", "z")),
}


def _clifford_ops(instruction) -> list[tuple[str, tuple[int, ...]]] | None:
    """Primitive (name, qubits) sequence for a gate, or ``None`` if it has no
    Clifford expression this pass recognizes.

    Recognition is by gate *name* (plus quarter-turn angle checks for the
    rotation gates), so it runs on the raw circuit — gate fusion erases
    names into dense matrices, which is why the engine classifies programs
    before fusing.
    """
    name = instruction.name
    if name in _PRIMITIVES:
        return [(name, instruction.qubits)]
    if name == "id":
        return []
    sequence = _PREP_SEQUENCES.get(name)
    if sequence is not None:
        return [(gate, instruction.qubits) for gate in sequence]
    quarter_sequences = _ROTATION_SEQUENCES.get(name)
    if quarter_sequences is not None:
        turns = instruction.operation.params[0] / _QUARTER_TURN
        nearest = round(turns)
        if abs(turns - nearest) > 1e-9:
            return None
        return [
            (gate, instruction.qubits) for gate in quarter_sequences[int(nearest) % 4]
        ]
    return None


def is_clifford_program(
    circuit: QuantumCircuit, noise_model: NoiseModel | None = None
) -> bool:
    """True when ``circuit`` under ``noise_model`` is stabilizer-simulable.

    Two conditions, checked in order (gates first, so non-Clifford circuits
    fail fast without touching the noise model):

    * every gate instruction translates to Clifford primitives
      (:func:`_clifford_ops`); measurements, barriers and ``reset`` are
      always fine;
    * every noise channel the model attaches to an instruction is either an
      identity or a Pauli mixture
      (:meth:`~repro.noise.KrausChannel.pauli_mixture`) — amplitude damping
      and other non-unitary channels disqualify the program.  Readout
      errors are classical bit flips and never disqualify.
    """
    gates = []
    for instruction in circuit.data:
        # Primitive names are unambiguous (only gates carry them), so the
        # common case skips the isinstance predicates and the translator.
        name = instruction.operation.name
        if name in _PRIMITIVES or name == "id":
            gates.append(instruction)
            continue
        if instruction.is_barrier or instruction.is_measurement or name == "reset":
            continue
        if not instruction.is_gate or _clifford_ops(instruction) is None:
            return False
        gates.append(instruction)
    if noise_model is not None and not noise_model.is_ideal:
        # Calibration circuits repeat the same few (gate, qubits) patterns
        # hundreds of times; memoising the channel lookup and the per-channel
        # verdict keeps this pass O(distinct patterns), not O(gates).
        site_memo: dict[tuple, list] = {}
        verdicts: dict[int, bool] = {}
        for instruction in gates:
            key = (instruction.name, instruction.qubits)
            sites = site_memo.get(key)
            if sites is None:
                sites = site_memo[key] = noise_model.channels_for(instruction)
            for channel, _wires in sites:
                verdict = verdicts.get(id(channel))
                if verdict is None:
                    verdict = channel.is_identity() or channel.pauli_mixture() is not None
                    verdicts[id(channel)] = verdict
                if not verdict:
                    return False
    return True


class StabilizerTableau:
    """Aaronson-Gottesman tableau over ``2n + 1`` rows.

    Rows ``0..n-1`` are destabilizers (initially ``X_i``), rows ``n..2n-1``
    stabilizers (initially ``Z_i``), row ``2n`` is measurement scratch.
    ``x_bits[i, q]`` / ``z_bits[i, q]`` hold the X/Z component of row ``i``
    on qubit ``q``; ``phases[i]`` is the sign bit (True = ``-1``).
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise ValueError("a tableau needs at least one qubit")
        self.num_qubits = int(num_qubits)
        n = self.num_qubits
        size = 2 * n + 1
        self.x_bits = np.zeros((size, n), dtype=bool)
        self.z_bits = np.zeros((size, n), dtype=bool)
        self.phases = np.zeros(size, dtype=bool)
        self.x_bits[np.arange(n), np.arange(n)] = True
        self.z_bits[np.arange(n) + n, np.arange(n)] = True

    def copy(self) -> "StabilizerTableau":
        clone = object.__new__(StabilizerTableau)
        clone.num_qubits = self.num_qubits
        clone.x_bits = self.x_bits.copy()
        clone.z_bits = self.z_bits.copy()
        clone.phases = self.phases.copy()
        return clone

    # ------------------------------------------------------------------
    # Clifford gates
    # ------------------------------------------------------------------

    def h(self, q: int) -> None:
        self.phases ^= self.x_bits[:, q] & self.z_bits[:, q]
        column = self.x_bits[:, q].copy()
        self.x_bits[:, q] = self.z_bits[:, q]
        self.z_bits[:, q] = column

    def s(self, q: int) -> None:
        self.phases ^= self.x_bits[:, q] & self.z_bits[:, q]
        self.z_bits[:, q] ^= self.x_bits[:, q]

    def sdg(self, q: int) -> None:
        # S† = Z S (diagonal gates commute).
        self.s(q)
        self.z(q)

    def x(self, q: int) -> None:
        self.phases ^= self.z_bits[:, q]

    def y(self, q: int) -> None:
        self.phases ^= self.x_bits[:, q] ^ self.z_bits[:, q]

    def z(self, q: int) -> None:
        self.phases ^= self.x_bits[:, q]

    def sx(self, q: int) -> None:
        # sqrt(X) = H S H exactly (not just up to phase).
        self.h(q)
        self.s(q)
        self.h(q)

    def sxdg(self, q: int) -> None:
        self.h(q)
        self.sdg(q)
        self.h(q)

    def cx(self, control: int, target: int) -> None:
        xc, zc = self.x_bits[:, control], self.z_bits[:, control]
        xt, zt = self.x_bits[:, target], self.z_bits[:, target]
        self.phases ^= xc & zt & ~(xt ^ zc)
        xt ^= xc
        zc ^= zt

    def cz(self, control: int, target: int) -> None:
        # CZ = (I ⊗ H) CX (I ⊗ H); composing keeps the sign bookkeeping in
        # exactly one place (the cx rule).
        self.h(target)
        self.cx(control, target)
        self.h(target)

    def swap(self, a: int, b: int) -> None:
        self.x_bits[:, [a, b]] = self.x_bits[:, [b, a]]
        self.z_bits[:, [a, b]] = self.z_bits[:, [b, a]]

    def apply(self, name: str, qubits: tuple[int, ...]) -> None:
        """Apply a primitive by name (see ``_PRIMITIVES``)."""
        getattr(self, name)(*qubits)

    def apply_pauli(self, label: str, qubits: tuple[int, ...]) -> None:
        """Apply a Pauli string; ``label[i]`` acts on ``qubits[i]``."""
        for character, q in zip(label.upper(), qubits):
            if character == "X":
                self.x(q)
            elif character == "Y":
                self.y(q)
            elif character == "Z":
                self.z(q)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measurement_is_random(self, q: int) -> bool:
        """True when measuring ``q`` now would give a 50/50 random outcome."""
        n = self.num_qubits
        return bool(self.x_bits[n : 2 * n, q].any())

    def measure(
        self,
        q: int,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, bool]:
        """Measure qubit ``q`` in the Z basis; returns ``(outcome, was_random)``.

        A *random* outcome (some stabilizer anticommutes with ``Z_q``)
        collapses the state; the outcome bit comes from ``forced`` when
        given, else from ``rng``.  A *deterministic* outcome leaves the
        state unchanged and needs no randomness.  Whether an outcome is
        random depends only on the X-bit structure, never on previous
        outcome values — which is what makes forced-bit replay
        (:func:`_affine_measurement_model`) well defined.
        """
        n = self.num_qubits
        stabilizer_rows = np.flatnonzero(self.x_bits[n : 2 * n, q])
        if stabilizer_rows.size:
            pivot = int(stabilizer_rows[0]) + n
            for row in np.flatnonzero(self.x_bits[:, q]):
                if row != pivot and row < 2 * n:
                    self._rowsum(int(row), pivot)
            self.x_bits[pivot - n] = self.x_bits[pivot]
            self.z_bits[pivot - n] = self.z_bits[pivot]
            self.phases[pivot - n] = self.phases[pivot]
            self.x_bits[pivot] = False
            self.z_bits[pivot] = False
            self.z_bits[pivot, q] = True
            if forced is not None:
                outcome = int(forced)
            elif rng is not None:
                outcome = int(rng.integers(2))
            else:
                raise ValueError("random measurement outcome needs an rng or a forced bit")
            self.phases[pivot] = bool(outcome)
            return outcome, True
        scratch = 2 * n
        self.x_bits[scratch] = False
        self.z_bits[scratch] = False
        self.phases[scratch] = False
        for row in np.flatnonzero(self.x_bits[:n, q]):
            self._rowsum(scratch, int(row) + n)
        return int(self.phases[scratch]), False

    def reset(self, q: int, rng: np.random.Generator | None = None) -> None:
        """Reset qubit ``q`` to |0> (measure, then flip on outcome 1)."""
        outcome, _ = self.measure(q, rng=rng)
        if outcome:
            self.x(q)

    def _rowsum(self, target: int, source: int) -> None:
        """Row ``target`` *= row ``source`` with exact sign tracking (the
        CHP ``rowsum``): accumulates the mod-4 phase exponent of the Pauli
        product column by column."""
        x1, z1 = self.x_bits[source], self.z_bits[source]
        x2, z2 = self.x_bits[target], self.z_bits[target]
        g = np.zeros(self.num_qubits, dtype=np.int64)
        both = x1 & z1
        g[both] = z2[both].astype(np.int64) - x2[both].astype(np.int64)
        x_only = x1 & ~z1
        g[x_only] = z2[x_only] * (2 * x2[x_only].astype(np.int64) - 1)
        z_only = ~x1 & z1
        g[z_only] = x2[z_only] * (1 - 2 * z2[z_only].astype(np.int64))
        total = 2 * int(self.phases[target]) + 2 * int(self.phases[source]) + int(g.sum())
        self.phases[target] = bool((total % 4) // 2)
        self.x_bits[target] ^= x1
        self.z_bits[target] ^= z1


# ---------------------------------------------------------------------------
# Bit-packed evolution (the sampler's hot loop)
# ---------------------------------------------------------------------------
#
# During evolution both the tableau and the trajectory frames live as Python
# integers — arbitrary-precision bitwise ops touch hundreds of bits in one
# interpreter step, which beats numpy on the tiny arrays these objects are
# (a 7x3 tableau, 600-bit frame columns) by two orders of magnitude.
#
# Tableau packing is column-major: ``xc[q]`` holds bit ``i`` = ``x_bits[i, q]``
# over the ``2n + 1`` rows, ``r`` packs the phase column.  Every gate rule in
# :class:`StabilizerTableau` is a column operation, so it transcribes
# directly; row arithmetic (measure/rowsum) stays on the numpy class via
# :func:`_unpack_tableau`.
#
# Frame packing is trajectory-major: ``fx[q]`` holds bit ``t`` = the X
# component of trajectory ``t``'s frame on qubit ``q``.  Signs are irrelevant
# for frames, so conjugation rules reduce to Xor/swap of whole columns.


def _pack_column(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack_column(value: int, rows: int) -> np.ndarray:
    raw = value.to_bytes((rows + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), count=rows, bitorder="little"
    ).astype(bool)


def _pack_tableau(tableau: StabilizerTableau) -> tuple[list[int], list[int], int]:
    n = tableau.num_qubits
    xc = [_pack_column(tableau.x_bits[:, q]) for q in range(n)]
    zc = [_pack_column(tableau.z_bits[:, q]) for q in range(n)]
    return xc, zc, _pack_column(tableau.phases)


def _unpack_tableau(xc: list[int], zc: list[int], r: int, n: int) -> StabilizerTableau:
    rows = 2 * n + 1
    tableau = object.__new__(StabilizerTableau)
    tableau.num_qubits = n
    tableau.x_bits = np.stack([_unpack_column(v, rows) for v in xc], axis=1)
    tableau.z_bits = np.stack([_unpack_column(v, rows) for v in zc], axis=1)
    tableau.phases = _unpack_column(r, rows)
    return tableau


def _packed_step(
    name: str,
    qubits: tuple[int, ...],
    xc: list[int],
    zc: list[int],
    r: int,
    fx: list[int],
    fz: list[int],
    full: int,
) -> int:
    """One primitive on the packed tableau *and* the packed frames.

    Returns the updated phase word ``r`` (everything else mutates in place).
    The tableau rules mirror :class:`StabilizerTableau` column for column
    (``full`` is the all-rows mask, standing in for numpy's ``~``);
    composites recurse so the sign bookkeeping lives in one place each.
    """
    if name == "h":
        q = qubits[0]
        r ^= xc[q] & zc[q]
        xc[q], zc[q] = zc[q], xc[q]
        fx[q], fz[q] = fz[q], fx[q]
    elif name == "s":
        q = qubits[0]
        r ^= xc[q] & zc[q]
        zc[q] ^= xc[q]
        fz[q] ^= fx[q]
    elif name == "sdg":
        r = _packed_step("s", qubits, xc, zc, r, fx, fz, full)
        r ^= xc[qubits[0]]
    elif name == "x":
        r ^= zc[qubits[0]]
    elif name == "y":
        q = qubits[0]
        r ^= xc[q] ^ zc[q]
    elif name == "z":
        r ^= xc[qubits[0]]
    elif name == "sx":
        r = _packed_step("h", qubits, xc, zc, r, fx, fz, full)
        r = _packed_step("s", qubits, xc, zc, r, fx, fz, full)
        r = _packed_step("h", qubits, xc, zc, r, fx, fz, full)
    elif name == "sxdg":
        r = _packed_step("h", qubits, xc, zc, r, fx, fz, full)
        r = _packed_step("sdg", qubits, xc, zc, r, fx, fz, full)
        r = _packed_step("h", qubits, xc, zc, r, fx, fz, full)
    elif name == "cx":
        control, target = qubits
        r ^= xc[control] & zc[target] & (xc[target] ^ zc[control] ^ full)
        xc[target] ^= xc[control]
        zc[control] ^= zc[target]
        fx[target] ^= fx[control]
        fz[control] ^= fz[target]
    elif name == "cz":
        control, target = qubits
        r = _packed_step("h", (target,), xc, zc, r, fx, fz, full)
        r = _packed_step("cx", qubits, xc, zc, r, fx, fz, full)
        r = _packed_step("h", (target,), xc, zc, r, fx, fz, full)
    elif name == "swap":
        a, b = qubits
        xc[a], xc[b] = xc[b], xc[a]
        zc[a], zc[b] = zc[b], zc[a]
        fx[a], fx[b] = fx[b], fx[a]
        fz[a], fz[b] = fz[b], fz[a]
    return r


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _affine_measurement_model(
    tableau: StabilizerTableau, qubits: list[int]
) -> tuple[int, list[int]]:
    """Affine model of the joint Z-measurement distribution over ``qubits``.

    Returns ``(base, columns)``: outcomes are exactly the integers
    ``base ^ XOR(columns[j] for j with u_j = 1)`` over uniform bits ``u``,
    with every choice of ``u`` equally likely.  Column ``j`` is recovered by
    replaying the sequential measurement with the ``j``-th random outcome
    forced to 1 and the rest to 0; each column has its defining bit set and
    all earlier random bits clear, so the columns are linearly independent
    and the support has size ``2**k`` exactly.
    """

    def replay(forced_bits: tuple[int, ...]) -> tuple[int, int]:
        clone = tableau.copy()
        outcome = 0
        used = 0
        for bit, q in enumerate(qubits):
            forced = forced_bits[used] if used < len(forced_bits) else 0
            value, was_random = clone.measure(q, forced=forced)
            if was_random:
                used += 1
            outcome |= value << bit
        return outcome, used

    base, num_random = replay(())
    columns = []
    for j in range(num_random):
        forced = tuple(1 if i == j else 0 for i in range(num_random))
        outcome, _ = replay(forced)
        columns.append(outcome ^ base)
    return base, columns


def simulate_stabilizer_trajectories(
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None = None,
    shots: int = 4096,
    seed: int | None = None,
    max_trajectories: int = 600,
) -> tuple[Counts, list[int]]:
    """Sample ``shots`` outcomes of a Clifford circuit under Pauli noise.

    Same interface and trajectory statistics as
    :func:`~repro.simulators.ensemble.simulate_trajectories_ensemble` (one
    noise realisation per trajectory, shots spread via the shared
    :func:`~repro.simulators.trajectory._trajectory_plan`, readout flips
    through the shared :func:`~repro.simulators.trajectory.read_out`
    tail) — but a realisation is a Pauli frame,
    not a dense state.  Raises ``ValueError`` on non-Clifford gates or
    non-Pauli noise; callers route through :func:`is_clifford_program` (the
    engine does) to fall back to the dense tier instead.

    Returns the counts and the measured qubits in clbit order.
    """
    noise_model = noise_model or NoiseModel.ideal()
    rng = np.random.default_rng(seed)
    measured_qubits = circuit.measurement_layout()
    num_trajectories, shots_per_trajectory = _trajectory_plan(
        shots, noise_model, max_trajectories
    )

    # ------------------------------------------------------------------
    # One pass over the raw circuit: translate gates to primitives and
    # classify every noise site, grouping sites by channel so error events
    # can be drawn in one vectorized pass per distinct channel.  Channel
    # lookups are memoized by (name, qubits) — calibration circuits repeat
    # the same few patterns hundreds of times.
    # ------------------------------------------------------------------
    ops: list[tuple] = []  # ("g", name, qubits) | ("n", site) | ("r", qubit)
    site_wires: list[tuple[int, ...]] = []
    group_sites: list[list[int]] = []  # group index -> site indices, in order
    groups: dict[int, tuple] = {}  # id(channel) -> (order, p_error, cdf, x_rows, z_rows)
    site_memo: dict[tuple, list] = {}
    for instruction in circuit.data:
        name = instruction.operation.name
        if name in _PRIMITIVES:  # common case: one primitive, no translation
            ops.append(("g", name, instruction.qubits))
        elif name == "reset":
            ops.append(("r", instruction.qubits[0]))
            continue
        elif instruction.is_barrier or instruction.is_measurement:
            continue
        elif not instruction.is_gate:
            raise ValueError(f"cannot simulate instruction {name!r}")
        else:
            primitives = _clifford_ops(instruction)
            if primitives is None:
                raise ValueError(
                    f"stabilizer backend cannot simulate non-Clifford gate {name!r}"
                )
            ops.extend(("g", gate, qubits) for gate, qubits in primitives)
        key = (name, instruction.qubits)
        sites = site_memo.get(key)
        if sites is None:
            sites = site_memo[key] = noise_model.channels_for(instruction)
        for channel, wires in sites:
            entry = groups.get(id(channel))
            if entry is None:
                if channel.is_identity():
                    groups[id(channel)] = entry = (None,)
                    continue
                mixture = channel.pauli_mixture()
                if mixture is None:
                    raise ValueError(
                        f"stabilizer backend cannot sample non-Pauli channel {channel.name!r}"
                    )
                probabilities, labels, identity_flags = mixture
                probabilities = np.asarray(probabilities, dtype=float)
                errors = [
                    (p, label)
                    for p, label, is_id in zip(probabilities, labels, identity_flags)
                    if not is_id
                ]
                p_error = float(sum(p for p, _ in errors))
                if p_error <= 0.0:  # mixture is all identity: not a noise site
                    groups[id(channel)] = entry = (None,)
                else:
                    # Error-conditional CDF plus per-operator X/Z flip rows
                    # (tuples of Python bools: the mask-building loop below
                    # indexes them per hit, where numpy scalars would cost).
                    cdf = np.cumsum([p for p, _ in errors]) / p_error
                    x_rows = tuple(
                        tuple(c in ("X", "Y") for c in label.upper())
                        for _, label in errors
                    )
                    z_rows = tuple(
                        tuple(c in ("Z", "Y") for c in label.upper())
                        for _, label in errors
                    )
                    entry = (len(group_sites), p_error, cdf, x_rows, z_rows)
                    groups[id(channel)] = entry
                    group_sites.append([])
            if entry[0] is None:
                continue
            group_sites[entry[0]].append(len(site_wires))
            site_wires.append(tuple(wires))
            ops.append(("n", len(site_wires) - 1))

    # ------------------------------------------------------------------
    # Sparse noise sampling (binomial thinning).  Per site the T categorical
    # draws factor exactly as: error count ~ Binomial(T, p_error), distinct
    # trajectory positions uniform, operators iid from the error-conditional
    # distribution.  Only hit positions are materialised — at realistic
    # error rates that is a handful of bits per site, not a (T,) vector —
    # and they land directly in the packed per-wire frame masks.
    # ------------------------------------------------------------------
    site_masks: list[tuple | None] = [None] * len(site_wires)
    by_order = sorted(
        (entry for entry in groups.values() if entry[0] is not None),
        key=lambda entry: entry[0],
    )
    for order, p_error, cdf, x_rows, z_rows in by_order:
        sites = group_sites[order]
        error_counts = rng.binomial(num_trajectories, p_error, size=len(sites))
        total = int(error_counts.sum())
        if not total:
            continue
        positions = rng.integers(0, num_trajectories, size=total)
        operator_draws = np.searchsorted(cdf, rng.random(total), side="right")
        np.clip(operator_draws, 0, len(cdf) - 1, out=operator_draws)
        positions_list = positions.tolist()
        operators_list = operator_draws.tolist()
        offset = 0
        for site, hits in zip(sites, error_counts.tolist()):
            if not hits:
                continue
            width = len(site_wires[site])
            x_masks = [0] * width
            z_masks = [0] * width
            seen: set[int] = set()
            for position, operator in zip(
                positions_list[offset : offset + hits],
                operators_list[offset : offset + hits],
            ):
                while position in seen:  # collision: resample (positions
                    position = int(rng.integers(num_trajectories))  # must be distinct)
                seen.add(position)
                bit = 1 << position
                x_row = x_rows[operator]
                z_row = z_rows[operator]
                for j in range(width):
                    if x_row[j]:
                        x_masks[j] |= bit
                    if z_row[j]:
                        z_masks[j] |= bit
            site_masks[site] = (x_masks, z_masks)
            offset += hits

    # ------------------------------------------------------------------
    # One packed pass: the noiseless tableau and all T frames evolve
    # together through the primitive stream (see the bit-packing notes
    # above _pack_column).
    # ------------------------------------------------------------------
    n = circuit.num_qubits
    full = (1 << (2 * n + 1)) - 1
    xc = [1 << q for q in range(n)]  # destabilizer row q starts as X_q
    zc = [1 << (n + q) for q in range(n)]  # stabilizer row n+q starts as Z_q
    r = 0
    fx = [0] * n
    fz = [0] * n
    for op in ops:
        kind = op[0]
        if kind == "g":
            r = _packed_step(op[1], op[2], xc, zc, r, fx, fz, full)
        elif kind == "n":
            masks = site_masks[op[1]]
            if masks is not None:
                x_masks, z_masks = masks
                for j, wire in enumerate(site_wires[op[1]]):
                    fx[wire] ^= x_masks[j]
                    fz[wire] ^= z_masks[j]
        else:  # reset: tableau back to |0> on the wire, frame erased with it
            q = op[1]
            tableau = _unpack_tableau(xc, zc, r, n)
            tableau.reset(q, rng=rng)
            xc, zc, r = _pack_tableau(tableau)
            fx[q] = 0
            fz[q] = 0

    # ------------------------------------------------------------------
    # Sample: reference outcomes from the affine model, frame X-flips XORed
    # per trajectory, then the tally and the shared readout tail.
    # ------------------------------------------------------------------
    tableau = _unpack_tableau(xc, zc, r, n)
    base, columns = _affine_measurement_model(tableau, measured_qubits)
    trajectory_flips = np.zeros(num_trajectories, dtype=np.int64)
    for bit, q in enumerate(measured_qubits):
        if fx[q]:
            flips = _unpack_column(fx[q], num_trajectories)
            trajectory_flips |= flips.astype(np.int64) << bit
    shot_flips = np.repeat(trajectory_flips, shots_per_trajectory)
    outcomes = shot_flips ^ np.int64(base)
    if columns:
        # An outcome is base XOR the chosen columns (GF(2) sum, not integer).
        u = rng.integers(0, 2, size=(shots, len(columns)), dtype=np.int64)
        column_values = np.array(columns, dtype=np.int64)
        outcomes ^= np.bitwise_xor.reduce(u * column_values, axis=1)
    counts = _tally([outcomes], len(measured_qubits))
    return read_out(counts, noise_model, measured_qubits, seed), measured_qubits
