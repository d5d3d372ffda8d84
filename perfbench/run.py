"""QuTracer paper-workload benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workloads are scaled-down cases of the paper's evaluation, all driven through
the public API (``QuTracer.run``, ``run_jigsaw``, ``run_pcs``, ``run_sqem``,
``ExecutionEngine``):

``readout_sweep``
    Fig. 7: a 7-qubit 1-layer VQE under depolarizing gate noise, readout
    error 0.01 and 0.16, with Original, Jigsaw, ideal PCS (150 trajectories
    on 14 qubits), SQEM and QuTracer (subset 1) sharing one engine.
``qaoa_device``
    Table I / Fig. 9 shape: QuTracer (subset 2) on a 3-node ring QAOA with
    2 layers on the ``fake_mumbai`` device model, serial engine.
``qaoa_pool``
    The same request stream with ``workers=2``.
``warm_replay``
    The same request stream served by a fresh engine over a persistent
    ``cache_dir`` warmed during set-up.

Each workload is a closed loop: one caller, and a pass starts only after the
previous one ends.  A pass builds a fresh engine, so nothing carries over
between passes except what a user keeps (the warm cache directory).  The
seed picks the circuit parameters and the run seeds; the program only sees
the generated circuits.

Every invocation checks the outputs: each pass must reproduce the reference
pass bit for bit (digest of the mitigated distributions), where the
reference runs serially and in memory, so ``qaoa_pool`` and ``warm_replay``
are compared against the serial route; engine and kernel counts must repeat
exactly from pass to pass; ``readout_sweep`` must show the Fig. 7 claims at
readout 0.16.  With ``--trace 1`` untraced and traced passes alternate: the
traced ones give the per-layer split (see ``layers.py``), the pair gives the
tracing overhead, and each layer expected to be active must record calls.

``wall_s`` and ``setup_s`` are seconds at a fixed reference host speed: a
shared host changes speed by half or more over seconds to minutes, so raw
seconds measure the host as much as the program.  A fixed calibration job
runs before and after each set-up step and each pass, and between engine
batches at most every 0.2 s inside a pass; each stretch between two runs of
the job is divided by their mean time and multiplied by the job's time on
the reference host (``CALIBRATION_REFERENCE_S``).  The raw seconds are the
per-layer ``run.wall_s`` and ``run.setup_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` and ``failed`` (engine request slots) and ``metrics``.
Scratch files (the warm cache) live in a temporary directory inside the
checkout that is removed on exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np

import repro
from repro.algorithms import (
    default_qaoa_angles,
    qaoa_maxcut_circuit,
    random_vqe_parameters,
    ring_graph,
    vqe_circuit,
)
from repro.core import QuTracer
from repro.distributions import hellinger_fidelity
from repro.mitigation import PauliCheck, run_jigsaw, run_pcs, run_sqem
from repro.noise import NoiseModel, fake_mumbai
from repro.simulators import ExecutionEngine, ideal_distribution, kernel_dispatch_counts
from repro.simulators.kernels import KERNEL_KINDS

from layers import LayerTracer

if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    sys.exit(f"repro was imported from {repro.__file__}, not from this checkout's src/")

SHOTS = 12000
# The seed jitters every circuit angle by up to this much around a fixed
# circuit, so each seed runs a new circuit of the same shape whose fidelities
# stay close to the others' (a fully random circuit moves them by ~20%).
ANGLE_JITTER = 0.01 * np.pi
READOUTS = (0.01, 0.16)
VQE_QUBITS = 7
QAOA_NODES = 3
QAOA_LAYERS = 2
QAOA_SUBSET = 2
QAOA_COPY_SHOTS = 1200
POOL_WORKERS = 2
SETUP_REPEATS = 3
# A fresh interpreter's import time is the noisiest part of set-up and the
# cheapest to repeat.
IMPORT_REPEATS = 7
# The calibration job's median time on the 2-vCPU host of BASELINE.md; the
# reported times are seconds at the host speed that gives it.
CALIBRATION_REFERENCE_S = 0.017
# Shortest stretch of a pass between two calibrations (see run_pass).
MIN_SEGMENT_S = 0.2

# EngineStats fields read after every pass; they must repeat exactly.
ENGINE_COUNTS = {
    "requests": "simulators.engine.slots",
    "executed": "simulators.engine.executed",
    "cache_hits": "simulators.engine.cache_hits",
    "batch_dedup_hits": "simulators.engine.batch_dedup_hits",
    "state_cache_hits": "simulators.engine.state_cache_hits",
    "persistent_hits": "simulators.engine.persistent_hits",
    "parallel_executed": "simulators.parallel.dispatched",
    "isolated_failures": "simulators.engine.isolated_failures",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.algorithms, repro.core, repro.mitigation, repro.noise, repro.simulators; "
    "print(time.perf_counter() - t)"
)


def _derive_seeds(seed: int) -> tuple[int, int]:
    """(input seed, run seed) from the workload seed."""
    first, second = np.random.SeedSequence(seed).generate_state(2)
    return int(first), int(second)


def _digest(distributions: list) -> str:
    # repr() round-trips floats exactly, so equal digests mean equal bits.
    body = repr([sorted(d.items()) for d in distributions])
    return hashlib.sha256(body.encode()).hexdigest()


# ----------------------------------------------------------------------
# Workloads: inputs(seed, workdir) -> dict, run(inputs, engine) -> (digest, fidelities)
# ----------------------------------------------------------------------


def sweep_inputs(seed: int, workdir: str) -> dict:
    angle_seed, run_seed = _derive_seeds(seed)
    # Centred on the circuit of the Fig. 7 reproduction in benchmarks/.
    parameters = random_vqe_parameters(VQE_QUBITS, 1, seed=3)
    parameters = parameters + np.random.default_rng(angle_seed).uniform(
        -ANGLE_JITTER, ANGLE_JITTER, parameters.shape
    )
    circuit = vqe_circuit(VQE_QUBITS, 1, parameters=parameters)
    payload = [inst for inst in circuit.data if not inst.is_measurement]
    entangling = [k for k, inst in enumerate(payload) if inst.is_two_qubit_gate]
    region = (min(entangling), max(entangling) + 1)
    return {
        "circuit": circuit,
        "ideal": ideal_distribution(circuit),
        "checks": [PauliCheck(pauli={q: "Z"}, region=region) for q in circuit.measured_qubits],
        "noises": [NoiseModel.depolarizing(p1=0.001, p2=0.01, readout=r) for r in READOUTS],
        "seed": run_seed,
    }


def sweep_run(inputs: dict, engine: ExecutionEngine) -> tuple[str, dict]:
    circuit, seed = inputs["circuit"], inputs["seed"]
    outputs = []
    for noise in inputs["noises"]:
        original = engine.execute(circuit, noise, shots=SHOTS, seed=seed, max_trajectories=200)
        jigsaw = run_jigsaw(circuit, noise, shots=SHOTS, subset_size=2, seed=seed, engine=engine)
        pcs = run_pcs(
            circuit, inputs["checks"], noise, ideal_checks=True, seed=seed, engine=engine,
            max_trajectories=150,
        )
        sqem = run_sqem(circuit, noise, shots=SHOTS, subset_size=1, seed=seed, engine=engine)
        tracer = QuTracer(noise_model=noise, shots=SHOTS, seed=seed, engine=engine)
        qutracer = tracer.run(circuit, subset_size=1)
        outputs.append({
            "original": original.distribution,
            "jigsaw": jigsaw.mitigated_distribution,
            "ideal_pcs": pcs.mitigated_distribution,
            "sqem": sqem.mitigated_distribution,
            "qutracer": qutracer.mitigated_distribution,
        })
    # Fidelities at the last (highest) readout error, as Fig. 7 reports them.
    fidelities = {name: hellinger_fidelity(d, inputs["ideal"]) for name, d in outputs[-1].items()}
    return _digest([d for point in outputs for d in point.values()]), fidelities


def qaoa_inputs(seed: int, workdir: str) -> dict:
    angle_seed, run_seed = _derive_seeds(seed)
    jitter = np.random.default_rng(angle_seed).uniform(-ANGLE_JITTER, ANGLE_JITTER, (2, QAOA_LAYERS))
    gammas, betas = np.asarray(default_qaoa_angles(QAOA_LAYERS)) + jitter
    circuit = qaoa_maxcut_circuit(ring_graph(QAOA_NODES), QAOA_LAYERS, gammas=gammas, betas=betas)
    return {"circuit": circuit, "device": fake_mumbai(), "seed": run_seed}


def qaoa_run(inputs: dict, engine: ExecutionEngine) -> tuple[str, dict]:
    tracer = QuTracer(
        device=inputs["device"], shots=SHOTS, shots_per_circuit=QAOA_COPY_SHOTS,
        seed=inputs["seed"], engine=engine,
    )
    result = tracer.run(inputs["circuit"], subset_size=QAOA_SUBSET)
    fidelities = {"qutracer": result.mitigated_fidelity, "original": result.unmitigated_fidelity}
    return _digest([result.global_distribution, result.mitigated_distribution]), fidelities


def warm_inputs(seed: int, workdir: str) -> dict:
    """QAOA inputs plus a cache directory warmed by one cold serial pass."""
    inputs = qaoa_inputs(seed, workdir)
    inputs["cache_dir"] = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    inputs["reference"] = run_pass(qaoa_run, inputs, workers=None)
    return inputs


@dataclasses.dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, str], dict]
    run: Callable[[dict, ExecutionEngine], tuple[str, dict]]
    workers: int | None = None
    # Layer metrics that must be nonzero in a traced run of this workload.
    active: tuple[str, ...] = ()


_SHARED_LAYERS = (
    "simulators.engine.batches",
    "simulators.statevector.calls",
    "circuits.fingerprint.calls",
    "core.tracer.calls",
    "core.analysis.calls",
    "core.optimizations.calls",
    "core.qspc.calls",
    "distributions.bayesian.self_s",
)
_SIMULATING_LAYERS = (
    "simulators.density_matrix.calls",
    "simulators.fusion.calls",
    "simulators.apply.dm_gate_s",
    "distributions.sample.calls",
)
_DEVICE_LAYERS = ("noise.device.calls", "transpiler.layout.calls")

WORKLOADS = {
    "readout_sweep": Workload(
        sweep_inputs, sweep_run,
        active=_SHARED_LAYERS + _SIMULATING_LAYERS + (
            "simulators.apply.depol_calls",
            "simulators.ensemble.calls",
            "simulators.parallel.task_calls",
            "simulators.kernels.dense1q_s",
            "mitigation.jigsaw.self_s",
            "mitigation.pcs.self_s",
            "mitigation.sqem.self_s",
        ),
    ),
    "qaoa_device": Workload(
        qaoa_inputs, qaoa_run,
        active=_SHARED_LAYERS + _SIMULATING_LAYERS + _DEVICE_LAYERS
        + ("simulators.apply.kraus_calls",),
    ),
    "qaoa_pool": Workload(
        qaoa_inputs, qaoa_run, workers=POOL_WORKERS,
        active=_SHARED_LAYERS + _DEVICE_LAYERS + ("simulators.parallel.pool_s",),
    ),
    "warm_replay": Workload(
        warm_inputs, qaoa_run,
        active=_SHARED_LAYERS + _DEVICE_LAYERS + ("simulators.cache.get_calls",),
    ),
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    seconds: float
    digest: str
    fidelities: dict
    counts: dict
    # seconds in units of the calibration job (see run_pass).
    relative: float = 0.0


def reference_seconds(relative: float) -> float:
    """A time in calibration-job units, as seconds at the reference speed."""
    return relative * CALIBRATION_REFERENCE_S


# The calibration job: a fixed mix of plain-Python object churn, small dense
# matrix products and a sweep over a few-MB array, the three kinds of work
# the workloads do.  It shares no code with the package under test.
_CALIBRATION_SMALL = np.eye(16, dtype=complex) * (1 + 0.5j) / 1.2
_CALIBRATION_LARGE = np.linspace(0.0, 1.0, 2**20)


def calibrate() -> float:
    """Seconds for one calibration job.

    A shared host changes speed by half or more over seconds to minutes (pass
    CPU time tracks pass wall time, so it is not descheduling).  A job that
    never changes, timed next to the work, measures that speed; the work
    divided by it does not move with it.
    """
    start = time.perf_counter()
    table: dict = {}
    for i in range(40000):
        table[i % 977] = (i, str(i))
    sorted(table.items())
    matrix = _CALIBRATION_SMALL
    for _ in range(2000):
        matrix = _CALIBRATION_SMALL @ matrix
    for _ in range(4):
        np.multiply(_CALIBRATION_LARGE, 1.0000001, out=_CALIBRATION_LARGE)
        _CALIBRATION_LARGE.reshape(2, -1)[:, ::-1].sum()
    return time.perf_counter() - start


class _LappingEngine(ExecutionEngine):
    """An :class:`ExecutionEngine` that calls ``lap`` after every batch."""

    def __init__(self, lap: Callable[[], None], **kwargs) -> None:
        super().__init__(**kwargs)
        self._lap = lap

    def execute_many(self, *args, **kwargs):
        try:
            return super().execute_many(*args, **kwargs)
        finally:
            self._lap()


def run_pass(run: Callable, inputs: dict, workers: int | None,
             calibrations: list[float] | None = None, split: bool = True) -> Pass:
    """One pass on a fresh engine.

    Given ``calibrations`` (ending with a calibration taken just before the
    pass), the pass is cut into segments at the first engine batch boundary
    after each ``MIN_SEGMENT_S`` and at its end.  After each segment
    :func:`calibrate` runs and its time is appended, and the segment is
    divided by the mean of the two calibrations around it;
    :attr:`Pass.relative` is the sum.  Calibration time is not part of
    :attr:`Pass.seconds`.  With ``split`` false the pass is one segment, so
    the job runs outside every span of the program (traced passes).
    """
    seconds = relative = 0.0
    start = time.perf_counter()

    def lap(final: bool = False) -> None:
        nonlocal seconds, relative, start
        elapsed = time.perf_counter() - start
        if not final and (calibrations is None or not split or elapsed < MIN_SEGMENT_S):
            return
        seconds += elapsed
        if calibrations is not None:
            calibrations.append(calibrate())
            relative += elapsed / statistics.fmean(calibrations[-2:])
        start = time.perf_counter()

    kernels_before = kernel_dispatch_counts()
    start = time.perf_counter()
    with _LappingEngine(lap, workers=workers, cache_dir=inputs.get("cache_dir")) as engine:
        digest, fidelities = run(inputs, engine)
    lap(final=True)
    kernels_after = kernel_dispatch_counts()
    counts = {metric: getattr(engine.stats, field) for field, metric in ENGINE_COUNTS.items()}
    for kind in KERNEL_KINDS:
        counts[f"simulators.kernels.dispatch.{kind}"] = kernels_after[kind] - kernels_before[kind]
    return Pass(seconds, digest, fidelities, counts, relative)


def time_imports() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workload = WORKLOADS[name]
    problems: list[str] = []

    calibrations = [calibrate()]

    def per_calibration(elapsed: float) -> float:
        """``elapsed`` seconds that just ended, over the calibrations around them."""
        calibrations.append(calibrate())
        return elapsed / statistics.fmean(calibrations[-2:])

    # (raw, calibration-relative) times of each import probe and input build.
    imports, builds = [], []
    for _ in range(IMPORT_REPEATS):
        elapsed = time_imports()
        imports.append((elapsed, per_calibration(elapsed)))
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.inputs(seed, workdir)
        elapsed = time.perf_counter() - start
        builds.append((elapsed, per_calibration(elapsed)))
    (import_raw, import_rel), (build_raw, build_rel) = (
        [statistics.median(column) for column in zip(*times)] for times in (imports, builds)
    )
    setup_raw_s = import_raw + build_raw
    setup_s = reference_seconds(import_rel + build_rel)

    # Every pass must reproduce the reference bit for bit: a serial in-memory
    # pass (or the cold warming pass of the set-up), so the pool and cache
    # routes are held to the serial one.  Untimed, it also warms up the
    # process (lazy imports, first-call costs) before the timed passes.
    reference = inputs.get("reference") or run_pass(workload.run, inputs, workers=None)
    reference_fidelities = reference.fidelities
    if name == "readout_sweep":
        f = reference_fidelities
        if not f["qutracer"] > f["original"] + 0.1:
            problems.append(f"Fig. 7: QuTracer {f['qutracer']:.4f} not above Original {f['original']:.4f} + 0.1")
        if not f["qutracer"] >= f["sqem"] - 0.05:
            problems.append(f"Fig. 7: QuTracer {f['qutracer']:.4f} below SQEM {f['sqem']:.4f} - 0.05")

    # Built after the reference pass, so every lazily imported binding of a
    # probed function exists when it scans.
    layer_tracer = LayerTracer() if trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    attempted = failed = 0
    first_counts = None
    calibrations.append(calibrate())
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not untraced or (trace and not traced):
        tracing = trace and len(traced) < len(untraced)
        if tracing:
            layer_tracer.install()
        try:
            # Traced passes calibrate only after the pass: inside it, the
            # job would count as the self time of whichever span is open.
            result = run_pass(workload.run, inputs, workload.workers, calibrations, split=not tracing)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems.append("a pass raised")
            lost = reference.counts["simulators.engine.slots"]
            attempted += lost
            failed += lost
            if time.perf_counter() >= deadline:
                break
            continue
        finally:
            if tracing:
                layer_tracer.uninstall()
        slots = result.counts["simulators.engine.slots"]
        attempted += slots
        first_counts = first_counts or result.counts
        if result.digest != reference.digest:
            problems.append("mitigated distributions differ from the serial reference")
            failed += slots
        elif result.counts != first_counts:
            problems.append(f"counts did not repeat: {result.counts} != {first_counts}")
            failed += slots
        else:
            failed += result.counts["simulators.engine.isolated_failures"]
        (traced if tracing else untraced).append(result)

    if not untraced or (trace and not traced):
        sys.exit("every timed pass raised")

    def summary(values: list[float]) -> str:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        return f"min={min(values):.4f} p25={q1:.4f} median={median:.4f} p75={q3:.4f} max={max(values):.4f}"

    wall_raw_s = statistics.median(p.seconds for p in untraced)
    wall_s = reference_seconds(statistics.median(p.relative for p in untraced))
    calibration_s = statistics.median(calibrations)
    print(f"{name} seed={seed}: {len(untraced)} untraced passes; wall_s={wall_s:.4f} "
          f"setup_s={setup_s:.4f} (raw {wall_raw_s:.4f}, {setup_raw_s:.4f})\n"
          f"  pass seconds       {summary([p.seconds for p in untraced])}\n"
          f"  pass / calibration {summary([p.relative for p in untraced])}\n"
          f"  calibration s      {summary(calibrations)}")

    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / max(attempted, 1), "fraction"),
            "fidelity_qutracer": (reference_fidelities["qutracer"], "fidelity"),
            "fidelity_original": (reference_fidelities["original"], "fidelity"),
        }
    else:
        per_pass = len(traced)
        metrics = {}
        for key, value in layer_tracer.snapshot().items():
            metrics[key] = (value / per_pass, "s" if key.endswith("_s") else "count")
        for key, value in first_counts.items():
            metrics[key] = (float(value), "count")
        slots = metrics["simulators.engine.slots"][0]
        executed = metrics["simulators.engine.executed"][0]
        metrics["simulators.engine.served_ratio"] = ((slots - executed) / max(slots, 1), "fraction")
        for method in ("jigsaw", "ideal_pcs", "sqem"):
            # 0 where the workload does not run the method.
            metrics[f"mitigation.{method}.fidelity"] = (reference_fidelities.get(method, 0.0), "fidelity")
        metrics["run.wall_s"] = (wall_raw_s, "s")
        metrics["run.setup_s"] = (setup_raw_s, "s")
        metrics["run.calibration_s"] = (calibration_s, "s")
        metrics["tracing.traced_wall_s"] = (statistics.median(p.seconds for p in traced), "s")
        traced_rel = statistics.median(p.relative for p in traced)
        untraced_rel = statistics.median(p.relative for p in untraced)
        metrics["tracing.overhead_frac"] = (traced_rel / untraced_rel - 1.0, "fraction")
        for key in workload.active:
            if not metrics[key][0] > 0:
                problems.append(f"layer metric {key} recorded nothing; is a wrapper bound in the wrong place?")
        for key in sorted(metrics):
            value, unit = metrics[key]
            print(f"  {key:<44} {value:>14.6g} {unit}")

    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
