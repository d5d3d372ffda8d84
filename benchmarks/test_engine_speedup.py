"""Engine and ensemble-backend speedups on a repeated-subset workload.

QuTracer-style workloads resubmit the same subset circuits over and over:
every traced subset re-runs the shared layer circuits, every Pauli-check
variant repeats across layers, and benchmark sweeps re-run identical
baselines.  Two layers of speedup are guarded here:

* **Dedup/caching** (engine PR): submitting the workload through
  :meth:`ExecutionEngine.execute_many` must beat sequential one-shot
  :func:`~repro.simulators.execute.execute` calls by >= 2x.
* **Ensemble simulation** (ensemble PR): running one circuit's trajectory
  ensemble as a single ``(T, 2**n)`` batch
  (:func:`~repro.simulators.ensemble.simulate_trajectories_ensemble`) must
  beat the per-trajectory Python loop
  (:func:`~repro.simulators.trajectory.simulate_trajectories_batched`) by a
  median >= 3x across the workload (target 5x), while staying within total
  variation 0.05 of the exact density-matrix distribution.
* **Process-parallel sharding** (parallel PR): a 4-worker engine on the
  repeated-subsets workload must beat the sequential one-shot baseline by
  >= 2x (dedup + parent-side cache lookups + pool dispatch together; the
  recorded ``cpu_cores`` says how much genuine parallelism the measurement
  machine could contribute), while returning bit-identical results.
* **Persistent cache** (parallel PR): re-running a workload against a warm
  on-disk cache from a *fresh* engine (empty in-memory cache, new process
  in production) must beat the cold run by >= 5x, again bit-identically.
* **Tracing overhead** (tracing PR): enabling the execution-trace layer on
  a fault-free 100-circuit sweep must cost < 5% wall clock versus tracing
  disabled, and two traced runs of the same seeded batch must diff clean
  (zero method / hit-attribution drift) through the trace CLI.
* **Metrics overhead** (metrics PR): the default-on metrics layer (stage
  and execute histograms, tier counters; the EngineStats counts publish
  only at scrape time) must cost < 5% wall clock versus ``metrics=False``
  on the same sweep, measured with the same interleaved paired-difference
  design.

Each measurement is appended to the ``BENCH_engine.json`` artifact (see
:func:`benchmarks.harness.record_bench`) so CI tracks the perf trajectory.

This file is intentionally *not* marked ``slow``: it runs in seconds and
guards the simulation stack's core value proposition.
"""

import gc
import os
import statistics
import time

from harness import record_bench

from repro.algorithms import (
    bernstein_vazirani_circuit,
    default_qaoa_angles,
    iqft_benchmark_circuit,
    qaoa_maxcut_circuit,
    ring_graph,
    vqe_circuit,
)
from repro.circuits import QuantumCircuit
from repro.mitigation import build_subset_circuit
from repro.noise import NoiseModel
from repro.simulators import (
    ExecutionEngine,
    execute,
    noisy_distribution_density_matrix,
    simulate_trajectories_batched,
    simulate_trajectories_ensemble,
)


def _workload(num_qubits: int = 7, repeats: int = 5) -> list[QuantumCircuit]:
    """A repeated-subset workload: few unique subset circuits, many requests."""
    base = QuantumCircuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        base.h(q)
    for q in range(num_qubits - 1):
        base.cx(q, q + 1)
    for q in range(num_qubits):
        base.rz(0.1 * (q + 1), q)
    base.measure_all()
    subsets = [[0, 1], [3, 4], [5, 6]]
    unique = [build_subset_circuit(base, subset) for subset in subsets]
    return [circuit for circuit in unique for _ in range(repeats)]


def test_engine_speedup_on_repeated_subsets():
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuits = _workload()

    start = time.perf_counter()
    sequential = [execute(c, noise, shots=1024, seed=17) for c in circuits]
    sequential_time = time.perf_counter() - start

    engine = ExecutionEngine()
    start = time.perf_counter()
    batched = engine.execute_many(circuits, noise, shots=1024, seed=17)
    engine_time = time.perf_counter() - start

    assert len(batched) == len(sequential) == len(circuits)
    # Only 3 of the 15 requests are unique; everything else must be served
    # by dedup/cache rather than re-simulated.
    assert engine.stats.executed == 3
    assert engine.stats.batch_dedup_hits == len(circuits) - 3

    speedup = sequential_time / max(engine_time, 1e-9)
    print(
        f"\nrepeated-subset workload: sequential {sequential_time * 1e3:.1f} ms, "
        f"engine {engine_time * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    record_bench("engine_repeated_subsets", engine_time, speedup)
    assert speedup >= 2.0, f"expected >= 2x speedup, measured {speedup:.2f}x"

    # The cached path must not change what callers see: identical measured
    # qubits and (for these exact-method runs) identical bit width.
    for a, b in zip(batched, sequential):
        assert a.measured_qubits == b.measured_qubits
        assert a.num_bits == b.num_bits


def test_cache_carries_across_calls():
    """A second submission of the same workload is served entirely from cache."""
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuits = _workload()
    engine = ExecutionEngine()
    engine.execute_many(circuits, noise, shots=1024, seed=17)
    executed_before = engine.stats.executed

    start = time.perf_counter()
    engine.execute_many(circuits, noise, shots=1024, seed=17)
    cached_time = time.perf_counter() - start

    assert engine.stats.executed == executed_before  # nothing re-simulated
    assert cached_time < 1.0


def test_parallel_engine_speedup_on_repeated_subsets():
    """Acceptance: 4-worker parallel ``execute_many`` >= 2x over serial.

    "Serial" is the sequential one-shot baseline of the repeated-subsets
    benchmark above — the cost a caller pays without the engine.  The
    parallel engine combines parent-side dedup (only 3 of 15 requests
    survive) with process-pool dispatch of the survivors, so the >= 2x
    floor holds even on a single-core runner; the recorded ``cpu_cores``
    tells a reader how much genuine parallelism contributed on top.
    """
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    # More repeats than the serial-engine benchmark: the dedup advantage is
    # the same, but the larger batch amortises worker-pool startup.
    circuits = _workload(repeats=8)

    start = time.perf_counter()
    sequential = [execute(c, noise, shots=1024, seed=17) for c in circuits]
    sequential_time = time.perf_counter() - start

    with ExecutionEngine(workers=4) as engine:
        start = time.perf_counter()
        parallel = engine.execute_many(circuits, noise, shots=1024, seed=17)
        parallel_time = time.perf_counter() - start
        # On platforms that cannot spawn workers the sharder falls back to
        # in-process execution (results identical, dispatch count 0); the
        # dedup advantage alone still carries the speedup floor below.
        if engine._sharder is not None and engine._sharder.fallback_reason is None:
            assert engine.stats.parallel_executed == 3

    speedup = sequential_time / max(parallel_time, 1e-9)
    cores = os.cpu_count() or 1
    print(
        f"\nparallel engine (4 workers, {cores} cores): sequential "
        f"{sequential_time * 1e3:.1f} ms, parallel {parallel_time * 1e3:.1f} ms, "
        f"speedup {speedup:.1f}x"
    )
    record_bench(
        "engine_parallel_vs_serial",
        parallel_time,
        speedup,
        extra={"workers": 4, "cpu_cores": cores},
    )
    assert speedup >= 2.0, f"expected >= 2x parallel speedup, measured {speedup:.2f}x"
    # The sequential baseline must agree on shape (it derives per-call seeds
    # differently, so payloads are compared against the serial engine below).
    for a, b in zip(parallel, sequential):
        assert a.measured_qubits == b.measured_qubits
        assert a.num_bits == b.num_bits

    # Acceptance: the parallel path returns bit-identical results to the
    # serial in-memory engine path (same derived seeds, same arithmetic).
    serial = ExecutionEngine().execute_many(circuits, noise, shots=1024, seed=17)
    for a, b in zip(parallel, serial):
        assert a.measured_qubits == b.measured_qubits
        assert a.distribution.items() == b.distribution.items()
        assert a.counts.items() == b.counts.items()


def test_persistent_cache_warm_start_speedup(tmp_path):
    """Acceptance: a warm persistent-cache run >= 5x over the cold run.

    The warm engine is a *fresh* object with an empty in-memory cache —
    in production it would be a new process or a next-day session — so
    every result is served from disk.
    """
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuits = _workload()
    cache_dir = str(tmp_path / "result-cache")

    cold_engine = ExecutionEngine(cache_dir=cache_dir)
    start = time.perf_counter()
    cold = cold_engine.execute_many(circuits, noise, shots=1024, seed=17)
    cold_time = time.perf_counter() - start
    assert cold_engine.stats.executed == 3

    warm_engine = ExecutionEngine(cache_dir=cache_dir)
    start = time.perf_counter()
    warm = warm_engine.execute_many(circuits, noise, shots=1024, seed=17)
    warm_time = time.perf_counter() - start
    assert warm_engine.stats.executed == 0
    assert warm_engine.stats.persistent_hits == 3

    ratio = cold_time / max(warm_time, 1e-9)
    print(
        f"\npersistent cache: cold {cold_time * 1e3:.1f} ms, warm "
        f"{warm_time * 1e3:.1f} ms, warm-start speedup {ratio:.1f}x"
    )
    record_bench(
        "engine_persistent_cache_warm",
        warm_time,
        ratio,
        extra={"cold_seconds": cold_time},
    )
    assert ratio >= 5.0, f"expected >= 5x warm-start speedup, measured {ratio:.2f}x"

    # Acceptance: persistent-cache results are bit-identical to computed.
    for a, b in zip(warm, cold):
        assert a.measured_qubits == b.measured_qubits
        assert a.distribution.items() == b.distribution.items()
        assert a.counts.items() == b.counts.items()


def test_engine_faulty_batch_overhead():
    """Acceptance: fault-isolation bookkeeping costs < 10% on a healthy batch.

    ``on_error="isolate"`` must be cheap enough to leave on for production
    sweeps: on a fault-free 100-circuit workload the isolation path (per-slot
    try/except, failure-dedup table, FailedResult plumbing) may add at most
    10% over the historical raise-path.  Measured as interleaved
    alternating-order pairs with the median of paired differences and GC
    disabled — the same design as the tracing-overhead floor below, and
    for the same reason: arm-vs-arm minima let machine drift between the
    arms masquerade as isolation cost.
    """
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuits = _workload(repeats=34)[:100]

    def one_run(on_error: str) -> float:
        engine = ExecutionEngine()
        start = time.perf_counter()
        results = engine.execute_many(
            circuits, noise, shots=1024, seed=17, on_error=on_error
        )
        elapsed = time.perf_counter() - start
        assert all(result.ok for result in results)  # fault-free sweep
        return elapsed

    one_run("raise")  # warm imports and numpy dispatch
    one_run("isolate")
    diffs = []
    raise_times = []

    def collect(pairs: int) -> float:
        for _ in range(pairs):
            if len(diffs) % 2 == 0:
                raised = one_run("raise")
                isolated = one_run("isolate")
            else:
                isolated = one_run("isolate")
                raised = one_run("raise")
            raise_times.append(raised)
            diffs.append(isolated - raised)
        return statistics.median(diffs) / max(statistics.median(raise_times), 1e-9)

    gc.collect()
    gc.disable()
    try:
        overhead = collect(10)
        while overhead >= 0.08 and len(diffs) < 40:
            overhead = collect(10)
    finally:
        gc.enable()

    raise_time = statistics.median(raise_times)
    isolate_time = raise_time + statistics.median(diffs)

    # The isolation path must also not change what a healthy batch returns.
    baseline = ExecutionEngine().execute_many(circuits, noise, shots=1024, seed=17)
    isolated = ExecutionEngine().execute_many(
        circuits, noise, shots=1024, seed=17, on_error="isolate"
    )
    for a, b in zip(isolated, baseline):
        assert a.measured_qubits == b.measured_qubits
        assert a.distribution.items() == b.distribution.items()
        assert a.counts.items() == b.counts.items()

    print(
        f"\nfaulty-batch overhead ({len(circuits)} circuits): raise "
        f"{raise_time * 1e3:.1f} ms, isolate {isolate_time * 1e3:.1f} ms, "
        f"overhead {overhead * 100:.1f}%"
    )
    record_bench(
        "engine_faulty_batch_overhead",
        isolate_time,
        None,
        extra={"raise_seconds": raise_time, "overhead_fraction": round(overhead, 4),
               "circuits": len(circuits)},
    )
    assert overhead < 0.10, f"isolation overhead {overhead * 100:.1f}% exceeds 10%"


def test_ensemble_speedup_over_trajectory_loop():
    """Ensemble backend vs per-trajectory loop: >= 3x median (target 5x).

    Every circuit of the repeated-subset workload is simulated by both
    trajectory backends under identical budgets; the speedup is the median of
    the per-circuit ratios, so one outlier circuit cannot carry the result.
    """
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    # The engine would compact before simulating; benchmark in compact space
    # so the comparison isolates the simulation loop itself.
    circuits = [circuit.compact_qubits()[0] for circuit in _workload()]

    speedups = []
    ensemble_times = []
    for index, circuit in enumerate(circuits):
        start = time.perf_counter()
        loop_counts, _ = simulate_trajectories_batched(
            circuit, noise, shots=1024, seed=index, max_trajectories=600
        )
        loop_time = time.perf_counter() - start
        start = time.perf_counter()
        ensemble_counts, _ = simulate_trajectories_ensemble(
            circuit, noise, shots=1024, seed=index, max_trajectories=600
        )
        ensemble_time = time.perf_counter() - start
        assert ensemble_counts.shots == loop_counts.shots == 1024
        speedups.append(loop_time / max(ensemble_time, 1e-9))
        ensemble_times.append(ensemble_time)

    median_speedup = statistics.median(speedups)
    print(
        f"\nensemble vs trajectory loop: median {median_speedup:.1f}x "
        f"(min {min(speedups):.1f}x, max {max(speedups):.1f}x) over "
        f"{len(circuits)} circuits"
    )
    record_bench(
        "ensemble_vs_trajectory_loop", statistics.median(ensemble_times), median_speedup
    )
    assert median_speedup >= 3.0, (
        f"expected >= 3x median ensemble speedup, measured {median_speedup:.2f}x"
    )


def test_ensemble_kernel_speedup():
    """Specialized kernel tier vs the generic-forced arm: >= 2x median.

    Both arms run the *same* ensemble code with the same seeds and fused
    programs; the only difference is ``kernel_backend`` ("numpy" routes
    classified blocks through the diag/perm/dense kernels, "generic" forces
    every block down the tensordot reference path).  Under a noise-per-gate
    model every fused block is a single gate, so the diag/perm-heavy layers
    below are exactly the structure the kernel tier targets.
    """
    from repro.simulators import kernel_dispatch_counts, reset_kernel_dispatch_counts

    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    num_qubits = 8
    circuit = QuantumCircuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
    for layer in range(4):
        for q in range(num_qubits - 1):
            circuit.cx(q, q + 1)
        for q in range(num_qubits):
            circuit.rz(0.1 * (q + 1) + 0.2 * layer, q)
        for q in range(0, num_qubits - 1, 2):
            circuit.cz(q, q + 1)
    circuit.measure_all()

    def arm(backend: str, seed: int) -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            counts, _ = simulate_trajectories_ensemble(
                circuit, noise, shots=1024, seed=seed,
                max_trajectories=600, kernel_backend=backend,
            )
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        assert counts.shots == 1024
        return elapsed

    # Warm both arms once (BLAS thread-pool spin-up, plan phase/gather
    # caches) so the timed runs compare steady-state kernels.
    arm("generic", 0)
    arm("numpy", 0)

    reset_kernel_dispatch_counts()
    speedups, kernel_times = [], []
    for rep in range(1, 6):
        generic_time = arm("generic", rep)
        kernel_time = arm("numpy", rep)
        speedups.append(generic_time / max(kernel_time, 1e-9))
        kernel_times.append(kernel_time)

    dispatch = kernel_dispatch_counts()
    median_speedup = statistics.median(speedups)
    print(
        f"\nkernel tier vs generic tensordot: median {median_speedup:.1f}x "
        f"(min {min(speedups):.1f}x, max {max(speedups):.1f}x); "
        f"dispatch {dispatch}"
    )
    # The specialized arm classified every block (noise-per-gate => single
    # gates: h -> dense1q, cx -> perm, rz/cz -> diag); only the forced arm
    # took the generic path.
    assert dispatch["diag"] > 0 and dispatch["perm"] > 0 and dispatch["dense1q"] > 0
    record_bench(
        "ensemble_kernel_tier",
        statistics.median(kernel_times),
        median_speedup,
        extra={"dispatch": dispatch, "qubits": num_qubits, "trajectories": 600},
    )
    assert median_speedup >= 2.0, (
        f"expected >= 2x kernel-tier speedup, measured {median_speedup:.2f}x"
    )


def test_ensemble_matches_density_matrix_distribution():
    """Acceptance: seeded ensemble run within TV 0.05 of the exact
    density-matrix distribution on a <= 6-qubit noisy circuit."""
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuit = QuantumCircuit(6, 6)
    for q in range(6):
        circuit.h(q)
    for q in range(5):
        circuit.cx(q, q + 1)
    for q in range(6):
        circuit.rz(0.1 * (q + 1), q)
    circuit.measure_all()

    exact, _ = noisy_distribution_density_matrix(circuit, noise)
    counts, _ = simulate_trajectories_ensemble(
        circuit, noise, shots=40000, seed=23, max_trajectories=500
    )
    sampled = counts.to_distribution()
    tv = 0.5 * sum(abs(sampled.get(o) - exact.get(o)) for o in range(2**6))
    print(f"\nensemble vs density matrix: total variation {tv:.4f}")
    assert tv <= 0.05, f"total variation {tv:.4f} exceeds 0.05"


def _compile_workload() -> list[QuantumCircuit]:
    """58 distinct circuits in the shapes of the paper's benchmarks.

    IQFT on every 3- and 4-qubit input value (16), Bernstein-Vazirani on
    every nonzero 3- and 4-bit secret (14), 3- and 4-qubit VQE ansatzes
    under six parameter seeds (12), and one-layer QAOA on 3- to 6-node
    rings under four angle seeds (16).
    """
    circuits = [iqft_benchmark_circuit(n, value=v) for n in (3, 4) for v in range(8)]
    circuits += [bernstein_vazirani_circuit(s, num_qubits=n) for n in (3, 4) for s in range(1, 8)]
    circuits += [vqe_circuit(n, 1, seed=seed) for n in (3, 4) for seed in range(6)]
    for n in range(3, 7):
        for seed in range(4):
            gammas, betas = default_qaoa_angles(1, seed=seed)
            circuits.append(qaoa_maxcut_circuit(ring_graph(n), 1, gammas, betas))
    return circuits


def test_transpile_cache_warm():
    """Acceptance: repeated hardware-aware compilation >= 5x warm over cold.

    The workload (:func:`_compile_workload`) is compiled onto a 27-qubit
    falcon device twice, as a resubmitted sweep would be.  The cold pass
    pays for noise-aware layout + SABRE routing + basis translation per
    circuit; the warm pass is served from the engine's content-addressed
    CompilationCache, so a resubmission never re-routes a circuit.
    """
    from repro.noise import fake_hanoi

    device = fake_hanoi()
    circuits = _compile_workload()

    engine = ExecutionEngine()
    start = time.perf_counter()
    cold = [engine.compile(circuit, device) for circuit in circuits]
    cold_time = time.perf_counter() - start
    unique_misses = engine.stats.compile_misses
    assert unique_misses == len(circuits)  # every circuit is distinct

    start = time.perf_counter()
    warm = [engine.compile(circuit, device) for circuit in circuits]
    warm_time = time.perf_counter() - start
    assert engine.stats.compile_misses == unique_misses  # nothing recompiled
    assert engine.stats.compile_hits >= len(circuits)

    ratio = cold_time / max(warm_time, 1e-9)
    print(
        f"\ntranspile cache ({len(circuits)} circuits, {unique_misses} unique): "
        f"cold {cold_time * 1e3:.1f} ms, warm {warm_time * 1e3:.1f} ms, "
        f"warm speedup {ratio:.1f}x"
    )
    record_bench(
        "transpile_cache_warm",
        warm_time,
        ratio,
        extra={"circuits": len(circuits), "unique_compilations": unique_misses,
               "cold_seconds": cold_time},
    )
    assert ratio >= 5.0, f"expected >= 5x warm compile speedup, measured {ratio:.2f}x"

    # Warm artifacts are the very same content-addressed objects.
    for a, b in zip(cold, warm):
        assert a is b


def test_tracing_overhead_under_five_percent(tmp_path):
    """Acceptance: the trace layer costs < 5% on a fault-free 100-circuit sweep.

    Both arms run the identical seeded workload through fresh engines (no
    shared caches, so each run does the same work).  Measurement design,
    because a ~55 ms workload leaves the 5% floor only ~3 ms of budget —
    inside scheduler noise for naive arm-vs-arm timing:

    * **Interleaved pairs, alternating order** — each pair runs both
      arms back-to-back so machine drift over the sweep cancels within
      the pair, and consecutive pairs swap which arm goes first: the
      first run of an early pair is measurably faster (a decaying
      warm-up effect), and a fixed order would charge that positional
      bias entirely to one arm.
    * **Median of paired differences** — robust to the ±15 ms scheduler
      spikes that poison min-vs-min comparisons on shared runners.
    * **GC disabled** during the measured pairs (as ``timeit`` does):
      collection cost scales with whatever heap earlier tests left
      behind, and the traced arm's extra allocations would trigger more
      collections — charging ambient heap size to tracing.

    The traced arm pays for span/event bookkeeping only — one request
    event per slot plus a handful of execute and cache-put events; the
    JSONL artifact flush is deferred off the traced call (it runs at
    engine close).  That bookkeeping is what this floor pins.
    """
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuits = _workload(repeats=34)[:100]

    def one_run(**engine_kwargs) -> float:
        with ExecutionEngine(**engine_kwargs) as engine:
            start = time.perf_counter()
            results = engine.execute_many(circuits, noise, shots=1024, seed=17)
            elapsed = time.perf_counter() - start
        assert all(result.ok for result in results)
        return elapsed

    trace_dir = str(tmp_path / "traces")
    one_run()  # warm imports and numpy dispatch outside the measurement
    one_run(trace_dir=trace_dir)
    diffs = []
    baselines = []

    def collect(pairs: int) -> float:
        """Append ``pairs`` more alternating pairs; return the overhead estimate."""
        for _ in range(pairs):
            if len(diffs) % 2 == 0:
                base = one_run()
                traced = one_run(trace_dir=trace_dir)
            else:
                traced = one_run(trace_dir=trace_dir)
                base = one_run()
            baselines.append(base)
            diffs.append(traced - base)
        return statistics.median(diffs) / max(statistics.median(baselines), 1e-9)

    # Adaptive sampling: the median of 24 paired diffs still carries
    # ~±1 ms of estimator noise on this workload, enough to push a true
    # ~2% overhead past the floor on an unlucky run.  When the estimate
    # is anywhere near the floor, keep collecting pairs — the median
    # converges on the true cost — and only judge the full sample.
    gc.collect()
    gc.disable()
    try:
        overhead = collect(24)
        while overhead >= 0.04 and len(diffs) < 72:
            overhead = collect(12)
    finally:
        gc.enable()

    baseline = statistics.median(baselines)
    delta = statistics.median(diffs)
    print(
        f"\ntracing overhead (100 circuits): disabled {baseline * 1e3:.1f} ms, "
        f"paired delta {delta * 1e3:+.2f} ms, overhead {overhead * 100:+.1f}% "
        f"[pairs: {' '.join(f'{d * 1e3:+.2f}' for d in diffs)}]"
    )
    record_bench(
        "tracing_overhead_100_circuits",
        baseline + delta,
        None,
        extra={
            "baseline_seconds": round(baseline, 6),
            "overhead_fraction": round(overhead, 4),
            "circuits": len(circuits),
        },
    )
    assert overhead < 0.05, f"tracing overhead {overhead * 100:.1f}% exceeds the 5% floor"


def test_traced_reruns_diff_clean(tmp_path, capsys):
    """Acceptance: two traced runs of one seeded batch show zero drift.

    Same circuits, same seed, fresh engines with no shared result cache:
    every slot must resolve to the same (fingerprint, method, tier) in both
    traces, which the trace CLI's ``diff`` verifies (exit 0 plus the
    sentinel line).  Any nondeterminism in method resolution or cache
    attribution would surface here as a drift line and a nonzero exit.
    """
    from repro.tracing.cli import main as tracing_cli

    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuits = _workload(repeats=34)[:100]
    paths = []
    for arm in ("a", "b"):
        with ExecutionEngine(trace_dir=str(tmp_path / arm)) as engine:
            results = engine.execute_many(circuits, noise, shots=1024, seed=17)
            assert all(result.ok for result in results)
            paths.append(engine.tracer.last_trace_path)

    assert tracing_cli(["diff", paths[0], paths[1]]) == 0
    out = capsys.readouterr().out
    assert "no method or hit-attribution drift" in out
    print("\ntrace diff of two seeded runs: zero method/hit-attribution drift")


def test_metrics_overhead():
    """Acceptance: the metrics layer costs < 5% on a fault-free 100-circuit sweep.

    Same measurement design as the tracing-overhead floor above (interleaved
    alternating pairs, median of paired differences, GC disabled) — the
    metrics arm is the engine *default* (private registry, stage and execute
    histograms, tier counters) and the baseline is ``metrics=False`` (the
    fully dark pre-metrics hot path).  What the metered arm pays per slot:
    three histogram observes (prepare/cache/deliver) and one tier counter
    inc, plus one execute-histogram observe per execution.  ``EngineStats``
    is a plain dataclass on both arms, and no collector runs during
    execution — the counts and bridged series publish only at
    scrape/snapshot time (and at ``close()``, outside the timed region) —
    so that cost stays off this path.
    """
    noise = NoiseModel.depolarizing(p1=0.005, p2=0.02, readout=0.02)
    circuits = _workload(repeats=34)[:100]

    def one_run(**engine_kwargs) -> float:
        with ExecutionEngine(**engine_kwargs) as engine:
            start = time.perf_counter()
            results = engine.execute_many(circuits, noise, shots=1024, seed=17)
            elapsed = time.perf_counter() - start
        assert all(result.ok for result in results)
        return elapsed

    one_run(metrics=False)  # warm imports and numpy dispatch
    one_run()
    diffs = []
    baselines = []

    def collect(pairs: int) -> float:
        for _ in range(pairs):
            if len(diffs) % 2 == 0:
                base = one_run(metrics=False)
                metered = one_run()
            else:
                metered = one_run()
                base = one_run(metrics=False)
            baselines.append(base)
            diffs.append(metered - base)
        return statistics.median(diffs) / max(statistics.median(baselines), 1e-9)

    gc.collect()
    gc.disable()
    try:
        overhead = collect(24)
        while overhead >= 0.04 and len(diffs) < 72:
            overhead = collect(12)
    finally:
        gc.enable()

    baseline = statistics.median(baselines)
    delta = statistics.median(diffs)
    print(
        f"\nmetrics overhead (100 circuits): disabled {baseline * 1e3:.1f} ms, "
        f"paired delta {delta * 1e3:+.2f} ms, overhead {overhead * 100:+.1f}% "
        f"[pairs: {' '.join(f'{d * 1e3:+.2f}' for d in diffs)}]"
    )
    record_bench(
        "metrics_overhead",
        baseline + delta,
        None,
        extra={
            "baseline_seconds": round(baseline, 6),
            "overhead_fraction": round(overhead, 4),
            "circuits": len(circuits),
        },
    )
    assert overhead < 0.05, f"metrics overhead {overhead * 100:.1f}% exceeds the 5% floor"
