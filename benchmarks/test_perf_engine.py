"""Perf-regression harness for the simulation engines and sweep backend.

Times (a) single `simulate` runs against the frozen reference
interpreter (`repro.core.mlpsim_reference`), (b) an 8-config sweep
serial vs. on a 4-worker pool, and (c) the cycle-accurate simulator —
single runs and the Table 3 grid through the supervised sweep backend
— against its own frozen reference
(`repro.cyclesim.simulator_reference`), then appends one record per
invocation to ``benchmarks/results/BENCH_perf.json`` via the atomic
writer so a performance trajectory accumulates across PRs.

Trace length follows ``REPRO_TRACE_LEN`` (default 400,000
instructions); the CI perf-smoke job runs this file with a small
length, so the assertions are deliberately conservative — the headline
speedup numbers live in the JSON, not in the asserts.
"""

import json
import os
import pathlib
import subprocess
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_perf.json"

#: Version of the record layout ``_append_record`` writes.  Bumped to 2
#: when ``git_rev``/``bench_schema`` stamping landed; records from
#: schema-1 harnesses lack both fields and readers must backfill
#: (see ``load_bench_records`` in ``benchmarks/conftest.py``).
BENCH_SCHEMA = 2

SWEEP_SPECS = ("16A", "64A", "64B", "64C", "64D", "64E", "256E", "128C")
SWEEP_JOBS = 4
PERF_SEED = 1234

#: The paper's full grid axis: every window size x issue policies A-E.
#: 30 configs — the batched engine's headline measurement.
GRID_SPECS = tuple(
    f"{window}{policy}"
    for window in (16, 32, 64, 128, 256, 512)
    for policy in "ABCDE"
)

#: Worker counts of the scaling-vs-jobs curve (kind "sweep_scaling").
SCALING_JOBS = (1, 2, 4)


def _fixed_workloads():
    """The three paper workloads at the benchmark's fixed seed."""
    from repro.experiments.common import WORKLOAD_NAMES, get_annotated

    return [(name, get_annotated(name, seed=PERF_SEED))
            for name in WORKLOAD_NAMES]


def _machines():
    from repro.core.config import MachineConfig

    return [(spec, MachineConfig.named(spec)) for spec in SWEEP_SPECS]


def _best_of(fn, *args, reps=3, **kwargs):
    """Minimum wall time of *reps* calls (first call warms the memos)."""
    best = None
    for _ in range(reps):
        started = time.perf_counter()
        fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _git_rev():
    """The commit this record measures: env override, then git, else None.

    ``GIT_COMMIT`` (set by CI) wins so containers measuring a detached
    export still attribute records correctly; a plain checkout asks
    ``git rev-parse``.  Fail-soft: provenance is metadata, and a
    benchmark must never fail because the tree is not a git work tree.
    No wall-clock timestamps — the rev *is* the point on the
    trajectory, and it stays stable across re-runs of the same tree.
    """
    rev = os.environ.get("GIT_COMMIT", "").strip()
    if rev:
        return rev
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip() or None


def _append_record(kind, record):
    """Append one measurement to BENCH_perf.json atomically.

    The file holds ``{"runs": [...]}``; each entry is one harness
    invocation — stamped with the commit it measured and the record
    schema version — so successive PRs accumulate a perf trajectory.
    A corrupt or missing file starts a fresh history rather than
    failing the benchmark.
    """
    from repro.robustness.atomic import atomic_write_text

    history = {"runs": []}
    try:
        with open(BENCH_PATH) as handle:
            loaded = json.load(handle)
        if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
            history = loaded
    except (OSError, ValueError):
        pass
    record = dict(
        record, kind=kind, bench_schema=BENCH_SCHEMA, git_rev=_git_rev(),
    )
    history["runs"].append(record)
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(BENCH_PATH, json.dumps(history, indent=2) + "\n")


def test_engine_single_run_speed(results_dir):
    """Time optimized vs. reference engine on the default machine."""
    from repro.cli import _parse_machine
    from repro.core.mlpsim import simulate
    from repro.core.mlpsim_reference import simulate_reference

    machine = _parse_machine("64C")
    per_workload = {}
    total_new = 0.0
    total_ref = 0.0
    total_insts = 0
    for name, annotated in _fixed_workloads():
        result = simulate(annotated, machine)  # warm caches + sanity
        t_new = _best_of(simulate, annotated, machine)
        t_ref = _best_of(simulate_reference, annotated, machine)
        per_workload[name] = {
            "instructions": result.instructions,
            "seconds": round(t_new, 6),
            "reference_seconds": round(t_ref, 6),
            "speedup": round(t_ref / t_new, 3),
            "insts_per_sec": round(result.instructions / t_new),
        }
        total_new += t_new
        total_ref += t_ref
        total_insts += result.instructions
    speedup = total_ref / total_new
    _append_record("engine", {
        "trace_len": len(_fixed_workloads()[0][1].trace),
        "machine": "64C",
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "workloads": per_workload,
        "total_seconds": round(total_new, 6),
        "reference_total_seconds": round(total_ref, 6),
        "speedup": round(speedup, 3),
        "insts_per_sec": round(total_insts / total_new),
    })
    print(f"\nengine speedup vs reference: {speedup:.2f}x "
          f"({total_insts / total_new:,.0f} insts/sec)")
    # Conservative floor: the optimized engine must never lose to the
    # reference interpreter.  The >=3x target at the default 400k trace
    # length is recorded in the JSON trajectory.
    assert speedup > 1.0


def test_engine_results_match_reference():
    """The timed configurations must stay bit-identical to the oracle."""
    import dataclasses

    from repro.cli import _parse_machine
    from repro.core.mlpsim import simulate
    from repro.core.mlpsim_reference import simulate_reference

    machine = _parse_machine("64C")
    for name, annotated in _fixed_workloads():
        fast = simulate(annotated, machine)
        oracle = simulate_reference(annotated, machine)
        fast_dict = dataclasses.asdict(fast)
        fast_dict["inhibitors"] = fast.inhibitors.as_dict()
        oracle_dict = dataclasses.asdict(oracle)
        oracle_dict["inhibitors"] = oracle.inhibitors.as_dict()
        assert fast_dict == oracle_dict, name


def test_sweep_scaling(results_dir):
    """Time the 8-config sweep serial vs. a 4-worker pool."""
    from repro.analysis.sweep import sweep

    name, annotated = _fixed_workloads()[0]
    machines = _machines()
    sweep(annotated, machines, jobs=1)  # warm every per-config memo
    t_serial = _best_of(sweep, annotated, machines, jobs=1, reps=2)
    t_parallel = _best_of(sweep, annotated, machines, jobs=SWEEP_JOBS,
                          reps=2)
    scaling = t_serial / t_parallel
    cpus = os.cpu_count() or 1
    _append_record("sweep", {
        "trace_len": len(annotated.trace),
        "workload": name,
        "configs": list(SWEEP_SPECS),
        "jobs": SWEEP_JOBS,
        "cpu_count": cpus,
        "serial_seconds": round(t_serial, 6),
        "parallel_seconds": round(t_parallel, 6),
        "scaling": round(scaling, 3),
    })
    print(f"\nsweep scaling at jobs={SWEEP_JOBS} on {cpus} cpus: "
          f"{scaling:.2f}x (serial {t_serial:.2f}s,"
          f" parallel {t_parallel:.2f}s)")
    # Scaling can only track min(jobs, cpus): on a single-core box the
    # pool adds pure overhead, and tiny smoke traces are dominated by
    # pool startup.  Assert near-linear behaviour only where the
    # hardware and trace length allow it; elsewhere guard against the
    # backend becoming pathologically slower than serial.
    if len(annotated.trace) >= 400_000 and cpus >= SWEEP_JOBS:
        floor = 0.5 * SWEEP_JOBS
    elif cpus == 1:
        floor = 0.4
    else:
        floor = 0.1
    assert scaling > floor


def test_batched_grid_speedup(results_dir):
    """The config-batched engine vs. N scalar replays on the full grid.

    This is the tentpole measurement: 30 window x policy configs over
    one columnar trace, one batch per event-mask group (a single
    compiled pass when a C toolchain is present).  Results must be
    bit-identical to the scalar engine — which the equivalence suite
    already pins to the frozen reference — and the batch must never be
    slower than the scalar loop, even on CI smoke traces.
    """
    import dataclasses

    from repro.core.batched import simulate_batch
    from repro.core.ckernel import kernel_available
    from repro.core.config import MachineConfig
    from repro.core.mlpsim import simulate

    grid = [(spec, MachineConfig.named(spec)) for spec in GRID_SPECS]
    per_workload = {}
    total_scalar = 0.0
    total_batched = 0.0
    for name, annotated in _fixed_workloads():
        batch = simulate_batch(annotated, grid, workload=name)  # warm
        for label, machine in grid:
            scalar_result = simulate(annotated, machine, workload=name)
            want = dataclasses.asdict(scalar_result)
            want["inhibitors"] = scalar_result.inhibitors.as_dict()
            got = dataclasses.asdict(batch[label])
            got["inhibitors"] = batch[label].inhibitors.as_dict()
            assert got == want, (name, label)

        def scalar_grid(annotated=annotated, name=name):
            for _, machine in grid:
                simulate(annotated, machine, workload=name)

        t_scalar = _best_of(scalar_grid, reps=2)
        t_batched = _best_of(simulate_batch, annotated, grid,
                             workload=name, reps=3)
        per_workload[name] = {
            "seconds": round(t_batched, 6),
            "scalar_seconds": round(t_scalar, 6),
            "speedup": round(t_scalar / t_batched, 3),
            "per_config_ms": round(1000 * t_batched / len(grid), 3),
        }
        total_scalar += t_scalar
        total_batched += t_batched
    speedup = total_scalar / total_batched
    _append_record("batched_grid", {
        "trace_len": len(_fixed_workloads()[0][1].trace),
        "configs": len(grid),
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "compiled_kernel": kernel_available(),
        "workloads": per_workload,
        "scalar_total_seconds": round(total_scalar, 6),
        "batched_total_seconds": round(total_batched, 6),
        "speedup_vs_scalar": round(speedup, 3),
        "per_config_seconds": round(total_batched / (3 * len(grid)), 6),
    })
    print(f"\nbatched grid ({len(grid)} configs): {speedup:.2f}x vs"
          f" scalar ({1000 * total_batched / (3 * len(grid)):.2f}"
          f" ms/config)")
    # The batched backend must never lose to the scalar loop — this is
    # the CI smoke gate; the >=10x full-trace target lives in the JSON
    # trajectory (compare per_config_seconds across runs).  The gate
    # binds to the compiled kernel: without a C compiler the batch runs
    # the scalar engine itself, so there is no speedup to gate.
    if kernel_available():
        assert speedup > 1.0


def test_sweep_scaling_curve(results_dir):
    """Scaling-vs-jobs curve of the batched sweep (kind "sweep_scaling").

    With the auto serial cutover, ``jobs=N`` on a small grid or a
    single-core box routes to the serial backend, so no point of the
    curve may fall meaningfully below 1.0x — per-core scaling stays
    >=0.8 everywhere, which is the acceptance floor recorded here.
    """
    from repro.analysis.sweep import sweep

    name, annotated = _fixed_workloads()[0]
    machines = _machines()
    sweep(annotated, machines)  # warm plans, kernel, memos
    cpus = os.cpu_count() or 1
    baseline = _best_of(sweep, annotated, machines, jobs=1, reps=2)
    curve = []
    for jobs in SCALING_JOBS:
        seconds = _best_of(sweep, annotated, machines, jobs=jobs, reps=2)
        scaling = baseline / seconds
        curve.append({
            "jobs": jobs,
            "seconds": round(seconds, 6),
            "scaling": round(scaling, 3),
            "per_core": round(scaling / min(jobs, cpus), 3),
        })
    _append_record("sweep_scaling", {
        "trace_len": len(annotated.trace),
        "workload": name,
        "configs": len(machines),
        "cpu_count": cpus,
        "engine": "auto",
        "baseline_seconds": round(baseline, 6),
        "curve": curve,
    })
    print("\nsweep scaling curve: " + ", ".join(
        f"jobs={p['jobs']}: {p['scaling']:.2f}x" for p in curve
    ))
    for point in curve:
        # Acceptance floor: >=0.8 per core.  The serial cutover makes
        # this hold even on one CPU, where a pool would otherwise lose
        # to serial outright (the pre-cutover records show 0.86x).
        assert point["per_core"] >= 0.8, point


#: The Table 3 validation grid the cyclesim grid benchmark fans out.
CYCLESIM_GRID = tuple(
    (f"{size}{letter}/p{latency}", size, letter, latency)
    for size in (32, 64, 128)
    for letter in "ABC"
    for latency in (200, 500, 1000)
)


def _cyclesim_pairs():
    from repro.core.config import MachineConfig
    from repro.cyclesim import CycleSimConfig

    return [
        (label, CycleSimConfig.from_machine(
            MachineConfig.named(f"{size}{letter}"), miss_penalty=latency,
        ))
        for label, size, letter, latency in CYCLESIM_GRID
    ]


def test_cyclesim_single_run_speed(results_dir):
    """Time the optimized cycle simulator vs. its frozen reference.

    One 64C/500-cycle run per workload; the record (kind "cyclesim")
    notes whether the compiled kernel ran — without a C compiler
    ``run_cyclesim`` is the reference itself.
    """
    import dataclasses

    from repro.core.config import MachineConfig
    from repro.cyclesim import CycleSimConfig, run_cyclesim
    from repro.cyclesim.ckernel import kernel_available
    from repro.cyclesim.simulator_reference import (
        run_cyclesim as run_reference,
    )

    config = CycleSimConfig.from_machine(
        MachineConfig.named("64C"), miss_penalty=500
    )
    per_workload = {}
    total_new = 0.0
    total_ref = 0.0
    total_insts = 0
    for name, annotated in _fixed_workloads():
        fast = run_cyclesim(annotated, config)  # warm plan + kernel
        oracle = run_reference(annotated, config)
        assert dataclasses.asdict(fast) == dataclasses.asdict(oracle), name
        t_new = _best_of(run_cyclesim, annotated, config)
        t_ref = _best_of(run_reference, annotated, config, reps=2)
        per_workload[name] = {
            "instructions": fast.instructions,
            "seconds": round(t_new, 6),
            "reference_seconds": round(t_ref, 6),
            "speedup": round(t_ref / t_new, 3),
            "insts_per_sec": round(fast.instructions / t_new),
        }
        total_new += t_new
        total_ref += t_ref
        total_insts += fast.instructions
    speedup = total_ref / total_new
    compiled = kernel_available()
    _append_record("cyclesim", {
        "trace_len": len(_fixed_workloads()[0][1].trace),
        "machine": "64C",
        "miss_penalty": 500,
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "compiled_kernel": compiled,
        "workloads": per_workload,
        "total_seconds": round(total_new, 6),
        "reference_total_seconds": round(total_ref, 6),
        "speedup": round(speedup, 3),
        "insts_per_sec": round(total_insts / total_new),
    })
    print(f"\ncyclesim speedup vs reference: {speedup:.2f}x "
          f"({total_insts / total_new:,.0f} insts/sec,"
          f" kernel={compiled})")
    # CI perf-smoke gate: the compiled tier must hold >=3x even on
    # short smoke traces (the >=5x acceptance at the default 400k
    # length is recorded in the JSON trajectory).
    if not compiled:
        pytest.skip("no C compiler: run_cyclesim runs the reference"
                    " itself, so there is no speedup to gate")
    assert speedup >= 3.0


def test_cyclesim_grid_supervised_speedup(results_dir, tmp_path):
    """The Table 3 grid through the supervised sweep backend.

    27 configurations share one published cycle plan; the baseline is
    the frozen reference replayed per config.  Supervision (journal,
    retry bookkeeping, worker management) rides along, so this record
    (kind "cyclesim_grid") prices the whole production path, not a
    bare kernel loop.
    """
    from repro.analysis.sweep import sweep_cyclesim
    from repro.cyclesim.ckernel import kernel_available
    from repro.cyclesim.simulator_reference import (
        run_cyclesim as run_reference,
    )

    name, annotated = _fixed_workloads()[0]
    pairs = _cyclesim_pairs()
    journal = tmp_path / "cyclesim_grid.journal"

    def supervised_grid():
        return sweep_cyclesim(
            annotated, pairs, workload=name,
            supervise={"journal_path": journal, "resume": False},
        )

    swept = supervised_grid()  # warm plan + kernel, sanity-check grid
    assert swept.complete and len(swept.results) == len(pairs)
    sample_label, sample_config = pairs[0]
    oracle = run_reference(annotated, sample_config, workload=name)
    assert swept.results[sample_label].cycles == oracle.cycles

    t_grid = _best_of(supervised_grid, reps=2)

    def reference_grid():
        for _, config in pairs:
            run_reference(annotated, config, workload=name)

    t_ref = _best_of(reference_grid, reps=1)
    speedup = t_ref / t_grid
    compiled = kernel_available()
    _append_record("cyclesim_grid", {
        "trace_len": len(annotated.trace),
        "workload": name,
        "configs": len(pairs),
        "seed": PERF_SEED,
        "cpu_count": os.cpu_count() or 1,
        "compiled_kernel": compiled,
        "supervised": True,
        "grid_seconds": round(t_grid, 6),
        "reference_grid_seconds": round(t_ref, 6),
        "speedup_vs_reference": round(speedup, 3),
        "per_config_ms": round(1000 * t_grid / len(pairs), 3),
    })
    print(f"\ncyclesim grid ({len(pairs)} configs, supervised):"
          f" {speedup:.2f}x vs reference"
          f" ({1000 * t_grid / len(pairs):.2f} ms/config,"
          f" kernel={compiled})")
    # The >=10x grid-level acceptance at the default 400k length lives
    # in the JSON trajectory; the smoke gate only binds the compiled
    # tier, where batching must beat the per-config replay outright.
    if compiled:
        assert speedup >= 3.0
    else:
        assert speedup > 0.5  # supervision overhead on smoke traces


def test_bench_history_is_readable(bench_history):
    """Every accumulated record survives the backfill-tolerant reader.

    Schema-1 records predate ``git_rev``/``bench_schema`` stamping;
    the reader backfills both, so trajectory consumers can sort and
    group without per-record guards.
    """
    for record in bench_history:
        assert "kind" in record
        assert record["bench_schema"] >= 1
        assert "git_rev" in record  # may be None for schema-1 records
        if record["bench_schema"] >= BENCH_SCHEMA:
            assert record["git_rev"] is None or len(record["git_rev"]) >= 7


@pytest.fixture(scope="module", autouse=True)
def _report_bench_path():
    yield
    if BENCH_PATH.exists():
        print(f"\nperf trajectory: {BENCH_PATH}")
