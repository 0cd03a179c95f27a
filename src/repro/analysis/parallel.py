"""Zero-copy chunk pools for kernel sweeps, plus the jobs knobs.

A grid inside a compiled kernel's envelope shares one plan per
event-mask group (MLPsim) or one plan outright (cyclesim).  This module
publishes those plans once through :mod:`repro.analysis.shm`, shards
the grid into chunks sized by a measured per-config cost, and runs the
chunks on a :class:`ProcessPoolExecutor` whose workers attach the plan
without copying it.  Per-config work outside the envelope (runahead
machines, hosts without a C compiler) runs on the supervisor's pool
instead — see :func:`repro.analysis.sweep.sweep`.

Results come back in grid order, so ``SweepResult`` label order and
progress-callback order match the serial backend exactly.  A worker
exception is re-raised in the parent as
:class:`~repro.robustness.errors.SimulationError` naming the first
label of the failing chunk; remaining queued chunks are cancelled.

The worker count is resolved by :func:`resolve_jobs` from an explicit
argument or the ``REPRO_JOBS`` environment variable; ``0`` means "one
worker per CPU".  When a pool cannot be created at all the caller gets
``None`` back and silently falls back to the serial path, so a
restricted environment degrades to correct (if slower) behaviour.
"""

import concurrent.futures
import math
import multiprocessing
import os
import time

from repro.robustness.errors import ConfigError, SimulationError

#: Target wall-clock per sharded chunk of a batched parallel sweep.
#: Chunks much smaller than this drown in IPC; much bigger ones starve
#: the tail workers.
CHUNK_TARGET_SECONDS = 0.25


def resolve_jobs(jobs=None):
    """Resolve a worker count from *jobs* or the ``REPRO_JOBS`` env var.

    ``None`` falls back to ``REPRO_JOBS`` (absent or empty means serial,
    i.e. 1).  ``0`` means one worker per available CPU.  Anything that
    is not a non-negative integer raises
    :class:`~repro.robustness.errors.ConfigError`.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env is None or not env.strip():
            return 1
        try:
            jobs = int(env.strip())
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {env!r}",
                field="REPRO_JOBS",
            ) from None
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigError(
            f"jobs must be an integer, got {jobs!r}", field="jobs"
        )
    if jobs < 0:
        raise ConfigError(
            f"jobs must be non-negative, got {jobs}", field="jobs"
        )
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def effective_cpus():
    """CPUs the scheduler will actually give us (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def serial_cutover(n_jobs, n_pairs):
    """Should a ``jobs=N`` sweep fall back to the serial backend?

    The cutover triggers when parallelism cannot pay for its own
    overhead: a single effective CPU (process pools only add IPC to
    CPU-bound simulation) or a grid smaller than two configs.  This is
    what keeps ``jobs=4`` from ever being slower than ``jobs=1`` on
    one core and keeps single-core scaling at ~1.0.
    """
    return n_jobs <= 1 or n_pairs <= 1 or effective_cpus() <= 1


def measure_config_cost(run_one):
    """Time one configuration; returns ``(result, seconds)``.

    The measurement doubles as real work — the caller merges the
    result instead of re-running the config — so the sharding estimate
    is free.
    """
    started = time.perf_counter()
    result = run_one()
    return result, time.perf_counter() - started


def shard_pairs(pairs, per_config_seconds, jobs):
    """Split *pairs* into chunks sized by measured per-config cost.

    Each chunk aims for :data:`CHUNK_TARGET_SECONDS` of kernel time but
    never exceeds an even ``len(pairs) / jobs`` split, so every worker
    gets work even when configs are expensive, and cheap configs are
    batched into few kernel calls instead of thousands of tasks.
    """
    if not pairs:
        return []
    cost = max(per_config_seconds, 1e-6)
    by_cost = max(1, int(CHUNK_TARGET_SECONDS / cost))
    by_balance = math.ceil(len(pairs) / max(jobs, 1))
    chunk = max(1, min(by_cost, by_balance))
    return [pairs[i:i + chunk] for i in range(0, len(pairs), chunk)]


def _run_plan_chunk(handle, chunk, workload):
    """Worker: attach the shared plan and run one chunk of configs.

    The compiled kernel reads its columns straight out of the shared
    mapping — the only pickles per task are the machine configs in and
    the results out.  A plan is kernel input: without the kernel
    :func:`~repro.core.ckernel.run_plan` raises
    :class:`~repro.robustness.errors.InternalError`.
    """
    from repro.analysis.shm import attach_plan
    from repro.core.ckernel import run_plan

    attached = attach_plan(handle)
    try:
        return run_plan(attached.plan, chunk, workload)
    finally:
        attached.close()


def _run_cycle_chunk(handle, chunk, workload):
    """Worker: attach the shared cycle plan and run one config chunk.

    The compiled cyclesim kernel reads the per-instruction tables
    straight out of the shared mapping — the only pickles per task are
    the pipeline configs in and the
    :class:`~repro.cyclesim.metrics.CycleMetrics` out.  A plan is
    kernel input: without the kernel
    :func:`~repro.cyclesim.simulator.run_cycle_pairs` raises
    :class:`~repro.robustness.errors.InternalError`.
    """
    from repro.analysis.shm import attach_plan
    from repro.cyclesim.simulator import run_cycle_pairs

    attached = attach_plan(handle)
    try:
        return run_cycle_pairs(attached.plan, chunk, workload)
    finally:
        attached.close()


def _run_chunks(run_chunk, tasks, workload, jobs, in_parent=dict):
    """Run ``(handle, chunk)`` *tasks* on a fresh process pool.

    Every task calls ``run_chunk(handle, chunk, workload)`` in a
    worker.  *in_parent* runs in the parent while the pool works; its
    ``{label: result}`` dict is merged with the chunks' results, which
    are returned.  ``None`` means no pool could be created.  A failing
    chunk raises :class:`SimulationError` naming its first label, and
    the pool is shut down (queued chunks cancelled) on every exit path.
    """
    executor = None
    if tasks:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context("spawn")
        try:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(jobs, len(tasks)), mp_context=ctx
            )
        except (OSError, ValueError):
            return None
    started = time.monotonic()
    try:
        futures = [
            (chunk, executor.submit(run_chunk, handle, chunk, workload))
            for handle, chunk in tasks
        ]
        results = in_parent()
        for chunk, future in futures:
            try:
                results.update(future.result())
            except Exception as exc:
                labels = ", ".join(label for label, _ in chunk)
                elapsed = time.monotonic() - started
                raise SimulationError(
                    f"sweep worker failed for configs [{labels}]"
                    f" (attempt 1, after {elapsed:.1f}s): {exc}",
                    field=chunk[0][0],
                ) from exc
        return results
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def _in_grid_order(results, pairs, progress):
    """*results* reordered to the grid, firing *progress* per label."""
    ordered = {label: results[label] for label, _ in pairs}
    if progress is not None:
        for label in ordered:
            progress(label)
    return ordered


def batched_parallel_sweep(annotated, pairs, workload, progress, jobs):
    """Zero-copy parallel sweep of a batched grid.

    The parent builds one columnar plan per event-mask group of the
    configs inside the kernel's envelope, publishes each through
    :mod:`repro.analysis.shm`, measures the per-config kernel cost on
    the first of them, shards the rest into chunks of roughly
    :data:`CHUNK_TARGET_SECONDS`, and fans the chunks out to a worker
    pool.  Configs outside the envelope (runahead machines) need the
    annotated trace, so the parent runs them on the scalar engine while
    the pool works.

    Returns ``{label: MLPResult}`` in grid order, or ``None`` when no
    pool can be created (callers fall back to the serial batched path).
    Progress callbacks fire in grid order once all results are in —
    the same order the serial backend reports.  Shared segments are
    unlinked in ``finally``, whether the sweep succeeded, raised, or
    lost workers.
    """
    from repro.analysis.shm import publish_plan, unpublish_plan
    from repro.core.batched import batched_supported
    from repro.core.columnar import mask_key, plan_for
    from repro.core.mlpsim import simulate

    groups = {}
    scalar_pairs = []
    for label, machine in pairs:
        if batched_supported(machine):
            groups.setdefault(mask_key(machine), []).append((label, machine))
        else:
            scalar_pairs.append((label, machine))

    results = {}
    cost = 0.0
    if groups:
        # Measure the per-config cost on the first config of the first
        # group; the result is kept, so calibration is free work.
        first_label, first_machine = next(iter(groups.values())).pop(0)
        results[first_label], cost = measure_config_cost(
            lambda: simulate(annotated, first_machine, workload=workload)
        )

    def run_scalar():
        return {
            label: simulate(annotated, machine, workload=workload)
            for label, machine in scalar_pairs
        }

    handles = []
    try:
        tasks = []
        for group in groups.values():
            if group:
                handle = publish_plan(plan_for(annotated, group[0][1]))
                handles.append(handle)
                tasks.extend(
                    (handle, chunk)
                    for chunk in shard_pairs(group, cost, jobs)
                )
        pooled = _run_chunks(
            _run_plan_chunk, tasks, workload, jobs, run_scalar
        )
        if pooled is None:
            return None
    finally:
        for handle in handles:
            unpublish_plan(handle)
    results.update(pooled)
    return _in_grid_order(results, pairs, progress)


def cyclesim_parallel_sweep(annotated, pairs, workload, progress, jobs):
    """Zero-copy parallel sweep of cyclesim ``(label, config)`` *pairs*.

    The cyclesim twin of :func:`batched_parallel_sweep`, one notch
    simpler: the cycle plan never depends on the configuration (no
    event-mask groups — ``perfect_l2`` is an access-time knob), so one
    published plan serves the entire grid.  The parent measures the
    per-config cost on the first config, shards the rest into chunks of
    roughly :data:`CHUNK_TARGET_SECONDS` and fans them out.

    Returns ``{label: CycleMetrics}`` in grid order, or ``None`` when
    no pool can be created (callers fall back to the serial path).
    The shared segment is unlinked in ``finally`` whatever happens.
    """
    from repro.analysis.shm import publish_plan, unpublish_plan
    from repro.cyclesim.plan import cycle_plan_for
    from repro.cyclesim.simulator import run_cyclesim

    # Calibration doubles as real work: the first config's result is
    # kept, and running it in the parent also builds (and memoises)
    # the plan every chunk will share.
    first_label, first_config = pairs[0]
    first_result, cost = measure_config_cost(
        lambda: run_cyclesim(annotated, first_config, workload=workload)
    )

    handle = None
    try:
        chunks = shard_pairs(pairs[1:], cost, jobs)
        if chunks:
            handle = publish_plan(cycle_plan_for(annotated))
        results = _run_chunks(
            _run_cycle_chunk, [(handle, chunk) for chunk in chunks],
            workload, jobs,
        )
        if results is None:
            return None
    finally:
        unpublish_plan(handle)
    results[first_label] = first_result
    return _in_grid_order(results, pairs, progress)
