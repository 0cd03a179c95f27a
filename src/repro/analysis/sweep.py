"""Parameter-sweep harness over MLPsim.

The paper's Figures 4-10 are all sweeps of machine configurations over
the same annotated traces.  :func:`sweep` runs a labelled grid of
machines and collects the results in a :class:`SweepResult` that the
experiment modules index and render.

Sweeps are embarrassingly parallel: every ``(label, machine)`` pair is
an independent simulation of the same trace.  Passing ``jobs=N`` (or
setting ``REPRO_JOBS``) runs them on one of two pools, with results
identical to the serial backend, label for label: configs inside the
compiled kernel's envelope go to the zero-copy chunk pool of
:mod:`repro.analysis.parallel`, every other grid to the supervisor's
one-config-per-task pool (:mod:`repro.robustness.supervisor`).  See
``docs/PERFORMANCE.md``.

Long or failure-prone campaigns should call
:func:`repro.robustness.supervisor.supervised_sweep` directly: the
sweep is then journalled, resumable after a crash, retried per-config
with backoff, and fail-soft — see ``docs/ROBUSTNESS.md``.
"""

import collections
import dataclasses

from repro.core.mlpsim import simulate
from repro.robustness.errors import ConfigError, SimulationError

#: Engines ``sweep`` can route a grid through.
ENGINES = ("auto", "batched", "scalar")


@dataclasses.dataclass
class SweepResult:
    """Results of one machine grid over one annotated trace."""

    workload: str
    results: dict  # label -> MLPResult

    def mlp(self, label):
        """MLP of the configuration named *label*."""
        return self.results[label].mlp

    def labels(self):
        """Configuration labels, in grid order."""
        return list(self.results)

    def series(self, labels=None):
        """Return [(label, mlp)] for plotting/printing."""
        labels = labels if labels is not None else self.labels()
        return [(label, self.results[label].mlp) for label in labels]

    def relative(self, baseline_label):
        """MLP of each config relative to *baseline_label* (1.0 = equal).

        Raises
        ------
        repro.robustness.errors.SimulationError
            If the baseline configuration measured zero MLP — every
            ratio would be undefined, and mapping them all to ``0.0``
            would silently hide the degenerate baseline.
        """
        base = self.mlp(baseline_label)
        if not base:
            raise SimulationError(
                f"baseline config {baseline_label!r} has zero MLP;"
                " relative comparison is undefined",
                field=baseline_label,
            )
        return {
            label: result.mlp / base
            for label, result in self.results.items()
        }


def grid_pairs(machines):
    """The ``(label, config)`` pairs of a sweep grid, as a list.

    *machines* is an iterable of pairs or an ordered mapping.  Every
    sweep route keys its results by label, so a repeated label raises
    :class:`~repro.robustness.errors.ConfigError` up front rather than
    letting one route keep the first config and another the last.
    """
    if hasattr(machines, "items"):
        machines = machines.items()
    pairs = list(machines)
    counts = collections.Counter(label for label, _ in pairs)
    repeated = [label for label, count in counts.items() if count > 1]
    if repeated:
        raise ConfigError(
            f"sweep grid has duplicate labels {repeated!r}; every grid"
            " point needs a unique label",
            field="machines",
        )
    return pairs


def _batched_usable(pairs):
    """Should this grid take the batched route?

    Only when some config is inside the compiled kernel's envelope: a
    grid of runahead machines, or any grid on a host without a C
    compiler, would only replay the scalar engine serially, so it takes
    the scalar route and the supervisor's pool.  A grid with a
    non-``MachineConfig`` entry (tests inject stand-ins to exercise
    failure paths) routes to the scalar backends too, whose error
    contract such tests pin down.
    """
    from repro.core.batched import batched_supported
    from repro.core.config import MachineConfig

    return all(
        isinstance(machine, MachineConfig) for _, machine in pairs
    ) and any(batched_supported(machine) for _, machine in pairs)


def _sweep_batched(annotated, pairs, name, progress, n_jobs):
    """Batched-engine sweep: serial-cutover or zero-copy parallel."""
    from repro.analysis.parallel import (
        batched_parallel_sweep,
        serial_cutover,
    )
    from repro.core.batched import simulate_batch

    if not serial_cutover(n_jobs, len(pairs)):
        results = batched_parallel_sweep(
            annotated, pairs, name, progress, min(n_jobs, len(pairs))
        )
        if results is not None:
            return SweepResult(workload=name, results=results)

    results = simulate_batch(annotated, pairs, workload=name)
    if progress is not None:
        for label in results:
            progress(label)
    return SweepResult(workload=name, results=results)


def _grid_order_progress(pairs, progress):
    """Wrap *progress* so completions are reported in grid order."""
    pending = collections.deque(label for label, _ in pairs)
    done = set()

    def report(label):
        done.add(label)
        while pending and pending[0] in done:
            progress(pending.popleft())

    return report


def _sweep_supervised(annotated, pairs, name, progress, n_jobs):
    """Scalar-engine sweep at ``jobs>1``, on the supervisor's pool.

    No journal and no retries; the serial cutover runs the grid on the
    supervisor's serial backend instead.  A failing config raises a
    :class:`SimulationError` carrying its label, attempt count and
    elapsed time — the first failure in grid order once the rest of
    the grid has drained.
    """
    from repro.analysis.parallel import serial_cutover
    from repro.robustness.supervisor import (
        SupervisorPolicy,
        supervised_sweep,
    )

    if serial_cutover(n_jobs, len(pairs)):
        n_jobs = 1
    run = supervised_sweep(
        annotated, pairs, workload=name, jobs=n_jobs,
        policy=SupervisorPolicy(max_retries=0),
        progress=(None if progress is None
                  else _grid_order_progress(pairs, progress)),
    )
    failed = {dead.label: dead for dead in run.quarantined}
    for label, _ in pairs:
        if label in failed:
            raise SimulationError(
                f"sweep config {label!r} failed: {failed[label].error}",
                field=label,
            )
    return SweepResult(workload=name, results=run.results)


def sweep(annotated, machines, workload=None, progress=None, jobs=None,
          engine="auto"):
    """Run MLPsim for every ``(label, machine)`` pair in *machines*.

    *machines* is an iterable of pairs (an ordered mapping also works);
    labels must be unique.  *progress*, if given, is called with each
    label as it completes, always in grid order — the benchmark
    harness uses it for liveness output.

    *jobs* selects the number of worker processes: ``None`` defers to
    the ``REPRO_JOBS`` environment variable (defaulting to serial),
    ``1`` forces the serial backend, ``0`` means one worker per CPU.
    Parallel runs produce results identical to serial ones and preserve
    label order in both the result dict and the progress callbacks; if
    no worker pool can be created the sweep silently runs serially.
    An automatic serial cutover (see
    :func:`repro.analysis.parallel.serial_cutover`) keeps ``jobs=N``
    from ever paying pool overhead a grid cannot amortise — on a
    single-core machine or a one-config grid, ``jobs=4`` simply runs
    serially.

    *engine* picks the simulation backend: ``"auto"`` (default) routes
    the grid through the config-batched compiled kernel
    (:mod:`repro.core.batched`) — bit-identical to the scalar engine
    and roughly an order of magnitude faster on full grids — falling
    back per-config to the scalar engine for machines outside the
    kernel's envelope; ``"batched"`` does the same (it is the explicit
    spelling); ``"scalar"`` forces the one-instruction-at-a-time
    interpreter everywhere.  Without a C compiler every engine takes
    the scalar route.  A scalar-route grid at ``jobs>1`` runs one
    config per task on the supervisor's pool
    (:func:`repro.robustness.supervisor.supervised_sweep`); call that
    directly for a journalled, resumable, retrying sweep.
    """
    if engine not in ENGINES:
        raise ConfigError(
            f"engine must be one of {ENGINES}, got {engine!r}",
            field="engine",
        )
    pairs = grid_pairs(machines)
    name = workload or annotated.trace.name

    from repro.analysis.parallel import resolve_jobs

    n_jobs = resolve_jobs(jobs)

    if engine != "scalar" and pairs and _batched_usable(pairs):
        return _sweep_batched(annotated, pairs, name, progress, n_jobs)

    if n_jobs > 1:
        return _sweep_supervised(annotated, pairs, name, progress, n_jobs)

    from repro.core.mlpsim import simulate_scalar

    run = simulate_scalar if engine == "scalar" else simulate
    results = {}
    for label, machine in pairs:
        results[label] = run(annotated, machine, workload=name)
        if progress is not None:
            progress(label)
    return SweepResult(workload=name, results=results)


def sweep_cyclesim(annotated, configs, workload=None, progress=None,
                   jobs=None):
    """Run the cycle simulator for every ``(label, config)`` pair.

    The cyclesim twin of :func:`sweep`: *configs* is an iterable of
    ``(label, CycleSimConfig)`` pairs (or an ordered mapping) with
    unique labels, and the result is a :class:`SweepResult` whose
    ``results`` map labels to
    :class:`~repro.cyclesim.metrics.CycleMetrics`.  This is how the
    Table 1/3/4 exhibits fan their 27-config-per-workload grids out.

    The grid shares one :class:`~repro.cyclesim.plan.CyclePlan` — the
    cycle simulator's event masks never depend on the configuration —
    so parallel runs publish the per-instruction tables once through
    shared memory and workers attach zero-copy
    (:func:`repro.analysis.parallel.cyclesim_parallel_sweep`).  *jobs*
    and the serial cutover behave exactly as in :func:`sweep`; serial
    runs still amortise the plan and the compiled kernel across the
    grid via :func:`repro.cyclesim.simulator.run_cycle_pairs`.  Without
    a C compiler the grid runs serially on the reference simulator.
    For a journalled, resumable grid call
    :func:`repro.robustness.supervisor.supervised_sweep` directly;
    cyclesim results round-trip the journal exactly.
    """
    pairs = grid_pairs(configs)
    name = workload or annotated.trace.name

    from repro.analysis.parallel import (
        cyclesim_parallel_sweep,
        resolve_jobs,
        serial_cutover,
    )
    from repro.cyclesim.ckernel import kernel_available
    from repro.cyclesim.plan import cycle_plan_for
    from repro.cyclesim.simulator import run_cycle_pairs, run_cyclesim

    n_jobs = resolve_jobs(jobs)

    if not kernel_available():
        # A cycle plan is kernel input: without the kernel the grid runs
        # on the reference simulator, one config at a time.
        results = {}
        for label, config in pairs:
            results[label] = run_cyclesim(annotated, config, workload=name)
            if progress is not None:
                progress(label)
        return SweepResult(workload=name, results=results)

    if pairs and not serial_cutover(n_jobs, len(pairs)):
        results = cyclesim_parallel_sweep(
            annotated, pairs, name, progress, min(n_jobs, len(pairs))
        )
        if results is not None:
            return SweepResult(workload=name, results=results)

    results = run_cycle_pairs(cycle_plan_for(annotated), pairs, name)
    if progress is not None:
        for label in results:
            progress(label)
    return SweepResult(workload=name, results=results)
