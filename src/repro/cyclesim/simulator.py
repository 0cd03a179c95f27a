"""The cycle-level out-of-order pipeline.

Trace-driven timing simulation over an annotated trace: the annotation
decides *what* happens (which loads leave the chip, which branches
mispredict), the pipeline decides *when*.  The model:

* fetch: ``fetch_width``/cycle into a ``fetch_buffer``-entry queue;
  fetch blocks on an instruction-fetch miss until the line returns, and
  after a mispredicted branch until it resolves plus a redirect penalty;
* dispatch: ``dispatch_width``/cycle, ``frontend_depth`` cycles after
  fetch, consuming ROB and issue-window entries;
* issue: ``issue_width``/cycle, oldest-first from the issue window once
  operands are ready, subject to the Table 2 issue constraints (load
  ordering, branch ordering, serializing drain);
* memory: off-chip accesses allocate MSHR entries (merging on the same
  line) that complete after ``miss_penalty`` cycles; MLP(t) is the
  number of useful entries outstanding;
* commit: in-order, ``commit_width``/cycle; a missing load holds its
  ROB entry until its data returns.

Time advances cycle by cycle while the pipeline makes progress and
skips directly to the next event (a completion, a wakeup, a fetch
restart) when it is fully stalled — which is most of the wall-clock
time at 1000-cycle memory latencies.

Engine tiers
------------

Two implementations exist, and each run uses exactly one of them:

* the compiled C kernel (:mod:`repro.cyclesim.ckernel`), built on
  demand from ``_cyclesim_kernel.c`` over the precomputed tables of
  :class:`repro.cyclesim.plan.CyclePlan` — the fast path, and the tier
  the perf gates bind to;
* the frozen pre-optimization oracle
  ``repro.cyclesim.simulator_reference``, which
  ``tests/test_cyclesim_equivalence.py`` holds the kernel bit-identical
  to (every :class:`~repro.cyclesim.metrics.CycleMetrics` counter), and
  which also serves hosts without a C compiler.

Entry points that hold the annotated trace (:func:`run_cyclesim`) fall
back to the reference when the kernel is unavailable; an entry point
that holds only a plan (:func:`run_cycle_pairs`) needs the kernel.
"""

from repro.core.mlpsim import resolve_region
from repro.cyclesim import ckernel, simulator_reference
from repro.cyclesim.config import CycleSimConfig
from repro.cyclesim.plan import cycle_plan_for


class CycleSimulator:
    """Runs one annotated trace through the cycle-level pipeline."""

    def __init__(self, config=None):
        self.config = config or CycleSimConfig()

    def run(self, annotated, start=None, stop=None, workload=None):
        """Simulate *annotated* and return :class:`CycleMetrics`."""
        return run_cyclesim(
            annotated, self.config, start=start, stop=stop, workload=workload
        )


def run_cyclesim(annotated, config=None, start=None, stop=None,
                 workload=None):
    """Simulate *annotated* under *config*; return :class:`CycleMetrics`.

    Runs the compiled kernel when it is available and the frozen
    reference simulator otherwise; both are bit-identical.
    """
    config = config or CycleSimConfig()
    if not ckernel.kernel_available():
        return simulator_reference.run_cyclesim(
            annotated, config, start=start, stop=stop, workload=workload
        )
    start, stop = resolve_region(annotated, start, stop)
    plan = cycle_plan_for(annotated, start, stop)
    name = workload or annotated.trace.name
    return ckernel.run_cycle_plan(plan, [("run", config)], name)["run"]


def run_cycle_pairs(plan, pairs, workload):
    """Simulate every ``(label, config)`` pair against *plan* in C.

    The batch entry point of the sweep backend: one compiled call for
    the whole grid.  Returns ``{label: CycleMetrics}`` in input order.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the compiled kernel is unavailable (the message carries
        :func:`repro.cyclesim.ckernel.kernel_error`): a plan is kernel
        input, and callers holding the annotated trace use
        :func:`run_cyclesim` instead.
    """
    return ckernel.run_cycle_plan(plan, pairs, workload)
