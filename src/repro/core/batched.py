"""Batched MLPsim: many machine configurations per pass over one trace.

This engine produces :class:`~repro.core.results.MLPResult`s that are
**bit-identical** to the scalar engine (and therefore to the frozen
reference interpreter).  A config grid is split into event-mask groups
(configs whose perfect-* and value-prediction switches agree, see
:func:`repro.core.columnar.mask_key`); each group shares one
:class:`~repro.core.columnar.ColumnarPlan` and one call of the compiled
kernel (:mod:`repro.core.ckernel`), which simulates every config of the
group against the shared columns.  :func:`repro.core.mlpsim.simulate`
takes the same route for a single config.

The kernel is the only fast path.  Configurations outside its envelope
(:func:`batched_supported`) — runahead machines, ``record_sets`` runs,
configs outside the kernel contract — and every configuration on a host
without a working C toolchain run on the scalar engine, which the
equivalence suite pins to the reference.  :func:`simulate_batch`, which
holds the annotated trace, therefore accepts every machine config;
:func:`simulate_plan`, which holds only a plan, needs the kernel.
"""

from repro.core.columnar import plan_for
from repro.core.mlpsim import simulate
from repro.robustness.errors import SimulationError


def batched_supported(machine, record_sets=False):
    """Can *machine* run on the compiled kernel (vs the scalar engine)?

    The kernel models every configuration except runahead machines,
    ``record_sets`` runs and configs whose kernel fields fall outside
    the ranges :data:`~repro.core.columnar.PLAN_CONTRACT` certifies
    (a ROB of ``1 << 25``, say); without a working C toolchain nothing
    is in the envelope.
    """
    if machine.runahead or record_sets:
        return False
    from repro.core.ckernel import _config_struct, kernel_available
    from repro.core.columnar import config_contract_error

    return kernel_available() and config_contract_error(
        _config_struct(machine)
    ) is None


def simulate_batch(annotated, machines, start=None, stop=None,
                   workload=None, progress=None):
    """Run a config grid over one trace; returns ``{label: MLPResult}``.

    *machines* is an iterable of ``(label, machine)`` pairs (an ordered
    mapping also works).  In-envelope configs sharing an event-mask key
    share one columnar plan and one kernel call, so the per-trace
    preparation cost is paid once per mask group rather than once per
    config.  The rest go through :func:`~repro.core.mlpsim.simulate`,
    which applies the same envelope test and so runs them on the
    scalar engine.  Results come back in grid order.  *progress* is
    called with each label as it completes.
    """
    from repro.core.ckernel import run_plan
    from repro.core.columnar import mask_key
    from repro.robustness.validate import validate_annotated

    validate_annotated(annotated, check_events=False)
    if hasattr(machines, "items"):
        machines = machines.items()
    pairs = list(machines)
    name = workload or annotated.trace.name
    results = {}

    groups = {}
    for label, machine in pairs:
        if batched_supported(machine):
            groups.setdefault(mask_key(machine), []).append((label, machine))
    for group in groups.values():
        plan = plan_for(annotated, group[0][1], start, stop)
        for label, result in run_plan(plan, group, name).items():
            results[label] = result
            if progress is not None:
                progress(label)

    for label, machine in pairs:
        if label in results:
            continue
        results[label] = simulate(
            annotated, machine, start=start, stop=stop, workload=workload,
        )
        if progress is not None:
            progress(label)
    return {label: results[label] for label, _ in pairs}


def simulate_plan(plan, machine, workload):
    """Run one config against a pre-built columnar plan in the kernel.

    This is the worker-side entry point of zero-copy sweeps: the plan
    may be attached from shared memory with no annotated trace in the
    process at all, so there is nothing the scalar engine could run.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the compiled kernel is unavailable; the message carries
        :func:`repro.core.ckernel.kernel_error`.
    repro.robustness.errors.SimulationError
        If *machine* is a runahead machine (outside the kernel's
        envelope: it needs the annotated trace for the scalar engine).
    """
    from repro.core.ckernel import run_plan

    if machine.runahead:
        raise SimulationError(
            f"machine {machine.label!r} is outside the batched engine's"
            " envelope (runahead needs the scalar engine)",
            field=machine.label,
        )
    return run_plan(plan, [("_", machine)], workload)["_"]
