"""Interval abstract interpretation over the kernels' C subset.

``repro.lint.certify`` is the analysis layer behind the
``kernel-bounds``, ``kernel-overflow`` and ``plan-contract`` passes:

* :mod:`repro.lint.certify.intervals` — the value domain: per-variable
  ``[lo, hi]`` intervals whose endpoints are *affine expressions* over
  the kernel's symbolic sizes (``n``, ``rob_alloc``, ...), so a bound
  like ``idx <= n - 1`` is provable for every trace length at once;
* :mod:`repro.lint.certify.contracts` — the declared facts: symbol
  ranges, buffer lengths and element ranges, struct-field invariants
  — the same facts the contract manifest pins and the Python-side
  validators establish;
* :mod:`repro.lint.certify.interp` — the abstract interpreter: a
  worklist fixpoint over a statement-level C CFG (delayed widening at
  loop heads, a narrowing sweep, then one checking pass that turns
  every unproven subscript / signed wrap into an obligation);
* :mod:`repro.lint.certify.pyfacts` — the Python side: extracts the
  ranges the runtime validators in :mod:`repro.core.columnar` and
  :mod:`repro.cyclesim.plan` enforce and checks they dominate the
  kernel call, so the C proof's assumptions are themselves verified.

:func:`certified_kernels` runs the whole C analysis once per lint
invocation and memoises on the :class:`~repro.lint.framework.Project`;
the ``kernel-bounds`` and ``kernel-overflow`` passes partition its
obligations rather than re-running the fixpoint.
"""

from repro.lint.certify.contracts import kernel_contracts


def certified_kernels(project):
    """Analyse every contracted kernel once per project.

    Returns ``{relpath: KernelReport}`` (see
    :class:`repro.lint.certify.interp.KernelReport`); memoised on the
    project so the two C passes share one fixpoint run.  The kernels
    are read through :meth:`~repro.lint.framework.Project.c_unit`, the
    same parse the parity passes use.  Each analysed function's
    fixpoint counters land in ``project.telemetry["certify"]`` under
    ``<kernel file>:<function>``.
    """
    cache = getattr(project, "_certify_reports", None)
    if cache is None:
        from repro.lint.certify.interp import KernelReport, analyse_kernel
        from repro.lint.clang_parity.cparse import CParseError
        cache = {}
        for contract in kernel_contracts():
            try:
                unit = project.c_unit(contract.path)
            except CParseError as exc:
                report = KernelReport(contract.path)
                report.error = (exc.lineno, str(exc))
                cache[contract.path] = report
                continue
            if unit is not None:
                cache[contract.path] = analyse_kernel(unit, contract)
        project._certify_reports = cache
        project.telemetry["certify"] = {
            f"{relpath.rsplit('/', 1)[-1]}:{fn}": counters
            for relpath, report in cache.items()
            for fn, counters in report.fixpoint.items()
        }
    return cache
