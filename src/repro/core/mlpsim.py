"""MLPsim: the epoch-model simulator (paper Section 4.1).

The simulator partitions an annotated dynamic instruction stream into
epoch sets by tracking register and memory dependences and applying the
window termination conditions implied by a :class:`MachineConfig`.  It
is deliberately timing-free: on-chip latencies are zero, and all
overlappable off-chip accesses of an epoch issue and complete together.

Operational model (one iteration of the main loop = one epoch):

1. The result of a missing load becomes available in the *next* epoch
   (its data returns when the epoch ends); every on-chip result is
   available within the epoch that computes it.  Availability is kept
   per dynamic instruction (``res_data``) against the static dependence
   graph of :mod:`repro.core.depgraph`, so an instruction whose producer
   has not executed yet is automatically "not ready".
2. Each epoch scans instructions in program order: first the *deferred*
   instructions (fetched in earlier epochs but not yet executed), then
   new instructions from the fetch stream.  One in-order pass suffices
   because dependences only point backwards.
3. Fetch stops at the first window termination condition: ROB or issue
   window exhaustion, a serializing instruction with older work
   outstanding, an instruction-fetch miss, or an unresolvable
   mispredicted branch.  After ROB/IW/serializing (dispatch-side) stops,
   fetch runs on for up to ``fetch_buffer`` further instructions; they
   cannot dispatch, but an I-miss among them still issues its off-chip
   line fetch.
4. An epoch is recorded when it issued at least one useful off-chip
   access, and is charged to the earliest MLP-inhibiting condition in
   program order (the Figure 5 categories).

Value prediction (Sections 3.6/5.5) splits availability in two: a
correctly predicted missing load's result is *usable* in the same epoch
(``res_data``) but only *validated* in the next (``res_valid``); a
mispredicted branch whose sources are merely usable, not validated,
cannot redirect fetch and still terminates the window.

The rules were fixed against the paper's worked Examples 1-5, which are
unit-tested verbatim in ``tests/test_paper_examples.py``.

Engine tiers (see ``docs/PERFORMANCE.md``): :func:`simulate` serves
every configuration inside the compiled kernel's envelope
(:func:`repro.core.batched.batched_supported`) from
:func:`repro.core.ckernel.run_plan` over the memoised columnar plan of
the region, and everything else — runahead machines, ``record_sets``
runs, configs outside the kernel contract, hosts without a C compiler
— from :func:`simulate_scalar`, the Python interpreter below.  Both
tiers return bit-identical :class:`MLPResult`s.

Performance structure of the scalar engine:

* the ``execute`` scan closures are created once per
  :func:`simulate_scalar` call, not once per epoch, and dependence
  lookups are inlined into the per-opcode branches;
* event masks and dependence columns are flattened to plain lists once
  up front (numpy scalar indexing is an order of magnitude slower in
  the interpreter loop);
* a vectorised "next interesting instruction" index — built from the
  dmiss/imiss/pmiss/smiss/serialize masks — lets the scan skip on-chip
  stretches between misses in bulk with list slice-assignment instead
  of interpreting every ALU/NOP one at a time.  The skip engages only
  in a provably *clean* scan state (nothing deferred, nothing in
  flight, no events recorded this epoch), where every skipped
  instruction is known to execute immediately with
  ``res_data = res_valid = epoch``; cleanliness is monotone within an
  epoch, so the check never has to re-arm.

The pre-optimization interpreter is preserved verbatim in
:mod:`repro.core.mlpsim_reference`; equivalence tests pin this engine
to bit-identical :class:`MLPResult`s against it.
"""

import numpy as np

from repro.core.config import (
    BranchPolicy,
    LoadPolicy,
    MachineConfig,
    SerializePolicy,
)
from repro.core.depgraph import depgraph_for
from repro.core.epoch import Epoch, TriggerKind
from repro.core.results import MLPResult
from repro.core.termination import Inhibitor, InhibitorCounts
from repro.isa.opclass import OpClass
from repro.isa.registers import REG_ZERO
from repro.robustness.errors import InternalError

#: Result epoch of an instruction that has not executed yet.
NOT_EXECUTED = 1 << 30


class MLPSim:
    """The MLP simulator.

    Parameters
    ----------
    machine:
        :class:`MachineConfig`; defaults to the paper's 64C machine.
    record_sets:
        When True, every epoch record carries its full epoch set
        (memory-heavy; meant for tests and small traces).
    """

    def __init__(self, machine=None, record_sets=False):
        self.machine = machine or MachineConfig()
        self.record_sets = record_sets

    def run(self, annotated, start=None, stop=None, workload=None):
        """Simulate *annotated* and return an :class:`MLPResult`.

        *start*/*stop* bound the simulated region; by default the
        measured (post-warmup) region of the annotated trace is used.
        """
        return simulate(
            annotated,
            self.machine,
            start=start,
            stop=stop,
            workload=workload,
            record_sets=self.record_sets,
        )


def simulate(annotated, machine, start=None, stop=None, workload=None,
             record_sets=False):
    """Functional entry point; see :class:`MLPSim`.

    Configurations inside the compiled kernel's envelope run there
    (one :func:`~repro.core.ckernel.run_plan` call over the region's
    memoised columnar plan); every other configuration, and every
    region longer than the kernel contract's ``n_max``, runs on
    :func:`simulate_scalar`.  The result is bit-identical either way.

    The annotated input is structurally validated (mask dtypes and
    lengths, ``vp_outcome`` codes, ``measure_start`` range) before the
    engine runs; a malformed annotation raises
    :class:`~repro.robustness.errors.TraceFormatError` instead of
    silently producing wrong MLP numbers.
    """
    from repro.core.batched import batched_supported
    from repro.core.ckernel import run_plan
    from repro.core.columnar import PLAN_CONTRACT, plan_for
    from repro.robustness.validate import validate_annotated

    validate_annotated(annotated, check_events=False)
    start, stop = resolve_region(annotated, start, stop)
    if (not batched_supported(machine, record_sets)
            or stop - start > PLAN_CONTRACT["n_max"]):
        return _simulate_scalar(
            annotated, machine, start, stop, workload, record_sets
        )
    plan = plan_for(annotated, machine, start, stop)
    name = workload or annotated.trace.name
    return run_plan(plan, [("_", machine)], name)["_"]


def simulate_scalar(annotated, machine, start=None, stop=None,
                    workload=None, record_sets=False):
    """:func:`simulate` on the Python engines, whatever the config.

    Runahead machines go to :func:`repro.core.runahead.simulate_runahead`,
    every other machine to the optimised out-of-order interpreter.
    Callers that promise the scalar engine (``sweep(engine="scalar")``,
    the supervisor's per-config tasks) call this directly.
    """
    from repro.robustness.validate import validate_annotated

    validate_annotated(annotated, check_events=False)
    return _simulate_scalar(
        annotated, machine, start, stop, workload, record_sets
    )


def _simulate_scalar(annotated, machine, start, stop, workload,
                     record_sets):
    if machine.runahead:
        from repro.core.runahead import simulate_runahead

        return simulate_runahead(
            annotated,
            machine,
            start=start,
            stop=stop,
            workload=workload,
            record_sets=record_sets,
        )
    return _simulate_ooo(annotated, machine, start, stop, workload, record_sets)


def resolve_region(annotated, start, stop):
    """Normalise a (start, stop) request against the measured region.

    Raises
    ------
    repro.robustness.errors.SimulationError
        If the requested region falls outside the trace.
    """
    from repro.robustness.errors import SimulationError

    if start is None:
        start = annotated.measure_start
    if stop is None:
        stop = len(annotated.trace)
    if not 0 <= start <= stop <= len(annotated.trace):
        raise SimulationError(
            f"invalid trace region [{start}, {stop}) for a trace of"
            f" {len(annotated.trace)} instructions"
        )
    return start, stop


def _event_arrays(annotated, machine, start, stop):
    """Per-instruction event masks as numpy bool arrays over the region.

    Applies the machine's perfect-* switches; shared by the list-based
    :func:`event_masks` (the engines' interpreter input) and the
    vectorised skip-index construction.
    """
    dmiss = np.asarray(annotated.dmiss[start:stop])
    imiss = np.asarray(annotated.imiss[start:stop])
    mispred = np.asarray(annotated.mispred[start:stop])
    pmiss = np.asarray(annotated.pmiss[start:stop])
    pfuseful = np.asarray(annotated.pfuseful[start:stop])
    if machine.perfect_ifetch:
        imiss = np.zeros_like(imiss)
    if machine.perfect_branch:
        mispred = np.zeros_like(mispred)
    if machine.perfect_value:
        vp_ok = dmiss.copy()
    elif machine.value_prediction:
        vp_ok = dmiss & (np.asarray(annotated.vp_outcome[start:stop]) == 0)
    else:
        vp_ok = np.zeros_like(dmiss)
    return dmiss, imiss, mispred, pmiss, pfuseful, vp_ok


def event_masks(annotated, machine, start, stop):
    """Per-instruction event lists under the machine's perfect-* switches.

    Returns ``(dmiss, imiss, mispred, pmiss, pfuseful, vp_ok)`` as plain
    Python lists over the region.
    """
    dmiss, imiss, mispred, pmiss, pfuseful, vp_ok = _event_arrays(
        annotated, machine, start, stop
    )
    return (
        dmiss.tolist(),
        imiss.tolist(),
        mispred.tolist(),
        pmiss.tolist(),
        pfuseful.tolist(),
        vp_ok.tolist(),
    )


def _interp_tables(annotated, machine, start, stop):
    """Flat interpreter input tables for a region, memoised.

    Returns ``(dmiss, imiss, mispred, pmiss, pfuseful, vp_ok, smiss,
    ops, interesting_pos)`` — plain Python lists (the fastest random
    access structure for the interpreter loops) plus the vectorised
    "next interesting instruction" index.  An instruction is *boring*
    when, scanned in a clean state (no deferrals, nothing in flight,
    no events this epoch), it is known to execute immediately as
    ``res_data = res_valid = epoch`` with no counter, trigger,
    blocking-flag or event side effects: hit loads/stores, ALU ops,
    and result-less ops (branches — even mispredicted ones resolve
    instantly when their sources are on chip — NOPs and on-chip
    prefetches).  A result-less op that nonetheless names a
    destination register is kept interesting so its (never-assigned)
    ``res_data`` slot behaves exactly as in the reference interpreter.

    The tables are cached on the annotated object (the dependence
    graph, which depends on the trace alone, is cached on the trace)
    because sweeps and repeated runs simulate the same region under
    many machine configurations; only the machine's perfect-*
    and value-prediction switches change their content.  Callers must
    not mutate the returned lists — the engine copies ``imiss``, the
    one table it services in place.
    """
    cache = getattr(annotated, "_interp_table_cache", None)
    if cache is None:
        cache = {}
        annotated._interp_table_cache = cache
    key = (
        start,
        stop,
        machine.perfect_ifetch,
        machine.perfect_branch,
        machine.perfect_value,
        machine.value_prediction,
    )
    tables = cache.get(key)
    if tables is not None:
        return tables

    trace = annotated.trace
    n = stop - start
    (dmiss_arr, imiss_arr, mispred_arr, pmiss_arr, pfuseful_arr,
     vp_ok_arr) = _event_arrays(annotated, machine, start, stop)
    smiss_arr = np.asarray(annotated.smiss[start:stop])
    ops_arr = trace.op[start:stop]

    serialize_ops = (
        (ops_arr == int(OpClass.CAS))
        | (ops_arr == int(OpClass.LDSTUB))
        | (ops_arr == int(OpClass.MEMBAR))
    )
    resultless_ops = (
        (ops_arr == int(OpClass.BRANCH))
        | (ops_arr == int(OpClass.NOP))
        | (ops_arr == int(OpClass.PREFETCH))
    )
    interesting = (
        dmiss_arr | imiss_arr | pmiss_arr | smiss_arr | serialize_ops
        | (resultless_ops & (trace.dst[start:stop] > REG_ZERO))
    )
    interesting_pos = np.flatnonzero(interesting).tolist()
    interesting_pos.append(n)  # sentinel: bulk skips clamp at region end

    tables = (
        dmiss_arr.tolist(),
        imiss_arr.tolist(),
        mispred_arr.tolist(),
        pmiss_arr.tolist(),
        pfuseful_arr.tolist(),
        vp_ok_arr.tolist(),
        smiss_arr.tolist(),
        ops_arr.tolist(),
        interesting_pos,
    )
    cache[key] = tables
    return tables


def _simulate_ooo(annotated, machine, start, stop, workload, record_sets):
    start, stop = resolve_region(annotated, start, stop)
    n = stop - start

    (dmiss, imiss, mispred, pmiss, pfuseful, vp_ok, smiss, ops,
     interesting_pos) = _interp_tables(annotated, machine, start, stop)
    imiss = imiss.copy()  # mutated as fetch misses are serviced

    graph = depgraph_for(annotated, start, stop)
    prod1 = graph.prod1
    prod2 = graph.prod2
    prod3 = graph.prod3
    memdep = graph.memdep

    ALU = int(OpClass.ALU)
    LOAD = int(OpClass.LOAD)
    STORE = int(OpClass.STORE)
    PREFETCH = int(OpClass.PREFETCH)
    CAS = int(OpClass.CAS)
    LDSTUB = int(OpClass.LDSTUB)
    MEMBAR = int(OpClass.MEMBAR)
    NOP = int(OpClass.NOP)
    BRANCH = int(OpClass.BRANCH)

    ip_idx = 0

    serializing = machine.issue.serialize_policy == SerializePolicy.SERIALIZING
    load_in_order = machine.issue.load_policy == LoadPolicy.IN_ORDER
    load_wait_staddr = machine.issue.load_policy == LoadPolicy.WAIT_STORE_ADDR
    branch_in_order = machine.issue.branch_policy == BranchPolicy.IN_ORDER
    iw_size = machine.issue_window
    rob_size = machine.rob
    fetch_buffer = machine.fetch_buffer
    mshr_cap = machine.max_outstanding or (1 << 30)
    sb_cap = machine.store_buffer if machine.store_buffer is not None else (1 << 30)
    slow_bp = machine.slow_branch_predictor
    slow_bp_threshold = int(machine.slow_bp_accuracy * 1024)

    # Per-instruction result availability, in epoch units.
    res_data = [NOT_EXECUTED] * n
    res_valid = [NOT_EXECUTED] * n

    deferred = []  # indices fetched but not executed, program order
    fetch_pos = 0
    epoch = 0

    epochs_recorded = 0
    total_accesses = 0
    dmiss_accesses = 0
    imiss_accesses = 0
    prefetch_accesses = 0
    store_accesses = 0
    store_epochs = 0
    inhibitors = InhibitorCounts()
    epoch_records = [] if record_sets else None

    # ---- per-epoch scan state ------------------------------------------
    # Rebound at the top of every epoch; the scan closures below are
    # created once per simulate() call (not per epoch) and reach these
    # through the enclosing scope.
    accesses = 0
    e_dmiss = 0
    e_imiss = 0
    e_pmiss = 0
    e_smiss = 0
    inflight = 0  # MSHR occupancy: useful + store + useless accesses
    trigger_idx = None
    trigger_kind = None
    first_miss_idx = None  # oldest ROB-holding data miss this epoch
    members = None
    blocked_memop = False  # an older load/store has not issued (policy A)
    blocked_staddr = False  # an older store's address is unresolved (B)
    blocked_branch = False  # an older branch has not issued (in-order)
    events = []  # inhibitors in scan (= program) order; first wins
    new_deferred = []
    progress = False

    def slow_bp_saves(i):
        """Does the slow unresolvable-branch predictor get this one right?

        Deterministic per dynamic instance, so runs are reproducible."""
        return slow_bp and ((i * 2654435761) >> 7) % 1024 < slow_bp_threshold

    def execute(i):
        """Attempt to execute instruction *i* in the current epoch.

        Returns ``"done"``, ``"defer"``, ``"stop-done"`` or
        ``"stop-defer"``; the stop variants terminate the scan.
        Dependence availability (the reference engine's ``deps``) is
        inlined into each opcode branch.
        """
        nonlocal accesses, e_dmiss, e_pmiss, e_smiss, inflight
        nonlocal trigger_idx, trigger_kind
        nonlocal blocked_memop, blocked_staddr, blocked_branch
        nonlocal first_miss_idx, progress

        op = ops[i]

        if op == ALU:
            de = 0
            ve = 0
            p = prod1[i]
            if p >= 0:
                de = res_data[p]
                ve = res_valid[p]
            p = prod2[i]
            if p >= 0:
                d = res_data[p]
                if d > de:
                    de = d
                v = res_valid[p]
                if v > ve:
                    ve = v
            if de > epoch:
                return "defer"
            progress = True
            res_data[i] = epoch
            res_valid[i] = ve if ve > epoch else epoch
            if members is not None:
                members.append(i)
            return "done"

        if op == BRANCH:
            de = 0
            ve = 0
            p = prod1[i]
            if p >= 0:
                de = res_data[p]
                ve = res_valid[p]
            p = prod2[i]
            if p >= 0:
                d = res_data[p]
                if d > de:
                    de = d
                v = res_valid[p]
                if v > ve:
                    ve = v
            can_issue = de <= epoch and not (branch_in_order and blocked_branch)
            if can_issue and mispred[i] and ve > epoch:
                # Condition computed from an unvalidated predicted
                # value: recovery must wait for the real data.
                can_issue = False
            if can_issue:
                progress = True
                if members is not None:
                    members.append(i)
                return "done"
            blocked_branch = True
            if mispred[i]:
                if slow_bp_saves(i):
                    # The slow second-level predictor (Section 3.2.4
                    # extension) redirects fetch correctly; the
                    # branch merely waits in the window.
                    return "defer"
                events.append(Inhibitor.MISPRED_BR)
                return "stop-defer"
            return "defer"

        if op == LOAD:
            de = 0
            ve = 0
            p = prod1[i]
            if p >= 0:
                de = res_data[p]
                ve = res_valid[p]
            p = prod2[i]
            if p >= 0:
                d = res_data[p]
                if d > de:
                    de = d
                v = res_valid[p]
                if v > ve:
                    ve = v
            m = memdep[i]
            if m >= 0:
                d = res_data[m]
                if d > de:
                    de = d
                v = res_valid[m]
                if v > ve:
                    ve = v
            if de > epoch:
                blocked_memop = True
                return "defer"
            if load_in_order and blocked_memop:
                if dmiss[i]:
                    events.append(Inhibitor.MISSING_LOAD)
                return "defer"
            if load_wait_staddr and blocked_staddr:
                if dmiss[i]:
                    events.append(Inhibitor.DEP_STORE)
                return "defer"
            if dmiss[i] and inflight >= mshr_cap:
                events.append(Inhibitor.MSHR_LIMIT)
                blocked_memop = True
                return "defer"
            progress = True
            if dmiss[i]:
                accesses += 1
                e_dmiss += 1
                inflight += 1
                if trigger_idx is None:
                    trigger_idx = i
                    trigger_kind = TriggerKind.DMISS
                if first_miss_idx is None:
                    first_miss_idx = i
                res_data[i] = epoch if vp_ok[i] else epoch + 1
                res_valid[i] = epoch + 1
            else:
                res_data[i] = epoch
                res_valid[i] = ve if ve > epoch else epoch
            if members is not None:
                members.append(i)
            return "done"

        if op == STORE:
            ade = 0
            ave = 0
            p = prod1[i]
            if p >= 0:
                ade = res_data[p]
                ave = res_valid[p]
            p = prod2[i]
            if p >= 0:
                d = res_data[p]
                if d > ade:
                    ade = d
                v = res_valid[p]
                if v > ave:
                    ave = v
            de = ade
            ve = ave
            p = prod3[i]
            if p >= 0:
                d = res_data[p]
                if d > de:
                    de = d
                v = res_valid[p]
                if v > ve:
                    ve = v
            if de > epoch:
                blocked_memop = True
                if ade > epoch:
                    blocked_staddr = True
                return "defer"
            if smiss[i]:
                if e_smiss >= sb_cap:
                    events.append(Inhibitor.STORE_BUFFER)
                    blocked_memop = True
                    return "defer"
                if inflight >= mshr_cap:
                    events.append(Inhibitor.MSHR_LIMIT)
                    blocked_memop = True
                    return "defer"
                e_smiss += 1
                inflight += 1
            progress = True
            res_data[i] = epoch
            res_valid[i] = ve if ve > epoch else epoch
            if members is not None:
                members.append(i)
            return "done"

        if op == PREFETCH:
            de = 0
            p = prod1[i]
            if p >= 0:
                de = res_data[p]
            p = prod2[i]
            if p >= 0:
                d = res_data[p]
                if d > de:
                    de = d
            if de > epoch:
                return "defer"
            if pmiss[i] and inflight >= mshr_cap:
                events.append(Inhibitor.MSHR_LIMIT)
                return "defer"
            progress = True
            if pmiss[i]:
                inflight += 1
            if pmiss[i] and pfuseful[i]:
                accesses += 1
                e_pmiss += 1
                if trigger_idx is None:
                    trigger_idx = i
                    trigger_kind = TriggerKind.PMISS
            if members is not None:
                members.append(i)
            return "done"

        if op == NOP:
            progress = True
            if members is not None:
                members.append(i)
            return "done"

        # Serializing instructions: CAS / LDSTUB / MEMBAR.
        de = 0
        ve = 0
        p = prod1[i]
        if p >= 0:
            de = res_data[p]
            ve = res_valid[p]
        p = prod2[i]
        if p >= 0:
            d = res_data[p]
            if d > de:
                de = d
            v = res_valid[p]
            if v > ve:
                ve = v
        p = prod3[i]
        if p >= 0:
            d = res_data[p]
            if d > de:
                de = d
            v = res_valid[p]
            if v > ve:
                ve = v
        if op != MEMBAR:
            m = memdep[i]
            if m >= 0:
                d = res_data[m]
                if d > de:
                    de = d
                v = res_valid[m]
                if v > ve:
                    ve = v

        if serializing:
            outstanding = bool(new_deferred) or trigger_idx is not None
            if outstanding or de > epoch:
                events.append(Inhibitor.SERIALIZE)
                if op == MEMBAR:
                    # The barrier commits with the drain at epoch end.
                    progress = True
                    res_data[i] = epoch + 1
                    res_valid[i] = epoch + 1
                    if members is not None:
                        members.append(i)
                    return "stop-done"
                blocked_memop = True
                return "stop-defer"
            # Pipeline already drained: the instruction issues now.
            progress = True
            if op == MEMBAR:
                res_data[i] = epoch
                res_valid[i] = epoch
                if members is not None:
                    members.append(i)
                return "done"
            return execute_atomic(i, ve)

        # Non-serializing policy (config E): atomics behave like an
        # ordinary load+store pair, barriers like NOPs.
        if op == MEMBAR:
            progress = True
            res_data[i] = epoch
            res_valid[i] = epoch
            if members is not None:
                members.append(i)
            return "done"
        if de > epoch:
            blocked_memop = True
            return "defer"
        progress = True
        return execute_atomic(i, ve)

    def execute_atomic(i, ve):
        """Issue an executing CAS/LDSTUB (register + memory results)."""
        nonlocal accesses, e_dmiss, trigger_idx, trigger_kind
        nonlocal first_miss_idx, inflight
        if dmiss[i]:
            accesses += 1
            e_dmiss += 1
            inflight += 1
            if trigger_idx is None:
                trigger_idx = i
                trigger_kind = TriggerKind.DMISS
            if first_miss_idx is None:
                first_miss_idx = i
            res_data[i] = epoch + 1
            res_valid[i] = epoch + 1
        else:
            res_data[i] = epoch
            res_valid[i] = ve if ve > epoch else epoch
        if members is not None:
            members.append(i)
        if serializing and dmiss[i]:
            # An atomic that leaves the chip holds younger
            # instructions at the drain until it completes.
            events.append(Inhibitor.SERIALIZE)
            return "stop-done"
        return "done"

    while fetch_pos < n or deferred:
        epoch += 1
        accesses = 0
        e_dmiss = 0
        e_imiss = 0
        e_pmiss = 0
        e_smiss = 0
        inflight = 0
        trigger_idx = None
        trigger_kind = None
        first_miss_idx = None
        members = [] if record_sets else None

        blocked_memop = False
        blocked_staddr = False
        blocked_branch = False
        events = []
        new_deferred = []
        progress = False

        # ---- phase 1: deferred instructions, in program order --------------
        stop_scan = False
        fetch_stop = None  # None / "hard" / "soft" ("soft" allows buffering)
        for di in range(len(deferred)):
            i = deferred[di]
            # Inline ALU fast path (mirrors the ALU branch of execute()):
            # dependence chains keep plain ALU ops in the deferred set
            # for many epochs, so this is the hot case of the scan.
            if ops[i] == ALU:
                de = 0
                ve = 0
                p = prod1[i]
                if p >= 0:
                    de = res_data[p]
                    ve = res_valid[p]
                p = prod2[i]
                if p >= 0:
                    d = res_data[p]
                    if d > de:
                        de = d
                    v = res_valid[p]
                    if v > ve:
                        ve = v
                if de <= epoch:
                    progress = True
                    res_data[i] = epoch
                    res_valid[i] = ve if ve > epoch else epoch
                    if members is not None:
                        members.append(i)
                else:
                    new_deferred.append(i)
                continue
            status = execute(i)
            if status == "defer":
                new_deferred.append(i)
            elif status == "stop-defer":
                new_deferred.append(i)
                stop_scan = True
            elif status == "stop-done":
                stop_scan = True
            if stop_scan:
                new_deferred.extend(deferred[di + 1 :])
                # A dispatch-side stop (serializing drain) lets fetch run
                # on into the fetch buffer exactly as when the same stop
                # is reached from the fetch stream in phase 2; only a
                # mispredicted-branch stop freezes fetch itself.
                last_event = events[-1] if events else None
                if status == "stop-done" or last_event is Inhibitor.SERIALIZE:
                    fetch_stop = "soft"
                break

        # ---- phase 2a: bulk-skip on-chip stretches in a clean state --------
        # While nothing is deferred, nothing is in flight and no event
        # has been recorded, every instruction up to the next
        # interesting position executes immediately (its producers all
        # completed in earlier epochs) and the window constraints
        # cannot bind.  Skip those stretches with slice assignment and
        # interpret only the interesting instruction; cleanliness is
        # monotone within an epoch, so once the condition fails it
        # stays failed and the interpreter loop below takes over.
        if not stop_scan:
            while fetch_pos < n and not (
                new_deferred
                or events
                or inflight
                or e_smiss
                or trigger_idx is not None
                or first_miss_idx is not None
                or blocked_memop
                or blocked_staddr
                or blocked_branch
            ):
                while interesting_pos[ip_idx] < fetch_pos:
                    ip_idx += 1
                nxt = interesting_pos[ip_idx]
                if nxt > fetch_pos:
                    filler = [epoch] * (nxt - fetch_pos)
                    res_data[fetch_pos:nxt] = filler
                    res_valid[fetch_pos:nxt] = filler
                    if members is not None:
                        members.extend(range(fetch_pos, nxt))
                    progress = True
                    fetch_pos = nxt
                    if fetch_pos >= n:
                        break
                i = fetch_pos
                if imiss[i]:
                    break  # the interpreter loop below services it
                status = execute(i)
                fetch_pos += 1
                if status == "defer":
                    new_deferred.append(i)
                elif status == "stop-defer":
                    new_deferred.append(i)
                    last_event = events[-1] if events else None
                    fetch_stop = (
                        "soft" if last_event is Inhibitor.SERIALIZE else "hard"
                    )
                    break
                elif status == "stop-done":
                    fetch_stop = "soft"
                    break

        # ---- phase 2b: fetch, one instruction at a time --------------------
        # The common opcodes (ALU, BRANCH, LOAD) are executed inline to
        # avoid a function call per instruction; each inline block
        # mirrors the corresponding branch of execute() exactly, and
        # the equivalence suite holds them to the reference engine
        # bit for bit.  nd_len shadows len(new_deferred).
        if not stop_scan and fetch_stop is None:
            nd_len = len(new_deferred)
            while fetch_pos < n:
                # Window constraints bind whenever older work is
                # uncompleted (a deferral or an outstanding data miss).
                oldest = new_deferred[0] if nd_len else None
                if first_miss_idx is not None and (
                    oldest is None or first_miss_idx < oldest
                ):
                    oldest = first_miss_idx
                if oldest is not None and fetch_pos - oldest >= rob_size:
                    events.append(Inhibitor.MAXWIN)
                    fetch_stop = "soft"
                    break
                if nd_len >= iw_size:
                    events.append(Inhibitor.MAXWIN)
                    fetch_stop = "soft"
                    break

                i = fetch_pos
                if imiss[i]:
                    if inflight >= mshr_cap:
                        events.append(Inhibitor.MSHR_LIMIT)
                        fetch_stop = "hard"
                        break
                    accesses += 1
                    e_imiss += 1
                    inflight += 1
                    imiss[i] = False  # the line arrives; do not recount
                    if trigger_idx is None:
                        trigger_idx = i
                        trigger_kind = TriggerKind.IMISS
                        events.append(Inhibitor.IMISS_START)
                    else:
                        events.append(Inhibitor.IMISS_END)
                    new_deferred.append(i)
                    fetch_pos += 1
                    progress = True
                    fetch_stop = "hard"
                    break

                op = ops[i]

                if op == ALU:
                    de = 0
                    ve = 0
                    p = prod1[i]
                    if p >= 0:
                        de = res_data[p]
                        ve = res_valid[p]
                    p = prod2[i]
                    if p >= 0:
                        d = res_data[p]
                        if d > de:
                            de = d
                        v = res_valid[p]
                        if v > ve:
                            ve = v
                    fetch_pos += 1
                    if de <= epoch:
                        progress = True
                        res_data[i] = epoch
                        res_valid[i] = ve if ve > epoch else epoch
                        if members is not None:
                            members.append(i)
                    else:
                        new_deferred.append(i)
                        nd_len += 1
                    continue

                if op == BRANCH:
                    de = 0
                    ve = 0
                    p = prod1[i]
                    if p >= 0:
                        de = res_data[p]
                        ve = res_valid[p]
                    p = prod2[i]
                    if p >= 0:
                        d = res_data[p]
                        if d > de:
                            de = d
                        v = res_valid[p]
                        if v > ve:
                            ve = v
                    can_issue = de <= epoch and not (
                        branch_in_order and blocked_branch
                    )
                    if can_issue and mispred[i] and ve > epoch:
                        can_issue = False
                    fetch_pos += 1
                    if can_issue:
                        progress = True
                        if members is not None:
                            members.append(i)
                        continue
                    blocked_branch = True
                    new_deferred.append(i)
                    nd_len += 1
                    if mispred[i]:
                        if slow_bp_saves(i):
                            continue
                        events.append(Inhibitor.MISPRED_BR)
                        fetch_stop = "hard"
                        break
                    continue

                if op == LOAD:
                    de = 0
                    ve = 0
                    p = prod1[i]
                    if p >= 0:
                        de = res_data[p]
                        ve = res_valid[p]
                    p = prod2[i]
                    if p >= 0:
                        d = res_data[p]
                        if d > de:
                            de = d
                        v = res_valid[p]
                        if v > ve:
                            ve = v
                    p = memdep[i]
                    if p >= 0:
                        d = res_data[p]
                        if d > de:
                            de = d
                        v = res_valid[p]
                        if v > ve:
                            ve = v
                    fetch_pos += 1
                    if de > epoch:
                        blocked_memop = True
                        new_deferred.append(i)
                        nd_len += 1
                        continue
                    if load_in_order and blocked_memop:
                        if dmiss[i]:
                            events.append(Inhibitor.MISSING_LOAD)
                        new_deferred.append(i)
                        nd_len += 1
                        continue
                    if load_wait_staddr and blocked_staddr:
                        if dmiss[i]:
                            events.append(Inhibitor.DEP_STORE)
                        new_deferred.append(i)
                        nd_len += 1
                        continue
                    if dmiss[i]:
                        if inflight >= mshr_cap:
                            events.append(Inhibitor.MSHR_LIMIT)
                            blocked_memop = True
                            new_deferred.append(i)
                            nd_len += 1
                            continue
                        progress = True
                        accesses += 1
                        e_dmiss += 1
                        inflight += 1
                        if trigger_idx is None:
                            trigger_idx = i
                            trigger_kind = TriggerKind.DMISS
                        if first_miss_idx is None:
                            first_miss_idx = i
                        res_data[i] = epoch if vp_ok[i] else epoch + 1
                        res_valid[i] = epoch + 1
                    else:
                        progress = True
                        res_data[i] = epoch
                        res_valid[i] = ve if ve > epoch else epoch
                    if members is not None:
                        members.append(i)
                    continue

                status = execute(i)
                fetch_pos += 1
                if status == "defer":
                    new_deferred.append(i)
                    nd_len += 1
                elif status == "stop-defer":
                    new_deferred.append(i)
                    last_event = events[-1] if events else None
                    fetch_stop = (
                        "soft" if last_event is Inhibitor.SERIALIZE else "hard"
                    )
                    break
                elif status == "stop-done":
                    fetch_stop = "soft"
                    break

        # ---- phase 3: fetch-buffer run-on past a dispatch-side stall --------
        if fetch_stop == "soft":
            buffered = 0
            while fetch_pos < n and buffered < fetch_buffer:
                i = fetch_pos
                if imiss[i]:
                    if inflight >= mshr_cap:
                        break
                    accesses += 1
                    e_imiss += 1
                    inflight += 1
                    imiss[i] = False
                    events.append(Inhibitor.IMISS_END)
                    new_deferred.append(i)
                    fetch_pos += 1
                    progress = True
                    break
                new_deferred.append(i)
                fetch_pos += 1
                buffered += 1
                if mispred[i]:
                    # Fetch past an (unexecuted) mispredicted branch is
                    # on the wrong path: nothing beyond it may be
                    # buffered or counted.
                    break

        deferred = new_deferred

        store_accesses += e_smiss
        if e_smiss:
            store_epochs += 1

        if accesses == 0 and e_smiss:
            # A store-only epoch: off-chip store traffic with no useful
            # (MLP-countable) access.  Record it for store-MLP purposes
            # but not as an MLP epoch.
            continue
        if accesses == 0:
            if not progress:
                where = deferred[0] + start if deferred else fetch_pos + start
                raise InternalError(
                    f"MLPsim made no progress in an epoch at instruction {where}"
                )
            continue  # pure on-chip stretch: not an epoch

        epochs_recorded += 1
        total_accesses += accesses
        dmiss_accesses += e_dmiss
        imiss_accesses += e_imiss
        prefetch_accesses += e_pmiss

        inhibitor = events[0] if events else Inhibitor.END_OF_TRACE
        inhibitors.record(inhibitor)

        if record_sets:
            epoch_records.append(
                Epoch(
                    index=epochs_recorded - 1,
                    trigger=trigger_idx + start,
                    trigger_kind=trigger_kind,
                    accesses=accesses,
                    inhibitor=inhibitor,
                    members=[m + start for m in members],
                )
            )

    return MLPResult(
        workload=workload or annotated.trace.name,
        machine_label=machine.label,
        instructions=n,
        accesses=total_accesses,
        epochs=epochs_recorded,
        dmiss_accesses=dmiss_accesses,
        imiss_accesses=imiss_accesses,
        prefetch_accesses=prefetch_accesses,
        store_accesses=store_accesses,
        store_epochs=store_epochs,
        inhibitors=inhibitors,
        epoch_records=epoch_records,
    )
