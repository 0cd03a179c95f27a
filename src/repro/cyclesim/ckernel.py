"""Compiled cyclesim kernel: build, load and drive ``_cyclesim_kernel.c``.

The cycle simulator's fast tier is a C implementation of the pipeline
model of :mod:`repro.cyclesim.simulator_reference` (with a completion
event-wheel and memoised wakeups in place of the reference's heap and
producer walks), compiled on demand with the system C compiler and
loaded through :mod:`ctypes` — the same zero-dependency
build protocol as the MLPsim kernel (:mod:`repro.core.ckernel`): the
object is keyed on the SHA-1 of the source, written atomically so
concurrent sweep workers race benignly, and ``REPRO_KERNEL_DIR``
overrides the build directory (empty string disables the kernel —
tests and CI use this to run as a host without a C compiler would).

One :func:`run_cycle_plan` call simulates **many pipeline
configurations against one shared cycle plan**: the per-instruction
tables cross the ctypes boundary once and the per-config cost is a
compiled pipeline walk, which is what makes the Table 3 grid (27
configs per workload) cheap.

Everything is fail-soft: a missing compiler or unwritable build
directory marks the kernel unavailable (:func:`kernel_available`
returns ``False``) and :func:`repro.cyclesim.simulator.run_cyclesim`
runs the frozen reference simulator instead.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.core.config import BranchPolicy, LoadPolicy, SerializePolicy
from repro.cyclesim.metrics import STALL_CATEGORIES, CycleMetrics
from repro.cyclesim.plan import validate_cycle_plan_contract
from repro.isa.opclass import OpClass
from repro.robustness.errors import InternalError

#: Opcode values the C source was written against.  Verified against
#: :class:`repro.isa.opclass.OpClass` before the kernel is ever used.
_EXPECTED_OPS = {
    "ALU": 0, "LOAD": 1, "STORE": 2, "BRANCH": 3, "PREFETCH": 4,
    "CAS": 5, "LDSTUB": 6, "MEMBAR": 7, "NOP": 8,
}

#: Per-config status codes of the C kernel (``ST_*`` defines).
_ST_OK = 0
_ST_DEADLOCK = 1

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_cyclesim_kernel.c")


class _KernelConfig(ctypes.Structure):
    _fields_ = [
        ("rob", ctypes.c_int64),
        ("issue_window", ctypes.c_int64),
        ("fetch_buffer", ctypes.c_int64),
        ("fetch_width", ctypes.c_int64),
        ("dispatch_width", ctypes.c_int64),
        ("issue_width", ctypes.c_int64),
        ("commit_width", ctypes.c_int64),
        ("frontend_depth", ctypes.c_int64),
        ("alu_latency", ctypes.c_int64),
        ("branch_latency", ctypes.c_int64),
        ("l1_latency", ctypes.c_int64),
        ("l2_latency", ctypes.c_int64),
        ("miss_penalty", ctypes.c_int64),
        ("redirect_penalty", ctypes.c_int64),
        ("load_in_order", ctypes.c_int64),
        ("load_wait_staddr", ctypes.c_int64),
        ("branch_in_order", ctypes.c_int64),
        ("serializing", ctypes.c_int64),
        ("perfect_l2", ctypes.c_int64),
        ("event_skip", ctypes.c_int64),
    ]


class _KernelResult(ctypes.Structure):
    _fields_ = [
        ("cycles", ctypes.c_int64),
        ("offchip_accesses", ctypes.c_int64),
        ("dmiss_accesses", ctypes.c_int64),
        ("imiss_accesses", ctypes.c_int64),
        ("prefetch_accesses", ctypes.c_int64),
        ("nonzero_cycles", ctypes.c_int64),
        ("outstanding_integral", ctypes.c_int64),
        ("stalls", ctypes.c_int64 * len(STALL_CATEGORIES)),
        ("status", ctypes.c_int64),
        ("error_cycle", ctypes.c_int64),
        ("error_committed", ctypes.c_int64),
    ]


_kernel = None
_kernel_error = None
_probed = False


def _build_dir():
    """First writable directory for the compiled object, or ``None``.

    ``REPRO_KERNEL_DIR`` overrides; setting it to an empty string
    disables the compiled kernel entirely (tests and CI use this to
    run as a host without a C compiler would).
    """
    override = os.environ.get("REPRO_KERNEL_DIR")
    if override is not None:
        return override if override.strip() else None
    candidates = [
        os.path.join(os.path.dirname(_SOURCE_PATH), "_build"),
        os.path.join(tempfile.gettempdir(), "repro-kernel"),
    ]
    for candidate in candidates:
        try:
            os.makedirs(candidate, exist_ok=True)
            probe = os.path.join(candidate, f".probe-{os.getpid()}")
            with open(probe, "w"):  # reprolint: disable=atomic-writes
                pass  # an empty writability probe, not a data write
            os.unlink(probe)
            return candidate
        except OSError:
            continue
    return None


def _compiler():
    return os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")


def _verify_constants():
    """The C source hard-codes enum values; refuse to load on any skew."""
    for name, value in _EXPECTED_OPS.items():
        if int(OpClass[name]) != value:
            raise InternalError(
                f"OpClass.{name} = {int(OpClass[name])} but the compiled"
                f" kernel was written for {value};"
                " rebuild _cyclesim_kernel.c"
            )


def _load_kernel():
    """Compile (if needed) and bind the kernel; raises on any failure."""
    _verify_constants()
    cc = _compiler()
    if cc is None:
        raise InternalError("no C compiler found (set CC or install cc)")
    directory = _build_dir()
    if directory is None:
        raise InternalError("no writable directory for the kernel object")
    with open(_SOURCE_PATH, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha1(source).hexdigest()[:16]
    so_path = os.path.join(directory, f"_cyclesim_kernel-{digest}.so")
    if not os.path.exists(so_path):
        tmp_path = os.path.join(
            directory, f".{os.getpid()}-{digest}.so.tmp"
        )
        try:
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", tmp_path,
                 _SOURCE_PATH],
                check=True,
                capture_output=True,
                text=True,
            )
            os.replace(tmp_path, so_path)  # atomic: workers race benignly
        except subprocess.CalledProcessError as error:
            raise InternalError(
                f"kernel compilation failed: {error.stderr}"
            ) from error
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
    lib = ctypes.CDLL(so_path)
    fn = lib.cyclesim_batch
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int64,                       # n
        ctypes.c_void_p,                      # ops
        ctypes.c_void_p, ctypes.c_void_p,     # prod1, prod2
        ctypes.c_void_p, ctypes.c_void_p,     # prod3, memdep
        ctypes.c_void_p, ctypes.c_void_p,     # addr_line, pc_line
        ctypes.c_void_p, ctypes.c_void_p,     # dmiss, imiss
        ctypes.c_void_p, ctypes.c_void_p,     # mispred, pmiss
        ctypes.c_void_p,                      # pfuseful
        ctypes.POINTER(_KernelConfig),
        ctypes.c_int64,
        ctypes.POINTER(_KernelResult),
    ]
    return fn


def kernel_available():
    """Can the compiled cyclesim kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    global _kernel, _kernel_error, _probed
    if not _probed:
        _probed = True
        try:
            _kernel = _load_kernel()
        except Exception as error:  # fail-soft: the reference takes over
            _kernel = None
            _kernel_error = error
    return _kernel is not None


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    kernel_available()
    return _kernel_error


def _config_struct(config):
    issue = config.issue
    return _KernelConfig(
        rob=config.rob,
        issue_window=config.issue_window,
        fetch_buffer=config.fetch_buffer,
        fetch_width=config.fetch_width,
        dispatch_width=config.dispatch_width,
        issue_width=config.issue_width,
        commit_width=config.commit_width,
        frontend_depth=config.frontend_depth,
        alu_latency=config.alu_latency,
        branch_latency=config.branch_latency,
        l1_latency=config.l1_latency,
        l2_latency=config.l2_latency,
        miss_penalty=config.miss_penalty,
        redirect_penalty=config.redirect_penalty,
        load_in_order=issue.load_policy == LoadPolicy.IN_ORDER,
        load_wait_staddr=issue.load_policy == LoadPolicy.WAIT_STORE_ADDR,
        branch_in_order=issue.branch_policy == BranchPolicy.IN_ORDER,
        serializing=issue.serialize_policy == SerializePolicy.SERIALIZING,
        perfect_l2=config.perfect_l2,
        event_skip=config.event_skip,
    )


def _column(array, dtype):
    """The column as a C-contiguous array of *dtype* without copying
    when the layout already matches (bool columns reinterpret as u8)."""
    if array.dtype == np.bool_ and dtype == np.uint8:
        array = array.view(np.uint8)
    return np.ascontiguousarray(array, dtype=dtype)


def run_cycle_plan(plan, pairs, workload):
    """Simulate every ``(label, config)`` pair against *plan* in C.

    One kernel call covers the whole batch: the columns are shared,
    the per-config scratch buffers are reused inside the kernel.
    Returns ``{label: CycleMetrics}`` in input order, bit-identical to
    the frozen reference simulator.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first) or a config deadlocked — the
        same condition, same message, as the reference simulator.
    """
    if not kernel_available():
        raise InternalError(
            f"compiled cyclesim kernel unavailable: {_kernel_error}"
        )
    pairs = list(pairs)
    n = len(plan)

    ops = _column(plan.ops, np.int8)
    prod1 = _column(plan.prod1, np.int32)
    prod2 = _column(plan.prod2, np.int32)
    prod3 = _column(plan.prod3, np.int32)
    memdep = _column(plan.memdep, np.int32)
    addr_line = _column(plan.addr_line, np.int64)
    pc_line = _column(plan.pc_line, np.int64)
    dmiss = _column(plan.dmiss, np.uint8)
    imiss = _column(plan.imiss, np.uint8)
    mispred = _column(plan.mispred, np.uint8)
    pmiss = _column(plan.pmiss, np.uint8)
    pfuseful = _column(plan.pfuseful, np.uint8)

    configs = (_KernelConfig * len(pairs))(
        *[_config_struct(config) for _, config in pairs]
    )
    results = (_KernelResult * len(pairs))()

    # The kernel's bounds/overflow certification assumes exactly the
    # CYCLE_PLAN_CONTRACT ranges; refuse to call it with anything
    # outside them (the plan-contract lint pass proves this call
    # dominates the kernel invocation).
    validate_cycle_plan_contract(plan, configs)

    status = _kernel(
        n,
        ops.ctypes.data, prod1.ctypes.data, prod2.ctypes.data,
        prod3.ctypes.data, memdep.ctypes.data,
        addr_line.ctypes.data, pc_line.ctypes.data,
        dmiss.ctypes.data, imiss.ctypes.data, mispred.ctypes.data,
        pmiss.ctypes.data, pfuseful.ctypes.data,
        configs, len(pairs), results,
    )
    if status != 0:
        raise InternalError("compiled cyclesim kernel ran out of memory")

    out = {}
    for (label, config), raw in zip(pairs, results):
        if raw.status == _ST_DEADLOCK:
            raise InternalError(
                f"cycle simulator deadlocked at cycle {raw.error_cycle}"
                f" (committed {raw.error_committed}/{n})"
            )
        metrics = CycleMetrics(
            workload=workload,
            label=f"{config.issue_window}{config.issue.name}"
            + ("/perfL2" if config.perfect_l2 else ""),
            instructions=n,
            cycles=raw.cycles,
            offchip_accesses=raw.offchip_accesses,
            dmiss_accesses=raw.dmiss_accesses,
            imiss_accesses=raw.imiss_accesses,
            prefetch_accesses=raw.prefetch_accesses,
            nonzero_cycles=raw.nonzero_cycles,
            outstanding_integral=raw.outstanding_integral,
        )
        metrics.stall_cycles.update(zip(STALL_CATEGORIES, raw.stalls))
        out[label] = metrics
    return out
