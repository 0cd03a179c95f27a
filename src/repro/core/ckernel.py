"""Compiled MLPsim kernel: build, load and drive ``_mlpsim_kernel.c``.

The batched engine's hot path is a C translation of the Python epoch
scan (see ``_mlpsim_kernel.c``), compiled on demand with the system C
compiler and loaded through :mod:`ctypes` — no third-party build
dependency.  One :func:`run_plan` call simulates **many machine
configurations against one shared columnar plan**, which is what makes
full-grid sweeps cheap: the trace columns are prepared once and the
per-config cost collapses to a few milliseconds of compiled scanning.

Everything here is fail-soft: a missing compiler, an unwritable build
directory or a failed compilation simply mark the kernel unavailable
(:func:`kernel_available` returns ``False``) and the batched entry
points run the scalar engine (:mod:`repro.core.mlpsim`) instead.  The
build is atomic (temp file + ``os.replace``) and keyed on the SHA-1 of
the C source, so concurrent sweep workers race benignly and edits to
the source trigger a rebuild instead of loading a stale object.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.core.columnar import validate_plan_contract
from repro.core.results import MLPResult
from repro.core.termination import Inhibitor, InhibitorCounts
from repro.isa.opclass import OpClass
from repro.robustness.errors import InternalError

#: Inhibitor indices of the C kernel, in order.  Must match the INH_*
#: defines in ``_mlpsim_kernel.c``.
INHIBITOR_ORDER = (
    Inhibitor.IMISS_START,
    Inhibitor.MAXWIN,
    Inhibitor.MISPRED_BR,
    Inhibitor.IMISS_END,
    Inhibitor.MISSING_LOAD,
    Inhibitor.DEP_STORE,
    Inhibitor.SERIALIZE,
    Inhibitor.RUNAHEAD_LIMIT,
    Inhibitor.MSHR_LIMIT,
    Inhibitor.STORE_BUFFER,
    Inhibitor.END_OF_TRACE,
)

#: Opcode values the C source was written against.  Verified against
#: :class:`repro.isa.opclass.OpClass` before the kernel is ever used.
_EXPECTED_OPS = {
    "ALU": 0, "LOAD": 1, "STORE": 2, "BRANCH": 3, "PREFETCH": 4,
    "CAS": 5, "LDSTUB": 6, "MEMBAR": 7, "NOP": 8,
}

#: ``execute()`` status codes of the C kernel, keyed by the ``ST_*``
#: suffix.  The Python engines speak strings ("done", "defer",
#: "stop-done", "stop-defer"); the C scan encodes the same four
#: outcomes as these integers, and the ``kernel-constants`` lint pass
#: holds the ``ST_*`` defines in ``_mlpsim_kernel.c`` to this table.
_EXPECTED_STATUSES = {
    "DONE": 0, "DEFER": 1, "STOP_DONE": 2, "STOP_DEFER": 3,
}

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_mlpsim_kernel.c")

_UNBOUNDED = 1 << 30


class _KernelConfig(ctypes.Structure):
    _fields_ = [
        ("rob", ctypes.c_int64),
        ("iw", ctypes.c_int64),
        ("fetch_buffer", ctypes.c_int64),
        ("serializing", ctypes.c_int64),
        ("load_in_order", ctypes.c_int64),
        ("load_wait_staddr", ctypes.c_int64),
        ("branch_in_order", ctypes.c_int64),
        ("mshr_cap", ctypes.c_int64),
        ("sb_cap", ctypes.c_int64),
        ("slow_bp", ctypes.c_int64),
        ("slow_bp_threshold", ctypes.c_int64),
    ]


class _KernelResult(ctypes.Structure):
    _fields_ = [
        ("epochs", ctypes.c_int64),
        ("accesses", ctypes.c_int64),
        ("dmiss_accesses", ctypes.c_int64),
        ("imiss_accesses", ctypes.c_int64),
        ("prefetch_accesses", ctypes.c_int64),
        ("store_accesses", ctypes.c_int64),
        ("store_epochs", ctypes.c_int64),
        ("inhibitors", ctypes.c_int64 * len(INHIBITOR_ORDER)),
        ("error_index", ctypes.c_int64),
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
                f" kernel was written for {value}; rebuild _mlpsim_kernel.c"
            )
    if len(INHIBITOR_ORDER) != len(Inhibitor):
        raise InternalError(
            "Inhibitor enum and the compiled kernel's INH_* table"
            " disagree; update _mlpsim_kernel.c and INHIBITOR_ORDER"
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
    so_path = os.path.join(directory, f"_mlpsim_kernel-{digest}.so")
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
    fn = lib.mlpsim_batch
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int64,                       # n
        ctypes.c_void_p,                      # ops
        ctypes.c_void_p, ctypes.c_void_p,     # prod1, prod2
        ctypes.c_void_p, ctypes.c_void_p,     # prod3, memdep
        ctypes.c_void_p, ctypes.c_void_p,     # dmiss, imiss
        ctypes.c_void_p, ctypes.c_void_p,     # mispred, pmiss
        ctypes.c_void_p, ctypes.c_void_p,     # pfuseful, vp_ok
        ctypes.c_void_p, ctypes.c_void_p,     # smiss, scalar_mask
        ctypes.POINTER(_KernelConfig),
        ctypes.c_int64,
        ctypes.POINTER(_KernelResult),
    ]
    return fn


def kernel_available():
    """Can the compiled kernel be used in this process?

    The first call probes (compiling if necessary); the outcome is
    cached for the life of the process either way.
    """
    global _kernel, _kernel_error, _probed
    if not _probed:
        _probed = True
        try:
            _kernel = _load_kernel()
        except Exception as error:  # fail-soft: scalar engine takes over
            _kernel = None
            _kernel_error = error
    return _kernel is not None


def kernel_error():
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    kernel_available()
    return _kernel_error


def _config_struct(machine):
    from repro.core.config import (
        BranchPolicy,
        LoadPolicy,
        SerializePolicy,
    )

    issue = machine.issue
    return _KernelConfig(
        rob=machine.rob,
        iw=machine.issue_window,
        fetch_buffer=machine.fetch_buffer,
        serializing=issue.serialize_policy == SerializePolicy.SERIALIZING,
        load_in_order=issue.load_policy == LoadPolicy.IN_ORDER,
        load_wait_staddr=issue.load_policy == LoadPolicy.WAIT_STORE_ADDR,
        branch_in_order=issue.branch_policy == BranchPolicy.IN_ORDER,
        mshr_cap=machine.max_outstanding or _UNBOUNDED,
        sb_cap=(machine.store_buffer
                if machine.store_buffer is not None else _UNBOUNDED),
        slow_bp=machine.slow_branch_predictor,
        slow_bp_threshold=int(machine.slow_bp_accuracy * 1024),
    )


def _column(array, dtype):
    """The column as a C-contiguous array of *dtype* without copying
    when the layout already matches (bool columns reinterpret as u8)."""
    if array.dtype == np.bool_ and dtype == np.uint8:
        array = array.view(np.uint8)
    return np.ascontiguousarray(array, dtype=dtype)


def run_plan(plan, machines, workload):
    """Simulate every ``(label, machine)`` pair against *plan* in C.

    One kernel call covers the whole batch: the columns are shared,
    the per-config scratch buffers are reused inside the kernel.
    Returns ``{label: MLPResult}`` in input order.

    Raises
    ------
    repro.robustness.errors.InternalError
        If the kernel is unavailable (callers must check
        :func:`kernel_available` first) or a config made no progress —
        the same condition, same message, as the scalar engine.
    """
    if not kernel_available():
        raise InternalError(
            f"compiled MLPsim kernel unavailable: {_kernel_error}"
        )
    pairs = list(machines)
    n = len(plan)

    ops = _column(plan.ops, np.int8)
    prod1 = _column(plan.prod1, np.int32)
    prod2 = _column(plan.prod2, np.int32)
    prod3 = _column(plan.prod3, np.int32)
    memdep = _column(plan.memdep, np.int32)
    dmiss = _column(plan.dmiss, np.uint8)
    imiss = _column(plan.imiss, np.uint8)
    mispred = _column(plan.mispred, np.uint8)
    pmiss = _column(plan.pmiss, np.uint8)
    pfuseful = _column(plan.pfuseful, np.uint8)
    vp_ok = _column(plan.vp_ok, np.uint8)
    smiss = _column(plan.smiss, np.uint8)
    scalar_mask = _column(plan.scalar_mask, np.uint8)

    configs = (_KernelConfig * len(pairs))(
        *[_config_struct(machine) for _, machine in pairs]
    )
    results = (_KernelResult * len(pairs))()

    # The kernel's bounds/overflow certification assumes exactly the
    # PLAN_CONTRACT ranges; refuse to call it with anything outside
    # them (the plan-contract lint pass proves this call dominates the
    # kernel invocation).
    validate_plan_contract(plan, configs)

    status = _kernel(
        n,
        ops.ctypes.data, prod1.ctypes.data, prod2.ctypes.data,
        prod3.ctypes.data, memdep.ctypes.data,
        dmiss.ctypes.data, imiss.ctypes.data, mispred.ctypes.data,
        pmiss.ctypes.data, pfuseful.ctypes.data, vp_ok.ctypes.data,
        smiss.ctypes.data, scalar_mask.ctypes.data,
        configs, len(pairs), results,
    )
    if status != 0:
        raise InternalError("compiled MLPsim kernel ran out of memory")

    out = {}
    for (label, machine), raw in zip(pairs, results):
        if raw.error_index >= 0:
            raise InternalError(
                "MLPsim made no progress in an epoch at instruction"
                f" {raw.error_index + plan.start}"
            )
        counts = InhibitorCounts.from_dict(
            dict(zip(INHIBITOR_ORDER, raw.inhibitors))
        )
        out[label] = MLPResult(
            workload=workload,
            machine_label=machine.label,
            instructions=n,
            accesses=raw.accesses,
            epochs=raw.epochs,
            dmiss_accesses=raw.dmiss_accesses,
            imiss_accesses=raw.imiss_accesses,
            prefetch_accesses=raw.prefetch_accesses,
            store_accesses=raw.store_accesses,
            store_epochs=raw.store_epochs,
            inhibitors=counts,
            epoch_records=None,
        )
    return out
