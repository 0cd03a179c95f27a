"""Zero-copy publication of columnar plans to sweep workers.

A parallel batched sweep hands every worker the same
:class:`~repro.core.columnar.ColumnarPlan`.  Pickling the plan per task
would copy megabytes of trace columns for every chunk of configs, so
this module publishes the plan's flat payload **once** and lets workers
attach to it without copying:

* Preferred: one ``multiprocessing.shared_memory`` segment holding all
  columns back to back (64-byte aligned).  Workers map the segment and
  build NumPy views straight over it — the compiled kernel then reads
  its column pointers directly out of shared memory.
* Fallback (no ``/dev/shm``, exhausted shm quota, …): the same packed
  buffer written to a temporary file that workers ``np.memmap``; the
  page cache makes this share physical memory across workers too.

Only the small :class:`PlanHandle` (name + column layout) travels
through the task pickle.

Lifecycle is **parent-owned**: the process that called
:func:`publish_plan` must call :func:`unpublish_plan` when the sweep is
over — on success, on failure, and after killed workers alike.  Workers
never unlink.  They share the publisher's ``resource_tracker`` (fork,
spawn and forkserver children all inherit it), which cleans up only
once every process holding it has exited, so a dying worker cannot
tear the segment out from under its siblings (see :func:`_untrack`).
``tests/test_shared_memory.py`` pins this contract, including the
SIGKILL case.
"""

import dataclasses
import multiprocessing
import os
import tempfile

import numpy as np

from repro.core.columnar import plan_from_payload, plan_payload
from repro.cyclesim.plan import (
    CYCLE_META_KEY,
    CyclePlan,
    cycle_plan_from_payload,
    cycle_plan_payload,
)
from repro.robustness.errors import TraceFormatError

#: Column alignment inside the packed buffer.  Cache-line sized, and a
#: multiple of every column dtype's itemsize.
_ALIGNMENT = 64


@dataclasses.dataclass(frozen=True)
class PlanHandle:
    """Pickle-friendly description of one published plan.

    ``kind`` is ``"shm"`` (POSIX shared memory segment) or ``"file"``
    (memory-mapped temporary file); ``name`` is the segment name or
    file path.  ``layout`` maps each payload column to
    ``(name, dtype_str, length, offset)`` inside the packed buffer.
    """

    kind: str
    name: str
    layout: tuple
    size: int


class AttachedPlan:
    """A worker-side plan view plus the mapping that backs it.

    The plan's columns are zero-copy views over the shared buffer, so
    the buffer must outlive the plan: keep this object alive while the
    plan is in use and call :meth:`close` (or use it as a context
    manager) when done.  Closing never unlinks — that is the
    publisher's job.
    """

    def __init__(self, plan, segment):
        self.plan = plan
        self._segment = segment

    def __enter__(self):
        return self.plan

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Drop the plan views and unmap the buffer (never unlinks)."""
        self.plan = None
        segment, self._segment = self._segment, None
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # a caller still holds a column view
                pass


def _pack(payload):
    """Lay the payload columns into one aligned buffer.

    Returns ``(layout, size, columns)`` where *columns* pairs each
    layout entry with its (contiguous) source array.
    """
    layout = []
    columns = []
    offset = 0
    for name in sorted(payload):
        array = np.ascontiguousarray(payload[name])
        offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
        layout.append((name, array.dtype.str, int(array.shape[0]), offset))
        columns.append((offset, array))
        offset += array.nbytes
    return tuple(layout), max(offset, 1), columns


def _fill(buffer, columns):
    for offset, array in columns:
        flat = np.frombuffer(
            buffer, dtype=np.uint8, count=array.nbytes, offset=offset
        )
        flat[:] = array.view(np.uint8).reshape(-1)


def _unpack(buffer, handle):
    """Rebuild the payload dict as zero-copy views over *buffer*."""
    payload = {}
    for name, dtype_str, length, offset in handle.layout:
        dtype = np.dtype(dtype_str)
        payload[name] = np.frombuffer(
            buffer, dtype=dtype, count=length, offset=offset
        )
    return payload


def _publish_shm(layout, size, columns):
    from multiprocessing import shared_memory

    # Ownership transfers by *name*: the segment outlives this scope on
    # purpose (close() drops our mapping only) and unpublish_plan()
    # unlinks it later via the returned handle.
    segment = shared_memory.SharedMemory(create=True, size=size)  # reprolint: disable=shm-lifetime
    try:
        _fill(segment.buf, columns)
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    handle = PlanHandle(
        kind="shm", name=segment.name, layout=layout, size=size
    )
    segment.close()
    return handle


def _publish_file(layout, size, columns):
    fd, path = tempfile.mkstemp(prefix="repro-plan-", suffix=".bin")
    try:
        with os.fdopen(fd, "wb") as fh:
            buffer = bytearray(size)
            _fill(buffer, columns)
            fh.write(buffer)
    except BaseException:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise
    return PlanHandle(kind="file", name=path, layout=layout, size=size)


def publish_plan(plan):
    """Publish *plan* for worker processes; returns a :class:`PlanHandle`.

    Tries a shared-memory segment first and falls back to a
    memory-mapped temporary file.  The caller owns the handle and must
    :func:`unpublish_plan` it exactly once, whatever happens to the
    workers in between.

    Both plan families share this channel: a columnar MLPsim plan and a
    :class:`~repro.cyclesim.plan.CyclePlan` pack to the same flat
    ``{name: array}`` shape, and attachment discriminates on the
    cycle-plan meta record.
    """
    if isinstance(plan, CyclePlan):
        payload = cycle_plan_payload(plan)
    else:
        payload = plan_payload(plan)
    layout, size, columns = _pack(payload)
    try:
        return _publish_shm(layout, size, columns)
    except (ImportError, OSError, ValueError):
        return _publish_file(layout, size, columns)


def _untrack(segment):
    """Drop the ``resource_tracker`` registration an attach just made,
    when the tracker is this process's own.

    Attaching registers the segment with the process's tracker, which
    would unlink it when that tracker shuts down — at the exit of a
    process that started its own tracker, taking the segment from
    everyone else.  A multiprocessing child instead shares its
    parent's tracker, where the publisher's registration already stands
    (its unlink clears it).  Unregistering there too would let two
    workers race over that single entry, and the tracker would print
    ``KeyError`` tracebacks.
    """
    if multiprocessing.parent_process() is not None:
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def attach_plan(handle):
    """Attach to a published plan; returns an :class:`AttachedPlan`.

    The reconstructed plan's columns are views into the shared buffer
    (no copy); schema validation happens through
    :func:`~repro.core.columnar.plan_from_payload`, so a version-skewed
    publisher is rejected loudly.

    Raises
    ------
    repro.robustness.errors.TraceFormatError
        If the segment or file has vanished (the publisher unlinked
        early) or the payload fails schema validation.
    """
    if handle.kind == "shm":
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(name=handle.name)
        except (OSError, ValueError) as error:
            raise TraceFormatError(
                f"shared plan segment {handle.name!r} is gone: {error}",
                path=handle.name, field="shm",
            ) from error
        _untrack(segment)
        buffer = segment.buf
    elif handle.kind == "file":
        try:
            segment = np.memmap(handle.name, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as error:
            raise TraceFormatError(
                f"plan spill file {handle.name!r} is gone: {error}",
                path=handle.name, field="file",
            ) from error
        buffer = segment
    else:
        raise TraceFormatError(
            f"unknown plan handle kind {handle.kind!r}",
            path=handle.name, field="kind",
        )
    payload = _unpack(buffer, handle)
    if CYCLE_META_KEY in payload:
        plan = cycle_plan_from_payload(payload, path=handle.name)
    else:
        plan = plan_from_payload(payload, path=handle.name)
    return AttachedPlan(plan, segment if handle.kind == "shm" else None)


def unpublish_plan(handle):
    """Release a published plan.  Parent-side, idempotent, never raises.

    Safe to call in ``finally`` regardless of how the sweep ended —
    including after SIGKILLed workers, whose attachments hold no
    reference that could resurrect the segment.
    """
    if handle is None:
        return
    if handle.kind == "shm":
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=handle.name)
            segment.close()
            segment.unlink()
        except Exception:
            pass  # already gone, or shm unavailable: nothing to release
    elif handle.kind == "file":
        try:
            os.unlink(handle.name)
        except OSError:
            pass


def plan_is_published(handle):
    """Is the segment/file behind *handle* still present?  (Test hook.)"""
    if handle.kind == "shm":
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=handle.name)
        except (OSError, ValueError):
            return False
        _untrack(segment)
        segment.close()
        return True
    return os.path.exists(handle.name)
