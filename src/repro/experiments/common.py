"""Shared infrastructure for the per-exhibit harnesses.

Traces and annotations are expensive relative to MLPsim runs, so they
are memoised per (workload, length, L2 size, seed) and shared between
exhibits within a process.  The memo is additionally disk-backed: an
annotation that was generated once is spilled to
``benchmarks/results/.cache/`` (override with ``REPRO_CACHE_DIR``;
set it to an empty string to disable) as a versioned ``.npz`` archive,
so repeated ``repro exhibit`` invocations and sweep worker pools stop
regenerating identical traces.  The disk layer is fail-soft in both
directions — an unreadable or corrupt archive falls back to
regeneration, an unwritable directory skips the spill.

The trace length defaults to ``REPRO_TRACE_LEN`` (environment
variable) or 400,000 instructions — far below the paper's 150M, which
is why EXPERIMENTS.md compares shapes rather than absolute values.
"""

import dataclasses
import hashlib
import logging
import os

from repro.analysis.tables import format_table
from repro.memory.hierarchy import HierarchyConfig
from repro.robustness.errors import ConfigError
from repro.trace.annotate import AnnotationConfig, annotate
from repro.workloads import generate_trace

#: Workloads in the paper's presentation order.
WORKLOAD_NAMES = ("database", "specjbb2000", "specweb99")

#: Shorter display names for table columns.
DISPLAY_NAMES = {
    "database": "Database",
    "specjbb2000": "SPECjbb2000",
    "specweb99": "SPECweb99",
}

DEFAULT_SEED = 1234

#: Subdirectory of the disk cache where corrupt entries are moved for
#: post-mortem inspection instead of being silently deleted.
QUARANTINE_DIRNAME = "quarantine"

_log = logging.getLogger("repro.cache")

_annotation_cache = {}


def default_trace_len():
    """Trace length used by the exhibits (REPRO_TRACE_LEN overrides)."""
    return int(os.environ.get("REPRO_TRACE_LEN", "400000"))


def cache_dir():
    """Directory for disk-cached annotations, or ``None`` when disabled.

    ``REPRO_CACHE_DIR`` overrides the default
    ``benchmarks/results/.cache/`` under the repository root; setting
    it to an empty string disables the disk layer entirely.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override is not None:
        return override if override.strip() else None
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
    )
    return os.path.join(repo_root, "benchmarks", "results", ".cache")


def _cache_path(name, trace_len, l2_bytes, seed):
    """Disk-cache archive path for one annotation key, or ``None``."""
    directory = cache_dir()
    if directory is None:
        return None
    from repro.trace.io import FORMAT_VERSION

    from repro.core.columnar import COLUMNAR_SCHEMA_VERSION

    _quarantine_stale_entries(directory)
    digest = hashlib.sha1(
        f"v{FORMAT_VERSION}:c{COLUMNAR_SCHEMA_VERSION}:"
        f"{name}:{trace_len}:{l2_bytes}:{seed}".encode()
    ).hexdigest()
    return os.path.join(
        directory,
        f"annotated-c{COLUMNAR_SCHEMA_VERSION}-{digest}.npz",
    )


_stale_scan_done = set()


def _quarantine_stale_entries(directory):
    """Quarantine cache entries from older columnar schema versions.

    Entry filenames carry the :data:`COLUMNAR_SCHEMA_VERSION` they were
    written under (``annotated-c<V>-<digest>.npz``); anything else —
    including pre-columnar ``annotated-<digest>.npz`` archives — can
    never be loaded again and would otherwise rot in the cache forever.
    They are moved to the quarantine directory (same path corrupt
    entries take) so a schema bump leaves an inspectable trail instead
    of silent disk growth.  Scans once per directory per process.
    """
    if directory in _stale_scan_done:
        return
    _stale_scan_done.add(directory)
    from repro.core.columnar import COLUMNAR_SCHEMA_VERSION

    current = f"annotated-c{COLUMNAR_SCHEMA_VERSION}-"
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    for entry in entries:
        if (entry.startswith("annotated-") and entry.endswith(".npz")
                and not entry.startswith(current)):
            _quarantine_cache_entry(
                os.path.join(directory, entry),
                "columnar schema version skew",
            )


def _quarantine_cache_entry(path, error):
    """Move a corrupt cache entry aside and log a loud warning.

    A corrupt entry used to be silently unlinked, which hid recurring
    corruption (a flaky disk, a crashing writer) behind transparent
    regeneration.  Moving it to ``<cache>/quarantine/`` keeps the
    evidence, and the warning makes the pattern visible in logs.
    Falls back to deletion if the move itself fails — the entry must
    leave the cache path either way so the loader regenerates.
    """
    quarantine_dir = os.path.join(os.path.dirname(path), QUARANTINE_DIRNAME)
    target = os.path.join(quarantine_dir, os.path.basename(path))
    try:
        os.makedirs(quarantine_dir, exist_ok=True)
        os.replace(path, target)
    except OSError:
        target = None
        try:
            os.unlink(path)
        except OSError:
            pass
    _log.warning(
        "corrupt annotation cache entry %s (%s); %s and regenerating",
        path,
        error,
        f"quarantined to {target}" if target else "deleted (move failed)",
    )


def _load_cached_annotation(path):
    """Load a disk-cached annotation, or ``None`` on any failure.

    Corrupt, truncated, or version-skewed archives must regenerate,
    not crash: the cache is an accelerator, never a source of truth.
    The damaged file is quarantined (see :func:`_quarantine_cache_entry`)
    so recurring corruption stays visible.
    """
    if path is None or not os.path.exists(path):
        return None
    from repro.trace.io import load_annotated

    try:
        return load_annotated(path)
    except Exception as error:
        _quarantine_cache_entry(path, error)
        return None


def _store_cached_annotation(path, annotated):
    """Spill an annotation to the disk cache, fail-soft."""
    if path is None:
        return
    from repro.trace.io import save_annotated

    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_annotated(annotated, path)
    except Exception:
        pass  # unwritable cache dir: keep going without the disk layer


def get_annotated(name, trace_len=None, l2_bytes=None, seed=DEFAULT_SEED):
    """Return the (memoised) annotated trace for one workload.

    *l2_bytes* overrides the L2 capacity; the default capacity itself
    is the same annotation as ``None`` (one memo key, one archive).
    Every annotation of one ``(name, trace_len, seed)`` holds the same
    :class:`~repro.trace.trace.Trace` object, also when it comes from
    the disk cache, so the work that depends on the trace alone (the
    dependence graph, the trace columns of a kernel plan) is done once
    per trace, not once per annotation.

    Raises
    ------
    repro.robustness.errors.ConfigError
        If *trace_len* is given but is not a positive integer.  (A
        ``trace_len=0`` must be rejected, not silently replaced by the
        default length.)
    """
    if trace_len is None:
        trace_len = default_trace_len()
    if not isinstance(trace_len, int) or isinstance(trace_len, bool) \
            or trace_len < 1:
        raise ConfigError(
            f"trace_len must be a positive integer, got {trace_len!r}",
            field="trace_len",
        )
    if l2_bytes == HierarchyConfig().l2.size_bytes:
        l2_bytes = None
    key = (name, trace_len, l2_bytes, seed)
    cached = _annotation_cache.get(key)
    if cached is not None:
        return cached
    disk_path = _cache_path(name, trace_len, l2_bytes, seed)
    annotated = _load_cached_annotation(disk_path)
    if annotated is not None:
        _share_trace(annotated, (name, trace_len, seed))
    else:
        trace = _get_trace(name, trace_len, seed)
        hierarchy = HierarchyConfig()
        if l2_bytes is not None:
            hierarchy = hierarchy.with_l2_size(l2_bytes)
        annotated = annotate(trace, AnnotationConfig(hierarchy=hierarchy))
        _store_cached_annotation(disk_path, annotated)
    _annotation_cache[key] = annotated
    return annotated


_trace_cache = {}


def _share_trace(annotated, key):
    """Point a loaded annotation at the one trace held for *key*.

    The first trace seen for *key* (generated, or loaded from an
    archive) is the one held; a later archive's trace is replaced by it
    only when the two are equal in name and every column, so an archive
    whose trace differs keeps its own.
    """
    held = _trace_cache.setdefault(key, annotated.trace)
    if held is not annotated.trace and held.name == annotated.trace.name \
            and held == annotated.trace:
        annotated.trace = held


def _get_trace(name, trace_len, seed):
    key = (name, trace_len, seed)
    cached = _trace_cache.get(key)
    if cached is None:
        cached = generate_trace(name, trace_len, seed=seed)
        _trace_cache[key] = cached
    return cached


def clear_caches(disk=False):
    """Drop all memoised traces/annotations (tests use this).

    With ``disk=True`` the on-disk annotation archives are deleted as
    well; by default only the in-process memo is cleared.
    """
    _annotation_cache.clear()
    _trace_cache.clear()
    if disk:
        directory = cache_dir()
        if directory and os.path.isdir(directory):
            for entry in os.listdir(directory):
                if entry.startswith("annotated-") and entry.endswith(".npz"):
                    try:
                        os.unlink(os.path.join(directory, entry))
                    except OSError:
                        pass


@dataclasses.dataclass
class Exhibit:
    """One reproduced table or figure.

    ``tables`` is a list of ``(title, headers, rows)`` blocks; ``notes``
    carries the paper-vs-measured commentary that EXPERIMENTS.md
    records.
    """

    name: str
    title: str
    tables: list
    notes: list = dataclasses.field(default_factory=list)
    float_format: str = ".3f"

    def format(self):
        """Render every table block plus the notes as text."""
        blocks = [f"== {self.name}: {self.title} =="]
        for title, headers, rows in self.tables:
            blocks.append(
                format_table(
                    headers, rows, float_format=self.float_format, title=title
                )
            )
        if self.notes:
            blocks.append("notes:")
            blocks.extend(f"  - {note}" for note in self.notes)
        return "\n\n".join(blocks)

    def table(self, index=0):
        """Return the rows of one table block."""
        return self.tables[index][2]

    def __str__(self):
        return self.format()
