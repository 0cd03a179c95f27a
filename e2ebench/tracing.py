"""Outside-in layer trace for the end-to-end benchmark.

The traced run wraps the public functions of every layer (listed in
:data:`TARGETS`) at every binding site: modules bind with
``from x import f``, so each ``repro.*`` module attribute that *is* the
original function object is replaced, not only the defining one.  Each
call records a span (id, parent id, name, start, end, notes) in memory;
nesting comes from a per-thread stack, so a span's self time is its
duration minus that of its direct children.  The spans are written out
as JSON lines when the run ends.

Run as a script, it is the traced child of ``run.py``::

    python3 e2ebench/tracing.py --spans-out S.jsonl --metrics-out M.json \\
        [--journal J.jsonl --jobs 2] -- exhibit all

It installs the wrappers, calls ``repro.cli.main`` with the arguments
after ``--`` in this process, and writes the per-layer metrics.  Forked
sweep workers keep their spans to themselves, so worker-side time comes
from the journal's per-config ``elapsed``.
"""

import argparse
import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import sys
import threading
import time

#: The 13 exhibits of ``repro exhibit all``, in registry order.
EXHIBITS = (
    "table1", "figure2", "table3", "table4", "table5", "figure4",
    "figure5", "figure6", "figure7", "figure8", "figure9_table6",
    "figure10", "figure11",
)

#: The 19 reprolint passes, by id.
LINT_PASSES = (
    "atomic-writes", "config-attrs", "determinism", "error-hierarchy",
    "exhibit-registry", "frozen-oracle", "journal-protocol", "kernel-abi",
    "kernel-bounds", "kernel-constants", "kernel-overflow", "plan-contract",
    "resource-paths", "schema-version", "seed-provenance", "shm-lifetime",
    "signal-safety", "sweep-race", "unreachable-code",
)

#: The ``src/repro`` packages whose source lines are counted.
PACKAGES = (
    "analysis", "branch", "core", "cyclesim", "experiments", "isa", "lint",
    "memory", "perf", "robustness", "trace", "vpred", "workloads",
)


def _trace_key(trace):
    return [trace.name, len(trace)]


def _sized(value):
    return len(value) if hasattr(value, "__len__") else 0


def _lint_stats(arguments):
    # run_lint only fills per-pass telemetry when handed a dict.
    if arguments.get("stats") is None:
        arguments["stats"] = {}


#: (module, function, span name, note, before).  The span name may be a
#: function of the call's bound arguments; ``note(arguments, result)``
#: returns the counts kept on the span; ``before(arguments)`` may adjust
#: the bound arguments.
TARGETS = (
    ("repro.workloads", "generate_trace", "workloads",
     lambda a, r: {"insts": len(r)}, None),
    ("repro.trace.annotate", "annotate", "trace.annotate",
     lambda a, r: {"insts": len(a["trace"]),
                   "trace": _trace_key(a["trace"])}, None),
    ("repro.trace.io", "save_annotated", "trace.io.save",
     lambda a, r: {"bytes": os.path.getsize(a["path"])}, None),
    ("repro.trace.io", "load_annotated", "trace.io.load",
     lambda a, r: {"bytes": os.path.getsize(a["path"])}, None),
    ("repro.experiments.common", "get_annotated", "experiments.cache",
     None, None),
    ("repro.experiments", "run_exhibit",
     lambda a: f"experiments.{a['name']}", None, None),
    ("repro.core.depgraph", "build_depgraph", "core.depgraph",
     lambda a, r: {"region": _trace_key(a["trace"])
                   + [a["start"], a["stop"]]}, None),
    ("repro.core.mlpsim", "simulate", "core.mlpsim", None, None),
    ("repro.core.runahead", "simulate_runahead", "core.runahead",
     None, None),
    ("repro.core.columnar", "build_plan", "core.columnar", None, None),
    ("repro.core.batched", "simulate_batch", "core.batched", None, None),
    ("repro.core.ckernel", "run_plan", "core.ckernel",
     lambda a, r: {"configs": _sized(r)}, None),
    ("repro.cyclesim.plan", "build_cycle_plan", "cyclesim.plan",
     None, None),
    ("repro.cyclesim.simulator", "run_cycle_pairs", "cyclesim",
     lambda a, r: {"configs": _sized(r)}, None),
    ("repro.cyclesim.simulator", "run_cyclesim", "cyclesim",
     lambda a, r: {"configs": 1}, None),
    ("repro.cyclesim.ckernel", "run_cycle_plan", "cyclesim.ckernel",
     None, None),
    ("repro.analysis.sweep", "sweep", "analysis.sweep", None, None),
    ("repro.analysis.sweep", "sweep_cyclesim", "analysis.sweep",
     None, None),
    ("repro.analysis.parallel", "batched_parallel_sweep",
     "analysis.parallel", None, None),
    ("repro.analysis.parallel", "cyclesim_parallel_sweep",
     "analysis.parallel", None, None),
    ("repro.analysis.shm", "publish_plan", "analysis.shm", None, None),
    ("repro.robustness.supervisor", "supervised_sweep",
     "robustness.supervisor",
     lambda a, r: {"worker_replacements": r.worker_replacements}, None),
    ("repro.lint.framework", "run_lint", "lint",
     lambda a, r: {"findings": len(r),
                   "passes": a["stats"].get("passes", []),
                   "files": a["stats"].get("files_parsed", 0)},
     _lint_stats),
)


class Recorder:
    """In-memory span store; spans are ``[id, parent, name, start_ns,
    end_ns, notes]`` lists, appended when the span opens."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, note=None, before=None):
        """Return *fn* wrapped in a span named *name* (a string, or a
        function of the bound arguments)."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if before is not None:
                before(bound.arguments)
            label = name(bound.arguments) if callable(name) else name
            stack = self._stack()
            span = [len(self.spans), stack[-1] if stack else None, label,
                    time.perf_counter_ns(), None, {}]
            self.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                span[5] = note(bound.arguments, result)
            return result

        return traced

    def write(self, path):
        """Write the spans as JSON lines (times in ns)."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, notes in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "notes": notes,
                }) + "\n")


def import_all():
    """Import every ``repro`` module so that every binding site exists
    before the wrappers go in."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(recorder):
    """Wrap every binding site of every target; returns the undo list.

    Each undo entry is ``(module, attribute, original)``, so
    ``len(install(r))`` is the number of binding sites wrapped.
    """
    import_all()
    wrappers = {}
    for module_name, fn_name, span, note, before in TARGETS:
        original = getattr(importlib.import_module(module_name), fn_name)
        wrappers[id(original)] = (
            original, recorder.wrap(original, span, note, before)
        )
    undo = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attribute, entry[1])
                undo.append((module, attribute, value))
    return undo


def uninstall(undo):
    """Put back the originals that :func:`install` replaced."""
    for module, attribute, original in undo:
        setattr(module, attribute, original)


def self_times(spans):
    """Map span id -> self time in ns (duration minus direct children)."""
    own = {span[0]: span[4] - span[3] for span in spans}
    for span in spans:
        if span[1] is not None:
            own[span[1]] -= span[4] - span[3]
    return own


def _has_ancestor(span, names, by_id):
    parent = span[1]
    while parent is not None:
        if by_id[parent][2] in names:
            return True
        parent = by_id[parent][1]
    return False


def _percentile_beyond(values, beyond=10):
    """Highest nearest-rank percentile with *beyond* samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - beyond
    return ordered[rank - 1] if rank >= 1 else 0.0


#: Metrics read from the sweep journal; 0 on runs without one.
JOURNAL_METRICS = (
    "robustness.supervisor.config_busy_s",
    "robustness.supervisor.config_p50_s",
    "robustness.supervisor.config_p66_s",
    "robustness.supervisor.efficiency",
    "robustness.supervisor.retries",
    "robustness.supervisor.quarantined",
    "robustness.journal.records",
    "robustness.journal.bytes",
)


def _journal_metrics(path, jobs, supervisor_wall):
    """Supervisor metrics from a sweep journal, plus the number of
    finished configs and their summed worker-side seconds."""
    records = []
    with open(path) as fh:
        for line in fh:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # a torn tail line is the journal's own business
    results = [r for r in records if r.get("type") == "result"]
    elapsed = [float(r["elapsed"]) for r in records
               if r.get("type") in ("result", "failure")]
    attempts = [r for r in records if r.get("type") == "attempt"]
    busy = sum(elapsed)
    return {
        "robustness.supervisor.config_busy_s": busy,
        "robustness.supervisor.config_p50_s":
            statistics.median(elapsed) if elapsed else 0.0,
        "robustness.supervisor.config_p66_s": _percentile_beyond(elapsed),
        "robustness.supervisor.efficiency":
            busy / (jobs * supervisor_wall) if supervisor_wall else 0.0,
        "robustness.supervisor.retries":
            len(attempts) - len({r["key"] for r in attempts}),
        "robustness.supervisor.quarantined":
            sum(1 for r in records if r.get("type") == "quarantine"),
        "robustness.journal.records": len(records),
        "robustness.journal.bytes": os.path.getsize(path),
    }, len(results), busy


def layer_metrics(spans, journal=None, jobs=1):
    """Per-layer metrics from the spans (and the sweep journal, if any).

    Every name in :func:`metric_names` is present except the trace's own
    (``trace.*``, added by :func:`main` and ``run.py``) and those read
    from files by ``run.py`` (``cache_mb``, ``loc.*``,
    ``experiments.cache.quarantined``).
    """
    by_id = {span[0]: span for span in spans}
    own = self_times(spans)
    seconds = 1e-9

    def select(*names):
        return [s for s in spans if s[2] in names]

    def self_s(*names):
        return sum(own[s[0]] for s in select(*names)) * seconds

    def wall_s(*names):
        return sum(s[4] - s[3] for s in select(*names)) * seconds

    def total(name, key):
        return sum(s[5].get(key, 0) for s in select(name))

    def per_call(name, key):
        calls = select(name)
        distinct = {json.dumps(s[5][key]) for s in calls}
        return len(distinct) / len(calls) if calls else 0.0

    metrics = {
        "workloads.self_s": self_s("workloads"),
        "workloads.calls": len(select("workloads")),
        "workloads.insts": total("workloads", "insts"),
        "trace.annotate.self_s": self_s("trace.annotate"),
        "trace.annotate.calls": len(select("trace.annotate")),
        "trace.annotate.insts": total("trace.annotate", "insts"),
        "trace.annotate.traces_per_call":
            per_call("trace.annotate", "trace"),
        "trace.io.save_s": self_s("trace.io.save"),
        "trace.io.load_s": self_s("trace.io.load"),
        "trace.io.saves": len(select("trace.io.save")),
        "trace.io.loads": len(select("trace.io.load")),
        "trace.io.bytes_written": total("trace.io.save", "bytes"),
        "trace.io.bytes_read": total("trace.io.load", "bytes"),
        "core.depgraph.self_s": self_s("core.depgraph"),
        "core.depgraph.calls": len(select("core.depgraph")),
        "core.depgraph.regions_per_call":
            per_call("core.depgraph", "region"),
        "core.columnar.self_s": self_s("core.columnar"),
        "core.columnar.calls": len(select("core.columnar")),
        "core.batched.self_s": self_s("core.batched"),
        "core.ckernel.self_s": self_s("core.ckernel"),
        "core.ckernel.calls": len(select("core.ckernel")),
        "core.ckernel.configs": total("core.ckernel", "configs"),
        "core.runahead.self_s": self_s("core.runahead"),
        "core.runahead.configs": len(select("core.runahead")),
        "cyclesim.plan.self_s": self_s("cyclesim.plan"),
        "cyclesim.self_s": self_s("cyclesim"),
        "cyclesim.configs": total("cyclesim", "configs"),
        "cyclesim.ckernel.self_s": self_s("cyclesim.ckernel"),
        "analysis.sweep.self_s": self_s("analysis.sweep"),
        "analysis.sweep.calls": len(select("analysis.sweep")),
        "analysis.parallel.pools": len(select("analysis.parallel")),
        "analysis.shm.publishes": len(select("analysis.shm")),
        "robustness.supervisor.wall_s": wall_s("robustness.supervisor"),
        "robustness.supervisor.worker_replacements":
            total("robustness.supervisor", "worker_replacements"),
    }

    # Cache outcome of each get_annotated call, from what ran under it:
    # nothing (memo hit), an archive load (disk hit) or an annotate
    # (miss; a corrupt archive is loaded, quarantined, then annotated).
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], set()).add(span[2])
    lookups = select("experiments.cache")
    outcomes = [children.get(s[0], set()) for s in lookups]
    metrics["experiments.cache.lookups"] = len(lookups)
    metrics["experiments.cache.memo_hits"] = sum(not o for o in outcomes)
    metrics["experiments.cache.misses"] = sum(
        "trace.annotate" in o for o in outcomes
    )
    metrics["experiments.cache.disk_hits"] = sum(
        bool(o) and "trace.annotate" not in o for o in outcomes
    )
    for exhibit in EXHIBITS:
        metrics[f"experiments.{exhibit}.wall_s"] = wall_s(
            f"experiments.{exhibit}"
        )

    # Scalar MLPsim configs are the outermost simulate/simulate_runahead
    # calls; runahead machines enter through simulate.
    scalar = [s for s in select("core.mlpsim", "core.runahead")
              if not _has_ancestor(s, ("core.mlpsim", "core.runahead"),
                                   by_id)]
    mlpsim_configs = len(scalar)
    mlpsim_self = self_s("core.mlpsim")
    if journal is not None:
        journal_metrics, configs, busy = _journal_metrics(
            journal, jobs, metrics["robustness.supervisor.wall_s"]
        )
        metrics.update(journal_metrics)
        mlpsim_configs += configs
        mlpsim_self += busy
    else:
        metrics.update(dict.fromkeys(JOURNAL_METRICS, 0))
    metrics["core.mlpsim.self_s"] = mlpsim_self
    metrics["core.mlpsim.configs"] = mlpsim_configs
    c_configs = metrics["core.ckernel.configs"]
    metrics["core.c_envelope_ratio"] = (
        c_configs / (c_configs + mlpsim_configs)
        if c_configs + mlpsim_configs else 0.0
    )

    lint_spans = select("lint")
    pass_seconds = {}
    for span in lint_spans:
        for entry in span[5].get("passes", []):
            pass_seconds[entry["id"]] = (
                pass_seconds.get(entry["id"], 0.0) + entry["seconds"]
            )
    for pass_id in LINT_PASSES:
        metrics[f"lint.{pass_id}.self_s"] = pass_seconds.get(pass_id, 0.0)
    metrics["lint.project_s"] = (
        wall_s("lint") - sum(pass_seconds.values()) if lint_spans else 0.0
    )
    metrics["lint.files"] = total("lint", "files")
    metrics["lint.findings"] = total("lint", "findings")
    return metrics


def metric_names():
    """Every per-layer metric name, with its unit, in report order."""
    names = {
        "workloads.self_s": "s", "workloads.calls": "count",
        "workloads.insts": "count",
        "trace.annotate.self_s": "s", "trace.annotate.calls": "count",
        "trace.annotate.insts": "count",
        "trace.annotate.traces_per_call": "ratio",
        "trace.io.save_s": "s", "trace.io.load_s": "s",
        "trace.io.saves": "count", "trace.io.loads": "count",
        "trace.io.bytes_written": "bytes", "trace.io.bytes_read": "bytes",
        "cache_mb": "MB",
        "experiments.cache.lookups": "count",
        "experiments.cache.memo_hits": "count",
        "experiments.cache.disk_hits": "count",
        "experiments.cache.misses": "count",
        "experiments.cache.quarantined": "count",
    }
    names.update({f"experiments.{e}.wall_s": "s" for e in EXHIBITS})
    names.update({
        "core.depgraph.self_s": "s", "core.depgraph.calls": "count",
        "core.depgraph.regions_per_call": "ratio",
        "core.mlpsim.self_s": "s", "core.mlpsim.configs": "count",
        "core.runahead.self_s": "s", "core.runahead.configs": "count",
        "core.columnar.self_s": "s", "core.columnar.calls": "count",
        "core.batched.self_s": "s",
        "core.ckernel.self_s": "s", "core.ckernel.calls": "count",
        "core.ckernel.configs": "count", "core.c_envelope_ratio": "ratio",
        "cyclesim.plan.self_s": "s", "cyclesim.self_s": "s",
        "cyclesim.configs": "count", "cyclesim.ckernel.self_s": "s",
        "analysis.sweep.self_s": "s", "analysis.sweep.calls": "count",
        "analysis.parallel.pools": "count",
        "analysis.shm.publishes": "count",
        "robustness.supervisor.wall_s": "s",
        "robustness.supervisor.config_busy_s": "s",
        "robustness.supervisor.config_p50_s": "s",
        "robustness.supervisor.config_p66_s": "s",
        "robustness.supervisor.efficiency": "ratio",
        "robustness.supervisor.retries": "count",
        "robustness.supervisor.quarantined": "count",
        "robustness.supervisor.worker_replacements": "count",
        "robustness.journal.records": "count",
        "robustness.journal.bytes": "bytes",
    })
    names.update({f"lint.{p}.self_s": "s" for p in LINT_PASSES})
    names.update({"lint.project_s": "s", "lint.files": "count",
                  "lint.findings": "count"})
    names.update({f"loc.{p}": "lines" for p in PACKAGES})
    names.update({"loc.kernels_c": "lines", "trace.wall_s": "s",
                  "trace.unattributed_share": "fraction",
                  "trace.overhead_s": "s"})
    return names


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--metrics-out", required=True)
    parser.add_argument("--journal")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    recorder = Recorder()
    install(recorder)
    import repro.cli

    started = time.perf_counter_ns()
    try:
        code = repro.cli.main(cli_args)
    except SystemExit as exit_:  # argparse and parser.exit
        code = exit_.code
    ended = time.perf_counter_ns()
    sys.stdout.flush()

    recorder.write(args.spans_out)
    spans = [s for s in recorder.spans if s[4] is not None]
    metrics = layer_metrics(spans, journal=args.journal, jobs=args.jobs)
    wall = ended - started
    roots = sum(s[4] - s[3] for s in spans if s[1] is None)
    metrics["trace.wall_s"] = wall * 1e-9
    metrics["trace.unattributed_share"] = (wall - roots) / wall
    with open(args.metrics_out, "w") as fh:
        json.dump(metrics, fh)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
