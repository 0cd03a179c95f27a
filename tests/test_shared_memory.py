"""Lifecycle of zero-copy plan publication (``repro.analysis.shm``).

A published plan is parent-owned: whatever the workers do — finish,
raise, or die by SIGKILL — the segment must survive until the parent
unlinks it, and the parent must unlink it exactly once on every exit
path of the batched parallel sweep.  Leaked segments accumulate in
``/dev/shm`` until reboot, and a worker-side unlink (Python's
``resource_tracker`` default) would yank the mapping out from under
sibling workers, so both directions of the contract matter.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap

import multiprocessing

import numpy as np
import pytest

import repro.analysis.parallel as parallel
import repro.analysis.shm as shm
from repro.core.ckernel import kernel_available
from repro.core.columnar import PLAN_COLUMNS, plan_for
from repro.core.config import MachineConfig
from repro.robustness.errors import SimulationError, TraceFormatError


def _grid():
    return [
        (f"64{policy}", MachineConfig.named(f"64{policy}"))
        for policy in "ABC"
    ] + [("64D-pb", MachineConfig.named("64D", perfect_branch=True))]


@pytest.fixture
def plan(specjbb_annotated):
    return plan_for(specjbb_annotated, MachineConfig.named("64C"))


class TestPublishAttach:
    def test_round_trip_is_exact_and_zero_copy(self, plan):
        handle = shm.publish_plan(plan)
        try:
            attached = shm.attach_plan(handle)
            try:
                checks = []
                for name, _ in PLAN_COLUMNS:
                    view = getattr(attached.plan, name)
                    checks.append((
                        name,
                        np.array_equal(getattr(plan, name), view),
                        # Views alias the shared buffer, not copies.
                        not view.flags.owndata,
                    ))
                span = (attached.plan.start, attached.plan.stop)
                del view  # drop the buffer reference before closing
            finally:
                attached.close()
            for name, equal, aliased in checks:
                assert equal and aliased, name
            assert span == (plan.start, plan.stop)
        finally:
            shm.unpublish_plan(handle)

    def test_unpublish_removes_segment_and_is_idempotent(self, plan):
        handle = shm.publish_plan(plan)
        assert shm.plan_is_published(handle)
        shm.unpublish_plan(handle)
        assert not shm.plan_is_published(handle)
        shm.unpublish_plan(handle)  # second release must not raise
        shm.unpublish_plan(None)    # nor a no-op handle

    def test_attach_after_unpublish_raises_loudly(self, plan):
        handle = shm.publish_plan(plan)
        shm.unpublish_plan(handle)
        with pytest.raises(TraceFormatError):
            # Use-after-release is the behaviour under test here.
            shm.attach_plan(handle)  # reprolint: disable=shm-lifetime

    def test_file_fallback_round_trips(self, plan, monkeypatch):
        """With shared memory unavailable the spill file path engages,
        is memory-mapped on attach, and unlinks on unpublish."""
        def no_shm(*args, **kwargs):
            raise OSError("shm exhausted")  # reprolint: disable=error-hierarchy

        monkeypatch.setattr(shm, "_publish_shm", no_shm)
        handle = shm.publish_plan(plan)
        try:
            assert handle.kind == "file"
            assert os.path.exists(handle.name)
            attached = shm.attach_plan(handle)
            try:
                assert np.array_equal(attached.plan.ops, plan.ops)
            finally:
                attached.close()
        finally:
            shm.unpublish_plan(handle)
        assert not os.path.exists(handle.name)


def _attach_and_die(handle, barrier):
    """Worker body for the SIGKILL test: map the plan, then die hard."""
    # Deliberately never closed: the SIGKILL below must find the
    # attachment live to prove a dead worker cannot unlink the segment.
    attached = shm.attach_plan(handle)  # reprolint: disable=shm-lifetime
    assert attached.plan is not None
    barrier.wait()
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeath:
    def test_sigkilled_worker_does_not_unlink(self, plan):
        """A worker that dies mid-attach must not tear the segment
        down (resource-tracker unregistration) — and the parent's
        ``unpublish_plan`` afterwards must."""
        handle = shm.publish_plan(plan)
        try:
            ctx = multiprocessing.get_context("fork")
            barrier = ctx.Barrier(2)
            worker = ctx.Process(
                target=_attach_and_die, args=(handle, barrier)
            )
            worker.start()
            barrier.wait()
            worker.join(timeout=30)
            assert worker.exitcode == -signal.SIGKILL
            assert shm.plan_is_published(handle), \
                "worker death must not unlink the parent's segment"
        finally:
            shm.unpublish_plan(handle)
        assert not shm.plan_is_published(handle)


def _published_handles(monkeypatch):
    """Record every handle the sweep publishes (without disturbing it)."""
    handles = []
    real_publish = shm.publish_plan

    def recording_publish(plan):
        handle = real_publish(plan)
        handles.append(handle)
        return handle

    monkeypatch.setattr(shm, "publish_plan", recording_publish)
    return handles


def _failing_chunk(handle, chunk, workload):
    raise RuntimeError("worker exploded")  # reprolint: disable=error-hierarchy


def _suicidal_chunk(handle, chunk, workload):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(
    not kernel_available(),
    reason="a plan is kernel input: without a C compiler a batched"
    " sweep publishes none",
)
class TestSweepLifecycle:
    def test_success_path_unlinks_everything(self, specjbb_annotated,
                                             monkeypatch):
        handles = _published_handles(monkeypatch)
        results = parallel.batched_parallel_sweep(
            specjbb_annotated, _grid(), "specjbb2000",
            progress=None, jobs=2,
        )
        assert results is not None and len(results) == len(_grid())
        assert handles, "sweep should have published at least one plan"
        assert all(not shm.plan_is_published(h) for h in handles)

    def test_failure_path_unlinks_everything(self, specjbb_annotated,
                                             monkeypatch):
        handles = _published_handles(monkeypatch)
        monkeypatch.setattr(parallel, "_run_plan_chunk", _failing_chunk)
        with pytest.raises(SimulationError) as excinfo:
            parallel.batched_parallel_sweep(
                specjbb_annotated, _grid(), "specjbb2000",
                progress=None, jobs=2,
            )
        assert "worker exploded" in str(excinfo.value)
        assert handles
        assert all(not shm.plan_is_published(h) for h in handles)

    def test_sigkilled_worker_path_unlinks_everything(
            self, specjbb_annotated, monkeypatch):
        handles = _published_handles(monkeypatch)
        monkeypatch.setattr(parallel, "_run_plan_chunk", _suicidal_chunk)
        with pytest.raises(SimulationError):
            parallel.batched_parallel_sweep(
                specjbb_annotated, _grid(), "specjbb2000",
                progress=None, jobs=2,
            )
        assert handles
        assert all(not shm.plan_is_published(h) for h in handles)


#: A child process that runs batched sweeps at ``jobs=2`` over four
#: mask groups, so that pairs of workers attach the same segments.
_QUIET_SWEEP = textwrap.dedent("""
    import repro.analysis.parallel as parallel
    from repro.analysis.sweep import sweep
    from repro.core.config import MachineConfig
    from repro.trace.annotate import annotate
    from repro.workloads import generate_trace

    parallel.effective_cpus = lambda: 2
    annotated = annotate(generate_trace("database", 20000))
    grid = [
        (f"{w}{p}-{pi:d}{pb:d}", MachineConfig.named(
            f"{w}{p}", perfect_ifetch=pi, perfect_branch=pb))
        for w in (32, 128) for p in "ACE"
        for pi in (False, True) for pb in (False, True)
    ]
    for _ in range(40):
        sweep(annotated, grid, jobs=2)
""")


def _attach_and_report(handle, queue):
    """Worker body: attach and close, reporting tracker unregistrations."""
    from multiprocessing import resource_tracker

    calls = []
    resource_tracker.unregister = lambda name, rtype: calls.append(name)
    with shm.attach_plan(handle):
        pass
    queue.put(calls)


class TestTrackerNoise:
    def test_worker_attach_leaves_shared_tracker_alone(self, plan):
        """A forked worker shares the publisher's resource tracker, so
        its attach must not unregister the publisher's entry."""
        handle = shm.publish_plan(plan)
        try:
            ctx = multiprocessing.get_context("fork")
            queue = ctx.Queue()
            worker = ctx.Process(
                target=_attach_and_report, args=(handle, queue)
            )
            worker.start()
            calls = queue.get(timeout=30)
            worker.join(timeout=30)
        finally:
            shm.unpublish_plan(handle)
        assert worker.exitcode == 0
        assert calls == []

    def test_parallel_sweep_leaves_stderr_clean(self):
        """Workers share the publisher's resource tracker; attaching must
        not unregister from it, or sibling workers race over one entry
        and the tracker prints ``KeyError`` tracebacks."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _QUIET_SWEEP],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr, done.stderr


class TestSharding:
    def test_chunks_sized_by_cost_and_balanced(self):
        pairs = [(str(i), None) for i in range(30)]
        # Cheap configs coalesce (bounded by the even split) ...
        cheap = parallel.shard_pairs(pairs, 0.001, jobs=4)
        assert [p for chunk in cheap for p in chunk] == pairs
        assert max(len(c) for c in cheap) <= 8  # ceil(30/4)
        # ... expensive configs go one per chunk.
        costly = parallel.shard_pairs(pairs, 10.0, jobs=4)
        assert all(len(c) == 1 for c in costly)
        assert parallel.shard_pairs([], 0.1, jobs=4) == []

    def test_journal_receives_incremental_results(self, specjbb_annotated,
                                                  tmp_path):
        from repro.robustness.journal import SweepJournal

        journal_path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(str(journal_path))
        journal.initialize("specjbb2000", 1234, None)
        parallel.batched_parallel_sweep(
            specjbb_annotated, _grid(), "specjbb2000",
            progress=None, jobs=2, journal=journal, seed=1234,
        )
        contents = journal_path.read_text()
        # Every config the pool ran (all but the calibration one, which
        # the parent measures in-process) was flushed as it completed.
        for label, _ in _grid()[1:]:
            assert label in contents
