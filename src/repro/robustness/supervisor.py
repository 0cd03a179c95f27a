"""Crash-safe supervised sweep execution.

A supervised sweep runs a labelled grid one config per task, on a
serial loop or a self-managed worker pool, under a supervision layer
that assumes *everything* can fail mid-flight:

* every dispatch and completion is journalled (append-only, fsynced —
  :mod:`repro.robustness.journal`), so an interrupted sweep resumes
  re-executing only configurations the journal marks unfinished;
* each configuration attempt runs under an optional wall-clock budget;
  a hung config is SIGKILLed out of its worker (pool) or SIGALRMed
  (serial) and retried with bounded exponential backoff;
* a worker killed from outside (SIGKILL, the OOM killer) is detected,
  its in-flight configuration re-queued, and a replacement spawned —
  the grid keeps draining;
* a configuration that keeps failing is moved to a dead-letter
  *quarantine* after ``max_retries`` retries and reported at the end,
  fail-soft — one poison config cannot sink the campaign;
* a pool that keeps collapsing (too many worker replacements) degrades
  to the serial backend for the remaining work.

The pool here is deliberately *not* ``ProcessPoolExecutor``: the
executor cannot kill a single hung worker without abandoning the whole
pool, and a ``BrokenProcessPool`` discards every queued future.  The
supervisor manages ``multiprocessing`` processes directly — one task
in flight per worker, each worker on a private pipe that carries its
tasks out and its results back — which is exactly the control needed
to time out, kill and replace one worker while the rest keep
simulating.  Nothing is shared between workers: a worker killed in the
middle of sending a result holds no lock another worker needs, and its
pipe reads as closed.  Workers get the annotated trace through
:func:`share_annotated`: fork inherits it copy-on-write; spawn
platforms load a one-time ``.npz`` spill.

This pool is also the one :func:`repro.analysis.sweep.sweep` uses for
scalar-engine grids at ``jobs>1`` (runahead machines, hosts without a
C compiler): unjournalled, with no retries, so a failing config
surfaces as a label-carrying
:class:`~repro.robustness.errors.SimulationError`.

Determinism: MLPsim is a pure function of ``(annotated, machine)``, so
retries, worker replacement, resume-from-journal and serial
degradation all produce results bit-identical to a clean serial sweep
— ``tests/test_chaos.py`` proves it under injected process faults.
"""

import collections
import contextlib
import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import threading
import time

from repro.analysis.parallel import resolve_jobs
from repro.analysis.sweep import SweepResult, grid_pairs
from repro.robustness.errors import ConfigError, SweepTimeout
from repro.robustness.faults import ProcessFaultPlan
from repro.robustness.journal import (
    SweepJournal,
    config_key,
    result_from_payload,
)

#: How long the pool loop waits on the worker pipes per iteration;
#: also the granularity of deadline/death checks.
_POLL_SECONDS = 0.05

#: Grace period for joining a worker we just killed.
_KILL_JOIN_SECONDS = 5.0

#: Annotated trace shared with workers.  Under the fork start method the
#: parent sets it right before starting the pool and clears it after the
#: sweep; forked children inherit the populated value copy-on-write.
_WORKER_ANNOTATED = None


def share_annotated(annotated):
    """Publish *annotated* for worker processes; returns ``(ctx, spill)``.

    Preferred path: the ``fork`` start method, with the trace parked in
    the module global so children inherit it copy-on-write (``spill``
    is ``None``).  Platforms without fork get the ``spawn`` context and
    a temporary ``.npz`` spill each worker must load.  ``(None, None)``
    means no multiprocessing context is usable at all and the caller
    should run serially.  Balance every successful call with
    :func:`unshare_annotated`.
    """
    global _WORKER_ANNOTATED
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = None
    if ctx is not None:
        _WORKER_ANNOTATED = annotated
        return ctx, None
    spill_path = None
    try:
        from repro.trace.io import save_annotated

        fd, spill_path = tempfile.mkstemp(
            prefix="repro-sweep-", suffix=".npz"
        )
        os.close(fd)
        save_annotated(annotated, spill_path)
        return multiprocessing.get_context("spawn"), spill_path
    except (OSError, ValueError):
        if spill_path is not None:
            try:
                os.unlink(spill_path)
            except OSError:
                pass
        return None, None


def unshare_annotated(spill_path):
    """Drop the shared trace and delete the spill archive, if any."""
    global _WORKER_ANNOTATED
    _WORKER_ANNOTATED = None
    if spill_path is not None:
        try:
            os.unlink(spill_path)
        except OSError:
            pass


@contextlib.contextmanager
def wall_clock_deadline(seconds, make_error):
    """Raise ``make_error(seconds)`` if the body runs past *seconds*.

    SIGALRM-based, so it engages only on platforms that have it and in
    the main thread; elsewhere the body runs unbounded (callers must
    fail-soft on ordinary exceptions regardless).  Nesting is safe: a
    suspended outer deadline is re-armed with its remaining budget when
    the inner one exits.
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise make_error(seconds)

    previous = signal.signal(signal.SIGALRM, _expired)
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining:
            resumed = outer_remaining - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(resumed, 1e-6))


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Retry, timeout and degradation policy for one supervised sweep.

    ``max_retries`` is the number of *re*-executions after the first
    attempt, so a config runs at most ``max_retries + 1`` times before
    quarantine.  ``config_timeout`` bounds one attempt's wall-clock
    seconds (``None`` = unbounded: hangs are then unrecoverable, so
    long campaigns should always set one).  Backoff before retry *n*
    is ``min(backoff_cap, backoff_base * 2**(n-1))`` seconds —
    deterministic, no jitter, keeping chaos runs reproducible.
    ``pool_failure_limit`` is how many worker replacements (deaths or
    timeout kills) the pool tolerates before degrading the remaining
    grid to the serial backend.
    """

    max_retries: int = 2
    config_timeout: float = None
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    pool_failure_limit: int = 16

    def __post_init__(self):
        if not isinstance(self.max_retries, int) \
                or isinstance(self.max_retries, bool) or self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be a non-negative integer,"
                f" got {self.max_retries!r}",
                field="max_retries",
            )
        if self.config_timeout is not None and not self.config_timeout > 0:
            raise ConfigError(
                f"config_timeout must be positive or None,"
                f" got {self.config_timeout!r}",
                field="config_timeout",
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError(
                "backoff_base and backoff_cap must be non-negative",
                field="backoff_base",
            )
        if not isinstance(self.pool_failure_limit, int) \
                or self.pool_failure_limit < 0:
            raise ConfigError(
                f"pool_failure_limit must be a non-negative integer,"
                f" got {self.pool_failure_limit!r}",
                field="pool_failure_limit",
            )

    @property
    def attempts_allowed(self):
        return self.max_retries + 1

    def backoff_delay(self, failed_attempts):
        """Seconds to wait before the next attempt."""
        if not self.backoff_base:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_base * (2.0 ** (failed_attempts - 1)),
        )


@dataclasses.dataclass
class QuarantinedConfig:
    """One dead-lettered grid point of a supervised sweep."""

    label: str
    key: str
    attempts: int
    error: str

    def describe(self):
        """One human-readable line for the quarantine report."""
        return (
            f"{self.label}: quarantined after {self.attempts}"
            f" attempt(s); last error: {self.error}"
        )


@dataclasses.dataclass
class SupervisedSweepResult(SweepResult):
    """A :class:`SweepResult` plus the supervision outcome.

    ``results`` holds every configuration that finished (restored from
    the journal or executed this run) in grid order; quarantined
    configurations are absent from it and listed in ``quarantined``.
    """

    quarantined: list = dataclasses.field(default_factory=list)
    resumed: int = 0            #: configs restored from the journal
    executed: int = 0           #: configs simulated in this run
    worker_replacements: int = 0
    degraded_to_serial: bool = False

    @property
    def complete(self):
        """True when every grid point produced a result."""
        return not self.quarantined

    def quarantine_report(self):
        """One line per dead-lettered config (empty string when none)."""
        return "\n".join(q.describe() for q in self.quarantined)


class _Task:
    """Parent-side bookkeeping for one grid point."""

    __slots__ = ("index", "label", "machine", "key", "attempts",
                 "not_before", "last_error")

    def __init__(self, index, label, machine, key, attempts=0):
        self.index = index
        self.label = label
        self.machine = machine
        self.key = key
        self.attempts = attempts
        self.not_before = 0.0
        self.last_error = None


class _Worker:
    """Parent-side handle for one pool worker process."""

    __slots__ = ("id", "process", "conn", "task", "deadline", "started")

    def __init__(self, worker_id, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.task = None
        self.deadline = None
        self.started = None


def _simulate_config(annotated, machine, workload):
    """Run one grid point, dispatching on the config's engine family.

    A supervised sweep carries either MLPsim
    :class:`~repro.core.config.MachineConfig` entries or cyclesim
    :class:`~repro.cyclesim.config.CycleSimConfig` entries; both ride
    the same journal, retry and quarantine machinery.  MLPsim configs
    run on the scalar engine, one config per task, as a scalar sweep
    promises.
    """
    from repro.core.mlpsim import simulate_scalar
    from repro.cyclesim.config import CycleSimConfig
    from repro.cyclesim.simulator import run_cyclesim

    if isinstance(machine, CycleSimConfig):
        return run_cyclesim(annotated, machine, workload=workload)
    return simulate_scalar(annotated, machine, workload=workload)


def _worker_main(conn, spill_path, fault_spec, workload):
    """Sweep worker loop: take a task, simulate, return the result.

    Runs in a child process; *conn* is its end of the pipe to the
    parent.  The annotated trace arrives either copy-on-write through
    the module global (fork) or from the spilled archive (spawn).  The
    fault plan re-parses from its spec string so chaos schedules
    survive any start method.  A ``None`` task (or a closed pipe) is
    the shutdown sentinel.
    """
    if spill_path is not None:
        from repro.trace.io import load_annotated

        annotated = load_annotated(spill_path)
    else:
        annotated = _WORKER_ANNOTATED
    plan = ProcessFaultPlan.parse(fault_spec)
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        task_index, label, machine, attempt = item
        try:
            plan.apply_in_worker(label, attempt)
            result = _simulate_config(annotated, machine, workload)
        except Exception as exc:
            conn.send(
                (task_index, False, f"{type(exc).__name__}: {exc}")
            )
        else:
            conn.send((task_index, True, result))


class _SweepState:
    """Mutable run state shared by the pool and serial executors."""

    def __init__(self, policy, plan, journal, progress, workload):
        self.policy = policy
        self.plan = plan
        self.journal = journal
        self.progress = progress
        self.workload = workload
        self.results = {}          # label -> MLPResult (executed this run)
        self.quarantined = []      # QuarantinedConfig
        self.worker_replacements = 0

    def journal_attempt(self, task):
        if self.journal is not None:
            self.journal.record_attempt(task.key, task.label, task.attempts)

    def complete(self, task, result, elapsed):
        if self.journal is not None:
            self.journal.record_result(
                task.key, task.label, task.attempts, round(elapsed, 3),
                result,
            )
        self.results[task.label] = result
        if self.progress is not None:
            self.progress(task.label)

    def fail(self, task, error, elapsed):
        """Record one failed attempt; True when the task may retry."""
        message = (
            f"{error} (config {task.label!r}, attempt {task.attempts}"
            f" of {self.policy.attempts_allowed},"
            f" after {elapsed:.1f}s)"
        )
        task.last_error = message
        if self.journal is not None:
            self.journal.record_failure(
                task.key, task.label, task.attempts, round(elapsed, 3),
                message,
            )
        if task.attempts >= self.policy.attempts_allowed:
            if self.journal is not None:
                self.journal.record_quarantine(
                    task.key, task.label, task.attempts, message
                )
            self.quarantined.append(QuarantinedConfig(
                label=task.label, key=task.key, attempts=task.attempts,
                error=message,
            ))
            return False
        task.not_before = (
            time.monotonic() + self.policy.backoff_delay(task.attempts)
        )
        return True


def _run_serial(annotated, tasks, state):
    """Drain *tasks* in grid order on the serial backend."""
    policy = state.policy
    for task in tasks:
        while True:
            delay = task.not_before - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            task.attempts += 1
            state.journal_attempt(task)
            started = time.monotonic()
            try:
                with wall_clock_deadline(
                    policy.config_timeout,
                    lambda seconds, label=task.label: SweepTimeout(
                        f"config exceeded its {seconds:g}s attempt"
                        " budget",
                        field=label,
                    ),
                ):
                    # Inside the deadline: a fault-injected hang models
                    # the simulation hanging, so SIGALRM must cover it.
                    state.plan.apply_serial(task.label, task.attempts)
                    result = _simulate_config(
                        annotated, task.machine, state.workload
                    )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                elapsed = time.monotonic() - started
                if not state.fail(
                    task, f"{type(exc).__name__}: {exc}", elapsed
                ):
                    break
            else:
                state.complete(task, result, time.monotonic() - started)
                break


def _spawn_worker(ctx, worker_id, spill_path, state):
    conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_worker_main,
        args=(child_conn, spill_path, state.plan.spec, state.workload),
        daemon=True,
    )
    try:
        process.start()
    except BaseException:
        conn.close()
        raise
    finally:
        # Only the worker keeps the child end, so its death reads as
        # EOF on ours.
        child_conn.close()
    return _Worker(worker_id, process, conn)


def _shutdown_pool(workers):
    """Stop every worker: sentinel the living, kill the stubborn."""
    for worker in workers.values():
        if worker.process.is_alive():
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
    for worker in workers.values():
        worker.process.join(timeout=0.5)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=_KILL_JOIN_SECONDS)
        worker.conn.close()


def _run_pool(annotated, tasks, state, n_jobs):
    """Drain *tasks* on a supervised worker pool.

    Returns the tasks still unfinished when the pool degrades (too
    many worker replacements) or cannot be built at all; the caller
    finishes them serially.  An empty return means the pool drained
    everything (completions and quarantines both count as finished).
    """
    policy = state.policy
    ctx, spill_path = share_annotated(annotated)
    if ctx is None:
        return tasks
    workers = {}
    next_worker_id = 0
    waiting = collections.deque(tasks)
    inflight = {}  # task.index -> _Task
    try:
        try:
            for _ in range(min(n_jobs, len(tasks))):
                workers[next_worker_id] = _spawn_worker(
                    ctx, next_worker_id, spill_path, state
                )
                next_worker_id += 1
        except OSError:
            return list(waiting)

        def _recover(worker, error, elapsed):
            """Handle a dead/hung worker: requeue or quarantine its task."""
            task = worker.task
            worker.task = None
            state.worker_replacements += 1
            del workers[worker.id]
            worker.conn.close()
            if task is not None:
                inflight.pop(task.index, None)
                if state.fail(task, error, elapsed):
                    waiting.append(task)

        while waiting or inflight:
            now = time.monotonic()
            # Dispatch ready tasks to idle workers, grid order first.
            idle = [w for w in workers.values() if w.task is None]
            for worker in idle:
                task = None
                for _ in range(len(waiting)):
                    candidate = waiting.popleft()
                    if candidate.not_before <= now:
                        task = candidate
                        break
                    waiting.append(candidate)  # still backing off
                if task is None:
                    break
                task.attempts += 1
                state.journal_attempt(task)
                worker.task = task
                worker.started = now
                worker.deadline = (
                    now + policy.config_timeout
                    if policy.config_timeout is not None else None
                )
                inflight[task.index] = task
                try:
                    worker.conn.send(
                        (task.index, task.label, task.machine,
                         task.attempts)
                    )
                except OSError:
                    pass  # the worker is dead; the police pass recovers

            # Collect completions (or time out and police the pool).
            by_conn = {worker.conn: worker for worker in workers.values()}
            for conn in multiprocessing.connection.wait(
                list(by_conn), timeout=_POLL_SECONDS
            ):
                worker = by_conn[conn]
                try:
                    task_index, ok, payload = conn.recv()
                except (EOFError, OSError):
                    # The worker died; the police pass below recovers
                    # its task once the process is reaped.
                    worker.process.join(timeout=_KILL_JOIN_SECONDS)
                    continue
                task = inflight.pop(task_index, None)
                elapsed = time.monotonic() - worker.started
                worker.task = None
                worker.deadline = None
                if task is not None:
                    if ok:
                        state.complete(task, payload, elapsed)
                    elif state.fail(task, payload, elapsed):
                        waiting.append(task)
            # Police the pool: dead workers and blown deadlines.
            now = time.monotonic()
            for worker in list(workers.values()):
                if not worker.process.is_alive():
                    elapsed = now - worker.started if worker.started else 0.0
                    exitcode = worker.process.exitcode
                    _recover(
                        worker,
                        f"worker process died (exit code {exitcode})",
                        elapsed,
                    )
                elif worker.deadline is not None and now > worker.deadline:
                    worker.process.kill()
                    worker.process.join(timeout=_KILL_JOIN_SECONDS)
                    _recover(
                        worker,
                        f"SweepTimeout: config exceeded its"
                        f" {policy.config_timeout:g}s attempt budget"
                        " (worker killed)",
                        now - worker.started,
                    )
            if state.worker_replacements > policy.pool_failure_limit:
                # The pool keeps dying; hand the rest to the serial
                # backend rather than thrash respawning workers.
                remaining = list(waiting) + list(inflight.values())
                waiting.clear()
                inflight.clear()
                return remaining
            # Respawn up to the worker budget while work remains.
            while len(workers) < min(n_jobs, len(waiting) + len(inflight)):
                try:
                    workers[next_worker_id] = _spawn_worker(
                        ctx, next_worker_id, spill_path, state
                    )
                    next_worker_id += 1
                except OSError:
                    remaining = list(waiting) + list(inflight.values())
                    waiting.clear()
                    inflight.clear()
                    return remaining
        return []
    finally:
        _shutdown_pool(workers)
        unshare_annotated(spill_path)


def supervised_sweep(annotated, machines, workload=None, seed=None,
                     trace_len=None, jobs=None, journal_path=None,
                     resume=False, policy=None, progress=None,
                     fault_plan=None):
    """Run a machine grid under crash-safe supervision.

    Parameters mirror :func:`repro.analysis.sweep.sweep` plus:

    seed, trace_len:
        Workload identity folded into each config's journal key
        (defaults: ``None`` and ``len(annotated.trace)``).  Pass the
        same values when resuming — the journal meta check enforces it.
        Keys are computed only when a journal is open.
    journal_path:
        JSON-lines journal location.  Without it the sweep is still
        supervised (timeouts, retries, quarantine, worker replacement)
        but not resumable.
    resume:
        Replay an existing journal first and re-execute only
        configurations it marks unfinished.  With ``resume=False`` an
        existing journal file is truncated and the sweep starts over.
    policy:
        A :class:`SupervisorPolicy` (default: 2 retries, no timeout).
    fault_plan:
        A :class:`~repro.robustness.faults.ProcessFaultPlan` for chaos
        testing; defaults to ``REPRO_PROCESS_FAULTS`` (normally empty).

    Returns a :class:`SupervisedSweepResult`; quarantined configs are
    reported there, fail-soft, rather than raised.  ``progress`` fires
    per completed label — in grid order on the serial backend, in
    completion order on the pool.
    """
    policy = policy if policy is not None else SupervisorPolicy()
    plan = fault_plan if fault_plan is not None \
        else ProcessFaultPlan.from_env()
    pairs = grid_pairs(machines)
    name = workload or annotated.trace.name
    if trace_len is None:
        trace_len = len(annotated.trace)
    tasks = [
        _Task(index, label, machine,
              None if journal_path is None
              else config_key(name, seed, trace_len, machine))
        for index, (label, machine) in enumerate(pairs)
    ]

    journal = None
    restored = {}
    prior_quarantine = []
    if journal_path is not None:
        journal = SweepJournal(journal_path)
        if plan is not None and not plan.empty:
            journal.tear_hook = (
                lambda record: record.get("type") == "result"
                and plan.should_crash_journal(
                    record.get("label"), record.get("attempt")
                )
            )
        if resume and os.path.exists(journal.path):
            journal_state = journal.check_meta(name, seed, trace_len)
            for task in tasks:
                task.attempts = journal_state.attempts.get(task.key, 0)
                if task.key in journal_state.results:
                    restored[task.label] = result_from_payload(
                        journal_state.results[task.key]
                    )
                elif task.key in journal_state.quarantined:
                    dead = journal_state.quarantined[task.key]
                    prior_quarantine.append(QuarantinedConfig(
                        label=task.label, key=task.key,
                        attempts=dead["attempts"], error=dead["error"],
                    ))
        else:
            journal.initialize(name, seed, trace_len)

    finished_labels = set(restored)
    finished_labels.update(q.label for q in prior_quarantine)
    pending = [t for t in tasks if t.label not in finished_labels]

    state = _SweepState(policy, plan, journal, progress, name)
    state.quarantined.extend(prior_quarantine)

    degraded = False
    if pending:
        n_jobs = min(resolve_jobs(jobs), len(pending))
        if n_jobs > 1:
            leftover = _run_pool(annotated, pending, state, n_jobs)
            if leftover:
                degraded = True
                leftover.sort(key=lambda task: task.index)
                _run_serial(annotated, leftover, state)
        else:
            _run_serial(annotated, pending, state)

    ordered = {}
    for task in tasks:
        if task.label in restored:
            ordered[task.label] = restored[task.label]
        elif task.label in state.results:
            ordered[task.label] = state.results[task.label]
    return SupervisedSweepResult(
        workload=name,
        results=ordered,
        quarantined=state.quarantined,
        resumed=len(restored),
        executed=len(state.results),
        worker_replacements=state.worker_replacements,
        degraded_to_serial=degraded,
    )
