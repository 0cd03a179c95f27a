"""Serial/parallel sweep equivalence and the process-pool backend.

The contract of ``sweep(..., jobs=N)`` is that parallelism is purely an
execution detail: results, label order, and progress callbacks must be
indistinguishable from the serial backend, and a failing worker must
surface as a :class:`SimulationError` naming the configuration label
that failed.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro.analysis.parallel as parallel
import repro.robustness.supervisor as supervisor
from repro.analysis.parallel import resolve_jobs
from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.robustness.errors import ConfigError, SimulationError

GRID_SPECS = ("16A", "64A", "64C", "64E", "128C")


def _grid():
    return [(spec, MachineConfig.named(spec)) for spec in GRID_SPECS]


#: Sweeps that each SIGKILL the worker picking up ``64C``.  That worker
#: has just sent a result, so the kill can land while it still holds
#: whatever the send took; a pool with a lock shared between workers
#: then wedges within a few sweeps.
_REPEATED_KILLS = textwrap.dedent("""
    import os
    import repro.analysis.parallel as parallel
    from repro.analysis.sweep import sweep
    from repro.core.config import MachineConfig
    from repro.robustness.errors import SimulationError
    from repro.trace.annotate import annotate
    from repro.workloads import generate_trace

    os.environ["REPRO_PROCESS_FAULTS"] = "kill:64C@1"
    parallel.effective_cpus = lambda: 2
    annotated = annotate(generate_trace("specjbb2000", 20000))
    grid = [(spec, MachineConfig.named(spec))
            for spec in ("16A", "64A", "64C", "64E", "128C")]
    for _ in range(25):
        try:
            sweep(annotated, grid, jobs=2, engine="scalar")
        except SimulationError as exc:
            assert exc.field == "64C", exc
        else:
            raise AssertionError("the killed worker went unnoticed")
""")


def _result_fields(result):
    """Every MLPResult field, with inhibitor counts expanded."""
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


class TestSerialParallelEquivalence:
    def test_identical_results_across_workloads(self, all_annotated):
        """jobs=4 must match jobs=1 label-for-label on all workloads."""
        for name, annotated in all_annotated.items():
            serial = sweep(annotated, _grid(), jobs=1)
            parallel_run = sweep(annotated, _grid(), jobs=4)
            assert parallel_run.labels() == serial.labels(), name
            for label in serial.labels():
                assert _result_fields(parallel_run.results[label]) == \
                    _result_fields(serial.results[label]), (name, label)

    def test_progress_preserves_grid_order(self, specjbb_annotated):
        seen = []
        result = sweep(specjbb_annotated, _grid(), jobs=4,
                       progress=seen.append)
        assert seen == list(GRID_SPECS)
        assert result.labels() == list(GRID_SPECS)

    def test_env_var_selects_parallel_backend(self, specjbb_annotated,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        via_env = sweep(specjbb_annotated, _grid())
        serial = sweep(specjbb_annotated, _grid(), jobs=1)
        for label in serial.labels():
            assert _result_fields(via_env.results[label]) == \
                _result_fields(serial.results[label])


class TestKernelEnvelope:
    def test_runahead_configs_never_reach_a_published_plan(
            self, specjbb_annotated, monkeypatch):
        """Runahead machines are outside the compiled kernel's envelope:
        a parallel sweep must run them on the scalar engine, not hand
        them to a shared plan that would ignore runahead."""
        # Pin two CPUs so a one-CPU runner cannot cut over to serial.
        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        grid = [
            ("64C", MachineConfig.named("64C")),
            ("RAE", MachineConfig.runahead_machine()),
            ("64C-ra", MachineConfig.named("64C", runahead=True)),
        ]
        wide = sweep(specjbb_annotated, grid, jobs=2)
        scalar = sweep(specjbb_annotated, grid, engine="scalar")
        assert wide.labels() == scalar.labels()
        for label, _ in grid:
            assert _result_fields(wide.results[label]) == \
                _result_fields(scalar.results[label]), label


class _ExplodingMachine:
    """A picklable stand-in that breaks inside the worker.

    It survives the submit-side pickle but has none of the attributes
    ``simulate`` needs, so the failure happens in the worker process —
    exactly the path the label-carrying error wrapper must cover.
    """

    runahead = False


class TestWorkerFailure:
    def test_error_names_failing_label(self, specjbb_annotated):
        grid = _grid()[:2] + [("broken-config", _ExplodingMachine())] \
            + _grid()[2:]
        with pytest.raises(SimulationError) as excinfo:
            sweep(specjbb_annotated, grid, jobs=4)
        assert "broken-config" in str(excinfo.value)
        assert excinfo.value.field == "broken-config"
        # Failure diagnostics carry the attempt count and elapsed time,
        # so a one-line message places the failure in a long campaign.
        assert "attempt 1" in str(excinfo.value)
        assert "after " in str(excinfo.value)

    def test_spawn_spill_path(self, specjbb_annotated, monkeypatch):
        """Forkless platforms spill the trace to a .npz the workers
        load; the results must still match serial (regression: the
        spill used to call save_annotated with swapped arguments)."""
        import multiprocessing

        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                # Mimics multiprocessing's own missing-start-method error.
                raise ValueError("cannot find context for 'fork'")  # reprolint: disable=error-hierarchy
            return real_get_context(method)

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", no_fork
        )
        grid = _grid()[:2]
        serial = sweep(specjbb_annotated, grid, jobs=1)
        spawned = sweep(specjbb_annotated, grid, jobs=2)
        for label in serial.labels():
            assert _result_fields(spawned.results[label]) == \
                _result_fields(serial.results[label])

    def test_serial_fallback_when_no_pool(self, specjbb_annotated,
                                          monkeypatch):
        """If no pool can be created the sweep silently runs serially."""
        monkeypatch.setattr(supervisor, "share_annotated",
                            lambda annotated: (None, None))
        serial = sweep(specjbb_annotated, _grid(), jobs=1)
        fallback = sweep(specjbb_annotated, _grid(), jobs=4)
        for label in serial.labels():
            assert _result_fields(fallback.results[label]) == \
                _result_fields(serial.results[label])


class TestSupervisorPool:
    """Scalar-route grids at ``jobs>1`` run on the supervisor's pool."""

    def test_progress_in_grid_order(self, specjbb_annotated, monkeypatch):
        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        seen = []
        result = sweep(specjbb_annotated, _grid(), jobs=2, engine="scalar",
                       progress=seen.append)
        assert seen == list(GRID_SPECS)
        assert result.labels() == list(GRID_SPECS)

    def test_killed_worker_names_its_label(self, specjbb_annotated,
                                           monkeypatch):
        """A worker SIGKILLed mid-sweep surfaces as a SimulationError
        naming the config it was running, and no worker outlives the
        sweep."""
        import multiprocessing

        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        monkeypatch.setenv("REPRO_PROCESS_FAULTS", "kill:64C@1")
        with pytest.raises(SimulationError) as excinfo:
            sweep(specjbb_annotated, _grid(), jobs=2, engine="scalar")
        assert excinfo.value.field == "64C"
        assert "'64C'" in str(excinfo.value)
        assert "attempt 1" in str(excinfo.value)
        assert multiprocessing.active_children() == []

    def test_repeated_kills_never_wedge_the_pool(self):
        """A worker killed right after sending a result must not leave
        the surviving workers unable to send theirs.  Runs in a child
        process so a wedged pool fails on the timeout instead of hanging
        the suite."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _REPEATED_KILLS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestDuplicateLabels:
    """Every sweep route rejects a repeated label the same way, instead
    of each keeping a different one of the clashing configs."""

    GRID = (("x", "16A"), ("x", "128C"), ("y", "64C"))

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_rejects_duplicates(self, specjbb_annotated, monkeypatch,
                                      jobs, engine):
        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        grid = [(label, MachineConfig.named(spec))
                for label, spec in self.GRID]
        with pytest.raises(ConfigError) as excinfo:
            sweep(specjbb_annotated, grid, jobs=jobs, engine=engine)
        assert excinfo.value.field == "machines"
        assert "'x'" in str(excinfo.value)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_cyclesim_rejects_duplicates(self, specjbb_annotated,
                                               monkeypatch, jobs):
        from repro.analysis.sweep import sweep_cyclesim
        from repro.cyclesim.config import CycleSimConfig

        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        grid = [("x", CycleSimConfig()), ("x", CycleSimConfig(rob=128)),
                ("y", CycleSimConfig())]
        with pytest.raises(ConfigError) as excinfo:
            sweep_cyclesim(specjbb_annotated, grid, jobs=jobs)
        assert excinfo.value.field == "machines"


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_empty_env_var_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs() == 1

    def test_zero_means_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_junk_env_var_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError):
            resolve_jobs()

    def test_negative_raises(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-2)

    def test_non_integer_raises(self):
        with pytest.raises(ConfigError):
            resolve_jobs(2.5)
        with pytest.raises(ConfigError):
            resolve_jobs(True)


class TestRelativeBaselineGuard:
    def test_zero_mlp_baseline_raises_with_label(self):
        """A degenerate baseline must raise, not map everything to 0."""
        from repro.analysis.sweep import SweepResult

        class _Zero:
            mlp = 0.0

        class _Fine:
            mlp = 2.0

        result = SweepResult(
            workload="synthetic",
            results={"dead-baseline": _Zero(), "ok": _Fine()},
        )
        with pytest.raises(SimulationError) as excinfo:
            result.relative("dead-baseline")
        assert "dead-baseline" in str(excinfo.value)

    def test_nonzero_baseline_still_works(self, specjbb_annotated):
        grid = {
            "base": MachineConfig.named("64C"),
            "big": MachineConfig.named("256C"),
        }
        rel = sweep(specjbb_annotated, grid).relative("base")
        assert rel["base"] == pytest.approx(1.0)
