"""Config-batched engine vs. the frozen reference interpreter.

The batched engine (:mod:`repro.core.batched`) replaces N scalar
replays of a sweep with one compiled kernel pass per event-mask group
over a shared columnar plan.  The refactor is only admissible if every
result is **bit-identical** to ``mlpsim_reference.simulate_reference``,
the verbatim pre-optimization oracle, across the paper's whole grid
axis: window sizes x issue policies A-E x perfect-* switches, plus the
structure-limit families (MSHRs, store buffer, slow branch predictor,
value prediction).

Both host kinds are pinned: the suite runs once against whatever the
host resolves (the kernel, normally) and once with the kernel forcibly
disabled, as on a host without a C compiler, where every entry point
that holds the annotated trace runs the scalar engine.
"""

import dataclasses

import pytest

import repro.analysis.parallel as parallel
import repro.core.ckernel as ckernel
from repro.core.batched import (
    batched_supported,
    simulate_batch,
    simulate_batched,
    simulate_plan,
)
from repro.core.columnar import plan_for
from repro.core.config import MachineConfig
from repro.core.mlpsim_reference import simulate_reference
from repro.robustness.errors import InternalError

#: The paper's grid axis: every window size crossed with every Table 2
#: issue policy.
FULL_GRID = [
    f"{window}{policy}"
    for window in (16, 32, 64, 128, 256, 512)
    for policy in "ABCDE"
]

#: Every perfect-* switch combination on the default window.
PERFECT_GRID = [
    ("64C" + "".join(tag for tag, on in
                     zip(("-pi", "-pb", "-pv"), combo) if on),
     dict(zip(("perfect_ifetch", "perfect_branch", "perfect_value"),
              combo)))
    for combo in [(i, b, v) for i in (False, True)
                  for b in (False, True) for v in (False, True)]
    if any(combo)
]

#: Structure-limit and predictor families the kernel special-cases.
LIMIT_GRID = [
    ("64C-mshr4", {"max_outstanding": 4}),
    ("64C-mshr1", {"max_outstanding": 1}),
    ("64A-sb2", {"store_buffer": 2}),
    ("64B-sb1", {"store_buffer": 1}),
    ("64C-vp", {"value_prediction": True}),
    ("64D-slowbp", {"slow_branch_predictor": True,
                    "slow_bp_accuracy": 0.9}),
    ("64E-slowbp", {"slow_branch_predictor": True,
                    "slow_bp_accuracy": 0.5}),
]


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


def _machine(label, overrides=None):
    base = label.split("-")[0]
    return MachineConfig.named(base, **(overrides or {}))


@pytest.fixture
def no_kernel(monkeypatch):
    """Disable the compiled kernel (as if no C toolchain existed)."""
    monkeypatch.setattr(ckernel, "_probed", True)
    monkeypatch.setattr(ckernel, "_kernel", None)
    monkeypatch.setattr(
        ckernel, "_kernel_error",
        RuntimeError("kernel disabled for test"),  # reprolint: disable=error-hierarchy
    )


class TestFullGridKernel:
    def test_window_policy_grid_bit_identical(self, specjbb_annotated):
        """All 30 window x policy configs, one batch vs. the oracle."""
        grid = [(label, _machine(label)) for label in FULL_GRID]
        batch = simulate_batch(
            specjbb_annotated, grid, workload="specjbb2000"
        )
        assert list(batch) == [label for label, _ in grid]
        for label, machine in grid:
            oracle = simulate_reference(
                specjbb_annotated, machine, workload="specjbb2000"
            )
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_perfect_switches_bit_identical(self, database_annotated):
        grid = [(label, _machine("64C", overrides))
                for label, overrides in PERFECT_GRID]
        batch = simulate_batch(database_annotated, grid,
                               workload="database")
        for label, machine in grid:
            oracle = simulate_reference(database_annotated, machine,
                                        workload="database")
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_structure_limits_bit_identical(self, specweb_annotated):
        grid = [(label, _machine(label, overrides))
                for label, overrides in LIMIT_GRID]
        batch = simulate_batch(specweb_annotated, grid,
                               workload="specweb99")
        for label, machine in grid:
            oracle = simulate_reference(specweb_annotated, machine,
                                        workload="specweb99")
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_cross_workload_spot_checks(self, all_annotated):
        for label in ("16A", "64C", "256E", "64B"):
            machine = _machine(label)
            for name, annotated in all_annotated.items():
                fast = simulate_batched(annotated, machine, workload=name)
                oracle = simulate_reference(annotated, machine,
                                            workload=name)
                assert _result_fields(fast) == _result_fields(oracle), \
                    (name, label)


class TestNumpyFallback:
    """The no-compiler suite: with the kernel disabled, every entry point
    that holds the annotated trace runs the scalar engine and matches
    the oracle, and the plan-only entry point refuses loudly.  (The
    class is named for the NumPy tier that once served this path.)"""

    def test_grid_bit_identical_without_kernel(self, specjbb_annotated,
                                               no_kernel):
        assert not ckernel.kernel_available()
        labels = [f"{w}{p}" for w in (16, 64, 256) for p in "ABCDE"]
        grid = [(label, _machine(label)) for label in labels]
        batch = simulate_batch(specjbb_annotated, grid,
                               workload="specjbb2000")
        for label, machine in grid:
            oracle = simulate_reference(specjbb_annotated, machine,
                                        workload="specjbb2000")
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_value_prediction_delegates_cleanly(self, specjbb_annotated,
                                                no_kernel):
        """Value prediction is inside the kernel's envelope, but with no
        kernel the scalar engine takes over and still matches the oracle
        bit for bit."""
        machine = MachineConfig.named("64C", value_prediction=True)
        assert not batched_supported(machine)
        oracle = simulate_reference(specjbb_annotated, machine,
                                    workload="specjbb2000")
        fast = simulate_batched(specjbb_annotated, machine,
                                workload="specjbb2000")
        batch = simulate_batch(specjbb_annotated, [("64C-vp", machine)],
                               workload="specjbb2000")
        assert _result_fields(fast) == _result_fields(oracle)
        assert _result_fields(batch["64C-vp"]) == _result_fields(oracle)

    def test_kernel_vs_fallback_same_results(self, database_annotated,
                                             monkeypatch):
        """The kernel and the no-compiler path agree with each other, not
        just with the oracle (guards against the suite accidentally
        testing one path twice).
        """
        if not ckernel.kernel_available():
            pytest.skip("no C toolchain: only one path exists here")
        grid = [(label, _machine(label)) for label in ("32A", "64C", "128E")]
        with_kernel = simulate_batch(database_annotated, grid,
                                     workload="database")
        monkeypatch.setattr(ckernel, "_kernel", None)
        monkeypatch.setattr(
            ckernel, "_kernel_error",
            RuntimeError("kernel disabled for test"),  # reprolint: disable=error-hierarchy
        )
        without = simulate_batch(database_annotated, grid,
                                 workload="database")
        for label, _ in grid:
            assert _result_fields(with_kernel[label]) == \
                _result_fields(without[label]), label

    def test_parallel_sweep_takes_scalar_pool(self, specweb_annotated,
                                              no_kernel, monkeypatch):
        """``sweep(engine="auto", jobs=2)`` takes the scalar route and
        its worker pool, never a published plan."""
        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        pools = []
        real_pool = parallel.parallel_sweep_results

        def recording_pool(*args, **kwargs):
            pools.append(args[1])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(parallel, "parallel_sweep_results",
                            recording_pool)
        monkeypatch.setattr(
            parallel, "batched_parallel_sweep",
            lambda *args, **kwargs: pytest.fail("published a plan"),
        )
        from repro.analysis.sweep import sweep

        grid = [(label, _machine(label)) for label in ("32A", "64C", "128E")]
        auto = sweep(specweb_annotated, grid, engine="auto", jobs=2)
        scalar = sweep(specweb_annotated, grid, engine="scalar", jobs=1)
        assert len(pools) == 1
        assert auto.labels() == scalar.labels()
        for label, _ in grid:
            assert _result_fields(auto.results[label]) == \
                _result_fields(scalar.results[label]), label

    def test_simulate_plan_needs_kernel(self, specweb_annotated,
                                        no_kernel):
        """A plan is kernel input: without the kernel there is nothing
        to run it on, and the error says why."""
        machine = _machine("64C")
        plan = plan_for(specweb_annotated, machine)
        with pytest.raises(InternalError, match="kernel disabled for test"):
            simulate_plan(plan, machine, "specweb99")


class TestEngineSelection:
    def test_runahead_rejected_from_batched_envelope(self):
        machine = MachineConfig.named("64C", runahead=True)
        assert not batched_supported(machine)

    def test_record_sets_rejected(self):
        assert not batched_supported(MachineConfig.named("64C"),
                                     record_sets=True)

    def test_sweep_engine_parity(self, specweb_annotated):
        """``sweep(engine=...)`` routes are label-for-label identical."""
        from repro.analysis.sweep import sweep

        grid = [(label, _machine(label)) for label in ("64A", "64C", "64E")]
        scalar = sweep(specweb_annotated, grid, engine="scalar")
        batched = sweep(specweb_annotated, grid, engine="batched")
        auto = sweep(specweb_annotated, grid, engine="auto")
        for label, _ in grid:
            want = _result_fields(scalar.results[label])
            assert _result_fields(batched.results[label]) == want, label
            assert _result_fields(auto.results[label]) == want, label

    def test_unknown_engine_rejected(self, specweb_annotated):
        from repro.analysis.sweep import sweep
        from repro.robustness.errors import ConfigError

        with pytest.raises(ConfigError):
            sweep(specweb_annotated, [("64C", _machine("64C"))],
                  engine="gpu")
