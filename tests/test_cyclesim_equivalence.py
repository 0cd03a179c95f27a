"""Compiled cycle simulator vs. the frozen reference simulator.

``repro.cyclesim.simulator`` runs the compiled batch kernel (wakeup
memoisation, a FIFO completion wheel, precomputed per-instruction
tables); ``repro.cyclesim.simulator_reference`` is the verbatim
pre-optimization simulator kept as the correctness oracle, SHA-pinned
in the reprolint manifest, and the fallback on hosts without a C
compiler.  The kernel must be behaviour-preserving: full
:class:`CycleMetrics` equality — cycles, access counters, MLP integrals
and the whole CPI stack — across the paper's validation grid (Table 3:
ROB {32,64,128} x policies A-C x latencies {200,500,1000}) on every
workload.
"""

import dataclasses

import pytest

import repro.cyclesim.ckernel as ckernel
from repro.analysis.sweep import sweep_cyclesim
from repro.core.config import MachineConfig
from repro.cyclesim import CycleSimConfig, run_cyclesim
from repro.cyclesim.ckernel import kernel_available
from repro.cyclesim.plan import cycle_plan_for
from repro.cyclesim.simulator import run_cycle_pairs
from repro.cyclesim.simulator_reference import (
    run_cyclesim as run_cyclesim_reference,
)
from repro.robustness.errors import InternalError
from repro.trace.annotate import annotate
from repro.workloads import generate_trace

#: Instructions per equivalence run: long enough to exercise deep MSHR
#: merging, redirects and serializing drains on every workload, short
#: enough that 81 reference runs stay test-suite friendly.
REGION = 30000

SIZES = (32, 64, 128)
POLICIES = "ABC"
LATENCIES = (200, 500, 1000)


def _grid():
    for size in SIZES:
        for letter in POLICIES:
            for latency in LATENCIES:
                yield CycleSimConfig.from_machine(
                    MachineConfig.named(f"{size}{letter}"),
                    miss_penalty=latency,
                )


def _fields(metrics):
    return dataclasses.asdict(metrics)


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler for the cyclesim kernel"
)
def test_grid_bit_identical_kernel(all_annotated):
    """The compiled batch kernel matches the oracle on the full grid."""
    pairs = [(f"cfg{i}", config) for i, config in enumerate(_grid())]
    for name, annotated in all_annotated.items():
        stop = min(annotated.measure_start + REGION,
                   len(annotated.trace))
        plan = cycle_plan_for(annotated, None, stop)
        batch = run_cycle_pairs(plan, pairs, name)
        for label, config in pairs:
            oracle = run_cyclesim_reference(
                annotated, config, stop=stop, workload=name
            )
            assert _fields(batch[label]) == _fields(oracle), (name, label)


def test_perfect_l2_and_event_skip_tiers(database_annotated):
    """The off-grid knobs (perfect L2, cycle-by-cycle clock) match too."""
    stop = min(database_annotated.measure_start + 8000,
               len(database_annotated.trace))
    machine = MachineConfig.named("64C")
    for overrides in (
        {"perfect_l2": True},
        {"event_skip": False},
        {"perfect_l2": True, "event_skip": False},
    ):
        config = CycleSimConfig.from_machine(
            machine, miss_penalty=500, **overrides
        )
        oracle = run_cyclesim_reference(database_annotated, config,
                                        stop=stop)
        fast = run_cyclesim(database_annotated, config, stop=stop)
        assert _fields(fast) == _fields(oracle), overrides


def test_labels_match_reference(database_annotated):
    """Metric labels (config rendering) survive the rewrite unchanged."""
    stop = min(database_annotated.measure_start + 4000,
               len(database_annotated.trace))
    config = CycleSimConfig.from_machine(
        MachineConfig.named("32A"), miss_penalty=200, perfect_l2=True
    )
    fast = run_cyclesim(database_annotated, config, stop=stop)
    oracle = run_cyclesim_reference(database_annotated, config, stop=stop)
    assert fast.label == oracle.label
    assert fast.workload == oracle.workload


@pytest.fixture
def no_cycle_kernel(monkeypatch):
    """Disable the compiled cyclesim kernel (as if no C toolchain
    existed)."""
    monkeypatch.setattr(ckernel, "_probed", True)
    monkeypatch.setattr(ckernel, "_kernel", None)
    monkeypatch.setattr(
        ckernel, "_kernel_error",
        RuntimeError("kernel disabled for test"),  # reprolint: disable=error-hierarchy
    )


@pytest.fixture(scope="module")
def small_annotated():
    """A short trace: without the kernel every config replays the
    reference simulator over the whole of it."""
    return annotate(generate_trace("database", 12000))


class TestNoCompiler:
    """With the kernel disabled, entry points that hold the annotated
    trace run the reference; the plan-only entry point refuses."""

    def test_sweep_cyclesim_matches_reference(self, small_annotated,
                                              no_cycle_kernel):
        pairs = [(f"cfg{i}", config) for i, config in enumerate(_grid())
                 if i % 9 == 0]
        swept = sweep_cyclesim(small_annotated, pairs, jobs=2)
        assert swept.labels() == [label for label, _ in pairs]
        for label, config in pairs:
            oracle = run_cyclesim_reference(small_annotated, config)
            assert _fields(swept.results[label]) == _fields(oracle), label

    def test_run_cycle_pairs_needs_kernel(self, small_annotated,
                                          no_cycle_kernel):
        plan = cycle_plan_for(small_annotated)
        with pytest.raises(InternalError, match="kernel disabled for test"):
            run_cycle_pairs(plan, [("run", CycleSimConfig())], "database")
