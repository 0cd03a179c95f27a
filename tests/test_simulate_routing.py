"""Which engine tier serves ``simulate()``.

``repro.core.mlpsim.simulate`` sends every configuration inside the
compiled kernel's envelope to one ``run_plan`` call and everything else
— runahead machines, ``record_sets`` runs, configs outside the kernel
contract, regions longer than its ``n_max``, hosts without a C
compiler — to ``simulate_scalar``.  These tests spy on ``run_plan`` to
pin the routing, and check that each route returns the scalar engine's
(and, where one exists, the frozen reference's) result.  On a host
without a compiler every test still runs: the in-envelope config must
then take the scalar engine too.
"""

import dataclasses

import pytest

import repro.core.ckernel as ckernel
from repro.analysis.sweep import sweep
from repro.core.batched import batched_supported
from repro.core.columnar import PLAN_CONTRACT
from repro.core.config import MachineConfig
from repro.core.mlpsim import simulate, simulate_scalar
from repro.core.mlpsim_reference import simulate_reference

#: A valid config whose ROB is past the kernel contract's ``1 << 24``.
HUGE_ROB = MachineConfig.named("64C", rob=1 << 25)


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count ``run_plan`` calls (each one a kernel invocation)."""
    calls = []
    real = ckernel.run_plan

    def spy(plan, machines, workload):
        calls.append([label for label, _ in machines])
        return real(plan, machines, workload)

    monkeypatch.setattr(ckernel, "run_plan", spy)
    return calls


@pytest.fixture
def no_kernel(monkeypatch):
    """Disable the compiled kernel (as if no C toolchain existed)."""
    monkeypatch.setattr(ckernel, "_probed", True)
    monkeypatch.setattr(ckernel, "_kernel", None)
    monkeypatch.setattr(
        ckernel, "_kernel_error",
        RuntimeError("kernel disabled for test"),  # reprolint: disable=error-hierarchy
    )


@pytest.mark.parametrize("label", ["16A", "64C", "256E"])
def test_in_envelope_config_takes_one_kernel_call(
        specjbb_annotated, kernel_calls, label):
    machine = MachineConfig.named(label)
    result = simulate(specjbb_annotated, machine, workload="specjbb2000")
    oracle = simulate_reference(specjbb_annotated, machine,
                                workload="specjbb2000")
    assert _result_fields(result) == _result_fields(oracle)
    assert len(kernel_calls) == (1 if ckernel.kernel_available() else 0)


def test_subregion_takes_the_kernel(database_annotated, kernel_calls):
    machine = MachineConfig.named("64C")
    start = database_annotated.measure_start
    stop = start + 5_000
    result = simulate(database_annotated, machine, start=start, stop=stop)
    oracle = simulate_reference(database_annotated, machine,
                                start=start, stop=stop)
    assert _result_fields(result) == _result_fields(oracle)
    assert len(kernel_calls) == (1 if ckernel.kernel_available() else 0)


@pytest.mark.parametrize("machine, record_sets", [
    (MachineConfig.runahead_machine(), False),
    (MachineConfig.named("64C"), True),
    (HUGE_ROB, False),
], ids=["runahead", "record_sets", "out-of-contract"])
def test_out_of_envelope_takes_the_scalar_engine(
        specweb_annotated, kernel_calls, machine, record_sets):
    assert not batched_supported(machine, record_sets)
    result = simulate(specweb_annotated, machine, record_sets=record_sets)
    scalar = simulate_scalar(specweb_annotated, machine,
                             record_sets=record_sets)
    assert _result_fields(result) == _result_fields(scalar)
    assert kernel_calls == []


def test_region_past_n_max_takes_the_scalar_engine(
        specweb_annotated, kernel_calls, monkeypatch):
    monkeypatch.setitem(PLAN_CONTRACT, "n_max", 1_000)
    machine = MachineConfig.named("64C")
    start = specweb_annotated.measure_start
    result = simulate(specweb_annotated, machine, start=start,
                      stop=start + 1_001)
    scalar = simulate_scalar(specweb_annotated, machine, start=start,
                             stop=start + 1_001)
    assert _result_fields(result) == _result_fields(scalar)
    assert kernel_calls == []


def test_no_kernel_takes_the_scalar_engine(specweb_annotated, kernel_calls,
                                           no_kernel):
    machine = MachineConfig.named("64C")
    assert not batched_supported(machine)
    result = simulate(specweb_annotated, machine)
    oracle = simulate_reference(specweb_annotated, machine)
    assert _result_fields(result) == _result_fields(oracle)
    assert kernel_calls == []


def test_scalar_sweep_never_calls_the_kernel(specweb_annotated,
                                             kernel_calls):
    grid = [(label, MachineConfig.named(label))
            for label in ("32A", "64C", "128E")]
    result = sweep(specweb_annotated, grid, engine="scalar", jobs=1)
    assert kernel_calls == []
    for label, machine in grid:
        oracle = simulate_reference(specweb_annotated, machine,
                                    workload=result.workload)
        assert _result_fields(result.results[label]) == \
            _result_fields(oracle), label


class TestOutOfContractConfig:
    """A valid config the kernel contract does not cover (here a ROB of
    ``1 << 25``) falls back to the scalar engine instead of raising."""

    def test_rejected_by_the_envelope(self):
        assert not batched_supported(HUGE_ROB)
        assert ckernel.kernel_available() == batched_supported(
            MachineConfig.named("64C", rob=1 << 24)
        )

    def test_simulate_returns_the_scalar_result(self, specjbb_annotated):
        assert _result_fields(simulate(specjbb_annotated, HUGE_ROB)) == \
            _result_fields(simulate_scalar(specjbb_annotated, HUGE_ROB))

    @pytest.mark.parametrize("grid", [
        [("big", HUGE_ROB)],
        [("64C", MachineConfig.named("64C")), ("big", HUGE_ROB)],
    ], ids=["alone", "mixed"])
    def test_auto_sweep_returns_the_scalar_result(self, specjbb_annotated,
                                                  grid):
        result = sweep(specjbb_annotated, grid, jobs=1, engine="auto")
        for label, machine in grid:
            scalar = simulate_scalar(specjbb_annotated, machine,
                                     workload=result.workload)
            assert _result_fields(result.results[label]) == \
                _result_fields(scalar), label
