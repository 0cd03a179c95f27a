"""Optimized engine vs. the frozen reference interpreter.

``repro.core.mlpsim`` gained a restructured hot path (hoisted
closures, inlined opcode dispatch, bulk-skipping of on-chip stretches,
memoised interpreter tables); ``repro.core.mlpsim_reference`` is the
verbatim pre-optimization engine kept as a correctness oracle.  Every
optimization must be behaviour-preserving: full ``MLPResult`` equality,
per-epoch membership equality, and identical failure behaviour.
The suite calls :func:`~repro.core.mlpsim.simulate_scalar`, because
``simulate`` serves in-envelope configs from the compiled kernel on
hosts with a C compiler.
"""

import dataclasses

import pytest

from repro.cli import _parse_machine
from repro.core.mlpsim import simulate_scalar
from repro.core.mlpsim_reference import simulate_reference

MACHINE_SPECS = (
    "16A",
    "64A",
    "64B",
    "64C",
    "64D",
    "64E",
    "256E",
    "64C:store_buffer=2",
    "64C:max_outstanding=4",
    "64D:slow_branch_predictor=true",
    "64C:value_prediction=true",
    "64C:perfect_branch=true",
    "64C:perfect_ifetch=true",
    "64C:perfect_value=true",
)


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


@pytest.mark.parametrize("spec", MACHINE_SPECS)
def test_results_bit_identical(all_annotated, spec):
    """Every MLPResult field matches the oracle on every workload."""
    machine = _parse_machine(spec)
    for name, annotated in all_annotated.items():
        fast = simulate_scalar(annotated, machine)
        oracle = simulate_reference(annotated, machine)
        assert _result_fields(fast) == _result_fields(oracle), (name, spec)


def test_epoch_records_identical(specjbb_annotated):
    """record_sets epochs (trigger, members, inhibitor) match exactly."""
    for spec in ("16A", "64C", "64E"):
        machine = _parse_machine(spec)
        fast = simulate_scalar(specjbb_annotated, machine, record_sets=True)
        oracle = simulate_reference(specjbb_annotated, machine,
                                    record_sets=True)
        fast_epochs = [
            (e.index, e.trigger, e.trigger_kind, e.accesses, e.inhibitor,
             tuple(e.members))
            for e in fast.epoch_records
        ]
        oracle_epochs = [
            (e.index, e.trigger, e.trigger_kind, e.accesses, e.inhibitor,
             tuple(e.members))
            for e in oracle.epoch_records
        ]
        assert fast_epochs == oracle_epochs, spec


def test_subregion_results_identical(database_annotated):
    """Explicit (start, stop) windows agree with the oracle too."""
    machine = _parse_machine("64C")
    start = database_annotated.measure_start
    for stop in (start + 5_000, start + 20_000):
        fast = simulate_scalar(database_annotated, machine,
                               start=start, stop=stop)
        oracle = simulate_reference(database_annotated, machine,
                                    start=start, stop=stop)
        assert _result_fields(fast) == _result_fields(oracle), stop


def test_repeated_runs_are_stable(specweb_annotated):
    """Memoised interpreter tables must not leak state between runs."""
    machine = _parse_machine("64C")
    first = simulate_scalar(specweb_annotated, machine)
    second = simulate_scalar(specweb_annotated, machine)
    assert _result_fields(first) == _result_fields(second)


def test_zero_store_buffer_parity(database_annotated):
    """``store_buffer=0`` livelocks the seed engine; the optimized
    engine must fail identically (same error, same instruction) rather
    than silently diverge."""
    machine = _parse_machine("64C:store_buffer=0")
    fast_error = oracle_error = None
    try:
        simulate_scalar(database_annotated, machine)
    except RuntimeError as exc:
        fast_error = str(exc)
    try:
        simulate_reference(database_annotated, machine)
    except RuntimeError as exc:
        oracle_error = str(exc)
    assert fast_error == oracle_error
