"""Bounded differential property: each fast path vs. its frozen oracle.

Each simulator keeps one fast path, the compiled kernel, and the
equivalence suites pin it to the frozen reference on the three
workloads' measured regions.  This property draws what those suites
never do: region slices ``[start, stop)`` anywhere in the session
traces (lengths 0 and 1 included, so events land at every position of
a region), and machine configurations across window and ROB size,
issue policy A-E, the perfect-I/BP/VP switches, MSHR and store-buffer
limits (a zero-entry store buffer included), value prediction and the
slow branch predictor — several per kernel call, so per-config scratch
reuse is covered too.

A match is either equal results or the same error message.  The
profile is derandomized and bounded to a few seconds; the tests skip
on hosts without a C compiler, where no fast path exists.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ckernel as mlpsim_kernel
import repro.cyclesim.ckernel as cyclesim_kernel
from repro.core.batched import simulate_batch
from repro.core.config import IssueConfig, MachineConfig
from repro.core.mlpsim_reference import simulate_reference
from repro.cyclesim.config import CycleSimConfig
from repro.cyclesim.plan import cycle_plan_for
from repro.cyclesim.simulator import run_cycle_pairs
from repro.cyclesim.simulator_reference import (
    run_cyclesim as run_cyclesim_reference,
)
from repro.robustness.errors import ReproError

WORKLOADS = ("database", "specjbb2000", "specweb99")

#: Longest region drawn.  Long enough for several epochs and full
#: windows, short enough that the reference replays stay cheap.
MAX_REGION = 3000

PROFILE = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def regions(draw):
    """``(workload, length, offset)``; the test reduces *offset* modulo
    the room the trace leaves for a region of *length*."""
    name = draw(st.sampled_from(WORKLOADS))
    length = draw(st.one_of(
        st.sampled_from((0, 1)), st.integers(2, MAX_REGION)
    ))
    offset = draw(st.integers(0, 1 << 20))
    return name, length, offset


@st.composite
def machines(draw):
    window = draw(st.sampled_from((1, 2, 4, 8, 16, 32, 64, 128, 256)))
    return MachineConfig(
        issue=IssueConfig.from_letter(draw(st.sampled_from("ABCDE"))),
        issue_window=window,
        rob=window * draw(st.sampled_from((1, 2, 4))),
        fetch_buffer=draw(st.sampled_from((0, 1, 8, 32))),
        perfect_ifetch=draw(st.booleans()),
        perfect_branch=draw(st.booleans()),
        perfect_value=draw(st.booleans()),
        value_prediction=draw(st.booleans()),
        max_outstanding=draw(st.one_of(st.none(), st.integers(1, 8))),
        store_buffer=draw(st.one_of(st.none(), st.integers(0, 4))),
        slow_branch_predictor=draw(st.booleans()),
        slow_bp_accuracy=draw(st.sampled_from((0.0, 0.5, 0.85, 1.0))),
    )


@st.composite
def cycle_configs(draw):
    rob = draw(st.sampled_from((1, 4, 16, 32, 64, 128, 256)))
    return CycleSimConfig(
        issue=IssueConfig.from_letter(draw(st.sampled_from("ABCDE"))),
        issue_window=draw(st.integers(1, rob)),
        rob=rob,
        miss_penalty=draw(st.sampled_from((13, 50, 200, 500, 1000))),
        perfect_l2=draw(st.booleans()),
    )


def _slice(all_annotated, region):
    """A fresh view of one session trace plus the drawn region.

    The view shares the trace arrays but none of the per-region memos
    (depgraphs, plans), so drawn regions do not pile up on the session
    fixtures.
    """
    name, length, offset = region
    annotated = dataclasses.replace(all_annotated[name])
    start = offset % (len(annotated.trace) - length + 1)
    return name, annotated, start, start + length


def _outcome(run):
    # The frozen MLPsim reference predates the error hierarchy and
    # raises a bare RuntimeError where the kernel raises InternalError
    # (a RuntimeError too); the messages are what must agree.
    try:
        return "ok", run()
    except (ReproError, RuntimeError) as error:
        return "error", str(error)


def _mlp_fields(result):
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


def _assert_match(fast, oracles, fields):
    """*fast* is the outcome of one batched call over every config;
    *oracles* maps labels to per-config reference outcomes."""
    kind, value = fast
    if kind == "error":
        errors = {v for k, v in oracles.values() if k == "error"}
        assert value in errors, (value, errors)
        return
    for label, (oracle_kind, oracle) in oracles.items():
        assert oracle_kind == "ok", (label, oracle)
        assert fields(value[label]) == fields(oracle), label


@pytest.mark.skipif(not mlpsim_kernel.kernel_available(),
                    reason="no C compiler for the MLPsim kernel")
@PROFILE
@given(region=regions(), grid=st.lists(machines(), min_size=1, max_size=3))
def test_mlpsim_kernel_matches_reference(all_annotated, region, grid):
    name, annotated, start, stop = _slice(all_annotated, region)
    pairs = [(f"m{i}", machine) for i, machine in enumerate(grid)]
    fast = _outcome(lambda: simulate_batch(
        annotated, pairs, start=start, stop=stop, workload=name
    ))
    oracles = {
        label: _outcome(lambda machine=machine: simulate_reference(
            annotated, machine, start=start, stop=stop, workload=name
        ))
        for label, machine in pairs
    }
    _assert_match(fast, oracles, _mlp_fields)


@pytest.mark.skipif(not cyclesim_kernel.kernel_available(),
                    reason="no C compiler for the cyclesim kernel")
@PROFILE
@given(region=regions(),
       grid=st.lists(cycle_configs(), min_size=1, max_size=3))
def test_cyclesim_kernel_matches_reference(all_annotated, region, grid):
    name, annotated, start, stop = _slice(all_annotated, region)
    pairs = [(f"c{i}", config) for i, config in enumerate(grid)]
    fast = _outcome(lambda: run_cycle_pairs(
        cycle_plan_for(annotated, start, stop), pairs, name
    ))
    oracles = {
        label: _outcome(lambda config=config: run_cyclesim_reference(
            annotated, config, start=start, stop=stop, workload=name
        ))
        for label, config in pairs
    }
    _assert_match(fast, oracles, dataclasses.asdict)
