"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

import collections
import json
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

#: Binding sites per wrapped function.  A new ``from x import f`` of a
#: layer function changes a count here: check that the new site is
#: wrapped (it is, if it is a ``repro`` module attribute) and update.
EXPECTED_SITES = {
    "repro.analysis.parallel.batched_parallel_sweep": 1,
    "repro.analysis.parallel.cyclesim_parallel_sweep": 1,
    "repro.analysis.shm.publish_plan": 1,
    "repro.analysis.sweep.sweep": 9,
    "repro.analysis.sweep.sweep_cyclesim": 4,
    "repro.core.batched.simulate_batch": 2,
    "repro.core.ckernel.run_plan": 1,
    "repro.core.columnar.build_plan": 1,
    "repro.core.depgraph.build_depgraph": 1,
    "repro.core.mlpsim.simulate": 12,
    "repro.core.runahead.simulate_runahead": 1,
    "repro.cyclesim.ckernel.run_cycle_plan": 1,
    "repro.cyclesim.plan.build_cycle_plan": 1,
    "repro.cyclesim.simulator.run_cycle_pairs": 1,
    "repro.cyclesim.simulator.run_cyclesim": 4,
    "repro.experiments.common.get_annotated": 16,
    "repro.experiments.run_exhibit": 3,
    "repro.lint.framework.run_lint": 2,
    "repro.robustness.supervisor.supervised_sweep": 1,
    "repro.trace.annotate.annotate": 6,
    "repro.trace.io.load_annotated": 3,
    "repro.trace.io.save_annotated": 3,
    "repro.workloads.generate_trace": 4,
}


def test_every_binding_site_is_wrapped():
    undo = tracing.install(tracing.Recorder())
    try:
        sites = collections.Counter(
            f"{fn.__module__}.{fn.__name__}" for _, _, fn in undo
        )
        assert dict(sites) == EXPECTED_SITES
        assert sum(sites.values()) == 79
        originals = {id(fn) for _, _, fn in undo}
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                assert not any(id(v) in originals
                               for v in vars(module).values()), name
    finally:
        tracing.uninstall(undo)


def test_wrapper_records_nesting_and_notes():
    recorder = tracing.Recorder()

    def inner(trace):
        return trace * 2

    wrapped_inner = recorder.wrap(inner, "trace.annotate",
                                  lambda a, r: {"got": a["trace"]})

    def outer():
        return wrapped_inner(3) + wrapped_inner(trace=4)

    assert recorder.wrap(outer, "experiments")() == 14
    (top, first, second) = recorder.spans
    assert top[1] is None and first[1] == top[0] and second[1] == top[0]
    assert [first[5], second[5]] == [{"got": 3}, {"got": 4}]


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, None, "experiments.table1", 0, 100, {}],
        [1, 0, "experiments.cache", 10, 40, {}],
        [2, 1, "trace.annotate", 15, 25, {}],
    ]
    assert tracing.self_times(spans) == {0: 70, 1: 20, 2: 10}


def test_cache_outcomes_come_from_child_spans():
    spans = [
        [0, None, "experiments.cache", 0, 1, {}],          # memo hit
        [1, None, "experiments.cache", 1, 5, {}],          # disk hit
        [2, 1, "trace.io.load", 2, 4, {"bytes": 10}],
        [3, None, "experiments.cache", 5, 9, {}],          # miss
        [4, 3, "trace.annotate", 6, 8,
         {"insts": 5, "trace": ["database", 5]}],
    ]
    metrics = tracing.layer_metrics(spans)
    assert (metrics["experiments.cache.lookups"],
            metrics["experiments.cache.memo_hits"],
            metrics["experiments.cache.disk_hits"],
            metrics["experiments.cache.misses"]) == (3, 1, 1, 1)
    assert metrics["trace.io.bytes_read"] == 10
    assert metrics["trace.annotate.traces_per_call"] == 1.0


def test_scalar_configs_count_outermost_calls_and_envelope():
    spans = [
        [0, None, "core.mlpsim", 0, 10, {}],
        [1, 0, "core.runahead", 1, 9, {}],   # a runahead machine
        [2, None, "core.mlpsim", 10, 20, {}],
        [3, None, "core.ckernel", 20, 30, {"configs": 6}],
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["core.mlpsim.configs"] == 2
    assert metrics["core.runahead.configs"] == 1
    assert metrics["core.c_envelope_ratio"] == 6 / 8


def test_percentile_keeps_ten_samples_beyond():
    assert tracing._percentile_beyond(list(range(30))) == 19
    assert tracing._percentile_beyond(list(range(5))) == 0.0


def test_exhibit_digests_ignore_the_summary_block():
    names = ("table1", "figure2")

    def render(seconds):
        return (f"== Table 1 ==\n\nrow 1\n\n== Figure 2 ==\nrow 2\n\n"
                f"== exhibit summary: 2/2 passed ==\n  table1 ok"
                f" {seconds}s\n")

    fast, slow = (checks.exhibit_digests(render(s), names)
                  for s in ("0.1", "9.9"))
    assert fast == slow and set(fast) == set(names)
    assert checks.exhibit_digests("== Table 1 ==\nrow\n", names) == {}


def test_sweep_digest_ignores_timing_attempts_and_order(tmp_path):
    def journal(name, records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return checks.journal_payloads(path)

    a = {"type": "result", "label": "16A", "result": {"epochs": 3}}
    b = {"type": "result", "label": "16B", "result": {"epochs": 4}}
    first = journal("one.jsonl", [
        {**a, "elapsed": 0.1, "attempt": 1},
        {**b, "elapsed": 0.2, "attempt": 1},
    ])
    second = journal("two.jsonl", [
        {"type": "attempt", "label": "16B", "attempt": 1},
        {**b, "elapsed": 0.9, "attempt": 2},
        {**a, "elapsed": 0.3, "attempt": 1},
    ])
    assert checks.payload_digest(first) == checks.payload_digest(second)


def test_children_inherit_no_repro_settings(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_PROCESS_FAULTS", "kill@1")
    monkeypatch.setenv("REPRO_JOBS", "8")
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Run("exhibit-warm", 1, 1)
    env = bench.env(pathlib.Path("cache"))
    assert env["TMPDIR"].startswith(str(tmp_path))
    assert "REPRO_PROCESS_FAULTS" not in env
    assert env["REPRO_JOBS"] == "1"
    assert env["REPRO_TRACE_LEN"] == str(run.EXHIBIT_LEN)
    assert env["REPRO_KERNEL_DIR"] == str(bench.kernel_dir)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.metric_names()


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _checkout(tmp_path):
    """Copy BENCHMARK.json and the benchmark directory into *tmp_path*."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    return tmp_path / BENCH.name


def _bench(root, workload):
    return subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_wrong_pin_fails_the_run(tmp_path):
    bench = _checkout(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins = checks.load_pins()
    key = checks.pin_key(run.EXHIBIT_LEN, run.EXHIBIT_SEED)
    pins["exhibit"][key]["table1"] = "0" * 64
    (bench / "pins.json").write_text(json.dumps(pins))
    proc = _bench(tmp_path, "exhibit-cold")
    assert proc.returncode == 1, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 13
    error_rate = [line for line in proc.stdout.splitlines()
                  if line.startswith("error_rate")]
    assert float(error_rate[0].split()[1]) > 0


def test_refuses_a_directory_without_the_sources(tmp_path):
    _checkout(tmp_path)
    proc = _bench(tmp_path, "lint")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
