"""End-to-end benchmark of the ``repro`` command line.

Run from the repository root::

    python3 e2ebench/run.py --workload exhibit-cold --seed 1 --seconds 15 --trace 0

Each run builds both C kernels into a benchmark-owned kernel directory,
then runs the workload's command as fresh child processes for
``--seconds``, checking every output against pinned digests (and the
sweep against the frozen reference engine).  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it adds one traced
in-process run (``tracing.py``) and prints the per-layer metrics.  The
last line of standard output is one JSON object; the exit code is 0
only when every check passed.  See README.md for the workloads and
metrics.
"""

import argparse
import collections
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracing

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

WORKLOADS = ("exhibit-cold", "exhibit-warm", "sweep-journal", "lint")
EXHIBIT_LEN = 60_000
EXHIBIT_SEED = 1234  # ``repro exhibit`` has no --seed; this is its seed
SWEEP_LEN = 400_000
SWEEP_JOBS = 2
WINDOWS = (16, 32, 64, 128, 256, 512)
POLICIES = "ABCDE"
SWEEP_LABELS = [f"{w}{p}" for w in WINDOWS for p in POLICIES]
SETUP_RUNS = 3
DEADLINE_S = 170.0  # the whole run, set-up and checks included

SETUP_CODE = """\
import repro.cli
from repro.core import ckernel as mlpsim_kernel
from repro.cyclesim import ckernel as cyclesim_kernel
for kernel in (mlpsim_kernel, cyclesim_kernel):
    if not kernel.kernel_available():
        raise SystemExit(f"C kernel unavailable: {kernel.kernel_error()}")
"""


#: Outcome of one child process: wall seconds, peak RSS, exit code, and
#: what it printed.
Child = collections.namedtuple("Child", "wall rss_mb code stdout")


class Run:
    """State of one benchmark invocation: its scratch directory, the
    shared kernel directory, the deadline and the check tallies."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.kernel_dir = self.dir / "kernels"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cold_digests = None
        self.oracle = None
        self.rep_count = 0

    def time_left(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def tally(self, attempted, failed, problem):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(problem)

    def fresh_dir(self, name):
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def env(self, cache_dir, kernel_dir=None):
        """The child environment: no inherited ``REPRO_*`` settings, and
        temporary files (the C compiler's too) inside the run directory."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        tmp = self.dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            TMPDIR=str(tmp),
            REPRO_CACHE_DIR=str(cache_dir),
            REPRO_KERNEL_DIR=str(kernel_dir or self.kernel_dir),
            REPRO_JOBS=str(SWEEP_JOBS if self.workload == "sweep-journal"
                           else 1),
            REPRO_TRACE_LEN=str(SWEEP_LEN if self.workload == "sweep-journal"
                                else EXHIBIT_LEN),
        )
        return env

    def child(self, argv, env, out_dir):
        """Run *argv* to completion; its stdout/stderr go to *out_dir*.

        Peak RSS comes from this child's own ``wait4`` rusage, which
        covers it and the descendants it reaped (sweep workers).  A
        child still running at the deadline is killed with its whole
        process group and reported with exit code -9.
        """
        stdout_path = out_dir / "stdout.txt"
        with open(stdout_path, "wb") as out, \
                open(out_dir / "stderr.txt", "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                    stderr=err, start_new_session=True)
            timer = threading.Timer(max(self.time_left(), 1.0),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     stdout_path.read_text(errors="replace"))


def cli(*args):
    return [sys.executable, "-m", "repro", *args]


def workload_args(run, rep_dir):
    """The ``repro`` arguments of one run of *run*'s workload."""
    if run.workload.startswith("exhibit"):
        return ["exhibit", "all"]
    if run.workload == "sweep-journal":
        return ["sweep", "database", "-n", str(SWEEP_LEN),
                "--engine", "scalar", "-j", str(SWEEP_JOBS),
                "--journal", str(rep_dir / "journal.jsonl"),
                "--seed", str(run.seed),
                "--windows", ",".join(map(str, WINDOWS)),
                "--policies", ",".join(POLICIES)]
    return ["lint", "--root", str(ROOT)]


def cache_dir_for(run, rep_dir):
    if run.workload == "exhibit-warm":
        return run.dir / "warm-cache"
    return rep_dir / "cache"


def archive_bytes(cache_dir):
    if not cache_dir.is_dir():
        return 0
    return sum(p.stat().st_size for p in cache_dir.glob("annotated-*.npz"))


def check_exhibits(run, child, label):
    pins = checks.load_pins()["exhibit"].get(
        checks.pin_key(EXHIBIT_LEN, EXHIBIT_SEED), {}
    )
    digests = checks.exhibit_digests(child.stdout, tracing.EXHIBITS)
    wrong = [name for name in tracing.EXHIBITS
             if name not in pins or digests.get(name) != pins[name]]
    if run.workload == "exhibit-warm" and run.cold_digests is not None:
        wrong += [name for name in tracing.EXHIBITS
                  if name not in wrong
                  and digests.get(name) != run.cold_digests.get(name)]
    failed = len(wrong) or (1 if child.code else 0)
    run.tally(len(tracing.EXHIBITS), failed,
              f"{label}: exit {child.code}, digest mismatch: {wrong}")
    return digests


def sweep_pin(run):
    return checks.load_pins()["sweep"].get(
        checks.pin_key(SWEEP_LEN, run.seed)
    )


def check_sweep(run, child, rep_dir, label):
    """A pinned seed's grid must match its pin (a mismatch fails all 30
    configs); any other seed is checked config by config against the
    reference engine."""
    journal = rep_dir / "journal.jsonl"
    payloads = checks.journal_payloads(journal) if journal.exists() else {}
    pinned = sweep_pin(run)
    if pinned:
        wrong = [] if checks.payload_digest(payloads) == pinned \
            else SWEEP_LABELS
    else:
        wrong = [name for name in SWEEP_LABELS
                 if payloads.get(name) != run.oracle.get(name)]
    failed = len(wrong) or (1 if child.code else 0)
    run.tally(len(SWEEP_LABELS), failed,
              f"{label}: exit {child.code}, configs not matching the"
              f" reference or the pin: {wrong}")


def check_lint(run, child, label):
    clean = child.code == 0 and "reprolint: 0 finding(s)" in child.stdout
    run.tally(1, 0 if clean else 1,
              f"{label}: exit {child.code}, lint not clean")


def check(run, child, rep_dir, label):
    if run.workload.startswith("exhibit"):
        return check_exhibits(run, child, label)
    if run.workload == "sweep-journal":
        return check_sweep(run, child, rep_dir, label)
    return check_lint(run, child, label)


def setup(run, count):
    """Time *count* fresh set-ups; the first one's kernels are shared.

    A set-up is a new process that imports ``repro.cli`` and compiles
    and loads both C kernels into an empty ``REPRO_KERNEL_DIR``.
    """
    walls = []
    for index in range(count):
        out = run.fresh_dir(f"setup{index}")
        kernels = run.kernel_dir if index == 0 else out / "kernels"
        kernels.mkdir(parents=True, exist_ok=True)
        child = run.child([sys.executable, "-c", SETUP_CODE],
                          run.env(out / "cache", kernels), out)
        if child.code != 0:
            raise SystemExit(
                f"set-up failed (exit {child.code}):"
                f" {(out / 'stderr.txt').read_text()[-2000:]}"
            )
        walls.append(child.wall)
    return walls


def prepare(run):
    """Untimed preparation: fill the warm cache, or compute the
    reference results of an unpinned sweep seed."""
    if run.workload == "exhibit-warm":
        out = run.fresh_dir("fill")
        cache = run.dir / "warm-cache"
        child = run.child(cli("exhibit", "all"), run.env(cache), out)
        run.cold_digests = check(run, child, out, "cache fill (cold run)")
    elif run.workload == "sweep-journal" and not sweep_pin(run):
        sys.path.insert(0, str(ROOT / "src"))
        run.oracle = checks.oracle_payloads(SWEEP_LEN, run.seed,
                                            SWEEP_LABELS)


def repeat(run):
    """Run the workload untraced for about ``run.seconds``.

    A run starts only while at least half of it (judged by the last
    one) fits in the time left, so each workload gets a steady number
    of runs.  Returns the children and the archive bytes each left.
    """
    children = []
    cache_bytes = []
    started = time.perf_counter()
    while not children or (
        time.perf_counter() - started + children[-1].wall / 2 <= run.seconds
        and run.time_left() > 2 * children[-1].wall
    ):
        run.rep_count += 1
        rep_dir = run.fresh_dir(f"rep{run.rep_count}")
        cache = cache_dir_for(run, rep_dir)
        child = run.child(cli(*workload_args(run, rep_dir)),
                          run.env(cache), rep_dir)
        check(run, child, rep_dir, f"run {run.rep_count}")
        cache_bytes.append(archive_bytes(cache))
        children.append(child)
        shutil.rmtree(rep_dir, ignore_errors=True)
    return children, cache_bytes


def traced(run, untraced_wall):
    """One traced in-process run; returns the per-layer metrics."""
    rep_dir = run.fresh_dir("traced")
    cache = cache_dir_for(run, rep_dir)
    spans = WORK / f"spans-{run.workload}.jsonl"
    metrics_path = rep_dir / "metrics.json"
    argv = [sys.executable, str(BENCH / "tracing.py"),
            "--spans-out", str(spans), "--metrics-out", str(metrics_path)]
    if run.workload == "sweep-journal":
        argv += ["--journal", str(rep_dir / "journal.jsonl"),
                 "--jobs", str(SWEEP_JOBS)]
    child = run.child(argv + ["--", *workload_args(run, rep_dir)],
                      run.env(cache), rep_dir)
    check(run, child, rep_dir, "traced run")
    metrics = json.loads(metrics_path.read_text()) \
        if metrics_path.exists() else {}
    quarantine = cache / "quarantine"
    metrics["experiments.cache.quarantined"] = (
        len(list(quarantine.iterdir())) if quarantine.is_dir() else 0
    )
    metrics["cache_mb"] = archive_bytes(cache) / 2**20
    metrics["trace.overhead_s"] = child.wall - untraced_wall
    metrics.update(source_lines())
    return metrics


def source_lines():
    src = ROOT / "src" / "repro"

    def lines(paths):
        return sum(len(p.read_bytes().splitlines()) for p in paths)

    counts = {f"loc.{pkg}": lines((src / pkg).rglob("*.py"))
              for pkg in tracing.PACKAGES}
    counts["loc.kernels_c"] = lines(src.rglob("*.c"))
    return counts


def provenance(run):
    """Where and on what the numbers were taken."""
    rev = os.environ.get("GIT_COMMIT", "").strip() or None
    if rev is None:
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.CalledProcessError):
            rev = None
    try:
        gcc = subprocess.run(
            [os.environ.get("CC", "gcc"), "-dumpfullversion"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        gcc = None
    from importlib.metadata import PackageNotFoundError, version

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    sweep = run.workload == "sweep-journal"
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gcc": gcc,
        "workload": run.workload,
        "trace_len": SWEEP_LEN if sweep else EXHIBIT_LEN,
        "seed": run.seed if sweep else EXHIBIT_SEED,
        "bench_seed": run.seed,
        "grid": SWEEP_LABELS if sweep else None,
        "seconds": run.seconds,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(name, value, unit, note=""):
    print(f"{name:<44} {value:>14.6f} {unit:<8} {note}".rstrip())
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        return measure(run, args.trace)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def measure(run, trace):
    setup_walls = setup(run, 1 if trace else SETUP_RUNS)
    prepare(run)
    children, cache_bytes = repeat(run)
    walls = [c.wall for c in children]
    wall = statistics.median(walls)
    record = provenance(run)
    print(f"e2ebench {run.workload}: {len(children)} run(s) of"
          f" `repro {' '.join(workload_args(run, pathlib.Path('<rep>')))}`")
    metrics = {}
    if trace:
        layer = traced(run, wall)
        for name, unit in tracing.metric_names().items():
            metrics[name] = emit(name, float(layer.get(name, 0)), unit)
    else:
        metrics["wall_s"] = emit(
            "wall_s", wall, "s",
            f"median of {len(walls)}: {' '.join(f'{w:.3f}' for w in walls)}")
        metrics["setup_s"] = emit(
            "setup_s", statistics.median(setup_walls), "s",
            f"median of {len(setup_walls)}")
        metrics["peak_rss_mb"] = emit(
            "peak_rss_mb", statistics.median(c.rss_mb for c in children),
            "MB", f"max {max(c.rss_mb for c in children):.1f}")
        emit("cache_mb", statistics.median(cache_bytes) / 2**20, "MB",
             "annotation archives left in the cache directory")
    emit("error_rate", run.failed / run.attempted, "fraction",
         f"{run.failed} of {run.attempted} checked operations failed")
    for problem in run.problems:
        print(f"FAILED {problem}")
    record.update(walls=walls, attempted=run.attempted, failed=run.failed)
    print("record " + json.dumps(record, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
