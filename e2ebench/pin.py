"""Regenerate ``pins.json`` from the tree under test.

Run from the repository root, only when a change is meant to alter the
program's outputs::

    python3 e2ebench/pin.py [--seeds 0-10]

It pins the 13 exhibit digests of one cold ``repro exhibit all`` run,
and the sweep digest of each seed, after checking every sweep config
against the frozen reference engine.
"""

import argparse
import json
import shutil
import sys

import checks
import run as bench
import tracing


def pin_exhibits():
    run = bench.Run("exhibit-cold", bench.EXHIBIT_SEED, 0)
    try:
        bench.setup(run, 1)
        out = run.fresh_dir("pin")
        child = run.child(bench.cli("exhibit", "all"),
                          run.env(out / "cache"), out)
        digests = checks.exhibit_digests(child.stdout, tracing.EXHIBITS)
        if child.code != 0 or len(digests) != len(tracing.EXHIBITS):
            raise SystemExit(f"exhibit run failed (exit {child.code})")
        return digests
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def pin_sweep(seed):
    run = bench.Run("sweep-journal", seed, 0)
    try:
        bench.setup(run, 1)
        sys.path.insert(0, str(bench.ROOT / "src"))
        oracle = checks.oracle_payloads(bench.SWEEP_LEN, seed,
                                        bench.SWEEP_LABELS)
        out = run.fresh_dir("pin")
        child = run.child(bench.cli(*bench.workload_args(run, out)),
                          run.env(out / "cache"), out)
        payloads = checks.journal_payloads(out / "journal.jsonl")
        if child.code != 0 or payloads != oracle:
            raise SystemExit(f"sweep seed {seed} disagrees with the"
                             f" reference engine (exit {child.code})")
        return checks.payload_digest(payloads)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10",
                        help="sweep seeds to pin, as FIRST-LAST")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    pins = {
        "exhibit": {
            checks.pin_key(bench.EXHIBIT_LEN, bench.EXHIBIT_SEED):
                pin_exhibits(),
        },
        "sweep": {
            checks.pin_key(bench.SWEEP_LEN, seed): pin_sweep(seed)
            for seed in range(int(first), int(last or first) + 1)
        },
    }
    with open(checks.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
