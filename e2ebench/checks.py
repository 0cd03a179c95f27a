"""Output checks: SHA-256 digests of what each workload prints or writes.

* Exhibits: one digest per rendered exhibit, without the trailing
  ``== exhibit summary`` block (it carries per-exhibit seconds).
* Sweep: the journal's result payloads without ``elapsed``/``attempt``,
  keyed by label; the completion-ordered ``done:`` lines are not
  digested, since they differ from run to run under ``-j 2``.
* Lint: exit 0 with zero findings.

Pinned digests live in ``pins.json`` beside this file, keyed by trace
length and seed; ``pin.py`` regenerates them.
"""

import hashlib
import json
import pathlib

PINS = pathlib.Path(__file__).with_name("pins.json")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def exhibit_digests(stdout, names):
    """Map exhibit name -> digest of its rendered block.

    ``repro exhibit`` prints the exhibits in request order, each opening
    with a ``== ... ==`` line, then the summary.  If the block count is
    off, nothing is returned, so every exhibit counts as failed.
    """
    blocks = []
    for line in stdout.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            blocks.append([])
        if blocks:
            blocks[-1].append(line.rstrip())
    if len(blocks) != len(names) + 1 or \
            not blocks[-1][0].startswith("== exhibit summary"):
        return {}
    return {
        name: sha256("\n".join(block).strip() + "\n")
        for name, block in zip(names, blocks[:-1])
    }


def payload_digest(payload):
    return sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def journal_payloads(path):
    """Map label -> result payload of each finished config in a journal."""
    payloads = {}
    with open(path) as fh:
        for line in fh:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail: that attempt re-executes on resume
            if record.get("type") == "result":
                payloads[record["label"]] = record["result"]
    return payloads


def oracle_payloads(length, seed, labels):
    """Result payloads of the frozen reference engine for a sweep grid.

    The reference is the definition of "right" (``mlpsim_reference``),
    so this checks any seed, pinned or not.  Needs ``repro`` importable.
    """
    from repro.core.config import MachineConfig
    from repro.core.mlpsim_reference import simulate_reference
    from repro.robustness.journal import result_to_payload
    from repro.trace.annotate import annotate
    from repro.workloads import generate_trace

    annotated = annotate(generate_trace("database", length, seed=seed))
    return {
        label: json.loads(json.dumps(result_to_payload(simulate_reference(
            annotated, MachineConfig.named(label), workload="database"
        ))))
        for label in labels
    }


def load_pins():
    with open(PINS) as fh:
        return json.load(fh)


def pin_key(length, seed):
    return f"{length}:{seed}"
