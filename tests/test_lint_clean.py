"""The merged tree is reprolint-clean: every invariant holds right now.

This is the enforcement tier: ``repro lint`` runs all nineteen passes
over the real repository (``src/repro``, ``tests`` and ``examples``)
and must report nothing.  A failure here means a commit introduced a
bare stdlib raise, a non-atomic result write, a nondeterminism hazard,
an edit to the frozen oracle, a misspelled config field, a stale
exhibit registry, a pool worker mutating shared state, a
wall-clock-tainted RNG seed, a leakable write handle, unreachable
code, an ABI/constant/schema drift between the Python engines and the
C kernels, a typestate-protocol violation — or an unprovable kernel
subscript/overflow or a plan-contract drift: the interval
certification (``kernel-bounds``/``kernel-overflow``/``plan-contract``)
is part of this tier, so the compiled kernels stay machine-checked
against the ranges the Python validators enforce.  The lint runs once
per session, through the CLI with ``--format json``, and both tests
read that one result; the assertion output carries the exact file,
line and message.
"""

import contextlib
import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.lint import Severity

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def lint_run():
    """One full-tree ``repro lint --format json`` run, shared by the
    tests below: ``(exit code, findings as dicts)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", "--root", str(REPO_ROOT), "--format", "json"])
    return code, json.loads(out.getvalue())


def _report(findings):
    return "\n".join(
        f"{f['path']}:{f['line']}: [{f['pass']}] {f['severity']}:"
        f" {f['message']}"
        for f in findings
    )


def test_repository_is_lint_clean(lint_run):
    _, findings = lint_run
    errors = [f for f in findings if f["severity"] == Severity.ERROR.value]
    assert errors == [], f"reprolint found violations:\n{_report(errors)}"


def test_cli_exits_zero_on_repository(lint_run):
    code, findings = lint_run
    assert code == 0, f"repro lint exited {code}:\n{_report(findings)}"
