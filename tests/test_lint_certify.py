"""Tests for the kernel-certification layer of reprolint.

Covers the three certify passes (``kernel-bounds``,
``kernel-overflow``, ``plan-contract``) over their fixture pairs, and
the acceptance mutations run against copies of the *real* kernel and
plan-builder sources: one off-by-one subscript bound, one
accumulator-width narrowing, one contract-range change without a
manifest regeneration — each must yield exactly one finding carrying
the witness interval the abstract interpreter computed.  The proofs on
the real kernels are pinned, the fixpoint cost counters behind
``repro lint --stats`` are checked, and property tests hold the
interval domain's allocation-free and identity fast paths to plain
dict arithmetic and structural equality.
"""

import contextlib
import io
import pathlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.lint import run_lint
from repro.lint.certify import certified_kernels
from repro.lint.certify import intervals as iv
from repro.lint.framework import Project

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: pass id -> (fixture directory, expected finding count in violation/)
CERTIFY_FIXTURES = {
    "kernel-bounds": ("kernel_bounds", 1),
    "kernel-overflow": ("kernel_overflow", 1),
    "plan-contract": ("plan_contract", 1),
}

MLPSIM_KERNEL = "src/repro/core/_mlpsim_kernel.c"
CYCLESIM_KERNEL = "src/repro/cyclesim/_cyclesim_kernel.c"
COLUMNAR = "src/repro/core/columnar.py"
CYCLE_PLAN = "src/repro/cyclesim/plan.py"

#: Everything the three certify passes read, copied verbatim from the
#: real tree so mutation tests exercise the production contract.
_CERTIFY_SOURCES = (
    MLPSIM_KERNEL,
    CYCLESIM_KERNEL,
    COLUMNAR,
    CYCLE_PLAN,
    "src/repro/core/ckernel.py",
    "src/repro/cyclesim/ckernel.py",
)


class TestCertifyFixtures:
    @pytest.mark.parametrize("pass_id", sorted(CERTIFY_FIXTURES))
    def test_clean_fixture_has_no_findings(self, pass_id):
        root = FIXTURES / CERTIFY_FIXTURES[pass_id][0] / "clean"
        assert run_lint(root) == []

    @pytest.mark.parametrize("pass_id", sorted(CERTIFY_FIXTURES))
    def test_violation_fixture_is_flagged(self, pass_id):
        fixture, expected = CERTIFY_FIXTURES[pass_id]
        findings = run_lint(
            FIXTURES / fixture / "violation", select=[pass_id]
        )
        assert len(findings) == expected
        assert all(f.pass_id == pass_id for f in findings)

    def test_bounds_finding_carries_witness_interval(self):
        """The off-by-one fixture's finding states the interval the
        interpreter derived for the index and the buffer length it
        exceeds — the proof obligation, not just a location."""
        (finding,) = run_lint(
            FIXTURES / "kernel_bounds" / "violation",
            select=["kernel-bounds"],
        )
        assert "ops[i]" in finding.message
        assert "index in [0, n]" in finding.message
        assert "length n" in finding.message

    def test_overflow_finding_carries_witness_interval(self):
        (finding,) = run_lint(
            FIXTURES / "kernel_overflow" / "violation",
            select=["kernel-overflow"],
        )
        assert "hot" in finding.message
        assert "value in [1048576, 2148532224]" in finding.message
        assert "exceeds int32" in finding.message

    def test_contract_drift_names_the_entry(self):
        (finding,) = run_lint(
            FIXTURES / "plan_contract" / "violation",
            select=["plan-contract"],
        )
        assert finding.path == COLUMNAR
        assert "columns.dmiss" in finding.message
        assert "[0, 2]" in finding.message


def _real_tree(tmp_path):
    """A minimal tree of *real* sources the certify passes read."""
    for relpath in _CERTIFY_SOURCES:
        dst = tmp_path / relpath
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO_ROOT / relpath, dst)
    return tmp_path


def _edit(tmp_path, relpath, old, new, count=1):
    path = tmp_path / relpath
    text = path.read_text()
    assert text.count(old) >= count, f"{old!r} not found in {relpath}"
    # Mutating a throwaway fixture copy — torn-write durability is
    # irrelevant, the tree dies with tmp_path.
    path.write_text(text.replace(old, new, count))  # reprolint: disable=atomic-writes


class TestRealTreeMutations:
    """Acceptance: each single-site mutation yields exactly one finding."""

    SELECT = ["kernel-bounds", "kernel-overflow", "plan-contract"]

    def test_unmutated_copy_is_clean(self, tmp_path):
        assert run_lint(_real_tree(tmp_path), select=self.SELECT) == []

    def test_off_by_one_subscript_bound(self, tmp_path):
        """Widening one loop bound in the cyclesim kernel un-proves
        exactly the subscript that loop guards."""
        root = _real_tree(tmp_path)
        _edit(root, CYCLESIM_KERNEL, "b < HASH_SIZE", "b <= HASH_SIZE")
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "kernel-bounds"
        assert findings[0].path == CYCLESIM_KERNEL
        assert "hash_head[b]" in findings[0].message
        assert "index in [0, 32768]" in findings[0].message
        assert "length 32768" in findings[0].message

    def test_narrowed_accumulator_width(self, tmp_path):
        """Retyping one int64 result counter as int32 un-proves the
        width of exactly its increment."""
        root = _real_tree(tmp_path)
        _edit(root, MLPSIM_KERNEL, "int64_t epochs;", "int32_t epochs;")
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "kernel-overflow"
        assert findings[0].path == MLPSIM_KERNEL
        assert "epochs" in findings[0].message
        assert "exceeds int32" in findings[0].message

    def test_contract_range_change_without_manifest_regen(self, tmp_path):
        """Editing one PLAN_CONTRACT range is caught before the manifest
        fingerprint even enters: the literal no longer equals the facts
        the kernel proof assumed."""
        root = _real_tree(tmp_path)
        _edit(root, COLUMNAR, '"ops": [0, 8],', '"ops": [0, 9],')
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "plan-contract"
        assert findings[0].path == COLUMNAR
        assert "columns.ops" in findings[0].message
        assert "[0, 9]" in findings[0].message

    def test_validator_no_longer_dominates(self, tmp_path):
        """Moving the validator call behind a condition breaks the
        dominance proof even though the call still exists."""
        root = _real_tree(tmp_path)
        _edit(
            root, "src/repro/core/ckernel.py",
            "    validate_plan_contract(plan, configs)",
            "    if len(plan) > 1000:\n"
            "        validate_plan_contract(plan, configs)",
        )
        findings = run_lint(root, select=self.SELECT)
        assert len(findings) == 1
        assert findings[0].pass_id == "plan-contract"
        assert findings[0].path == "src/repro/core/ckernel.py"
        assert "not" in findings[0].message
        assert "dominated" in findings[0].message


#: What the certifier proves on each real kernel: ``(checked, proved)``
#: and the sorted ``(kind, message)`` of every unproved obligation (each
#: is suppressed at its site in the C source with a reason).
PROOF_FINGERPRINT = {
    MLPSIM_KERNEL: ((249, 248), [
        ("bounds", "subscript r->inhibitors[s.ev_count ? s.ev_first :"
                   " INH_END_OF_TRACE]: index in [-1, 10],"
                   " KernelResult.inhibitors length 11"),
    ]),
    CYCLESIM_KERNEL: ((233, 227), [
        ("bounds", "memmove on buf (annotated): size may be negative"),
        ("bounds", "memmove on buf (annotated): writes up to"
                   " 16*iw_alloc - 16 bytes, buffer holds 8*iw_alloc"),
        ("bounds", "memmove: source has no buffer contract"),
        ("overflow", "elapsed * t->count: result in"
                     " [1, 1208925819614629174706176] exceeds int64"),
        ("overflow", "store to t->integral: value in"
                     " [1, 1208930431300647602094080] exceeds int64"),
        ("overflow", "t->integral += elapsed * t->count: result in"
                     " [1, 1208930431300647602094080] exceeds int64"),
    ]),
}


@pytest.fixture(scope="module")
def real_certification():
    """One certification of the real kernels: ``(project, reports)``."""
    project = Project(REPO_ROOT)
    return project, certified_kernels(project)


class TestProofFingerprint:
    """The certifier's proofs on the real kernels, pinned exactly.

    The messages carry the witness intervals, so a change in the
    analysis' precision fails here even when no proof is lost.  A
    deliberate kernel edit updates the pin, with a note in CHANGES.md
    saying which obligations moved and why.
    """

    @pytest.mark.parametrize("kernel", sorted(PROOF_FINGERPRINT))
    def test_proofs_match_the_pin(self, real_certification, kernel):
        _, reports = real_certification
        report = reports[kernel]
        assert report.error is None
        assert report.issues == []
        counts, unproved = PROOF_FINGERPRINT[kernel]
        assert (report.checked, report.proved) == counts
        assert sorted((ob.kind, ob.message)
                      for ob in report.obligations) == unproved


class TestFixpointCounters:
    @pytest.mark.parametrize("name", ["_mlpsim_kernel.c:simulate_one",
                                      "_cyclesim_kernel.c:run_one"])
    def test_loop_heavy_functions_report_positive_counters(
            self, real_certification, name):
        project, _ = real_certification
        counters = project.telemetry["certify"][name]
        assert set(counters) == {"visits", "widenings", "restarts",
                                 "narrowings", "seconds"}
        assert all(value > 0 for value in counters.values()), counters

    def test_stats_carry_the_counters(self):
        stats = {}
        run_lint(FIXTURES / "kernel_bounds" / "clean",
                 select=["kernel-bounds"], stats=stats)
        assert set(stats["certify"]) == {"_mlpsim_kernel.c:mlpsim_batch"}
        assert {entry["id"] for entry in stats["passes"]} == {
            "kernel-bounds"}

    def test_cli_prints_one_line_per_function(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["lint", "--root",
                         str(FIXTURES / "kernel_bounds" / "clean"),
                         "--select", "kernel-bounds", "--stats"])
        assert code == 0
        lines = [line for line in err.getvalue().splitlines()
                 if line.startswith("stats: certify ")]
        assert len(lines) == 1
        assert lines[0].startswith(
            "stats: certify _mlpsim_kernel.c:mlpsim_batch: ")
        assert " visits, " in lines[0] and " restarts, " in lines[0]


# ------------------------------------------- interval-domain properties

_SYMBOLS = ("n", "m", "k")

_boxes = st.fixed_dictionaries({
    sym: st.tuples(st.integers(-40, 40), st.integers(0, 40)).map(
        lambda t: (t[0], t[0] + t[1]))
    for sym in _SYMBOLS
})
_affines = st.builds(
    iv.Affine,
    st.integers(-30, 30),
    st.dictionaries(st.sampled_from(_SYMBOLS), st.integers(-3, 3),
                    max_size=3),
)
_intervals = st.one_of(
    st.just(iv.BOTTOM),
    st.just(iv.TOP),
    st.builds(iv.Interval, st.one_of(_affines, st.just(iv.NEG_INF)),
              st.one_of(_affines, st.just(iv.POS_INF))),
)

_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def _plain_terms(*signed_forms):
    """Termwise ``sum(sign * form)`` by plain dict arithmetic."""
    terms = {}
    for sign, form in signed_forms:
        for sym, coeff in form.terms.items():
            terms[sym] = terms.get(sym, 0) + sign * coeff
    return {sym: coeff for sym, coeff in terms.items() if coeff}


def _box_min(const, terms, box):
    return const + sum(coeff * (box[sym][0] if coeff > 0 else box[sym][1])
                       for sym, coeff in terms.items())


def _copy_bound(bound):
    if isinstance(bound, iv.Inf):
        return bound
    return iv.Affine(bound.const, dict(bound.terms))


def _copy(interval):
    if interval.is_bottom:
        return interval
    return iv.Interval(_copy_bound(interval.lo), _copy_bound(interval.hi))


class TestDomainFastPaths:
    @_PROPERTY
    @given(_affines, _affines, _boxes)
    def test_bound_le_is_the_box_minimum_of_the_difference(self, a, b,
                                                           box):
        expected = _box_min(b.const - a.const,
                            _plain_terms((1, b), (-1, a)), box) >= 0
        assert iv.bound_le(a, b, box) is expected
        assert iv.bound_le(a, _copy_bound(a), box)

    @_PROPERTY
    @given(_affines, _affines, st.integers(-4, 4))
    def test_arithmetic_stores_no_zero_coefficient(self, a, b, k):
        results = {
            "add": (a.add(b), a.const + b.const,
                    _plain_terms((1, a), (1, b))),
            "sub": (a.sub(b), a.const - b.const,
                    _plain_terms((1, a), (-1, b))),
            "scale": (a.scale(k), a.const * k, _plain_terms((k, a))),
            "shift": (a.shift(k), a.const + k, _plain_terms((1, a))),
        }
        for op, (form, const, terms) in results.items():
            assert 0 not in form.terms.values(), op
            assert (form.const, form.terms) == (const, terms), op

    @_PROPERTY
    @given(_intervals, _boxes)
    def test_join_with_itself_is_identity(self, x, box):
        assert iv.join(x, x, box) is x
        assert iv.equal(x, x)

    @_PROPERTY
    @given(_intervals, _intervals, _boxes)
    def test_lattice_ops_agree_on_equal_but_distinct_inputs(self, x, y,
                                                            box):
        x2, y2 = _copy(x), _copy(y)
        assert iv.equal(x, x2) and iv.equal(y, y2)
        for op in (iv.join, iv.meet, iv.widen):
            assert iv.equal(op(x, y, box), op(x2, y2, box)), op.__name__
        assert iv.equal(iv.join(x, x2, box), x)
