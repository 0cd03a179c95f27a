"""kernel-constants: C ``#define`` tables bit-identical to Python enums.

Both C kernels hard-code the enums they share with the Python engines.
Every kernel contract (:func:`repro.lint.certify.contracts.kernel_contracts`)
whose ``ckernel.py`` driver is in the tree has its opcode table
(``OP_*`` ↔ :class:`repro.isa.opclass.OpClass`) checked — in
``_mlpsim_kernel.c`` and ``_cyclesim_kernel.c`` alike.  The MLPsim
kernel also carries inhibitor indices (``INH_*`` ↔ the definition
order of :class:`repro.core.termination.Inhibitor`), execute statuses
(``ST_*`` ↔ ``ckernel._EXPECTED_STATUSES``) and the ``NOT_EXECUTED``
sentinel (↔ ``repro.core.mlpsim.NOT_EXECUTED``).  Runtime verification
in each ``ckernel._verify_constants`` covers the opcode values (and,
for MLPsim, the inhibitor *count*) — but not the inhibitor order, the
statuses or the sentinel, which until this pass agreed only by luck.

Checks (each disagreeing constant is one finding naming the C and
Python lines):

* every ``OP_<NAME>`` define equals ``OpClass.<NAME>``, and every
  ``OpClass`` member has a define;
* every ``INH_<NAME>`` define equals the definition index of
  ``Inhibitor.<NAME>``, every member has a define, and ``INH_COUNT``
  equals the member count (which is also what sizes the
  ``InhibitorCounts`` tally);
* ``ckernel.INHIBITOR_ORDER`` lists the ``Inhibitor`` members in
  definition order — the Python-side half of the same contract, which
  the runtime check never proves;
* every ``ST_<NAME>`` define equals ``ckernel._EXPECTED_STATUSES``;
* the ``NOT_EXECUTED`` defines agree across the languages.

If a C file is present but the front end recovers no constants at
all, that is reported too — a silent parse failure must not read as
"everything matches" (CI's ``lint-parity`` smoke also guards this by
mutating a define in each kernel and expecting a finding).
"""

from repro.lint.certify.contracts import MLPSIM_CONTRACT, kernel_contracts
from repro.lint.clang_parity.cparse import CParseError
from repro.lint.clang_parity.pyextract import (
    attr_tuple,
    enum_members,
    int_constant,
    int_dict,
)
from repro.lint.framework import LintPass, register

OPCLASS_PATH = "src/repro/isa/opclass.py"
TERMINATION_PATH = "src/repro/core/termination.py"
ENGINE_PATH = "src/repro/core/mlpsim.py"


@register
class KernelConstantsPass(LintPass):
    id = "kernel-constants"
    description = (
        "opcode/inhibitor/status/NOT_EXECUTED constants must be"
        " bit-identical between the C kernels and the Python enums"
    )

    def check_project(self, project):
        for contract in kernel_contracts():
            driver = project.module(contract.driver_path)
            if driver is None:
                continue
            try:
                unit = project.c_unit(contract.path)
            except CParseError:
                continue  # kernel-bounds reports the parse failure
            if unit is None:
                continue  # kernel-abi reports a missing C file
            if not unit.defines:
                yield self.finding(
                    driver, 1,
                    f"no #define constants found in {contract.path};"
                    " the C front end matched nothing, which would make"
                    " every constant check vacuous",
                )
                continue
            yield from self._check_prefixed_table(
                project, unit, contract.path, "OP_", OPCLASS_PATH,
                self._opclass_values(project), "OpClass",
            )
            if contract is MLPSIM_CONTRACT:
                yield from self._check_mlpsim_tables(project, unit,
                                                     driver)

    def _check_mlpsim_tables(self, project, unit, driver):
        c_path = MLPSIM_CONTRACT.path
        inhibitors = self._inhibitor_order(project)
        yield from self._check_prefixed_table(
            project, unit, c_path, "INH_", TERMINATION_PATH,
            inhibitors, "Inhibitor definition order",
            skip={"INH_COUNT"},
        )
        yield from self._check_inh_count(project, unit, inhibitors)
        yield from self._check_inhibitor_order_tuple(driver, inhibitors)
        yield from self._check_statuses(project, unit, driver)
        yield from self._check_not_executed(project, unit)

    # -- Python-side tables --------------------------------------------

    def _opclass_values(self, project):
        module = project.module(OPCLASS_PATH)
        if module is None or module.tree is None:
            return None
        members = enum_members(module.tree, "OpClass")
        if members is None:
            return None
        return {
            name: (value, lineno)
            for name, value, lineno in members
            if isinstance(value, int)
        }

    def _inhibitor_order(self, project):
        module = project.module(TERMINATION_PATH)
        if module is None or module.tree is None:
            return None
        members = enum_members(module.tree, "Inhibitor")
        if not members:
            return None
        return {
            name: (index, lineno)
            for index, (name, _value, lineno) in enumerate(members)
        }

    # -- define-table diffing ------------------------------------------

    def _check_prefixed_table(self, project, unit, c_path, prefix,
                              py_path, expected, table_label,
                              skip=frozenset()):
        if expected is None:
            return
        module = project.module(py_path)
        defines = {
            name: define for name, define in unit.defines.items()
            if name.startswith(prefix) and name not in skip
        }
        if not defines:
            yield self.finding(
                module, 1,
                f"{table_label} exists but no {prefix}* defines were"
                f" found in {c_path}; the C kernel and the"
                " Python table cannot be compared",
            )
            return
        for name, define in sorted(defines.items(),
                                   key=lambda kv: kv[1].lineno):
            member = name[len(prefix):]
            if member not in expected:
                yield self.finding(
                    module, 1,
                    f"{c_path}:{define.lineno} defines {name}"
                    f" but {table_label} has no member {member!r}",
                )
                continue
            value, lineno = expected[member]
            if define.value != value:
                got = define.value if define.value is not None \
                    else f"<unevaluable: {define.text}>"
                yield self.finding(
                    module, lineno,
                    f"{member} is {value} here but"
                    f" {c_path}:{define.lineno} defines"
                    f" {name} as {got}; the kernel would"
                    " mis-decode every record",
                )
        for member, (_value, lineno) in sorted(expected.items()):
            if prefix + member not in defines:
                yield self.finding(
                    module, lineno,
                    f"{table_label} member {member} has no"
                    f" {prefix}{member} define in {c_path};"
                    " the C kernel does not know this value",
                )

    # -- individual contracts ------------------------------------------

    def _check_inh_count(self, project, unit, inhibitors):
        if inhibitors is None:
            return
        module = project.module(TERMINATION_PATH)
        define = unit.defines.get("INH_COUNT")
        if define is None or define.value is None:
            return  # absence of the whole INH_* table is reported above
        if define.value != len(inhibitors):
            yield self.finding(
                module, 1,
                f"INH_COUNT is {define.value}"
                f" ({MLPSIM_CONTRACT.path}:{define.lineno})"
                f" but Inhibitor has {len(inhibitors)} members — the"
                " kernel's inhibitors[] array and the InhibitorCounts"
                " tally would disagree in size",
            )

    def _check_inhibitor_order_tuple(self, module, inhibitors):
        """ckernel.INHIBITOR_ORDER must equal Inhibitor definition order.

        This is the half of the contract ``_verify_constants`` never
        checks: it compares lengths only, so a swapped pair in either
        table mislabels every inhibitor count without failing a test
        that does not inspect per-inhibitor values.
        """
        if inhibitors is None or module.tree is None:
            return
        order = attr_tuple(module.tree, "INHIBITOR_ORDER")
        if order is None:
            return
        by_index = {index: name for name, (index, _l) in inhibitors.items()}
        for position, (attr, lineno) in enumerate(order):
            expected = by_index.get(position)
            if attr != expected:
                yield self.finding(
                    module, lineno,
                    f"INHIBITOR_ORDER[{position}] is"
                    f" {attr or '<not an Inhibitor member>'} but"
                    f" Inhibitor defines {expected or 'nothing'} at"
                    f" index {position} ({TERMINATION_PATH}); the C"
                    " kernel indexes inhibitors[] by definition order",
                )
                return
        if len(order) != len(inhibitors):
            yield self.finding(
                module, order[0][1] if order else 1,
                f"INHIBITOR_ORDER lists {len(order)} members but"
                f" Inhibitor defines {len(inhibitors)}",
            )

    def _check_statuses(self, project, unit, module):
        if module.tree is None:
            return
        statuses = int_dict(module.tree, "_EXPECTED_STATUSES")
        if statuses is None:
            return
        expected, dict_lineno = statuses
        table = {
            name: (value, dict_lineno) for name, value in expected.items()
        }
        yield from self._check_prefixed_table(
            project, unit, MLPSIM_CONTRACT.path, "ST_", module.relpath,
            table, "_EXPECTED_STATUSES",
        )

    def _check_not_executed(self, project, unit):
        module = project.module(ENGINE_PATH)
        if module is None or module.tree is None:
            return
        py_value = int_constant(module.tree, "NOT_EXECUTED")
        define = unit.defines.get("NOT_EXECUTED")
        if py_value is None or define is None:
            return
        value, lineno = py_value
        if define.value != value:
            yield self.finding(
                module, lineno,
                f"NOT_EXECUTED is {value} here but"
                f" {MLPSIM_CONTRACT.path}:{define.lineno} defines"
                f" {define.value}; the sentinel must be bit-identical"
                " across the engines",
            )
