"""kernel-abi: ctypes layouts and argtypes must match each C kernel.

Every kernel contract (:func:`repro.lint.certify.contracts.kernel_contracts`)
pairs a C kernel with the ``ckernel.py`` driver that loads it through
:mod:`ctypes`: ``_KernelConfig``/``_KernelResult`` in
``repro/core/ckernel.py`` mirror ``_mlpsim_kernel.c``,
``_CycleConfig``/``_CycleResult`` in ``repro/cyclesim/ckernel.py``
mirror ``_cyclesim_kernel.c``, and each driver's ``argtypes`` mirror
the contract's entry function.  Nothing checks any of it at runtime —
ctypes trusts the caller, so a reordered or retyped field silently
reads the wrong bytes and the equivalence suite turns into a debugging
session (or, worse, passes on one compiler's padding and fails on
another's).

This pass recovers both sides (:mod:`repro.lint.clang_parity`) and
diffs them, for every contract whose driver is in the tree:

* every ctypes structure ``_X`` in the driver pairs with the C
  ``typedef struct ... X;``, and every ``_fields_`` entry must match
  the C member at the same position — name, scalar type
  (``c_int64`` ↔ ``int64_t``), and array-ness;
* ``argtypes`` must match the entry function's C parameter list
  position by position (``c_void_p`` matches any pointer;
  ``POINTER(_X)`` matches ``X *``) and ``restype`` its return type;
* a missing C source next to a live driver is itself a finding —
  deleting the kernel must not silently pass.

One finding per structure/prototype (the first mismatching position),
naming the Python and C lines of the disagreeing pair.
"""

import re

from repro.lint.certify.contracts import kernel_contracts
from repro.lint.clang_parity.cparse import CParseError
from repro.lint.clang_parity.pyextract import argtypes_wiring, ctypes_structs
from repro.lint.framework import LintPass, register

#: ctypes scalar names and the C spellings they bind to.
_SCALARS = {
    "c_int8": "int8_t", "c_uint8": "uint8_t",
    "c_int16": "int16_t", "c_uint16": "uint16_t",
    "c_int32": "int32_t", "c_uint32": "uint32_t",
    "c_int64": "int64_t", "c_uint64": "uint64_t",
    "c_int": "int", "c_long": "long", "c_size_t": "size_t",
    "c_float": "float", "c_double": "double", "c_char": "char",
}


def _bare_ctype(c_type):
    """The C type with ``const`` qualifiers dropped."""
    return " ".join(token for token in c_type.split() if token != "const")


def _scalar_matches(py_ctype, c_type):
    bare = _bare_ctype(c_type)
    if py_ctype == "c_void_p":
        return bare.endswith("*")
    pointer = re.fullmatch(r"POINTER\((\w+)\)", py_ctype or "")
    if pointer:
        target = pointer.group(1)
        return bare in (f"{target} *", f"{target.lstrip('_')} *")
    return _SCALARS.get(py_ctype) == bare


@register
class KernelAbiPass(LintPass):
    id = "kernel-abi"
    description = (
        "ctypes struct layouts and argtypes in each ckernel.py driver"
        " must match the structs and prototype of its C kernel"
    )

    def check_project(self, project):
        for contract in kernel_contracts():
            driver = project.module(contract.driver_path)
            if driver is None or driver.tree is None:
                continue
            try:
                unit = project.c_unit(contract.path)
            except CParseError:
                continue  # kernel-bounds reports the parse failure
            if unit is None:
                yield self.finding(
                    driver, 1,
                    f"{contract.path} is missing: {driver.relpath} binds"
                    " a C kernel that is not in the tree",
                )
                continue
            for py_struct in ctypes_structs(driver.tree).values():
                if py_struct.name.startswith("_"):
                    yield from self._check_struct(
                        driver, py_struct, contract.path, unit)
            yield from self._check_prototype(driver, contract, unit)

    # -- struct layouts ------------------------------------------------

    def _check_struct(self, ck, py_struct, c_path, unit):
        c_name = py_struct.name.lstrip("_")
        c_struct = unit.structs.get(c_name)
        if c_struct is None:
            yield self.finding(
                ck, py_struct.lineno,
                f"no `typedef struct ... {c_name};` found in"
                f" {c_path} for ctypes layout {py_struct.name}",
            )
            return
        for position, (py_field, c_field) in enumerate(
            zip(py_struct.fields, c_struct.fields)
        ):
            problem = None
            if py_field.name != c_field.name:
                problem = (
                    f"is {py_field.name!r} but the C struct declares"
                    f" {c_field.name!r}"
                )
            elif (py_field.array_len is None) != (c_field.array_len is None):
                py_kind = "an array" if py_field.array_len else "a scalar"
                c_kind = "an array" if c_field.array_len else "a scalar"
                problem = f"is {py_kind} but the C struct declares {c_kind}"
            elif not _scalar_matches(py_field.ctype, c_field.ctype):
                problem = (
                    f"has ctypes type {py_field.ctype} but the C struct"
                    f" declares {c_field.ctype}"
                )
            if problem is not None:
                yield self.finding(
                    ck, py_field.lineno,
                    f"{py_struct.name} field #{position}"
                    f" ({py_field.name!r}) {problem}"
                    f" ({c_path}:{c_field.lineno}); ctypes reads"
                    " raw offsets, so the layouts must match"
                    " field-for-field",
                )
                return
        if len(py_struct.fields) != len(c_struct.fields):
            yield self.finding(
                ck, py_struct.lineno,
                f"{py_struct.name} has {len(py_struct.fields)} fields"
                f" but {c_name} has {len(c_struct.fields)}"
                f" ({c_path}:{c_struct.lineno})",
            )

    # -- function prototype --------------------------------------------

    def _check_prototype(self, ck, contract, unit):
        wirings = argtypes_wiring(ck.tree)
        if not wirings:
            return
        entry, c_path = contract.entry, contract.path
        c_fn = unit.functions.get(entry)
        if c_fn is None or c_fn.static:
            yield self.finding(
                ck, wirings[0].lineno,
                f"argtypes are wired but no exported {entry}()"
                f" definition was found in {c_path}",
            )
            return
        c_params = [(f"{base}{' *' * ptr}", name)
                    for name, base, ptr in c_fn.params]
        for wiring in wirings:
            if len(wiring.argtypes) != len(c_params):
                yield self.finding(
                    ck, wiring.lineno,
                    f"argtypes lists {len(wiring.argtypes)} parameters"
                    f" but {entry} takes {len(c_params)}"
                    f" ({c_path}:{c_fn.lineno})",
                )
                continue
            for position, ((py_ctype, py_lineno), (c_type, c_param)) in \
                    enumerate(zip(wiring.argtypes, c_params)):
                if not _scalar_matches(py_ctype, c_type):
                    yield self.finding(
                        ck, py_lineno,
                        f"argtypes[{position}] is {py_ctype} but"
                        f" {entry} parameter {c_param} is {c_type}"
                        f" ({c_path}:{c_fn.lineno})",
                    )
                    break
            else:
                if wiring.restype is not None and not _scalar_matches(
                    wiring.restype, c_fn.return_type
                ):
                    yield self.finding(
                        ck, wiring.restype_lineno or wiring.lineno,
                        f"restype is {wiring.restype} but"
                        f" {entry} returns {c_fn.return_type}"
                        f" ({c_path}:{c_fn.lineno})",
                    )
