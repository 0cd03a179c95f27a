"""AST extractors for the Python half of the kernel ABI contract.

Counterparts to the C declarations :mod:`repro.lint.clang_parity.cparse`
records, recovered from parsed modules (never by importing them — lint
must work on a tree that does not import):

* ``ctypes.Structure`` subclasses and their ``_fields_`` layouts
  (:func:`ctypes_structs`), including ``c_int64 * len(...)`` array
  members;
* ``fn.argtypes = [...]`` / ``fn.restype = ...`` wiring
  (:func:`argtypes_wiring`);
* enum member definition order and constant values
  (:func:`enum_members`);
* module-level integer constants like ``NOT_EXECUTED = 1 << 30``
  (:func:`int_constant`), folded over an integer operator whitelist;
* attribute tuples like ``INHIBITOR_ORDER`` (:func:`attr_tuple`) and
  string-to-int contract dicts like ``_EXPECTED_OPS``
  (:func:`int_dict`);
* the ``PLAN_COLUMNS`` payload schema (:func:`plan_columns`) plus the
  extra literal keys ``plan_payload`` packs (:func:`payload_extras`),
  fingerprinted by :func:`schema_fingerprint` for the lint manifest.

Every extractor returns ``None`` (or an empty container) when the
shape it looks for is absent, so the parity passes can gate on "both
sides present" and fixture miniatures can carry only the pieces a test
exercises.
"""

import ast
import hashlib
import operator

from repro.lint.astutil import call_name, dotted_name, str_constant

#: Binary operators an integer constant expression may use.  True
#: division is absent: ``/`` yields a float in Python.
_INT_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.LShift: operator.lshift,
    ast.RShift: operator.rshift,
    ast.BitOr: operator.or_,
    ast.BitAnd: operator.and_,
    ast.BitXor: operator.xor,
}
_INT_UNARYOPS = (ast.UAdd, ast.USub, ast.Invert)


def _last_segment(name):
    return name.rsplit(".", 1)[-1] if name else None


def fold_int(node, env=None):
    """Fold a constant integer expression AST, or ``None``.

    Python-side constants like ``1 << 30`` fold to the value their C
    ``#define`` folds to, so the two sides are compared value-to-value
    rather than text-to-text.
    """
    env = env or {}
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.BinOp) and type(node.op) in _INT_BINOPS:
        left, right = fold_int(node.left, env), fold_int(node.right, env)
        if left is None or right is None:
            return None
        try:
            return _INT_BINOPS[type(node.op)](left, right)
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _INT_UNARYOPS):
        operand = fold_int(node.operand, env)
        if operand is None:
            return None
        if isinstance(node.op, ast.USub):
            return -operand
        if isinstance(node.op, ast.Invert):
            return ~operand
        return operand
    return None


class PyField:
    """One ctypes ``_fields_`` entry."""

    __slots__ = ("name", "ctype", "array_len", "lineno")

    def __init__(self, name, ctype, array_len, lineno):
        self.name = name
        self.ctype = ctype          # e.g. "c_int64"
        self.array_len = array_len  # source text of the length, or None
        self.lineno = lineno


class PyStruct:
    """One ``ctypes.Structure`` subclass layout."""

    __slots__ = ("name", "fields", "lineno")

    def __init__(self, name, fields, lineno):
        self.name = name
        self.fields = fields
        self.lineno = lineno


def _is_structure_base(base):
    return _last_segment(dotted_name(base)) in ("Structure", "BigEndianStructure",
                                                "LittleEndianStructure")


def _ctype_of(node):
    """Normalise a ctypes type expression to a comparable string.

    ``ctypes.c_int64`` -> ``("c_int64", None)``;
    ``ctypes.c_int64 * len(X)`` -> ``("c_int64", "len(X)")``;
    ``ctypes.POINTER(_KernelConfig)`` -> ``("POINTER(_KernelConfig)",
    None)``.  Unrecognised shapes give ``(None, None)``.
    """
    name = dotted_name(node)
    if name is not None:
        return _last_segment(name), None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        element = _last_segment(dotted_name(node.left))
        if element is not None:
            return element, ast.unparse(node.right)
    if isinstance(node, ast.Call):
        callee = _last_segment(call_name(node))
        if callee == "POINTER" and len(node.args) == 1:
            target = _last_segment(dotted_name(node.args[0]))
            if target is not None:
                return f"POINTER({target})", None
    return None, None


def ctypes_structs(tree):
    """All ``ctypes.Structure`` layouts in *tree*: ``{name: PyStruct}``."""
    structs = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_is_structure_base(base) for base in node.bases):
            continue
        fields = []
        for stmt in node.body:
            if not (isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_fields_"
                for t in stmt.targets
            )):
                continue
            if not isinstance(stmt.value, (ast.List, ast.Tuple)):
                continue
            for element in stmt.value.elts:
                if not (isinstance(element, (ast.Tuple, ast.List))
                        and len(element.elts) >= 2):
                    continue
                field_name = str_constant(element.elts[0])
                ctype, array_len = _ctype_of(element.elts[1])
                if field_name is not None:
                    fields.append(PyField(
                        field_name, ctype, array_len, element.lineno
                    ))
        structs[node.name] = PyStruct(node.name, fields, node.lineno)
    return structs


class ArgtypesWiring:
    """One ``fn.argtypes = [...]`` site (with its ``restype``)."""

    __slots__ = ("argtypes", "lineno", "restype", "restype_lineno")

    def __init__(self, argtypes, lineno, restype, restype_lineno):
        self.argtypes = argtypes  # list of (ctype_str_or_None, lineno)
        self.lineno = lineno
        self.restype = restype
        self.restype_lineno = restype_lineno


def argtypes_wiring(tree):
    """Every ``X.argtypes`` assignment in *tree*, paired per scope with
    the nearest ``X.restype`` assignment on the same receiver name."""
    argtype_sites = []   # (receiver, list, lineno)
    restype_sites = {}   # receiver -> (ctype, lineno)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Attribute):
            continue
        receiver = dotted_name(target.value)
        if target.attr == "argtypes" and isinstance(
            node.value, (ast.List, ast.Tuple)
        ):
            entries = [
                (_ctype_of(element)[0], element.lineno)
                for element in node.value.elts
            ]
            argtype_sites.append((receiver, entries, node.lineno))
        elif target.attr == "restype":
            restype_sites[receiver] = (
                _ctype_of(node.value)[0], node.lineno
            )
    wirings = []
    for receiver, entries, lineno in argtype_sites:
        restype, restype_lineno = restype_sites.get(receiver, (None, None))
        wirings.append(ArgtypesWiring(entries, lineno, restype,
                                      restype_lineno))
    return wirings


def enum_members(tree, class_name):
    """Members of enum *class_name* as ``[(name, value, lineno)]``.

    *value* is the folded int for ``IntEnum``-style members, the string
    for string-valued ones, else ``None``.  Returns ``None`` when the
    class is absent; order is definition order — which is exactly what
    the C ``INH_*`` indices encode.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            members = []
            for stmt in node.body:
                if not (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)):
                    continue
                name = stmt.targets[0].id
                if name.startswith("_"):
                    continue
                value = fold_int(stmt.value)
                if value is None:
                    value = str_constant(stmt.value)
                members.append((name, value, stmt.lineno))
            return members
    return None


def int_constant(tree, name):
    """Module-level ``name = <int expr>`` as ``(value, lineno)`` or ``None``."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name):
            value = fold_int(stmt.value)
            if value is not None:
                return value, stmt.lineno
    return None


def attr_tuple(tree, name):
    """Module-level ``name = (X.A, X.B, ...)`` as ``[(attr, lineno)]``."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name
                and isinstance(stmt.value, (ast.Tuple, ast.List))):
            entries = []
            for element in stmt.value.elts:
                if isinstance(element, ast.Attribute):
                    entries.append((element.attr, element.lineno))
                else:
                    entries.append((None, element.lineno))
            return entries
    return None


def int_dict(tree, name):
    """Module-level ``name = {"KEY": int, ...}`` as ``({key: value},
    lineno)`` or ``None``."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name
                and isinstance(stmt.value, ast.Dict)):
            out = {}
            for key, value in zip(stmt.value.keys, stmt.value.values):
                key_str = str_constant(key) if key is not None else None
                folded = fold_int(value)
                if key_str is not None and folded is not None:
                    out[key_str] = folded
            return out, stmt.lineno
    return None


def plan_columns(tree):
    """The ``PLAN_COLUMNS`` schema: ``([(name, dtype, lineno)], lineno)``.

    Dtypes are normalised to their last segment (``np.int8`` ->
    ``int8``) so the fingerprint is stable under import-style changes.
    """
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "PLAN_COLUMNS"
                and isinstance(stmt.value, (ast.Tuple, ast.List))):
            columns = []
            for element in stmt.value.elts:
                if not (isinstance(element, (ast.Tuple, ast.List))
                        and len(element.elts) == 2):
                    continue
                name = str_constant(element.elts[0])
                dtype = _last_segment(dotted_name(element.elts[1]))
                if name is not None:
                    columns.append((name, dtype, element.lineno))
            return columns, stmt.lineno
    return None


def payload_extras(tree):
    """Extra literal keys ``plan_payload`` packs beside the columns.

    Scans the ``plan_payload`` function for ``payload["key"] = ...``
    stores on its dict; the schema fingerprint covers them so adding a
    second meta record is a schema change like any other.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "plan_payload":
            keys = []
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript):
                        key = str_constant(target.slice)
                        if key is not None:
                            keys.append(key)
            return sorted(set(keys))
    return None


def schema_fingerprint(columns, extras):
    """SHA-256 fingerprint of the payload column set.

    Canonical form: one ``name:dtype`` line per column in order, then
    one ``+extra`` line per sorted extra key.  Pinned in
    ``repro.lint.manifest`` and regenerated by
    ``repro lint --manifest-update``.
    """
    lines = [f"{name}:{dtype}" for name, dtype, _ in columns]
    lines += [f"+{key}" for key in sorted(extras or ())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
