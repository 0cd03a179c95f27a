"""sweep-race: process-pool workers must not mutate shared state.

The sweep pools fork workers that inherit the parent's modules
copy-on-write.  A worker that stores to a module global, a class
attribute or a closed-over mutable *appears* to work — each forked
child updates its own copy — but the parent never sees the writes, so the "shared" accumulator is silently empty (and under the
``spawn`` start method the same code races or pickles stale state).
The only safe protocol is the one ``repro.analysis.parallel`` uses:
workers receive arguments, return results, and the parent aggregates.

This pass finds every function submitted to a pool — the first
argument of ``.submit(f, ...)`` / ``.map(f, ...)`` / ``.starmap`` /
``.imap`` / ``.apply_async`` calls, or a function passed to a module
helper that submits that parameter — and checks, through the module
call graph, that neither the worker nor any helper it transitively
calls stores outside its local scope: no ``global`` assignment, no
``STATE[...] = ...`` / ``STATE.attr = ...`` on a module-level name, no
``SomeClass.attr = ...``, no ``shared.append(...)``-style in-place
mutation of a closed-over or global container.

Pool *initializers* (a process pool's ``initializer=`` callable) are
deliberately exempt: priming per-worker module state is their job.
"""

import ast

from repro.lint.flow.summaries import ModuleSummaries
from repro.lint.framework import LintPass, register

#: Attribute-call names whose first argument is run on pool workers.
_SUBMIT_METHODS = frozenset({
    "submit", "map", "starmap", "imap", "imap_unordered", "apply_async",
})


def _submitted_functions(tree):
    """``{function_name: first submit line}`` for pool-submitted names."""
    submitted = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _SUBMIT_METHODS or not node.args:
            continue
        target = node.args[0]
        if isinstance(target, ast.Name):
            submitted.setdefault(target.id, node.lineno)
    return submitted


def _forwarded_workers(tree):
    """``{function_name: call line}`` for workers handed to a pool helper.

    A module-level function that submits one of its own parameters
    (``def _run_chunks(run_chunk, ...): pool.submit(run_chunk, ...)``)
    runs on the pool whatever its callers pass in that position, so
    each such argument counts as submitted at the helper's call site.
    """
    helpers = {}
    for func in tree.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = [arg.arg for arg in func.args.posonlyargs + func.args.args]
        for name in _submitted_functions(func):
            if name in params:
                helpers[func.name] = (params.index(name), name)
    forwarded = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in helpers):
            continue
        index, name = helpers[node.func.id]
        if index < len(node.args):
            passed = node.args[index]
        else:
            passed = next((kw.value for kw in node.keywords
                           if kw.arg == name), None)
        if isinstance(passed, ast.Name):
            forwarded.setdefault(passed.id, node.lineno)
    return forwarded


@register
class SweepRacePass(LintPass):
    id = "sweep-race"
    description = (
        "functions submitted to a process pool must not store to"
        " module globals, class attributes or closed-over mutables"
    )

    def check_module(self, module, project):
        submitted = _submitted_functions(module.tree)
        for worker, line in _forwarded_workers(module.tree).items():
            submitted.setdefault(worker, line)
        if not submitted:
            return
        summaries = ModuleSummaries(module.tree)
        reported = set()
        for worker, submit_line in sorted(submitted.items()):
            if worker not in summaries.functions:
                continue  # imported or builtin callable — out of scope
            for mutation, chain in summaries.external_mutations(worker):
                key = (mutation.lineno, mutation.kind, mutation.name)
                if key in reported:
                    continue
                reported.add(key)
                if len(chain) > 1:
                    via = " -> ".join(chain)
                    route = f" (reached via {via})"
                else:
                    route = ""
                yield self.finding(
                    module, mutation.lineno,
                    f"{mutation.func}() stores to"
                    f" {mutation.describe()} but {worker}() is"
                    f" submitted to a process pool at line"
                    f" {submit_line}{route}; forked workers mutate a"
                    " copy the parent never sees — return results"
                    " instead",
                )
