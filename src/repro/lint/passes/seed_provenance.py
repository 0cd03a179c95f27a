"""seed-provenance: RNG seeds must come from explicit configuration.

The determinism pass (PR 3) catches a *seedless* ``default_rng()``;
it cannot catch the subtler bug where a seed is passed but *flows from
a nondeterministic source*::

    stamp = int(time.time())
    ...
    rng = np.random.default_rng(stamp)     # seeded, yet irreproducible

This pass runs the taint analysis over every scope's CFG: wall-clock
reads, OS entropy (``os.urandom``, ``secrets``), UUIDs and process
ids introduce taint labels; assignments, arithmetic, f-strings and
module-local helper calls propagate them (helper returns are
summarised via the module call graph, so ``seed = fresh_seed()`` is
tracked through ``fresh_seed``'s own body).  Any seeding call —
``default_rng(x)``, ``random.seed(x)``, ``random.Random(x)``,
``RandomState(x)``, ``SeedSequence(x)``, ``rng.seed(x)`` — whose
argument carries such a label is a violation, wherever it appears.

Values with no tracked source (function parameters, config attributes,
CLI arguments, literals) are considered explicit seeds and pass.
"""

import ast

from repro.lint.astutil import call_name
from repro.lint.flow.cfg import build_cfg, iter_scopes
from repro.lint.flow.dataflow import TaintAnalysis, own_expressions
from repro.lint.flow.summaries import ModuleSummaries
from repro.lint.framework import LintPass, register

#: Taint sources: dotted callee -> label.
TAINT_SOURCES = {
    "time.time": "wall-clock",
    "time.time_ns": "wall-clock",
    "time.monotonic": "wall-clock",
    "time.monotonic_ns": "wall-clock",
    "time.perf_counter": "wall-clock",
    "time.perf_counter_ns": "wall-clock",
    "datetime.datetime.now": "wall-clock",
    "datetime.now": "wall-clock",
    "datetime.datetime.utcnow": "wall-clock",
    "datetime.utcnow": "wall-clock",
    "datetime.date.today": "wall-clock",
    "date.today": "wall-clock",
    "os.urandom": "os-entropy",
    "secrets.token_bytes": "os-entropy",
    "secrets.token_hex": "os-entropy",
    "secrets.randbits": "os-entropy",
    "secrets.randbelow": "os-entropy",
    "uuid.uuid1": "uuid",
    "uuid.uuid4": "uuid",
    "os.getpid": "process-id",
}

#: Last path components that construct/reseed an RNG from their args.
_SINK_TAILS = frozenset({"default_rng", "RandomState", "SeedSequence"})

#: Identifiers the last component of every sink name contains.
_SINK_WORDS = ("default_rng", "Random", "SeedSequence", "seed")


def _source_labels(dotted_name):
    label = TAINT_SOURCES.get(dotted_name)
    return {label} if label is not None else set()


def _is_seed_sink(dotted_name):
    parts = dotted_name.split(".")
    if parts[-1] in _SINK_TAILS:
        return True
    if dotted_name in ("random.seed", "random.Random"):
        return True
    # rng.seed(x) — reseeding an RNG instance.
    return len(parts) == 2 and parts[-1] == "seed"


def _has_seed_sink(module):
    """Does the module contain a seeding call?  A sink's name spells
    one of :data:`_SINK_WORDS` in the source, so the text test is a
    sound filter ahead of the tree walk."""
    if not any(word in module.source for word in _SINK_WORDS):
        return False
    return any(_is_seed_sink(call_name(node) or "")
               for node in ast.walk(module.tree)
               if isinstance(node, ast.Call))


@register
class SeedProvenancePass(LintPass):
    id = "seed-provenance"
    description = (
        "RNG seeds may not flow from wall-clock, OS entropy, uuid or"
        " pid sources — only from explicit config/CLI values"
    )

    def check_module(self, module, project):
        # Findings sit only at seeding calls and the summaries are
        # module-local, so a module without one needs no solve.
        if not _has_seed_sink(module):
            return
        summaries = ModuleSummaries(module.tree)
        analysis = TaintAnalysis(_source_labels, summaries)
        # Module-level assignments seed the environment of every
        # function scope, so `STAMP = time.time()` at import time
        # taints a later `default_rng(STAMP)` inside a function.
        module_cfg = build_cfg(module.tree)
        module_states = analysis.solve(module_cfg)
        module_env = module_states[module_cfg.exit]
        for scope_name, scope in iter_scopes(module.tree):
            if isinstance(scope, ast.Module):
                cfg, states = module_cfg, module_states
            else:
                cfg = build_cfg(scope, name=scope_name)
                # Parameters shadow module globals and arrive untainted.
                params = {a.arg for a in ast.walk(scope.args)
                          if isinstance(a, ast.arg)}
                env = {name: taint for name, taint in module_env.items()
                       if name not in params}
                states = analysis.solve(cfg, entry_state=env)
            yield from self._check_scope(module, analysis, cfg, states)

    def _check_scope(self, module, analysis, cfg, states):
        for index in cfg.statement_nodes():
            stmt = cfg.nodes[index]
            for expr in own_expressions(stmt):
                for node in ast.walk(expr):
                    if not isinstance(node, ast.Call):
                        continue
                    name = call_name(node)
                    if name is None or not _is_seed_sink(name):
                        continue
                    args = list(node.args)
                    args += [kw.value for kw in node.keywords]
                    labels = set()
                    for arg in args:
                        labels |= analysis.taint_of(arg, states[index])
                    if labels:
                        pretty = ", ".join(sorted(labels))
                        yield self.finding(
                            module, node.lineno,
                            f"seed passed to {name}() is tainted by"
                            f" {pretty}; seeds must come from explicit"
                            " config/CLI values so runs are"
                            " reproducible",
                        )
