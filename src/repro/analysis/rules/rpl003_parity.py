"""RPL003 — scalar/batched engine counter parity.

The batched engine (``mem/hierarchy.py:access_batch``) resolves a whole
segment of accesses with array passes and adds each counter's total once
per segment; the differential harness proves the two engines
bit-identical *dynamically*.  This rule proves the cheaper static half:
the **set** of stats counters touched by the scalar protocol code equals
the set the batched engine adds to, so a counter added to one engine
without the other fails lint before any simulation runs.

Two sub-checks:

1. **Counter-set parity.**  Within the configured ``scalar-modules``,
   every ``+=`` onto a stats-like attribute (``*.stats.X``,
   ``*_stats.X``, plus ``extra-counters``) *outside* functions named in
   ``batched-functions`` forms the scalar counter set; the same
   collection *inside* those functions forms the batched set.  Any
   symmetric difference is a finding, except for the counters listed in
   ``scalar-only``: events the batched engine hands to the scalar path
   by construction (L2 evictions and their writebacks).

2. **SimResult wiring.**  The int-annotated fields of the ``SimResult``
   dataclass (``sim-result-module`` / ``sim-result-class``) must each be
   passed explicitly wherever a ``SimResult(...)`` is constructed in
   that module — a counter field added with a default of 0 but never
   populated would otherwise read as "measured: zero" forever.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    Module,
    Project,
    Rule,
    counter_target,
    dataclass_fields,
    dotted_name,
    path_matches,
    register_rule,
)


def _collect_counters(
    tree: ast.AST,
    batched_names: Set[str],
    extra: Tuple[str, ...],
) -> Tuple[Dict[str, ast.AST], Dict[str, ast.AST], List[ast.FunctionDef]]:
    """Split counter increments into (scalar, batched) maps.

    Returns ``(scalar, batched, batched_defs)`` where each map takes a
    counter name to the first AST node incrementing it on that side.
    """
    scalar: Dict[str, ast.AST] = {}
    batched: Dict[str, ast.AST] = {}
    batched_defs: List[ast.FunctionDef] = []
    batched_nodes: Set[int] = set()

    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in batched_names:
            batched_defs.append(node)
            for sub in ast.walk(node):
                batched_nodes.add(id(sub))

    for node in ast.walk(tree):
        if not isinstance(node, ast.AugAssign) or not isinstance(node.op, ast.Add):
            continue
        name = counter_target(node.target, extra)
        if name is None:
            continue
        side = batched if id(node) in batched_nodes else scalar
        side.setdefault(name, node)
    return scalar, batched, batched_defs


@register_rule
class EngineParityRule(Rule):
    """Require the scalar and batched engines to bump identical counter sets,
    and every int field of the result dataclass to be wired at construction."""
    id = "RPL003"
    title = "scalar and batched engines must touch the same counter set"
    scope = "program"
    default_options = {
        "scalar-modules": [
            "repro/mem/cache.py",
            "repro/mem/coherence.py",
            "repro/mem/hierarchy.py",
            "repro/mem/interconnect.py",
        ],
        "batched-functions": ["access_batch"],
        "extra-counters": ["l1_sibling_invalidations"],
        "scalar-only": ["writebacks"],
        "sim-result-module": "repro/machine/simulator.py",
        "sim-result-class": "SimResult",
    }

    def check(self, project: Project) -> Iterator[Finding]:
        yield from self._check_counter_parity(project)
        yield from self._check_simresult_wiring(project)

    # -- sub-check 1: counter-set parity --------------------------------------

    def _check_counter_parity(self, project: Project) -> Iterator[Finding]:
        patterns: List[str] = list(self.opt("scalar-modules"))
        batched_names = set(self.opt("batched-functions"))
        extra = tuple(self.opt("extra-counters"))
        scalar_only = set(self.opt("scalar-only"))

        modules = [
            m
            for m in project.modules
            if any(path_matches(m.rel, pat) for pat in patterns)
        ]
        if not modules:
            return

        scalar: Dict[str, Tuple[Module, ast.AST]] = {}
        batched: Dict[str, Tuple[Module, ast.AST]] = {}
        batched_defs: List[Tuple[Module, ast.FunctionDef]] = []
        for module in modules:
            s, b, defs = _collect_counters(module.tree, batched_names, extra)
            for name, node in s.items():
                scalar.setdefault(name, (module, node))
            for name, node in b.items():
                batched.setdefault(name, (module, node))
            batched_defs.extend((module, d) for d in defs)

        if not batched_defs:
            # No batched engine in scope (e.g. linting a subset): parity
            # is vacuous, not violated.
            return

        anchor_module, anchor_def = batched_defs[0]
        for name in sorted(set(scalar) - set(batched) - scalar_only):
            src_module, src_node = scalar[name]
            yield anchor_module.finding(
                self.id,
                anchor_def,
                f"counter '{name}' is incremented by the scalar engine "
                f"({src_module.rel}:{src_node.lineno}) but never flushed "
                f"by the batched engine '{anchor_def.name}' — the "
                "differential harness would catch this at runtime; fix "
                "it here first",
            )
        for name in sorted(set(batched) - set(scalar)):
            mod, node = batched[name]
            yield mod.finding(
                self.id,
                node,
                f"counter '{name}' is updated only inside the batched "
                "engine; the scalar reference path never touches it, so "
                "the engines cannot stay bit-identical",
            )

    # -- sub-check 2: SimResult construction wiring ---------------------------

    def _check_simresult_wiring(self, project: Project) -> Iterator[Finding]:
        pattern: str = self.opt("sim-result-module")
        class_name: str = self.opt("sim-result-class")
        for module in project.find_modules(pattern):
            cls = next(
                (
                    n
                    for n in ast.walk(module.tree)
                    if isinstance(n, ast.ClassDef) and n.name == class_name
                ),
                None,
            )
            if cls is None:
                continue
            int_fields = [
                name
                for name, ann, _default in dataclass_fields(cls)
                if ann == "int"
            ]
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None or name.split(".")[-1] != class_name:
                    continue
                passed = {kw.arg for kw in node.keywords if kw.arg is not None}
                if any(kw.arg is None for kw in node.keywords):
                    continue  # **kwargs construction: not statically checkable
                for field_name in int_fields:
                    if field_name not in passed:
                        yield module.finding(
                            self.id,
                            node,
                            f"{class_name}(...) does not populate counter "
                            f"field '{field_name}'; every int field must be "
                            "wired explicitly so both engines report it",
                        )
