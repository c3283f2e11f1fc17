"""RPL008 — bench scripts must not hand-roll sweeps a spec already covers.

The declarative experiment platform (``repro.experiments.specs``) exists
so that a benchmark's grid — kernels × topologies × mechanisms × seeds —
lives in one reviewable TOML file under ``benchmarks/specs/``, executed
by one memoizing runner.  A ``bench_*.py`` that loops over simulator or
experiment configurations by hand forks that machinery: its cells bypass
the result cache, its grid drifts from the spec's, and the differential
goldens stop covering what actually runs.

Two findings, by porting state (the spec for ``bench_<name>.py`` is
``<specs-dir>/<name>.toml``):

* the spec **exists** — any hand-rolled sweep is flagged, allowlisted or
  not: the port happened, the loop is a regression;
* the spec **does not exist** and the script is not in ``allow`` — the
  sweep is flagged as un-ported work.  ``allow`` is the explicit queue
  of not-yet-ported scripts, so new hand-rolled sweeps cannot land
  silently.

A "hand-rolled sweep" is a loop or comprehension that constructs or
invokes one of the ``grid-calls`` names (config classes and runner entry
points) in its body — the signature of enumerating simulation cells
imperatively.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator, List, Set

from repro.analysis.core import (
    Finding,
    Module,
    Project,
    Rule,
    dotted_name,
    path_matches,
    register_rule,
)

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def spec_name_for(rel: str) -> str:
    """Spec stem for a bench script: ``bench_fig4.py`` -> ``fig4``."""
    stem = PurePosixPath(rel).stem
    return stem[len("bench_"):] if stem.startswith("bench_") else stem


def _grid_calls_under(node: ast.AST, names: Set[str]) -> Iterator[ast.Call]:
    """Call nodes under ``node`` whose callee matches a grid name.

    Nested function/class definitions are skipped: a helper *defined*
    inside a loop body runs when called, not per iteration, and flagging
    it would misattribute the sweep.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        if isinstance(child, ast.Call):
            name = dotted_name(child.func)
            if name is not None and name.split(".")[-1] in names:
                yield child
        stack.extend(ast.iter_child_nodes(child))


@register_rule
class HandRolledSweepRule(Rule):
    """Flag imperative config sweeps in bench scripts."""
    id = "RPL008"
    title = "bench sweeps belong in declarative specs"
    default_options = {
        "paths": ["benchmarks/bench_*.py"],
        #: Not-yet-ported scripts (path patterns): exempt only while no
        #: spec exists for them.
        "allow": [],
        #: Where ported specs live, relative to the project root.
        "specs-dir": "benchmarks/specs",
        #: Spec stems treated as existing regardless of the filesystem
        #: (fixture corpora have no specs directory).
        "specs": [],
        #: Constructing/calling any of these inside a loop body is the
        #: hand-rolled-sweep signature.
        "grid-calls": ["ExperimentConfig", "SimConfig", "ExperimentRunner",
                       "Simulator", "run_benchmark"],
    }

    def check(self, project: Project) -> Iterator[Finding]:
        paths = list(self.opt("paths"))
        allow = list(self.opt("allow"))
        names = set(self.opt("grid-calls"))
        declared = set(self.opt("specs"))
        specs_dir = project.root / str(self.opt("specs-dir"))
        for module in project.modules:
            if not any(path_matches(module.rel, pat) for pat in paths):
                continue
            spec = spec_name_for(module.rel)
            ported = spec in declared or (specs_dir / f"{spec}.toml").is_file()
            allowed = any(path_matches(module.rel, pat) for pat in allow)
            if not ported and allowed:
                continue
            yield from self._check_module(module, spec, ported)

    def _check_module(
        self, module: Module, spec: str, ported: bool
    ) -> Iterator[Finding]:
        names = set(self.opt("grid-calls"))
        specs_dir = self.opt("specs-dir")
        seen: Set[tuple] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, _LOOPS):
                calls = _grid_calls_under(node, names)
            elif isinstance(node, _COMPREHENSIONS):
                calls = _grid_calls_under(node, names)
            else:
                continue
            for call in calls:
                site = (call.lineno, call.col_offset)
                if site in seen:
                    continue  # nested loops: one finding per call site
                seen.add(site)
                what = dotted_name(call.func).split(".")[-1]
                if ported:
                    message = (
                        f"hand-rolled sweep over {what} but spec "
                        f"'{spec}.toml' exists — drive it through "
                        f"run_bench_spec / run_spec instead"
                    )
                else:
                    message = (
                        f"hand-rolled sweep over {what} — port this bench "
                        f"to a declarative spec under {specs_dir}/"
                    )
                yield module.finding(self.id, call, message)
