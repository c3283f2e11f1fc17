"""The repo must pass its own linter — the CI gate, as a test.

This is the acceptance property behind `make lint`: zero findings over
``src/repro`` under the committed ``[tool.repro-lint]`` configuration,
with no inline suppressions (the framework has none to offer — all
exemptions are in pyproject, where review sees them).
"""

from repro.analysis.core import LintConfig, load_project, run_lint

from tests.analysis.conftest import REPO_ROOT


def test_src_is_lint_clean():
    config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
    project = load_project(REPO_ROOT, config=config)
    assert project.modules, "no modules found under the configured paths"
    findings = run_lint(project)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_rpl003_is_not_vacuous_on_src():
    """Guard the guard: the parity rule must actually find the batched
    engine and a non-empty counter set in the real tree (a path/config
    typo would otherwise turn RPL003 into a silent no-op)."""
    from repro.analysis.rules.rpl003_parity import _collect_counters

    config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
    project = load_project(REPO_ROOT, config=config)
    options = config.options_for("RPL003")
    scalar: set = set()
    batched: set = set()
    found_batched_def = False
    for pattern in options["scalar-modules"]:
        for module in project.find_modules(pattern):
            s, b, defs = _collect_counters(
                module.tree,
                set(options["batched-functions"]),
                tuple(options["extra-counters"]),
            )
            scalar |= set(s)
            batched |= set(b)
            found_batched_def = found_batched_def or bool(defs)
    assert found_batched_def, "access_batch not found: RPL003 is vacuous"
    # The MESI protocol and interconnect counters must all be visible to
    # the rule.
    assert {"l2_misses", "snoop_transactions", "invalidations",
            "memory_fetches", "upgrades", "writebacks_to_memory",
            "intra_transactions", "inter_bytes"} <= scalar
    # Exemptions name real scalar counters, and only they differ.
    scalar_only = set(options["scalar-only"])
    assert scalar_only <= scalar
    assert scalar - scalar_only == batched


def test_simresult_int_fields_found():
    """The SimResult wiring sub-check sees the real counter fields."""
    from repro.analysis.core import dataclass_fields

    config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
    project = load_project(REPO_ROOT, config=config)
    import ast

    options = config.options_for("RPL003")
    modules = project.find_modules(options["sim-result-module"])
    assert modules, "sim-result-module pattern matched nothing"
    cls = next(
        n
        for n in ast.walk(modules[0].tree)
        if isinstance(n, ast.ClassDef) and n.name == options["sim-result-class"]
    )
    int_fields = {name for name, ann, _d in dataclass_fields(cls) if ann == "int"}
    assert {"invalidations", "snoop_transactions", "l2_misses",
            "tlb_misses", "preemptions"} <= int_fields
