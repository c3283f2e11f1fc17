"""Per-rule self-tests: every RPL rule fires on its violating fixture
and stays quiet on the matching clean one."""

from pathlib import Path

from repro.analysis.core import LintConfig, load_project, run_lint

from tests.analysis.conftest import FIXTURES, fixture_config


def lint_fixture(filename: str, config: LintConfig) -> list:
    project = load_project(FIXTURES, paths=[filename], config=config)
    assert project.modules, f"fixture {filename} not found"
    return run_lint(project)


def rule_ids(findings) -> set:
    return {f.rule for f in findings}


class TestRPL001:
    def test_flags_direct_rng_and_stdlib_random(self):
        findings = lint_fixture("rpl001_bad.py", fixture_config())
        assert rule_ids(findings) == {"RPL001"}
        messages = " ".join(f.message for f in findings)
        assert "default_rng" in messages
        assert "random" in messages
        assert len(findings) == 2

    def test_passes_routed_randomness(self):
        assert lint_fixture("rpl001_ok.py", fixture_config()) == []

    def test_allow_list_exempts_module(self):
        cfg = fixture_config(rpl001={"allow": ["rpl001_bad.py"]})
        assert "RPL001" not in rule_ids(lint_fixture("rpl001_bad.py", cfg))


class TestRPL002:
    def test_flags_clock_entropy_and_uuid(self):
        findings = lint_fixture("rpl002_bad.py", fixture_config())
        assert rule_ids(findings) == {"RPL002"}
        messages = " ".join(f.message for f in findings)
        assert "time.time" in messages
        assert "os.urandom" in messages
        assert "uuid" in messages

    def test_passes_config_derived_values(self):
        assert lint_fixture("rpl002_ok.py", fixture_config()) == []


RPL003_BAD = {
    "scalar-modules": ["rpl003_bad.py"],
    "batched-functions": ["access_batch"],
    "extra-counters": [],
    "sim-result-module": "rpl003_bad.py",
    "sim-result-class": "FixtureResult",
}
RPL003_OK = dict(RPL003_BAD, **{
    "scalar-modules": ["rpl003_ok.py"],
    "sim-result-module": "rpl003_ok.py",
})


class TestRPL003:
    def test_flags_counter_in_one_engine_only(self):
        findings = lint_fixture("rpl003_bad.py", fixture_config(rpl003=RPL003_BAD))
        assert rule_ids(findings) == {"RPL003"}
        parity = [f for f in findings if "scalar engine" in f.message]
        assert len(parity) == 1
        assert "'snoops'" in parity[0].message

    def test_flags_unwired_result_field(self):
        findings = lint_fixture("rpl003_bad.py", fixture_config(rpl003=RPL003_BAD))
        wiring = [f for f in findings if "populate" in f.message]
        assert len(wiring) == 1
        assert "'snoops'" in wiring[0].message

    def test_passes_balanced_engines(self):
        assert lint_fixture("rpl003_ok.py", fixture_config(rpl003=RPL003_OK)) == []

    def test_scalar_only_counter_is_exempt(self):
        cfg = fixture_config(rpl003=dict(RPL003_BAD, **{"scalar-only": ["snoops"]}))
        findings = lint_fixture("rpl003_bad.py", cfg)
        assert not [f for f in findings if "scalar engine" in f.message]

    def test_vacuous_without_batched_function(self):
        # Parity over a module with no access_batch: nothing to compare.
        cfg = fixture_config(rpl003=dict(RPL003_BAD, **{
            "scalar-modules": ["rpl004_bad.py"],
            "sim-result-module": "rpl004_bad.py",
        }))
        assert lint_fixture("rpl004_bad.py", cfg) == []


RPL004 = {"config-classes": ["FixtureConfig"]}


class TestRPL004:
    def test_flags_unread_field(self):
        findings = lint_fixture("rpl004_bad.py", fixture_config(rpl004=RPL004))
        assert rule_ids(findings) == {"RPL004"}
        assert len(findings) == 1
        assert "ghost_knob" in findings[0].message

    def test_passes_fully_read_config(self):
        assert lint_fixture("rpl004_ok.py", fixture_config(rpl004=RPL004)) == []

    def test_read_in_sibling_module_counts(self):
        # Project-wide reads: linting bad+ok together still flags only
        # ghost_knob (audited_knob is read in the ok module).
        project = load_project(
            FIXTURES,
            paths=["rpl004_bad.py", "rpl004_ok.py"],
            config=fixture_config(rpl004=RPL004),
        )
        findings = [f for f in run_lint(project) if f.rule == "RPL004"]
        assert ["ghost_knob" in f.message for f in findings] == [True]


class TestRPL005:
    def test_flags_all_three_hygiene_violations(self):
        findings = lint_fixture("rpl005_bad.py", fixture_config())
        assert rule_ids(findings) == {"RPL005"}
        messages = [f.message for f in findings]
        assert any("float accumulation" in m for m in messages)
        assert any("mutable default" in m for m in messages)
        assert any("bare 'except:'" in m for m in messages)
        assert len(findings) == 3

    def test_passes_clean_module(self):
        assert lint_fixture("rpl005_ok.py", fixture_config()) == []


RPL006 = {"paths": ["rpl006_*.py"]}


class TestRPL006:
    def test_flags_blocking_calls_in_async_defs(self):
        findings = lint_fixture("rpl006_bad.py", fixture_config(rpl006=RPL006))
        assert rule_ids(findings) == {"RPL006"}
        messages = [f.message for f in findings]
        assert any("time.sleep" in m for m in messages)
        assert any("subprocess.run" in m for m in messages)
        assert any("urlopen" in m for m in messages)
        assert any("open" in m for m in messages)
        assert len(findings) == 4

    def test_passes_async_code_that_defers_blocking_work(self):
        assert lint_fixture("rpl006_ok.py", fixture_config(rpl006=RPL006)) == []

    def test_sync_defs_are_out_of_scope(self):
        # The same blocking calls outside async defs (other fixtures are
        # full of open()/sleep-free sync code) never fire RPL006.
        findings = lint_fixture("rpl005_ok.py", fixture_config(rpl006={"paths": ["*.py"]}))
        assert "RPL006" not in rule_ids(findings)

    def test_default_scope_excludes_fixtures(self):
        # Without a paths override nothing here matches repro/service/*.
        assert lint_fixture("rpl006_bad.py", fixture_config()) == []

    def test_allow_list_exempts_module(self):
        cfg = fixture_config(rpl006=dict(RPL006, allow=["rpl006_bad.py"]))
        assert lint_fixture("rpl006_bad.py", cfg) == []


RPL007 = {"paths": ["rpl007_*.py"]}


class TestRPL007:
    def test_flags_wall_clock_references_in_obs_modules(self):
        findings = lint_fixture("rpl007_bad.py", fixture_config(rpl007=RPL007))
        assert rule_ids(findings) == {"RPL007"}
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "time.monotonic" in messages
        assert "time.perf_counter" in messages

    def test_flags_wall_clock_args_at_obs_api_calls_project_wide(self):
        # Default obs paths do not match the fixture, so the project-wide
        # call-site arm is what fires here.
        findings = lint_fixture("rpl007_bad.py", fixture_config())
        assert rule_ids(findings) == {"RPL007"}
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "'Tracer'" in messages
        assert "'observe'" in messages
        assert "'observe_latency_ms'" in messages

    def test_references_not_calls_keep_rpl002_quiet(self):
        # The fixture's violations are attribute references; RPL002 only
        # flags calls, so RPL007 is the sole rule that sees them.
        findings = lint_fixture("rpl007_bad.py", fixture_config(rpl007=RPL007))
        assert "RPL002" not in rule_ids(findings)

    def test_passes_injected_clocks(self):
        assert lint_fixture("rpl007_ok.py", fixture_config(rpl007=RPL007)) == []
        assert lint_fixture("rpl007_ok.py", fixture_config()) == []

    def test_allow_list_exempts_module(self):
        cfg = fixture_config(rpl007=dict(RPL007, allow=["rpl007_bad.py"]))
        assert lint_fixture("rpl007_bad.py", cfg) == []


RPL008 = {"paths": ["rpl008_*.py"]}


class TestRPL008:
    def test_flags_hand_rolled_sweeps(self):
        findings = lint_fixture("rpl008_bad.py", fixture_config(rpl008=RPL008))
        assert rule_ids(findings) == {"RPL008"}
        # for-loop (ExperimentConfig + runner.run_benchmark), while-loop
        # (Simulator + SimConfig), comprehension (SimConfig).
        assert len(findings) == 5
        messages = " ".join(f.message for f in findings)
        for name in ("ExperimentConfig", "run_benchmark", "Simulator", "SimConfig"):
            assert name in messages
        assert "port this bench" in messages

    def test_passes_spec_driven_bench(self):
        assert lint_fixture("rpl008_ok.py", fixture_config(rpl008=RPL008)) == []

    def test_allow_list_exempts_unported_script(self):
        cfg = fixture_config(rpl008=dict(RPL008, allow=["rpl008_bad.py"]))
        assert lint_fixture("rpl008_bad.py", cfg) == []

    def test_existing_spec_overrides_allow_list(self):
        # Once a spec with the matching stem exists, the allowlist no
        # longer shields the hand-rolled loop: it is a regression.
        cfg = fixture_config(rpl008=dict(
            RPL008, allow=["rpl008_bad.py"], specs=["rpl008_bad"]))
        findings = lint_fixture("rpl008_bad.py", cfg)
        assert rule_ids(findings) == {"RPL008"}
        assert len(findings) == 5
        assert all("'rpl008_bad.toml' exists" in f.message for f in findings)
        assert all("run_bench_spec" in f.message for f in findings)

    def test_default_paths_do_not_match_fixture(self):
        # The shipped default scopes the rule to benchmarks/bench_*.py;
        # the fixture only fires when tests point the rule at it.
        assert lint_fixture("rpl008_bad.py", fixture_config()) == []


RPL101 = {"protected": ["*rpl101_core_*.py"]}


def lint_fixtures(filenames, config) -> list:
    project = load_project(FIXTURES, paths=list(filenames), config=config)
    assert len(project.modules) == len(filenames)
    return run_lint(project)


class TestRPL101:
    def test_flags_transitive_entropy_inside_protected_module(self):
        findings = lint_fixtures(
            ["rpl101_helper.py", "rpl101_core_bad.py"],
            fixture_config(rpl101=RPL101),
        )
        taint = [f for f in findings if f.rule == "RPL101"]
        arm1 = [f for f in taint if f.path.endswith("rpl101_core_bad.py")]
        assert len(arm1) == 1
        assert "jitter" in arm1[0].message
        assert "wall-clock" in arm1[0].message

    def test_flags_tainted_argument_crossing_into_protected_module(self):
        findings = lint_fixtures(
            ["rpl101_helper.py", "rpl101_core_bad.py"],
            fixture_config(rpl101=RPL101),
        )
        taint = [f for f in findings if f.rule == "RPL101"]
        arm2 = [f for f in taint if f.path.endswith("rpl101_helper.py")]
        assert len(arm2) == 1
        assert "consume" in arm2[0].message
        assert len(taint) == 2

    def test_direct_reads_are_left_to_rpl002(self):
        # The helper's time.time() call is RPL002's finding; RPL101 must
        # not double-report inside un-protected modules.
        findings = lint_fixtures(
            ["rpl101_helper.py", "rpl101_core_bad.py"],
            fixture_config(rpl101=RPL101),
        )
        rpl002 = [f for f in findings if f.rule == "RPL002"]
        assert len(rpl002) == 1
        assert rpl002[0].path.endswith("rpl101_helper.py")

    def test_passes_injected_clock_and_pure_math(self):
        findings = lint_fixtures(
            ["rpl101_helper.py", "rpl101_core_ok.py"],
            fixture_config(rpl101=RPL101),
        )
        assert "RPL101" not in rule_ids(findings)

    def test_default_scope_excludes_fixtures(self):
        findings = lint_fixtures(
            ["rpl101_helper.py", "rpl101_core_bad.py"], fixture_config()
        )
        assert "RPL101" not in rule_ids(findings)


RPL102 = {"paths": ["rpl102_*.py"]}


class TestRPL102:
    def test_flags_all_five_check_then_act_shapes(self):
        findings = lint_fixture("rpl102_bad.py", fixture_config(rpl102=RPL102))
        assert rule_ids(findings) == {"RPL102"}
        assert len(findings) == 5
        messages = " ".join(f.message for f in findings)
        assert "_executor" in messages
        assert "re-validation" in messages
        # The cluster-router shapes: shard-death claim and pool hand-back.
        assert "_down" in messages
        assert "_pools" in messages

    def test_findings_name_the_guard_line(self):
        findings = lint_fixture("rpl102_bad.py", fixture_config(rpl102=RPL102))
        assert all("checked (line " in f.message for f in findings)

    def test_passes_revalidated_equivalents(self):
        assert lint_fixture("rpl102_ok.py", fixture_config(rpl102=RPL102)) == []

    def test_default_scope_excludes_fixtures(self):
        assert lint_fixture("rpl102_bad.py", fixture_config()) == []


class TestRPL103:
    def test_flags_hash_arithmetic_and_shape_seeds(self):
        findings = lint_fixture("rpl103_bad.py", fixture_config())
        assert rule_ids(findings) == {"RPL103"}
        assert len(findings) == 3
        messages = " ".join(f.message for f in findings)
        assert "as_rng" in messages
        assert "SeedSequenceFactory" in messages

    def test_passes_blessed_lineages(self):
        assert lint_fixture("rpl103_ok.py", fixture_config()) == []

    def test_allow_list_exempts_module(self):
        cfg = fixture_config(rpl103={"allow": ["rpl103_bad.py"]})
        assert lint_fixture("rpl103_bad.py", cfg) == []

    def test_constructor_list_is_configurable(self):
        # Shrinking the constructor list to a name the fixture never
        # uses makes the rule vacuous.
        cfg = fixture_config(rpl103={"constructors": ["make_generator"]})
        assert lint_fixture("rpl103_bad.py", cfg) == []


RPL104_OK = {"allow-calls": ["get_context"]}


class TestRPL104:
    def test_flags_all_five_impure_submissions(self):
        findings = lint_fixture("rpl104_bad.py", fixture_config())
        assert rule_ids(findings) == {"RPL104"}
        assert len(findings) == 5

    def test_reports_the_offending_global(self):
        findings = lint_fixture("rpl104_bad.py", fixture_config())
        messages = " ".join(f.message for f in findings)
        assert "_counter" in messages
        assert "lambda" in messages

    def test_dynamic_callables_suggest_suppression(self):
        findings = lint_fixture("rpl104_bad.py", fixture_config())
        dynamic = [f for f in findings if "purity-checked statically" in f.message]
        assert len(dynamic) == 1

    def test_passes_pure_and_whitelisted_workers(self):
        assert lint_fixture("rpl104_ok.py", fixture_config(rpl104=RPL104_OK)) == []

    def test_per_process_singleton_fires_without_allowance(self):
        findings = lint_fixture("rpl104_ok.py", fixture_config())
        assert rule_ids(findings) == {"RPL104"}
        assert len(findings) == 1
        assert "_context" in findings[0].message


class TestFrameworkBehaviour:
    def test_syntax_error_becomes_rpl000(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        project = load_project(tmp_path, paths=["broken.py"], config=LintConfig(paths=["."]))
        findings = run_lint(project)
        assert [f.rule for f in findings] == ["RPL000"]

    def test_global_ignore_suppresses_rule(self):
        cfg = fixture_config()
        cfg.ignore = ("RPL001",)
        assert lint_fixture("rpl001_bad.py", cfg) == []

    def test_per_file_ignore_suppresses_rule(self):
        cfg = fixture_config()
        cfg.per_file_ignores = {"rpl001_bad.py": ("RPL001",)}
        assert lint_fixture("rpl001_bad.py", cfg) == []

    def test_findings_sorted_and_stable(self):
        cfg = fixture_config(rpl003=RPL003_BAD, rpl004=RPL004)
        project = load_project(FIXTURES, paths=["."], config=cfg)
        findings = run_lint(project)
        assert findings == sorted(findings)
        assert findings == run_lint(load_project(FIXTURES, paths=["."], config=cfg))
