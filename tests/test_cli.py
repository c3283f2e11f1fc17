"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, main


class TestInfo:
    def test_prints_machine_model(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "8 cores" in out
        assert "Θ(P)" in out
        assert "6144 KiB" in out


class TestDetect:
    def test_sm_detection(self, capsys):
        assert main(["detect", "bt", "--scale", "0.12",
                     "--sample-threshold", "3"]) == 0
        out = capsys.readouterr().out
        assert "BT — SM detection" in out
        assert "mapping:" in out

    def test_hm_detection(self, capsys):
        assert main(["detect", "bt", "--scale", "0.12",
                     "--mechanism", "hm", "--scan-period", "40000"]) == 0
        out = capsys.readouterr().out
        assert "HM detection" in out

    def test_oracle(self, capsys):
        assert main(["detect", "ep", "--scale", "0.12",
                     "--mechanism", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out.lower()

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["detect", "dc"])


class TestReproduce:
    def test_single_benchmark_to_stdout(self, capsys):
        assert main(["reproduce", "ep", "--scale", "0.1",
                     "--os-runs", "1", "--mapped-runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "EP" in out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["reproduce", "ft", "--scale", "0.1",
                     "--os-runs", "1", "--mapped-runs", "1",
                     "--output", str(path)]) == 0
        assert "# Reproduction report" in path.read_text()
        assert "report written" in capsys.readouterr().out


class TestRunSpec:
    def test_bare_name_resolves_from_any_cwd(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run-spec", "table1_mechanisms"]) == 0
        assert "Θ(P)" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["seeds = [\"a\"]"], ["[overrides]", "scale = \"big\""],
    ])
    def test_malformed_spec_exits_two(self, tmp_path, capsys, args):
        path = tmp_path / "bad.toml"
        path.write_text("\n".join(['name = "bad"', 'kernels = ["sp"]'] + args))
        assert main(["run-spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith("repro run-spec: ")

    def test_ill_typed_param_exits_two(self, capsys):
        assert main(["run-spec", "table1_mechanisms", "--set", "scale=big"]) == 2
        assert "scale" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,args", [
        ("engine_speedup", ["--set", "engine_repeats=0"]),
        ("engine_speedup", ["--set", "engine_repeats=-2"]),
        ("engine_speedup", ["--set", "engine_repeats=1.7"]),
        ("fig6_exec_time", ["--set", "num_threads=16"]),
        ("fig6_exec_time", ["--set", "detection_windows=0"]),
        ("tlb_geometry", ["geometries = [[16, 64]]"]),
        ("page_size", ["page_sizes = [3000]"]),
        ("page_size", ["page_sizes = [4096.0]"]),
        ("sm_sampling", ["thresholds = [0]"]),
        ("sm_sampling", ["thresholds = [1.5]"]),
        ("hm_period", ["periods = [0]"]),
        ("l2_tlb", ["l2_entries = [2]"]),
        ("l2_tlb", ["l2_entries = [3]"]),
    ], ids=["repeats-0", "repeats-negative", "repeats-float", "threads-16",
            "windows-0", "geometry-ways", "page-size-3000", "page-size-float",
            "threshold-0", "threshold-float", "period-0", "l2-entries-2",
            "l2-entries-3"])
    def test_rejected_before_any_cell_runs(self, tmp_path, monkeypatch, capsys,
                                           spec, args):
        from repro.experiments import specs

        def no_cells(*_):
            pytest.fail("a pipeline ran cells for a spec it should reject")

        for pipeline in specs.PIPELINES:
            monkeypatch.setitem(specs._PIPELINE_RUNNERS, pipeline, no_cells)
        if not args[0].startswith("--set"):
            # An ablation variant with one [sweep] line.
            path = tmp_path / "bad.toml"
            path.write_text("\n".join([
                'name = "bad"', 'pipeline = "ablation"', f'variant = "{spec}"',
                'kernels = ["sp"]', "[sweep]"] + args))
            spec, args = str(path), []
        assert main(["run-spec", spec, *args]) == 2
        assert capsys.readouterr().err.startswith("repro run-spec: ")


class TestRecordReplay:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "ep.npz"
        assert main(["record", "ep", str(path), "--scale", "0.1"]) == 0
        assert path.exists()
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "execution cycles" in out

    def test_replay_with_mapping(self, tmp_path, capsys):
        path = tmp_path / "ep.npz"
        main(["record", "ep", str(path), "--scale", "0.1"])
        assert main(["replay", str(path),
                     "--mapping", "7,6,5,4,3,2,1,0"]) == 0

    def test_replay_bad_mapping_errors(self, tmp_path):
        path = tmp_path / "ep.npz"
        main(["record", "ep", str(path), "--scale", "0.1"])
        with pytest.raises(ValueError):
            main(["replay", str(path), "--mapping", "0,0,0,0,0,0,0,0"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_ablate_is_gone(self):
        # The ablation_* specs are the one front end to the ablation variants.
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "l2-tlb"])
        assert exc.value.code == 2


class TestServeArgs:
    """The `serve` argument surface.  The loop itself is exercised by the
    serve-smoke gate; these stop at parsing and fault-plan loading."""

    def test_fault_plan_and_deadline_are_parsed(self):
        args = _build_parser().parse_args(
            ["serve", "--fault-plan", "plan.json", "--solve-deadline", "0.5"])
        assert args.command == "serve"
        assert args.fault_plan == "plan.json"
        assert args.solve_deadline == 0.5

    def test_fault_plan_defaults_off(self):
        args = _build_parser().parse_args(["serve"])
        assert args.fault_plan is None
        assert args.solve_deadline == 30.0

    def test_missing_fault_plan_file_fails_before_binding(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["serve", "--fault-plan", str(tmp_path / "absent.json")])


class TestTrace:
    """The `trace` subcommand; byte-level determinism is pinned in
    tests/obs/test_determinism.py — these cover the CLI surface."""

    def test_hm_mechanism_and_default_output_name(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "cg", "--mechanism", "hm",
                     "--scale", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "trace event(s)" in out and "cycles clock" in out
        assert (tmp_path / "cg.trace.json").exists()

    def test_serve_request_target(self, capsys, tmp_path):
        out_path = tmp_path / "svc.json"
        assert main(["trace", "serve-request", "--output",
                     str(out_path)]) == 0
        assert "wall clock" in capsys.readouterr().out
        assert out_path.exists()

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "frobnicate"])
