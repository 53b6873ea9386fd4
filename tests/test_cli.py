"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main, parse_bindings, parse_topology


class TestParseTopology:
    def test_hypercube(self):
        t = parse_topology("hypercube:3")
        assert t.n_processors == 8

    def test_mesh_x_form(self):
        t = parse_topology("mesh:3x4")
        assert t.n_processors == 12

    def test_mesh_comma_form(self):
        t = parse_topology("torus:2,5")
        assert t.n_processors == 10

    def test_all_builders(self):
        for spec, n in [
            ("ring:6", 6),
            ("linear:5", 5),
            ("complete:4", 4),
            ("star:7", 7),
            ("tree:2", 7),
            ("ccc:2", 8),
            ("butterfly:2", 12),
        ]:
            assert parse_topology(spec).n_processors == n

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            parse_topology("hypertorus:8")

    def test_missing_params(self):
        with pytest.raises(ValueError, match="bad topology spec"):
            parse_topology("mesh:4")


class TestParseBindings:
    def test_pairs(self):
        assert parse_bindings(["n=15", "msize=4"]) == {"n": 15, "msize": 4}

    def test_empty(self):
        assert parse_bindings([]) == {}

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_bindings(["n15"])

    def test_non_integer(self):
        with pytest.raises(ValueError):
            parse_bindings(["n=abc"])


class TestCommands:
    def test_stdlib_lists_programs(self, capsys):
        assert main(["stdlib"]) == 0
        out = capsys.readouterr().out
        assert "nbody" in out and "jacobi" in out

    def test_topologies_lists_specs(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "hypercube" in out and "mesh:4x4" in out

    def test_compile_stdlib(self, capsys):
        assert main(["compile", "nbody", "--bind", "n=15"]) == 0
        out = capsys.readouterr().out
        assert "15 tasks" in out
        assert "phase expression" in out

    def test_compile_edges_flag(self, capsys):
        assert main(["compile", "pipeline", "--bind", "n=3", "--edges"]) == 0
        out = capsys.readouterr().out
        assert "forward: 0 -> 1" in out

    def test_compile_file(self, tmp_path, capsys):
        src = tmp_path / "prog.larcs"
        src.write_text(
            "algorithm tiny(n);\nnodetype t[0..n-1];\n"
            "comphase step t(i) -> t((i+1) mod n);\n"
        )
        assert main(["compile", str(src), "--bind", "n=4"]) == 0
        assert "4 tasks" in capsys.readouterr().out

    def test_compile_unknown_program(self, capsys):
        assert main(["compile", "nosuch_prog"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_map_summary(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3"]
        ) == 0
        out = capsys.readouterr().out
        assert "via the 'canned' path" in out
        assert "total IPC" in out

    def test_map_report(self, capsys):
        assert main(
            ["map", "voting", "--bind", "m=3", "--topology", "hypercube:2",
             "--report"]
        ) == 0
        out = capsys.readouterr().out
        assert "OREGAMI mapping" in out
        assert "'group' path" in out

    def test_map_ascii_and_simulate(self, capsys):
        assert main(
            ["map", "jacobi", "--bind", "rows=4", "cols=4",
             "--topology", "mesh:2x2", "--ascii", "--simulate"]
        ) == 0
        out = capsys.readouterr().out
        assert "busiest links" in out
        assert "simulated completion time" in out

    def test_map_forced_strategy(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
             "--strategy", "mwm"]
        ) == 0
        assert "'mwm' path" in capsys.readouterr().out

    def test_map_bad_topology(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "blob:3"]
        ) == 2

    def test_map_load_bound(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
             "--load-bound", "2"]
        ) == 0

    def test_map_timeline(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
             "--timeline"]
        ) == 0
        out = capsys.readouterr().out
        assert "timeline of nbody" in out
        assert "simulated completion time" in out

    def test_map_save_and_analyze(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
             "--save", str(out)]
        ) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "OREGAMI mapping" in text

    def test_analyze_with_ascii(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        main(["map", "jacobi", "--bind", "rows=4", "cols=4",
              "--topology", "mesh:2x2", "--save", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out), "--ascii"]) == 0
        assert "busiest links" in capsys.readouterr().out

    def test_map_refine_flag(self, capsys):
        assert main(
            ["map", "voting", "--bind", "m=4", "--topology", "hypercube:2",
             "--refine"]
        ) == 0
        assert "refined" in capsys.readouterr().out

    def test_map_cut_through(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
             "--simulate", "--switching", "cut_through"]
        ) == 0
        assert "simulated completion" in capsys.readouterr().out

    def test_map_bad_cost_model_fails_before_anything_is_printed(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
             "--simulate", "--hop-latency", "-1"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cost-model parameters must be non-negative" in captured.err

    def test_analyze_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        main(["map", "jacobi", "--bind", "rows=4", "cols=4",
              "--topology", "mesh:2x2", "--save", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mapping"]["topology"] == "mesh2x2"
        assert data["overall"]["estimated_completion_time"] > 0
        assert data["load_balancing"]["max_tasks"] >= 1


class TestMachineOptions:
    def test_machine_show_generator_spec(self, capsys):
        import json

        assert main(["machine", "show", "fat_tree:2x4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "fat_tree"
        assert doc["n_processors"] == 8
        assert doc["capacities"] is None
        assert any(
            c["slowdown"] != 1.0 for c in doc["link_bandwidth_classes"]
        )

    def test_machine_show_flat_spec(self, capsys):
        import json

        assert main(["machine", "show", "mesh:2x2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "flat"
        assert doc["n_processors"] == 4

    def test_machine_show_file_with_capacities(self, tmp_path, capsys):
        import json

        path = tmp_path / "machine.json"
        path.write_text(json.dumps({
            "format": "oregami-machine-v1",
            "kind": "node_core_tree",
            "params": {"nodes": 2, "cores": 4},
            "capacities": {"memory": {"demand": "weight", "cap": 8.0}},
        }))
        assert main(["machine", "show", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "node_core_tree"
        assert doc["capacities"][0]["resource"] == "memory"
        assert doc["capacities"][0]["total"] == 64.0

    def test_machine_show_bad_spec(self, capsys):
        assert main(["machine", "show", "fat_tree:axb"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_map_with_machine_flag(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15",
             "--machine", "node_core_tree:2x4"]
        ) == 0
        assert "total IPC" in capsys.readouterr().out

    def test_map_with_machine_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "machine.json"
        path.write_text(json.dumps({
            "format": "oregami-machine-v1",
            "kind": "topology",
            "params": {"spec": "hypercube:3"},
            "capacities": {"slots": 2},
        }))
        assert main(
            ["map", "nbody", "--bind", "n=15", "--machine", str(path)]
        ) == 0
        assert "total IPC" in capsys.readouterr().out

    def test_topology_and_machine_are_exclusive(self, capsys):
        assert main(
            ["map", "nbody", "--bind", "n=15",
             "--topology", "hypercube:3", "--machine", "fat_tree:2x4"]
        ) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_topology_nor_machine_is_an_error(self, capsys):
        assert main(["map", "nbody", "--bind", "n=15"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_with_machine_flag(self, capsys):
        import json

        assert main(
            ["run", "nbody", "--bind", "n=15",
             "--machine", "dragonfly:2x4", "--no-cache"]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["format"] == "oregami-pipeline-result-v1"
        assert out["mapping"]["topology"]["hierarchy"]["kind"] == "dragonfly"


class TestResilienceCommand:
    _BASE = ["resilience", "jacobi", "--bind", "rows=4", "cols=4",
             "--topology", "hypercube:4"]

    def test_repair_report(self, capsys):
        assert main(self._BASE + ["--fail-proc", "0"]) == 0
        out = capsys.readouterr().out
        assert "repair of 'jacobi'" in out
        assert "baseline completion time" in out
        assert "repaired completion time" in out

    def test_repair_json(self, capsys):
        import json

        assert main(self._BASE + ["--fail-proc", "0", "--fail-link", "1-3",
                                  "--degrade-link", "2-6:2.5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strategy"] == "incremental"
        assert data["faults"]["failed_procs"] == ["0"]
        assert data["repaired_time"] >= data["baseline_time"]

    def test_repair_save(self, tmp_path, capsys):
        out = tmp_path / "repaired.json"
        assert main(self._BASE + ["--fail-proc", "0", "--save", str(out)]) == 0
        from repro.io import load_mapping

        repaired = load_mapping(str(out))
        assert 0 not in repaired.assignment.values()

    def test_sweep(self, capsys):
        assert main(self._BASE + ["--sweep", "processors", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "criticality ranking" in out
        assert "16 fault(s)" in out

    def test_sweep_json(self, capsys):
        import json

        assert main(self._BASE + ["--sweep", "links", "--json",
                                  "--executor", "thread", "--workers", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distribution"]["faults"] == 32  # hypercube(4) links

    def test_faults_file(self, tmp_path, capsys):
        from repro.io import save_faultset
        from repro.resilience import FaultSet

        path = tmp_path / "faults.json"
        save_faultset(FaultSet.proc(5), str(path))
        assert main(self._BASE + ["--faults", str(path)]) == 0
        assert "procs 5" in capsys.readouterr().out

    def test_no_faults_is_an_error(self, capsys):
        assert main(self._BASE) == 2
        assert "no faults given" in capsys.readouterr().err

    def test_bad_link_spec(self, capsys):
        assert main(self._BASE + ["--fail-link", "07"]) == 2
        assert "U-V" in capsys.readouterr().err

    def test_bad_degrade_spec(self, capsys):
        assert main(self._BASE + ["--degrade-link", "0-1"]) == 2
        assert "FACTOR" in capsys.readouterr().err

    def test_disconnecting_fault_reported(self, capsys):
        assert main(
            ["resilience", "pipeline", "--bind", "n=4",
             "--topology", "linear:4", "--fail-link", "1-2"]
        ) == 2
        assert "not connected" in capsys.readouterr().err


class TestRunCommand:
    """The `repro run` subcommand: config files in, result JSON out."""

    _BASE = ["run", "nbody", "--bind", "n=15", "--topology", "hypercube:3"]

    def _result(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def test_default_config_full_pipeline(self, capsys):
        assert main(self._BASE + ["--no-cache"]) == 0
        out = self._result(capsys)
        assert out["format"] == "oregami-pipeline-result-v1"
        assert out["stages"] == [
            "contract", "embed", "refine", "route", "simulate", "analyze"
        ]
        assert out["sim"]["total_time"] > 0
        assert out["metrics"]["overall"]
        assert out["mapping"]["format"] == "oregami-mapping-v1"
        assert out["cache"] == {"key": None, "hit": False, "tier": None}

    def test_json_config_file(self, tmp_path, capsys):
        import json

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "map": {"strategy": "mwm", "refine": True},
            "sim": {"hop_latency": 2.0},
            "stages": ["contract", "embed", "refine", "route", "simulate"],
        }))
        assert main(self._BASE + ["--config", str(cfg)]) == 0
        out = self._result(capsys)
        assert out["strategy"] == "mwm+refined"
        assert out["config"]["sim"]["hop_latency"] == 2.0
        assert out["metrics"] is None  # analyze stage not requested

    def test_toml_config_file(self, tmp_path, capsys):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        del tomllib
        cfg = tmp_path / "run.toml"
        cfg.write_text('[map]\nstrategy = "mwm"\n')
        assert main(self._BASE + ["--config", str(cfg)]) == 0
        assert self._result(capsys)["strategy"] == "mwm"

    def test_repeat_run_hits_the_cache(self, capsys):
        assert main(self._BASE) == 0
        first = self._result(capsys)
        assert first["cache"]["hit"] is False
        assert main(self._BASE) == 0
        second = self._result(capsys)
        assert second["cache"]["hit"] is True
        assert second["cache"]["key"] == first["cache"]["key"]
        assert second["mapping"] == first["mapping"]
        assert second["stage_seconds"] == first["stage_seconds"]

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"mapp": {}}')
        assert main(self._BASE + ["--config", str(cfg)]) == 2
        assert "unknown RunConfig keys" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,needle", [
        ('{"sim": {"hop_latency": "x"}}', "hop_latency"),
        ('{"map": {"load_bound": "3"}}', "load_bound"),
        ('{"cache": "false"}', "cache"),
        ('{"stages": "route"}', "stages"),
        # the removed simulator / METRICS knobs are plain unknown keys
        ('{"sim": {"kernel": "auto"}}', "unknown SimConfig keys"),
        ('{"sim": {"memoize": false}}', "unknown SimConfig keys"),
        ('{"analyze": {"kernel": "vector"}}', "unknown RunConfig keys"),
        ('{"map": {"load_bound": 2.5}}', "load_bound must be an integer"),
    ])
    def test_bad_config_value_is_an_error(self, tmp_path, capsys, doc, needle):
        cfg = tmp_path / "run.json"
        cfg.write_text(doc)
        assert main(self._BASE + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err


class TestSupervisionCLI:
    """The supervised-runtime surface: exit codes, stderr hygiene, flags."""

    _BASE = ["run", "nbody", "--bind", "n=15", "--topology", "hypercube:3"]

    def _result(self, capsys):
        import json

        captured = capsys.readouterr()
        return json.loads(captured.out), captured.err

    def test_deadline_blown_exits_3_with_structured_stderr(self, capsys):
        code = main(self._BASE + ["--deadline", "0.000001", "--resume", "off"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""  # stdout stays pure JSON territory
        assert "error [TaskTimeout]" in captured.err
        assert "attempt 1: timeout" in captured.err

    def test_chaos_crash_exits_4(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '{"crash": [[0, 1]]}')
        code = main(self._BASE + ["--retries", "0", "--resume", "off"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "error [WorkerCrash]" in captured.err

    def test_retries_recover_a_transient_crash(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '{"crash": [[0, 1]]}')
        assert main(self._BASE + ["--retries", "2", "--resume", "off"]) == 0
        out, _err = self._result(capsys)
        assert out["format"] == "oregami-pipeline-result-v1"
        assert out["sim"]["total_time"] > 0

    def test_negative_retries_is_invalid_input(self, capsys):
        assert main(self._BASE + ["--retries", "-1"]) == 2
        assert "--retries must be >= 0" in capsys.readouterr().err

    def test_portfolio_reports_winner_and_candidates(self, capsys):
        assert main(self._BASE + ["--portfolio", "--resume", "off"]) == 0
        out, err = self._result(capsys)
        assert out["format"] == "oregami-portfolio-result-v1"
        assert out["winner"]
        assert out["completion_time"] > 0
        assert any(c["ok"] for c in out["candidates"])
        assert err == ""

    def test_portfolio_survives_a_crashed_strategy(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '{"crash": [[0, 1]]}')
        assert main(self._BASE + ["--portfolio", "--resume", "off"]) == 0
        out, _err = self._result(capsys)
        crashed = out["candidates"][0]
        assert not crashed["ok"]
        assert crashed["error_kind"] == "crash"
        assert out["winner"] != crashed["strategy"]

    def test_portfolio_all_strategies_failed_exits_4(self, capsys, monkeypatch):
        import json

        from repro.pipeline import default_portfolio

        plan = {"crash": [[i, 1] for i in range(len(default_portfolio()))]}
        monkeypatch.setenv("REPRO_CHAOS", json.dumps(plan))
        code = main(self._BASE + ["--portfolio", "--resume", "off"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "error [AllStrategiesFailed]" in captured.err

    def _entries(self):
        from pathlib import Path

        from repro.pipeline.cache import cache_dir

        return list(Path(cache_dir()).glob("*.pkl"))

    def test_portfolio_no_cache_runs_and_caches_nothing(self, capsys):
        """``--no-cache`` reaches the whole portfolio: its strategies' runs
        are never cached, and without a store there is no journal."""
        args = self._BASE + ["--portfolio", "--resume", "auto"]
        assert main(args + ["--no-cache"]) == 0
        uncached, _ = self._result(capsys)
        assert not self._entries()
        assert main(args) == 0
        cached, _ = self._result(capsys)
        assert uncached["winner"] == cached["winner"]

    def test_repeated_portfolio_journals_one_entry_per_strategy(self, capsys):
        """The journal is all a portfolio run writes: the journalled
        candidates already hold each strategy's mapping."""
        from repro.pipeline import default_portfolio, reset_default_cache

        args = self._BASE + ["--portfolio", "--resume", "auto"]
        assert main(args) == 0
        first, _ = self._result(capsys)
        reset_default_cache()
        assert main(args) == 0
        second, _ = self._result(capsys)
        assert second == first
        assert len(self._entries()) == len(default_portfolio())

    @pytest.mark.parametrize("start", ["fork", "spawn"])
    def test_repeated_supervised_run_is_a_disk_hit(self, capsys, monkeypatch,
                                                   start):
        """``--deadline`` runs the pipeline in a worker process; the store
        stays in the CLI process, which records the run and serves its
        repeat, whichever way the worker starts."""
        import multiprocessing

        from repro.pipeline import reset_default_cache
        from repro.runtime import supervisor

        monkeypatch.setattr(supervisor, "_mp_context",
                            lambda: multiprocessing.get_context(start))

        args = self._BASE + ["--deadline", "120"]
        assert main(args) == 0
        first, _ = self._result(capsys)
        assert first["cache"]["hit"] is False and first["cache"]["key"]
        reset_default_cache()
        assert main(args) == 0
        second, _ = self._result(capsys)
        assert second["cache"] == {
            "key": first["cache"]["key"], "hit": True, "tier": "disk",
        }
        assert second["fingerprints"] == first["fingerprints"]
        assert second["mapping"] == first["mapping"]
        assert len(self._entries()) == 1

    def test_resume_serves_the_supervised_rerun(self, capsys):
        args = self._BASE + ["--portfolio", "--resume", "auto"]
        assert main(args) == 0
        first, _ = self._result(capsys)
        assert main(args) == 0
        second, _ = self._result(capsys)
        assert second == first

    def test_sweep_accepts_supervision_flags(self, capsys):
        assert main(
            ["resilience", "jacobi", "--bind", "rows=4", "cols=4",
             "--topology", "hypercube:3", "--sweep", "processors", "--json",
             "--deadline", "120", "--retries", "1", "--resume", "auto"]
        ) == 0
        out, _err = self._result(capsys)
        assert out["distribution"]["faults"] == 8
        assert all(row["error"] is None for row in out["ranking"])

    def test_sweep_chaos_crash_becomes_failed_row(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '{"crash": [[2, 1]]}')
        assert main(
            ["resilience", "jacobi", "--bind", "rows=4", "cols=4",
             "--topology", "hypercube:3", "--sweep", "processors", "--json"]
        ) == 0
        out, _err = self._result(capsys)
        assert out["distribution"]["failed"] == 1
        failed = [r for r in out["ranking"] if r["status"] == "failed"]
        assert len(failed) == 1 and failed[0]["error"]

    def test_malformed_chaos_env_is_invalid_input(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "{definitely not json")
        assert main(self._BASE + ["--retries", "0", "--resume", "off"]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestVersionAndCacheCLI:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_cache_stats_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "0" in out

    def test_cache_stats_json_then_clear(self, tmp_path, capsys):
        import json

        from repro.pipeline.cache import ArtifactCache

        ArtifactCache(str(tmp_path)).put("k", {"v": 1})
        assert main(["cache", "stats", "--dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_clear_preserves_foreign_files(self, tmp_path, capsys):
        from repro.pipeline.cache import ArtifactCache

        ArtifactCache(str(tmp_path)).put("k", {"v": 1})
        keep = tmp_path / "notes.txt"
        keep.write_text("precious")
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert keep.read_text() == "precious"
        assert not list(tmp_path.glob("*.pkl"))

    def test_serve_rejects_zero_workers(self, capsys):
        """Refused before the socket binds: no slot would ever compute."""
        assert main(["serve", "--port", "0", "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_workers must be >= 1, got 0" in captured.err

    def test_a_bad_disk_budget_exits_2_naming_the_knob(self, capsys, monkeypatch):
        """Neither knob turns garbage into an unbounded tier or a 0 budget.
        ``run`` goes first: were a bad value accepted, ``serve`` would boot."""
        from repro.pipeline.cache import reset_default_cache

        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "abc")
        for argv, knob in (
            (["run", "nbody", "--bind", "n=15", "--topology", "hypercube:3"],
             "REPRO_CACHE_MAX_MB"),
            (["serve"], "REPRO_CACHE_MAX_MB"),
            (["serve", "--max-cache-mb", "-5"], "--max-cache-mb"),
        ):
            reset_default_cache()
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and knob in captured.err


class TestOnlineCommand:
    ARGS = ["online", "jacobi", "--bind", "rows=3", "cols=3",
            "--topology", "mesh:2x3", "--events", "8", "--seed", "3",
            "--checkpoint-every", "0"]

    def test_json_report(self, capsys):
        import json

        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "oregami-online-v1"
        assert doc["scenario"]["events"] == 8
        assert doc["report"]["events"] == 8
        assert doc["report"]["final_comm_cost"] > 0
        assert "trace" not in doc["report"]

    def test_human_output_mentions_counters(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "final comm cost" in out

    def test_save_then_replay_is_bit_identical(self, tmp_path, capsys):
        import json

        path = tmp_path / "scn.json"
        assert main(self.ARGS + ["--save-scenario", str(path), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        replay_args = [a for a in self.ARGS if a not in ("--events", "8",
                                                         "--seed", "3")]
        assert main(replay_args + ["--scenario", str(path), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["scenario"]["fingerprint"] == \
            first["scenario"]["fingerprint"]
        assert second["report"]["trace_fingerprint"] == \
            first["report"]["trace_fingerprint"]

    def test_trace_flag_includes_records(self, capsys):
        import json

        assert main(self.ARGS + ["--trace", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["report"]["trace"]) == 8

    def test_bad_rate_spec_exits_2(self, capsys):
        assert main(self.ARGS + ["--rate", "drift"]) == 2
        assert "rate" in capsys.readouterr().err.lower()

    def test_unknown_rate_kind_exits_2(self, capsys):
        assert main(self.ARGS + ["--rate", "meteor=2"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()


_NO_PHASE_EXPRESSION = """
algorithm fourphase(n);
nodetype t[0 .. n-1];
comphase alpha t(i) -> t((i + 1) mod n) volume 1;
comphase beta  t(i) -> t((i + 2) mod n) volume 2;
comphase gamma t(i) -> t((i + 3) mod n) volume 3;
comphase delta t(i) -> t((i + n - 1) mod n) volume 4;
execphase work cost 1;
"""


def test_report_without_phase_expression_ignores_the_hash_seed(tmp_path):
    """A graph with no phase expression runs every phase in one step, a
    ``frozenset``; the per-phase rows used to come out in its iteration
    order, so the same command printed different bytes per process."""
    import subprocess
    import sys
    from pathlib import Path

    program = tmp_path / "fourphase.larcs"
    program.write_text(_NO_PHASE_EXPRESSION)
    src = str(Path(__file__).resolve().parent.parent / "src")
    rendered = [
        subprocess.run(
            [sys.executable, "-m", "repro", "map", str(program), "--bind",
             "n=8", "--topology", "ring:4", "--simulate", "--report"],
            capture_output=True, check=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed,
                 "PATH": "/usr/bin:/bin", "REPRO_CACHE": "off"},
        ).stdout
        for seed in ("1", "2", "3")
    ]
    assert rendered[0] == rendered[1] == rendered[2]
    rows = rendered[0].decode().split("-- phase times")[1].split()
    names = [w for w in rows if w in ("alpha", "beta", "gamma", "delta", "work")]
    assert names == ["alpha", "beta", "gamma", "delta", "work"]
