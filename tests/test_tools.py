"""Tests for the scripts under tools/ (EXPERIMENTS generator, perf recorder)."""

import importlib.util
import json
import pathlib

import pytest

TOOLS_DIR = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool("build_experiments_md")

SAMPLE_LOG = """\
some pytest noise
Fig. 4a — daily active addresses and up/down events
                  quantity              paper        measured
--------------------------  -----------------  --------------
  daily up events / active  ~8% (55M of 650M)            7.1%
.
unrelated line

Table 1 — daily dataset (112 days)
    quantity   paper  measured
------------  ------  --------
  unique IPs    975M     1.2M
.
5 passed in 123.45s
"""


class TestExtractBlocks:
    def test_finds_both_blocks(self):
        blocks = tool.extract_blocks(SAMPLE_LOG.splitlines())
        assert len(blocks) == 2
        assert blocks[0][0].startswith("Fig. 4a")
        assert blocks[1][0].startswith("Table 1")

    def test_blocks_include_rows(self):
        blocks = tool.extract_blocks(SAMPLE_LOG.splitlines())
        assert any("daily up events" in line for line in blocks[0])
        assert any("unique IPs" in line for line in blocks[1])

    def test_blocks_stop_at_blank_or_end(self):
        blocks = tool.extract_blocks(SAMPLE_LOG.splitlines())
        assert not any("unrelated" in line for block in blocks for line in block)

    def test_no_blocks_in_plain_text(self):
        assert tool.extract_blocks(["hello", "world"]) == []


class TestMain:
    def test_renders_markdown(self, tmp_path, capsys, monkeypatch):
        log = tmp_path / "bench.log"
        log.write_text(SAMPLE_LOG)
        monkeypatch.setattr("sys.argv", ["tool", str(log)])
        assert tool.main() == 0
        output = capsys.readouterr().out
        assert "## Fig. 4a" in output
        assert "## Table 1" in output
        assert "Run summary" in output
        assert "5 passed" in output

    def test_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["tool"])
        assert tool.main() == 2


class TestCheckpointsTool:
    """tools/checkpoints.py: operator view of checkpoint directories."""

    @pytest.fixture(scope="class")
    def checkpoints(self):
        return _load_tool("checkpoints")

    @pytest.fixture()
    def populated_root(self, tmp_path):
        from repro.sim import CDNObservatory, InternetPopulation, small_config

        world = InternetPopulation.build(small_config(seed=3))
        CDNObservatory(world).collect_daily(
            4, workers=2, checkpoint_dir=str(tmp_path)
        )
        return tmp_path

    def test_list_empty_root(self, checkpoints, tmp_path, capsys):
        assert checkpoints.main(["list", str(tmp_path)]) == 0
        assert "no checkpoint runs" in capsys.readouterr().out

    def test_list_reports_runs_and_shards(self, checkpoints, populated_root, capsys):
        assert checkpoints.main(["list", "-v", str(populated_root)]) == 0
        output = capsys.readouterr().out
        assert "run " in output
        assert "2 shard checkpoints" in output
        assert output.count("shard_") == 2  # -v: one line per file

    def test_list_flags_invalid_checkpoints(self, checkpoints, populated_root, capsys):
        shard = next(populated_root.glob("run_*/shard_*.npz"))
        shard.write_bytes(b"garbage")
        checkpoints.main(["list", str(populated_root)])
        assert "INVALID" in capsys.readouterr().out

    def test_gc_refuses_without_yes(self, checkpoints, populated_root, capsys):
        assert checkpoints.main(["gc", str(populated_root)]) == 1
        assert "--yes" in capsys.readouterr().err
        assert len(list(populated_root.glob("run_*/shard_*.npz"))) == 2

    def test_gc_dry_run_deletes_nothing(self, checkpoints, populated_root, capsys):
        assert checkpoints.main(["gc", "--dry-run", str(populated_root)]) == 0
        assert "would remove 2" in capsys.readouterr().out
        assert len(list(populated_root.glob("run_*/shard_*.npz"))) == 2

    def test_gc_removes_run_directory(self, checkpoints, populated_root, capsys):
        assert checkpoints.main(["gc", "--yes", str(populated_root)]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert list(populated_root.glob("run_*")) == []

    def test_gc_unknown_fingerprint_errors(self, checkpoints, populated_root, capsys):
        code = checkpoints.main(
            ["gc", "--yes", "--run", "0" * 16, str(populated_root)]
        )
        assert code == 1
        assert "no checkpoint run" in capsys.readouterr().err

    def test_gc_leaves_foreign_files_alone(self, checkpoints, populated_root):
        run_dir = next(populated_root.glob("run_*"))
        foreign = run_dir / "notes.txt"
        foreign.write_text("keep me")
        assert checkpoints.main(["gc", "--yes", str(populated_root)]) == 0
        assert foreign.exists()  # only engine-written files are deleted


class TestBenchRecord:
    """Smoke the perf-trajectory recorder (tools/bench_record.py)."""

    @pytest.fixture(scope="class")
    def bench_record(self):
        return _load_tool("bench_record")

    def test_parse_workers(self, bench_record):
        assert bench_record._parse_workers("1,2,4") == [1, 2, 4]
        with pytest.raises(Exception):
            bench_record._parse_workers("0,2")
        with pytest.raises(Exception):
            bench_record._parse_workers("")

    def test_smoke_run_writes_valid_record(self, bench_record, tmp_path, capsys):
        out = tmp_path / "BENCH_collect.json"
        code = bench_record.main(
            ["--smoke", "--days", "5", "--out", str(out), "--seed", "9"]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["benchmark"] == "collect"
        assert record["world"]["seed"] == 9
        assert record["world"]["num_days"] == 5
        assert record["repeats"] == 1
        assert [run["workers"] for run in record["runs"]] == [1, 2]
        for run in record["runs"]:
            assert run["total_s"] > 0
            assert run["addr_days_per_s"] > 0
        serial = record["runs"][0]
        assert serial["sim_cpu_s"] > 0
        assert serial["addr_days_per_cpu_s"] == pytest.approx(
            serial["addr_days"] / serial["sim_cpu_s"], rel=1e-3
        )
        assert "addr_days_per_cpu_s" not in record["runs"][1]
        assert "2" in record["speedup_vs_serial"]
        assert "wrote" in capsys.readouterr().out

    def test_oversubscription_is_warned_and_recorded(
        self, bench_record, monkeypatch, capsys
    ):
        # Pretend this is a 1-CPU box: the workers=2 run then measures
        # oversubscription and must say so in the record, not just on
        # stderr.
        monkeypatch.setattr(bench_record.os, "cpu_count", lambda: 1)
        config = bench_record.SimulationConfig(
            seed=3, num_ases=10, mean_blocks_per_as=1.5
        )
        record = bench_record.measure(config, num_days=4, workers_list=[1, 2])
        assert "exceeds cpu_count=1" in capsys.readouterr().err
        assert len(record["warnings"]) == 1
        assert "oversubscription" in record["warnings"][0]
        by_workers = {run["workers"]: run for run in record["runs"]}
        assert by_workers[2]["oversubscribed"] is True
        assert "oversubscribed" not in by_workers[1]

    def test_no_warning_when_cpus_suffice(self, bench_record, monkeypatch, capsys):
        monkeypatch.setattr(bench_record.os, "cpu_count", lambda: 8)
        config = bench_record.SimulationConfig(
            seed=3, num_ases=10, mean_blocks_per_as=1.5
        )
        record = bench_record.measure(config, num_days=4, workers_list=[1])
        assert record["warnings"] == []
        assert capsys.readouterr().err == ""

    def test_repeats_recorded_and_rejects_nonpositive(self, bench_record):
        config = bench_record.SimulationConfig(
            seed=3, num_ases=10, mean_blocks_per_as=1.5
        )
        record = bench_record.measure(
            config, num_days=4, workers_list=[1], repeats=2
        )
        assert record["repeats"] == 2
        with pytest.raises(ValueError, match="repeats"):
            bench_record.measure(config, num_days=4, workers_list=[1], repeats=0)

    @pytest.fixture()
    def gate_record(self):
        return {
            "world": {
                "seed": 9, "num_ases": 15, "mean_blocks_per_as": 3.0,
                "num_blocks": 38, "num_days": 5,
            },
            "runs": [{"workers": 1, "addr_days_per_s": 1000.0}],
        }

    def test_gate_passes_within_tolerance(self, bench_record, gate_record):
        slower = json.loads(json.dumps(gate_record))
        slower["runs"][0]["addr_days_per_s"] = 800.0
        passed, message = bench_record.gate_against(gate_record, slower, 0.30)
        assert passed and "gate passed" in message

    def test_gate_fails_past_tolerance(self, bench_record, gate_record):
        slower = json.loads(json.dumps(gate_record))
        slower["runs"][0]["addr_days_per_s"] = 600.0
        passed, message = bench_record.gate_against(gate_record, slower, 0.30)
        assert not passed and "gate FAILED" in message

    def test_gate_compares_cpu_rate_when_both_carry_it(
        self, bench_record, gate_record
    ):
        baseline = json.loads(json.dumps(gate_record))
        baseline["runs"][0]["addr_days_per_cpu_s"] = 1000.0
        record = json.loads(json.dumps(baseline))
        record["runs"][0]["addr_days_per_s"] = 1.0  # wall rate: ignored
        passed, message = bench_record.gate_against(baseline, record, 0.30)
        assert passed and "serial addr_days_per_cpu_s" in message
        record["runs"][0]["addr_days_per_cpu_s"] = 600.0
        passed, message = bench_record.gate_against(baseline, record, 0.30)
        assert not passed and "addr_days_per_cpu_s" in message
        # A baseline without the CPU rate is gated on the wall rate.
        passed, message = bench_record.gate_against(gate_record, record, 0.30)
        assert not passed and "serial addr_days_per_s" in message

    def test_gate_skips_on_world_shape_mismatch(self, bench_record, gate_record):
        other = json.loads(json.dumps(gate_record))
        other["world"]["num_blocks"] = 999
        other["runs"][0]["addr_days_per_s"] = 1.0  # would fail if compared
        passed, message = bench_record.gate_against(gate_record, other, 0.30)
        assert passed and "gate skipped" in message and "num_blocks" in message

    def test_main_self_gates_against_previous_record(
        self, bench_record, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_collect.json"
        args = ["--smoke", "--days", "5", "--out", str(out), "--seed", "9"]
        assert bench_record.main(args) == 0
        capsys.readouterr()
        # Same world, gated against the record just written: passes and
        # the record is refreshed (the baseline was read before the
        # overwrite, so --out may equal --gate-against).
        assert bench_record.main(args + ["--gate-against", str(out)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_main_exits_nonzero_on_regression(
        self, bench_record, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_collect.json"
        args = ["--smoke", "--days", "5", "--out", str(out), "--seed", "9"]
        assert bench_record.main(args) == 0
        record = json.loads(out.read_text())
        for run in record["runs"]:
            if run["workers"] == 1:
                # An impossible baseline, in the rate the gate compares.
                run["addr_days_per_cpu_s"] *= 100.0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(record))
        capsys.readouterr()
        code = bench_record.main(args + ["--gate-against", str(baseline)])
        assert code == 1
        assert "gate FAILED" in capsys.readouterr().out
        # The record is still written for forensics even when gating fails.
        assert json.loads(out.read_text())["benchmark"] == "collect"


class TestMemCeiling:
    """The constant-memory gate tool (tools/mem_ceiling.py)."""

    @pytest.fixture(scope="class")
    def mem_ceiling(self):
        return _load_tool("mem_ceiling")

    def test_synthesize_store_is_deterministic(self, mem_ceiling, tmp_path):
        from repro.obs.manifest import dataset_digest

        a = mem_ceiling.synthesize_store(
            str(tmp_path / "a"), num_blocks=4, num_days=3,
            shard_blocks=2, seed=7,
        )
        b = mem_ceiling.synthesize_store(
            str(tmp_path / "b"), num_blocks=4, num_days=3,
            shard_blocks=2, seed=7,
        )
        assert a.dataset_sha256 == b.dataset_sha256
        assert a.num_blocks == 4 and len(a.shards) == 2
        assert a.dataset_sha256 == dataset_digest(a.to_dataset())
        a.close()
        b.close()

    def test_different_seeds_differ(self, mem_ceiling, tmp_path):
        a = mem_ceiling.synthesize_store(
            str(tmp_path / "a"), num_blocks=2, num_days=2, seed=1,
        )
        b = mem_ceiling.synthesize_store(
            str(tmp_path / "b"), num_blocks=2, num_days=2, seed=2,
        )
        assert a.dataset_sha256 != b.dataset_sha256
        a.close()
        b.close()

    def test_bad_fill_rejected(self, mem_ceiling, tmp_path):
        with pytest.raises(ValueError, match="fill"):
            mem_ceiling.synthesize_store(
                str(tmp_path / "x"), num_blocks=1, num_days=1, fill=0.0,
            )

    def test_gate_run_passes_on_tiny_world(self, mem_ceiling, tmp_path, capsys):
        # A generous ceiling the streamed child fits under; skip the
        # in-memory comparison (a tiny world never exceeds any real
        # ceiling — the full-size check is CI's memory-ceiling job).
        out = tmp_path / "record.json"
        code = mem_ceiling.main([
            "--blocks", "8", "--days", "4", "--shard-blocks", "4",
            "--ceiling-mb", "512", "--skip-inmemory", "--out", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["passed"] is True
        assert record["children"][0]["mode"] == "streamed"
        assert record["children"][0]["ok"] is True
        assert record["children"][0]["peak_rss_mb"] > 0
        assert "PASS" in capsys.readouterr().out


class TestBenchStoreStream:
    """The streamed-analysis throughput recorder (benchmarks/)."""

    @pytest.fixture(scope="class")
    def bench(self):
        import importlib.util

        path = TOOLS_DIR.parent / "benchmarks" / "bench_store_stream.py"
        spec = importlib.util.spec_from_file_location("bench_store_stream", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_measure_world_verifies_and_records(self, bench):
        record = bench.measure_world(4, 3, seed=5, repeats=1)
        assert record["block_days"] == 12
        assert record["streamed_block_days_per_s"] > 0
        assert record["inmemory_block_days_per_s"] > 0
        assert record["store_bytes"] > 0

    def test_gate_passes_and_fails_on_matching_world(self, bench):
        baseline = {"worlds": [
            {"num_blocks": 4, "num_days": 3, "streamed_block_days_per_s": 100.0}
        ]}
        same = {"worlds": [
            {"num_blocks": 4, "num_days": 3, "streamed_block_days_per_s": 90.0}
        ]}
        passed, message = bench.gate_against(baseline, same, 0.5)
        assert passed and "gate passed" in message
        slow = {"worlds": [
            {"num_blocks": 4, "num_days": 3, "streamed_block_days_per_s": 10.0}
        ]}
        passed, message = bench.gate_against(baseline, slow, 0.5)
        assert not passed and "gate FAILED" in message

    def test_gate_skips_without_matching_worlds(self, bench):
        baseline = {"worlds": [
            {"num_blocks": 9, "num_days": 9, "streamed_block_days_per_s": 1.0}
        ]}
        record = {"worlds": [
            {"num_blocks": 4, "num_days": 3, "streamed_block_days_per_s": 2.0}
        ]}
        passed, message = bench.gate_against(baseline, record, 0.5)
        assert passed and "gate skipped" in message


class TestKernelSplit:
    """The kernel draw/rest splitter (tools/kernel_split.py)."""

    @pytest.fixture(scope="class")
    def kernel_split(self):
        return _load_tool("kernel_split")

    def test_proxy_draws_the_same_stream(self, kernel_split):
        import numpy as np

        clock = kernel_split.DrawClock()
        proxied = kernel_split.TimedGenerator(np.random.default_rng(7), clock)
        plain = np.random.default_rng(7)
        assert np.array_equal(proxied.standard_normal(5), plain.standard_normal(5))
        assert proxied.integers(0, 9) == plain.integers(0, 9)
        assert proxied.bit_generator.state == plain.bit_generator.state
        assert clock.calls == 2

    def test_small_world_split_matches_unproxied_run(self, kernel_split, capsys):
        code = kernel_split.main(
            ["--seed", "5", "--ases", "12", "--blocks-per-as", "3",
             "--days", "6", "--call-days", "2", "--repeats", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "gateway" in out and "total" in out
        assert "matches the unproxied run" in out
