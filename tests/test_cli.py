"""Tests for the repro CLI."""

import pytest

from repro.cli import main
from repro.core.io import save_store
from tests.core.test_store import make_dataset


@pytest.fixture()
def stored_world(tmp_path):
    out = tmp_path / "world"
    code = main(
        [
            "simulate",
            "--seed", "4",
            "--ases", "20",
            "--blocks-per-as", "4",
            "--days", "14",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_both_artifacts(self, stored_world, capsys):
        assert (stored_world.parent / "world.npz").exists()
        assert (stored_world.parent / "world.rib.txt").exists()

    def test_weekly_requires_multiple_of_seven(self, tmp_path, capsys):
        code = main(
            ["simulate", "--days", "10", "--weekly", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_weekly_mode(self, tmp_path, capsys):
        out = tmp_path / "weekly"
        code = main(
            [
                "simulate",
                "--seed", "4",
                "--ases", "15",
                "--blocks-per-as", "3",
                "--days", "14",
                "--weekly",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "2 x 7d snapshots" in captured


class TestParallelSimulate:
    def test_rejects_zero_workers(self, tmp_path, capsys):
        code = main(
            ["simulate", "--workers", "0", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_weekly_parallel_end_to_end(self, tmp_path, capsys):
        """`simulate --weekly --workers 2` then `analyze all` on the result."""
        from repro.core.io import load_dataset
        from repro.report import format_count

        out = tmp_path / "weekly"
        code = main(
            [
                "simulate",
                "--seed", "4",
                "--ases", "15",
                "--blocks-per-as", "3",
                "--days", "14",
                "--weekly",
                "--workers", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        # The printed world summary must describe the stored dataset.
        dataset = load_dataset(out)
        assert f"{len(dataset)} x {dataset.window_days}d snapshots" in captured
        assert format_count(dataset.total_unique()) in captured
        # Perf counters surface the worker/shard split and throughput.
        assert "2 workers (2 shards)" in captured
        assert "block-days/s" in captured
        assert "addr-days/s" in captured

        # Weekly datasets support the window-based analyses (change
        # detection needs daily data, so `all` is exercised on the
        # daily artifact below).
        for analysis in ("churn", "metrics", "traffic"):
            assert main(["analyze", analysis, str(out) + ".npz"]) == 0
        assert "Churn" in capsys.readouterr().out

    def test_parallel_matches_serial_artifact(self, tmp_path, capsys):
        """Same seed, different --workers: identical on-disk dataset."""
        from repro.core.io import load_dataset

        import numpy as np

        args = ["simulate", "--seed", "4", "--ases", "15", "--blocks-per-as", "3",
                "--days", "14"]
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        assert main(args + ["--workers", "3", "--out", str(tmp_path / "par")]) == 0
        serial = load_dataset(tmp_path / "serial")
        parallel = load_dataset(tmp_path / "par")
        for snap_a, snap_b in zip(serial, parallel):
            assert np.array_equal(snap_a.ips, snap_b.ips)
            assert np.array_equal(snap_a.hits, snap_b.hits)
        # The full analysis battery runs on the parallel-collected artifact.
        capsys.readouterr()
        code = main(
            ["analyze", "all", str(tmp_path / "par") + ".npz", "--month-days", "7"]
        )
        assert code == 0
        assert "Churn" in capsys.readouterr().out

    def test_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        code = main(["simulate", "--resume", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_rejects_negative_max_retries(self, tmp_path, capsys):
        code = main(
            ["simulate", "--max-retries", "-1", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_rejects_fault_rate_outside_unit_interval(self, tmp_path, capsys):
        code = main(
            ["simulate", "--inject-fault-rate", "1.5", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "--inject-fault-rate" in capsys.readouterr().err

    def test_faulty_checkpointed_run_matches_clean_run(self, tmp_path, capsys):
        """The CI smoke scenario end-to-end: a run with every shard's
        first worker attempt failing, checkpointing as it goes, writes
        the same artifact as an undisturbed run — then --resume
        rebuilds it again purely from checkpoints."""
        from repro.core.io import load_dataset

        import numpy as np

        args = ["simulate", "--seed", "4", "--ases", "15", "--blocks-per-as", "3",
                "--days", "14", "--workers", "2"]
        assert main(args + ["--out", str(tmp_path / "clean")]) == 0
        faulty = args + [
            "--inject-fault-rate", "1.0",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        assert main(faulty + ["--out", str(tmp_path / "faulty")]) == 0
        output = capsys.readouterr().out
        assert "resilience:" in output
        assert "2 retried" in output
        assert main(faulty + ["--resume", "--out", str(tmp_path / "again")]) == 0
        assert "2 resumed" in capsys.readouterr().out
        clean = load_dataset(tmp_path / "clean")
        for other in ("faulty", "again"):
            loaded = load_dataset(tmp_path / other)
            assert len(loaded) == len(clean)
            for snap_a, snap_b in zip(clean, loaded):
                assert np.array_equal(snap_a.ips, snap_b.ips)
                assert np.array_equal(snap_a.hits, snap_b.hits)

    def test_no_compress_artifact_loads(self, tmp_path, capsys):
        from repro.core.io import load_dataset

        out = tmp_path / "fast"
        code = main(
            ["simulate", "--seed", "4", "--ases", "15", "--blocks-per-as", "3",
             "--days", "7", "--no-compress", "--out", str(out)]
        )
        assert code == 0
        assert load_dataset(out).total_unique() > 0


class TestSimulateStoreDir:
    """`simulate --store-dir` saves the merged dataset as a sharded store."""

    ARGS = ["simulate", "--seed", "4", "--ases", "15", "--blocks-per-as", "3",
            "--days", "14", "--store-shard-blocks", "8"]

    @pytest.mark.parametrize("weekly", [False, True], ids=["daily", "weekly"])
    def test_store_matches_npz_run_at_any_worker_count(
        self, tmp_path, capsys, weekly
    ):
        from repro.core.io import open_store
        from repro.obs import load_manifest

        args = self.ARGS + (["--weekly"] if weekly else [])
        assert main(args + ["--out", str(tmp_path / "npz")]) == 0
        reference = load_manifest(tmp_path / "npz.manifest.json")["dataset"]
        roots = []
        for workers in ("1", "2"):
            root = tmp_path / f"store{workers}"
            assert main(
                args + ["--workers", workers, "--store-dir", str(root),
                        "--out", str(tmp_path / f"out{workers}")]
            ) == 0
            manifest = load_manifest(f"{root}.manifest.json")["dataset"]
            assert manifest["sha256"] == reference["sha256"]
            with open_store(root) as store:
                assert len(store.shards) > 1
                assert store.dataset_sha256 == reference["sha256"]
            roots.append(root)
        assert [path.name for path in tmp_path.glob("*.npz")] == ["npz.npz"]
        serial, parallel = roots
        names = sorted(path.name for path in serial.iterdir())
        assert "store.manifest.json" in names
        assert names == sorted(path.name for path in parallel.iterdir())
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_rejects_zero_store_shard_blocks_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.sim import InternetPopulation

        def refuse(config):
            raise AssertionError("simulated despite an invalid flag")

        monkeypatch.setattr(InternetPopulation, "build", refuse)
        code = main(
            ["simulate", "--store-shard-blocks", "0",
             "--store-dir", str(tmp_path / "store"), "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "--store-shard-blocks" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestObservabilityFlags:
    def test_manifest_written_next_to_dataset(self, stored_world):
        from repro.core.io import load_dataset
        from repro.obs import dataset_digest, load_manifest

        manifest = load_manifest(stored_world.parent / "world.manifest.json")
        assert manifest["run"]["seed"] == 4
        assert manifest["run"]["workers"] == 1
        assert manifest["run"]["fingerprint"]
        assert manifest["dataset"]["sha256"] == dataset_digest(
            load_dataset(stored_world)
        )
        # The dataset save itself was observed.
        assert manifest["counters"]["datasets_saved_total"] == 1
        assert "collect" in manifest["spans"]["children"]
        assert "io" in manifest["spans"]["children"]

    def test_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        code = main(
            ["simulate", "--seed", "4", "--ases", "15", "--blocks-per-as", "3",
             "--days", "7", "--workers", "2", "--out", str(tmp_path / "w"),
             "--trace-out", str(trace), "--metrics-out", str(prom)]
        )
        assert code == 0
        payload = json.loads(trace.read_text())
        assert payload["info"]["workers"] == 2
        assert payload["counters"]["shard_blocks"] > 0
        simulate = payload["spans"]["children"]["collect"]["children"]["simulate"]
        assert simulate["count"] == 1
        text = prom.read_text()
        assert "repro_shard_addr_days_total" in text
        assert 'repro_span_calls_total{span="collect/shard/simulate"} 2' in text

    def test_progress_heartbeat_on_stderr(self, tmp_path, capsys):
        code = main(
            ["simulate", "--seed", "4", "--ases", "15", "--blocks-per-as", "3",
             "--days", "7", "--workers", "2", "--progress",
             "--out", str(tmp_path / "w")]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "progress: 1/2 shards" in err
        assert "progress: 2/2 shards" in err
        assert "eta" in err

    def test_analyze_trace_out(self, stored_world, tmp_path, capsys):
        import json

        trace = tmp_path / "analyze.json"
        code = main(
            ["analyze", "churn", str(stored_world) + ".npz",
             "--trace-out", str(trace)]
        )
        assert code == 0
        payload = json.loads(trace.read_text())
        assert payload["counters"]["datasets_loaded_total"] == 1
        children = payload["spans"]["children"]
        assert "analyze" in children and "io" in children


class TestAnalyze:
    @pytest.mark.parametrize("analysis", ["churn", "metrics", "change", "traffic"])
    def test_analyses_run(self, stored_world, analysis, capsys):
        code = main(
            ["analyze", analysis, str(stored_world) + ".npz", "--month-days", "7"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.strip()

    def test_churn_output_shape(self, stored_world, capsys):
        main(["analyze", "churn", str(stored_world) + ".npz"])
        output = capsys.readouterr().out
        assert "up events" in output
        assert "%" in output

    def test_analyze_all_runs_every_analysis(self, stored_world, capsys):
        code = main(
            ["analyze", "all", str(stored_world) + ".npz", "--month-days", "7"]
        )
        assert code == 0
        output = capsys.readouterr().out
        for title in (
            "Churn",
            "Block metrics",
            "Change detection",
            "Traffic concentration",
            "Potential utilization",
            "Weekday profile",
        ):
            assert title in output

    def test_unknown_analysis_rejected(self, stored_world):
        with pytest.raises(SystemExit):
            main(["analyze", "nonsense", str(stored_world) + ".npz"])

    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty-dir", "missing store.manifest.json"),
            ("retired-root", "missing store.manifest.json"),
            ("corrupt-npz", "corrupt"),
        ],
    )
    def test_unreadable_dataset_is_one_stderr_line(
        self, tmp_path, capsys, case, message
    ):
        # A path that holds no readable dataset exits 1 with one line
        # naming it, never a traceback.
        target = tmp_path / "data"
        if case == "corrupt-npz":
            target = tmp_path / "data.npz"
            target.write_bytes(b"PK\x03\x04 not a zip archive")
        else:
            target.mkdir()
            if case == "retired-root":
                (target / "live.json").write_text('{"schema": 1, "generation": 1}')
        assert main(["analyze", "metrics", str(target)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro analyze: "), err
        assert message in err[0] and str(target) in err[0]

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestExtendedAnalyses:
    @pytest.mark.parametrize("analysis", ["potential", "weekday"])
    def test_extended_analyses_run(self, stored_world, analysis, capsys):
        code = main(["analyze", analysis, str(stored_world) + ".npz"])
        assert code == 0
        output = capsys.readouterr().out
        assert output.strip()

    def test_weekday_output_has_dip(self, stored_world, capsys):
        main(["analyze", "weekday", str(stored_world) + ".npz"])
        assert "weekend dip" in capsys.readouterr().out

    def test_potential_output_mentions_pools(self, stored_world, capsys):
        main(["analyze", "potential", str(stored_world) + ".npz"])
        assert "pools" in capsys.readouterr().out


class TestAnalyzeStoreMaterialization:
    """A store is materialized in memory at most once per command, and
    never for the analyses that stream."""

    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["all", "--detect-events"], 1),
            (["metrics"], 0),
            (["churn"], 0),
            (["churn", "--detect-events"], 1),
        ],
    )
    def test_to_dataset_calls(self, stored_world, tmp_path, monkeypatch,
                              capsys, argv, builds):
        from repro.core.io import load_dataset, save_store
        from repro.core.store import DatasetStore

        root = tmp_path / "store"
        save_store(root, load_dataset(str(stored_world) + ".npz"),
                   shard_blocks=8).close()
        calls = []
        real = DatasetStore.to_dataset

        def counting(self, **kwargs):
            calls.append(self.root)
            return real(self, **kwargs)

        monkeypatch.setattr(DatasetStore, "to_dataset", counting)
        name, *flags = argv
        code = main(["analyze", name, str(root), "--month-days", "7", *flags])
        assert code == 0
        assert len(calls) == builds
        output = capsys.readouterr().out
        assert ("Detected events" in output) == ("--detect-events" in flags)


class TestWeeklyAnalysesAgree:
    """A weekly collection analyzes alike as an .npz and as a store: the
    store's churn is the streamed non-daily transitions path."""

    ARGS = ["simulate", "--seed", "5", "--ases", "12", "--blocks-per-as", "3",
            "--weekly", "--days", "28"]

    def test_npz_and_store_print_the_same_churn_and_metrics(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out", str(tmp_path / "weekly")]) == 0
        assert main(
            self.ARGS + ["--out", str(tmp_path / "ignored"),
                         "--store-dir", str(tmp_path / "store")]
        ) == 0
        capsys.readouterr()
        printed = {}
        for analysis in ("churn", "metrics"):
            for path in (tmp_path / "weekly.npz", tmp_path / "store"):
                assert main(["analyze", analysis, str(path)]) == 0
                printed[analysis, path.name] = capsys.readouterr().out
            assert printed[analysis, "weekly.npz"] == printed[analysis, "store"]
        assert "7d" in printed["churn", "store"]
        assert "Block metrics" in printed["metrics", "store"]


class TestProgressPrinter:
    def test_first_heartbeat_with_zero_done_prints_unknown_eta(self, capsys):
        # Regression: a heartbeat before any shard finished (done == 0,
        # emitted e.g. for a resumed run's initial snapshot) used to
        # divide by zero; it must print an unknown ETA instead.
        from repro.cli import _ProgressPrinter
        from repro.sim.engine import ShardProgress

        printer = _ProgressPrinter()
        printer(ShardProgress(done=0, total=8))
        err = capsys.readouterr().err
        assert "0/8 shards" in err
        assert "eta ?" in err

    def test_eta_is_finite_once_work_completes(self, capsys):
        from repro.cli import _ProgressPrinter
        from repro.sim.engine import ShardProgress

        printer = _ProgressPrinter()
        printer(ShardProgress(done=2, total=8, retried=1))
        err = capsys.readouterr().err
        assert "2/8 shards (1 retried)" in err
        assert "eta ?" not in err


class TestServeCommand:
    def test_serve_then_analyze_live_store(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--seed", "4",
                "--ases", "12",
                "--blocks-per-as", "3",
                "--days", "4",
                "--store-dir", str(tmp_path / "live"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "complete at 4/4 intervals" in out
        assert "dataset sha256:" in out
        code = main(["analyze", "churn", str(tmp_path / "live")])
        assert code == 0
        assert "Churn" in capsys.readouterr().out

    def test_serve_rejects_non_dividing_window(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--days", "5",
                "--window-days", "2",
                "--store-dir", str(tmp_path / "live"),
            ]
        )
        assert code == 2
        assert "--window-days" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("foreign-seed", "does not match the deterministic replay at interval 1"),
            ("short-horizon", "configured horizon is only 2"),
            ("plain-store", "holds a plain store manifest"),
            ("legacy-layout", "uses a legacy layout"),
        ],
    )
    def test_serve_refusal_is_one_stderr_line(self, tmp_path, capsys, case, message):
        # A store this run must not extend exits 1 with one line naming
        # why, never a traceback.
        root = tmp_path / "live"

        def serve(seed="4", days="4"):
            return main(
                [
                    "serve",
                    "--seed", seed,
                    "--ases", "12",
                    "--blocks-per-as", "3",
                    "--days", days,
                    "--store-dir", str(root),
                ]
            )

        if case == "plain-store":
            save_store(root, make_dataset(), shard_blocks=2).close()
        elif case == "legacy-layout":
            root.mkdir()
            (root / "live.json").write_text('{"schema": 1, "generation": 1}')
        else:
            assert serve() == 0
        capsys.readouterr()
        if case == "foreign-seed":
            assert serve(seed="5") == 1
        elif case == "short-horizon":
            assert serve(days="2") == 1
        else:
            assert serve() == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro serve: "), err
        assert message in err[0]

    def test_serve_max_intervals_pauses(self, tmp_path, capsys):
        args = [
            "serve",
            "--seed", "4",
            "--ases", "12",
            "--blocks-per-as", "3",
            "--days", "4",
            "--store-dir", str(tmp_path / "live"),
        ]
        assert main(args + ["--max-intervals", "1"]) == 0
        assert "paused at 1/4 intervals" in capsys.readouterr().out
        # Rerunning without the cap resumes from the committed interval.
        assert main(args) == 0
        assert "(1 replayed, 3 appended)" in capsys.readouterr().out
