"""End-to-end tests for the live observatory service.

The headline contract: a serve run killed at any instant — even with a
hard ``os._exit`` between the interval write and the manifest replace —
converges after restart to the bit-identical dataset SHA-256 of an
uninterrupted batch run, and its incremental analyses equal the batch
analyses exactly.
"""

import json
import os
import subprocess
import sys
import urllib.request

import numpy as np
import pytest

from repro.core.churn import transition_churn
from repro.core.metrics import compute_block_metrics
from repro.core.store import COMMIT_PHASE_COMMITTED, COMMIT_PHASE_WRITTEN
from repro.errors import DatasetError
from repro.obs.manifest import dataset_digest, load_manifest, manifest_path_for
from repro.serve import MetricsEndpoint, ObservatoryService
from repro.sim.cdn import CDNObservatory
from repro.sim.config import SimulationConfig
from repro.sim.population import InternetPopulation

CONFIG = SimulationConfig(seed=5, num_slash8=5, num_ases=12, mean_blocks_per_as=3.0)
NUM_DAYS = 6

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


def batch_result():
    world = InternetPopulation.build(CONFIG)
    return CDNObservatory(world).collect_daily(NUM_DAYS)


def serve_to_completion(root, **kwargs):
    service = ObservatoryService(
        CONFIG, num_days=NUM_DAYS, window_days=1, store_root=root, **kwargs
    )
    with service:
        report = service.run()
    return service, report


class TestConvergence:
    def test_fresh_run_matches_batch_sha(self, tmp_path):
        _, report = serve_to_completion(tmp_path / "live")
        assert report.complete
        assert report.appended == NUM_DAYS
        assert report.dataset_sha256 == dataset_digest(batch_result().dataset)

    def test_incremental_analyses_equal_batch(self, tmp_path):
        service, _ = serve_to_completion(tmp_path / "live")
        dataset = batch_result().dataset
        batch_metrics = compute_block_metrics(dataset)
        live_metrics = service.block_metrics()
        assert np.array_equal(live_metrics.bases, batch_metrics.bases)
        assert np.array_equal(
            live_metrics.filling_degree, batch_metrics.filling_degree
        )
        # Exact float equality: same integers, same single division.
        assert np.array_equal(live_metrics.stu, batch_metrics.stu)
        assert service.churn_transitions() == transition_churn(dataset)

    @pytest.mark.parametrize(
        "phase", [COMMIT_PHASE_WRITTEN, COMMIT_PHASE_COMMITTED]
    )
    def test_in_process_crash_then_restart_converges(self, tmp_path, phase):
        root = tmp_path / "live"

        class Bomb(Exception):
            pass

        def hook(interval, at_phase):
            if interval == 3 and at_phase == phase:
                raise Bomb

        crashed = ObservatoryService(
            CONFIG,
            num_days=NUM_DAYS,
            window_days=1,
            store_root=root,
            commit_hook=hook,
        )
        with pytest.raises(Bomb):
            crashed.run()
        crashed.close()
        service, report = serve_to_completion(root)
        assert report.complete
        assert report.dataset_sha256 == dataset_digest(batch_result().dataset)
        # The restarted service's incremental state covers replayed and
        # appended intervals alike.
        assert service.block_metrics().num_blocks > 0
        assert len(service.churn_transitions()) == NUM_DAYS - 1

    @pytest.mark.parametrize(
        "phase", [COMMIT_PHASE_WRITTEN, COMMIT_PHASE_COMMITTED]
    )
    def test_crash_on_an_interval_adding_a_block_converges(self, tmp_path, phase):
        # In this world a /24 is first active on day 4: the crash hits
        # the append that grows the live store's /24 union.
        config = SimulationConfig(
            seed=21, num_slash8=5, num_ases=12, mean_blocks_per_as=3.0
        )
        dataset = CDNObservatory(InternetPopulation.build(config)).collect_daily(
            NUM_DAYS
        ).dataset
        snapshots = list(dataset)
        mask = np.uint32(0xFFFFFF00)
        seen = {int(base) for s in snapshots[:3] for base in s.ips & mask}
        assert {int(base) for base in snapshots[3].ips & mask} - seen

        class Bomb(Exception):
            pass

        def hook(interval, at_phase):
            if interval == 4 and at_phase == phase:
                raise Bomb

        root = tmp_path / "live"
        with ObservatoryService(
            config, num_days=NUM_DAYS, window_days=1, store_root=root,
            commit_hook=hook,
        ) as crashed:
            with pytest.raises(Bomb):
                crashed.run()
        with ObservatoryService(
            config, num_days=NUM_DAYS, window_days=1, store_root=root
        ) as restarted:
            assert restarted.committed == (4 if phase == COMMIT_PHASE_COMMITTED else 3)
            report = restarted.run()
        assert report.complete
        assert report.dataset_sha256 == dataset_digest(dataset)

    def test_complete_store_is_idempotent(self, tmp_path):
        root = tmp_path / "live"
        _, first = serve_to_completion(root)
        _, second = serve_to_completion(root)
        assert second.complete
        assert second.appended == 0
        assert second.replayed == NUM_DAYS
        assert second.dataset_sha256 == first.dataset_sha256

    def test_replay_verification_catches_foreign_store(self, tmp_path):
        root = tmp_path / "live"
        other = SimulationConfig(
            seed=99, num_slash8=5, num_ases=12, mean_blocks_per_as=3.0
        )
        with ObservatoryService(
            other, num_days=NUM_DAYS, window_days=1, store_root=root
        ) as foreign:
            foreign.run(max_intervals=2)
        with ObservatoryService(
            CONFIG, num_days=NUM_DAYS, window_days=1, store_root=root
        ) as resumed:
            with pytest.raises(DatasetError, match="replay"):
                resumed.run()


class TestArtifacts:
    def test_rolling_manifest_tracks_store(self, tmp_path):
        root = tmp_path / "live"
        _, report = serve_to_completion(root)
        manifest = load_manifest(manifest_path_for(root))
        assert manifest["dataset"]["sha256"] == report.dataset_sha256
        assert manifest["run"]["seed"] == CONFIG.seed
        assert (
            manifest["counters"]["serve_intervals_committed_total"] == NUM_DAYS
        )

    def test_rib_matches_batch_rib(self, tmp_path):
        from repro.core.io import save_routing_series

        root = tmp_path / "live"
        _, report = serve_to_completion(root)
        save_routing_series(tmp_path / "batch.rib.txt", batch_result().routing)
        batch_text = (tmp_path / "batch.rib.txt").read_text()
        assert report.routing_path is not None
        with open(report.routing_path) as handle:
            assert handle.read() == batch_text

    def test_partial_run_publishes_live_metrics(self, tmp_path):
        root = tmp_path / "live"

        def scrape(endpoint, path):
            with urllib.request.urlopen(endpoint.url + path, timeout=5) as response:
                return response.read().decode()

        with MetricsEndpoint() as endpoint:
            with ObservatoryService(
                CONFIG,
                num_days=NUM_DAYS,
                window_days=1,
                store_root=root,
                publish=endpoint.publish,
            ) as service:
                service.run(max_intervals=2)
                body = scrape(endpoint, "/metrics")
                status = json.loads(scrape(endpoint, "/status"))
                partial = load_manifest(manifest_path_for(root))
                partial_rib = (root / "routing.rib.txt").exists()
                while not service.complete:
                    service.run_one_interval()
                final_status = json.loads(scrape(endpoint, "/status"))
        assert "repro_serve_intervals_committed_total 2" in body
        # The exporter renders bool gauges as 1/0 (regression: they
        # used to print as "True"/"False", which Prometheus rejects).
        assert "repro_serve_complete 0" in body
        assert "True" not in body and "False" not in body
        assert status["committed"] == 2
        assert status["complete"] is False
        # The dataset digest covers the whole history, so a tick does
        # not compute it: it is published once the horizon completes.
        assert status["dataset_sha256"] is None
        assert partial["dataset"]["sha256"] is None
        assert not partial_rib
        expected = dataset_digest(batch_result().dataset)
        assert final_status["complete"] is True
        assert final_status["dataset_sha256"] == expected
        final = load_manifest(manifest_path_for(root))
        assert final["dataset"]["sha256"] == expected

    def test_restart_after_final_commit_writes_final_artifacts(self, tmp_path):
        # A crash after the last interval's commit, before the tick
        # wrote its manifest and RIB: the restart appends nothing, and
        # must still leave the finished digest and the whole RIB.
        from repro.core.io import save_routing_series

        root = tmp_path / "live"

        class Bomb(Exception):
            pass

        def hook(interval, at_phase):
            if interval == NUM_DAYS and at_phase == COMMIT_PHASE_COMMITTED:
                raise Bomb

        with ObservatoryService(
            CONFIG, num_days=NUM_DAYS, window_days=1, store_root=root,
            commit_hook=hook,
        ) as crashed:
            with pytest.raises(Bomb):
                crashed.run()
        _, report = serve_to_completion(root)
        assert (report.replayed, report.appended) == (NUM_DAYS, 0)
        batch = batch_result()
        expected = dataset_digest(batch.dataset)
        assert report.dataset_sha256 == expected
        manifest = load_manifest(manifest_path_for(root))
        assert manifest["dataset"]["sha256"] == expected
        save_routing_series(tmp_path / "batch.rib.txt", batch.routing)
        assert report.routing_path is not None
        with open(report.routing_path) as handle:
            assert handle.read() == (tmp_path / "batch.rib.txt").read_text()


class TestCLI:
    def run_cli(self, cwd, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_kill_injection_exits_86_and_restart_converges(self, tmp_path):
        serve_args = [
            "serve",
            "--seed", "5",
            "--ases", "12",
            "--blocks-per-as", "3",
            "--days", str(NUM_DAYS),
            "--store-dir", "live",
        ]
        killed = self.run_cli(
            tmp_path,
            *serve_args,
            "--inject-kill-interval", "3",
            "--inject-kill-phase", COMMIT_PHASE_WRITTEN,
        )
        assert killed.returncode == 86, killed.stderr
        assert "injected kill" in killed.stderr
        resumed = self.run_cli(tmp_path, *serve_args)
        assert resumed.returncode == 0, resumed.stderr
        assert f"complete at {NUM_DAYS}/{NUM_DAYS}" in resumed.stdout
        expected = dataset_digest(batch_result().dataset)
        assert expected in resumed.stdout
        manifest = load_manifest(tmp_path / "live.manifest.json")
        assert manifest["dataset"]["sha256"] == expected

    def test_analyze_reads_live_store_root(self, tmp_path):
        _, report = serve_to_completion(tmp_path / "live")
        result = self.run_cli(tmp_path, "analyze", "metrics", "live")
        assert result.returncode == 0, result.stderr
        assert "active /24 blocks" in result.stdout
