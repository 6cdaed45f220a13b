"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/test_perfbench.py

The byte-counter test runs two traced ``batch-npz`` and two traced
``serve-live`` runs (about three minutes on one core).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layertrace import LAYER_FUNCTIONS, Tracer, _ProcIO, span_name  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(process: subprocess.CompletedProcess[str]) -> dict:
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert result["correct"], process.stderr
    return result


def test_proc_io_counts_exact_write_bytes(tmp_path: Path) -> None:
    from repro.core.io import atomic_write_text

    counters = _ProcIO()
    try:
        _, wchar_before = counters.read()
        rchar_before, _ = counters.read()
        atomic_write_text(tmp_path / "probe", "x" * 12345)
        rchar_after, wchar_after = counters.read()
    finally:
        counters.close()
    assert wchar_after - wchar_before == 12345
    # The reader's own reads of /proc/self/io are not counted.
    assert rchar_after == rchar_before


def test_shims_replace_every_binding_and_restore() -> None:
    import repro.cli
    import repro.serve.service
    from repro.core import io as core_io
    from repro.obs import manifest

    originals = (repro.cli.load_dataset, repro.serve.service.write_manifest,
                 core_io.load_dataset, manifest.write_manifest)
    tracer = Tracer()
    tracer.install()
    try:
        assert repro.cli.load_dataset is core_io.load_dataset
        assert repro.serve.service.write_manifest is manifest.write_manifest
        assert repro.cli.load_dataset is not originals[0]
        assert repro.serve.service.write_manifest is not originals[1]
    finally:
        tracer.uninstall()
    assert (repro.cli.load_dataset, repro.serve.service.write_manifest,
            core_io.load_dataset, manifest.write_manifest) == originals


def test_every_layer_function_exists() -> None:
    import importlib

    for _layer, module, qualname, _io in LAYER_FUNCTIONS:
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), qualname


def test_fails_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = _run("--workload", "batch-npz", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


@pytest.mark.parametrize(
    "workload, function",
    [
        ("batch-npz", span_name("core.io", "save_dataset")),
        ("serve-live", span_name("core.store", "StoreAppender.append")),
    ],
)
def test_byte_counters_repeat_exactly(workload: str, function: str) -> None:
    runs = [
        _result(_run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    ]
    first, second = (run["metrics"][f"{function}.wchar_bytes"]["value"] for run in runs)
    assert first > 0
    assert first == second
    if workload == "serve-live":
        trace = json.loads(
            (HERE / "out" / "trace-serve-live-seed5.json").read_text(encoding="utf-8")
        )
        assert len(trace["append_wchar_bytes_per_tick"]) == 56


def test_pooled_worlds_do_equal_work() -> None:
    import statistics

    from worlds import POOL_WORK_SPREAD, load_pool

    work = [world["addr_days"] for world in load_pool()]
    median = statistics.median(work)
    assert all(abs(days / median - 1) <= POOL_WORK_SPREAD for days in work)
