"""The benchmark's world pool: equal-work worlds and their batch references.

A simulated world's cost depends on its seed far more than on run-to-run
noise: at the CLI default size (60 ASes, 8 /24s per AS) the block count
alone ranges from ~540 to ~1200 across seeds, and at a fixed block count
the policy mix still moves collection time by ±30% (gateway blocks cost
several times a static block).  Timing a fresh random world per seed
would measure the seed, not the code.  So each workload draws its world
from a fixed pool of 8 world seeds (``worlds.json``), all of the CLI
default size, whose worlds do about the same work: every one is within
``POOL_WORK_SPREAD`` of the pool's median in collected address-days,
the work measure the simulator and every analysis scale with.  The
seeds were picked once from worlds of the typical block count and
policy mix, partly by CPU time measured then; that selection is not
kept.  The list is fixed since, so recomputing the references never
changes the worlds.
``seed % len(pool)`` picks the world; the program only ever sees the
resulting config.

Every pool entry also pins its batch reference, computed here by the
in-memory path the workloads never time: the dataset SHA-256 of an
in-memory ``collect_daily`` run and the SHA-256 of the text that
``repro analyze all --detect-events`` prints for that dataset.  The
workloads must reproduce both exactly, whatever layout (compressed
``.npz``, batch store, live store) and analysis path (in-memory or
streamed) they use.

After a change that is meant to change what the program outputs,
recompute the references of the pooled seeds (a few minutes on one core;
the seeds stay as they are) and review the diff::

    python3 perfbench/worlds.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "worlds.json"

#: Collection horizon of every workload: two 28-day months, so the
#: change analysis runs.
NUM_DAYS = 56

#: Largest relative distance of a pooled world's address-days from the
#: median of its pool (checked by the benchmark's self-tests).
POOL_WORK_SPREAD = 0.04

#: The size of every pooled world: the CLI default (60 ASes, 8 /24s per AS).
NUM_ASES = 60
BLOCKS_PER_AS = 8.0


def load_pool() -> list[dict[str, Any]]:
    """The committed pool (``worlds.json``)."""
    with open(POOL_PATH, encoding="utf-8") as stream:
        worlds: list[dict[str, Any]] = json.load(stream)["worlds"]
    return worlds


def pick_world(seed: int) -> dict[str, Any]:
    """The pool entry a benchmark *seed* selects."""
    worlds = load_pool()
    return worlds[seed % len(worlds)]


def world_args(world_seed: int) -> list[str]:
    """The ``repro simulate`` flags of this world."""
    return [
        "--seed", str(world_seed),
        "--ases", str(NUM_ASES), "--blocks-per-as", str(BLOCKS_PER_AS),
    ]


def world_config(world_seed: int) -> Any:
    """The :class:`SimulationConfig` the CLI builds for this world."""
    from repro.sim import SimulationConfig

    return SimulationConfig(
        seed=world_seed, num_ases=NUM_ASES, mean_blocks_per_as=BLOCKS_PER_AS
    )


class CommandFailed(Exception):
    """A ``repro`` command exited with a non-zero code."""


def capture_cli(argv: list[str]) -> str:
    """Run ``repro.cli.main`` in-process; return its stdout (exit code 0)."""
    from repro import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"repro {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analyze_argv(dataset_path: str) -> list[str]:
    """The analysis every workload runs and every reference pins."""
    return ["analyze", "all", dataset_path, "--detect-events"]


def _reference(world_seed: int, scratch: str) -> dict[str, Any]:
    """Batch reference of one world: in-memory collection, never timed."""
    from repro.core.io import save_dataset
    from repro.obs.manifest import dataset_digest
    from repro.sim import CDNObservatory, InternetPopulation

    population = InternetPopulation.build(world_config(world_seed))
    dataset = CDNObservatory(population).collect_daily(NUM_DAYS).dataset
    path = os.path.join(scratch, f"world-{world_seed}.npz")
    save_dataset(path, dataset, compress=False)
    text = capture_cli(analyze_argv(path))
    os.unlink(path)
    return {
        "seed": world_seed,
        "blocks": len(population.blocks),
        "addr_days": int(sum(snapshot.num_active for snapshot in dataset)),
        "unique_addresses": int(dataset.total_unique()),
        "dataset_sha256": dataset_digest(dataset),
        "analysis_sha256": text_sha256(text),
    }


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="worlds-", dir=out_dir)
    try:
        worlds = [_reference(world["seed"], scratch) for world in load_pool()]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    from repro.core.io import atomic_write_text

    payload = {"num_days": NUM_DAYS, "worlds": worlds}
    atomic_write_text(POOL_PATH, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {POOL_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
