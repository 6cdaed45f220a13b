#!/usr/bin/env python3
"""Golden-scenario catalog gate: pinned signatures must reproduce.

Each catalog file in ``examples/scenarios/`` pins, for one scenario
timeline on one world, the dataset SHA-256 and the metric signature
(:func:`repro.core.detect.scenario_signature`: FD/STU medians, churn
peak, localized events).  This tool re-collects every scenario and
diffs the results against the pins:

- any engine, scenario-compiler, or detector drift fails the gate
  with a field-by-field diff (and a JSON artifact for CI);
- ``--workers N`` must not change a single byte — the CI job runs the
  gate at 1 and 4 workers;
- ``--resume-check`` additionally kills each collection mid-run
  (deterministic injected worker faults) and resumes it from its
  checkpoints, asserting the resumed dataset hashes identically.  It
  also collects each scenario through the live service (one-day
  ticks, as ``repro serve``), then restarts on the finished store and
  replays it with ``catch_up()``; both must hash identically too.

Usage::

    python tools/scenario_golden.py                  # verify all pins
    python tools/scenario_golden.py --workers 4 --resume-check
    python tools/scenario_golden.py --update         # re-pin (reviewed!)
    python tools/scenario_golden.py examples/scenarios/baseline.json

Exit code 0 only when every scenario reproduces its pins exactly.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import tempfile

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.detect import scenario_signature  # noqa: E402
from repro.core.io import atomic_write_text  # noqa: E402
from repro.errors import CollectionError, DatasetError  # noqa: E402
from repro.obs.manifest import dataset_digest  # noqa: E402
from repro.serve import ObservatoryService  # noqa: E402
from repro.sim import (  # noqa: E402
    CDNObservatory,
    FaultInjection,
    InternetPopulation,
    SimulationConfig,
)
from repro.sim.scenario import CatalogEntry, load_catalog_entry  # noqa: E402

#: Default catalog location.
CATALOG_DIR = os.path.join(REPO_ROOT, "examples", "scenarios")

#: Deterministically kills about half the shards through every retry
#: and the in-process fallback — the stand-in for a mid-run crash
#: (same contract as the engine's resilience tests).
KILL_SOME = FaultInjection(
    rate=0.5, max_failures_per_shard=10**6, fail_in_process=True
)


def _world_config(entry: CatalogEntry) -> tuple[SimulationConfig, int]:
    world = entry.world
    config = SimulationConfig(
        seed=int(world["seed"]),
        num_ases=int(world["ases"]),
        mean_blocks_per_as=float(world["blocks_per_as"]),
    )
    if int(world.get("window_days", 1)) != 1:
        raise SystemExit(
            f"{entry.path}: only daily catalog worlds are supported"
        )
    return config, int(world["days"])


class _WorldCache:
    """Catalog entries share a world; build each population once."""

    def __init__(self) -> None:
        self._built: dict[tuple, InternetPopulation] = {}

    def population(self, config: SimulationConfig) -> InternetPopulation:
        key = (config.seed, config.num_ases, config.mean_blocks_per_as)
        if key not in self._built:
            self._built[key] = InternetPopulation.build(config)
        return self._built[key]


def collect_signature(
    entry: CatalogEntry,
    worlds: _WorldCache,
    workers: int,
    resume_check: bool,
) -> dict:
    """Collect one catalog scenario; returns the observed pin values."""
    config, num_days = _world_config(entry)
    observatory = CDNObservatory(worlds.population(config))
    result = observatory.collect_daily(
        num_days, workers=workers, scenario=entry.scenario
    )
    actual = {
        "dataset_sha256": dataset_digest(result.dataset),
        "signature": scenario_signature(result.dataset),
    }
    if resume_check:
        with tempfile.TemporaryDirectory() as ckpt:
            try:
                observatory.collect_daily(
                    num_days,
                    workers=workers,
                    max_retries=1,
                    retry_backoff=0.0,
                    checkpoint_dir=ckpt,
                    fault=KILL_SOME,
                    scenario=entry.scenario,
                )
            except CollectionError:
                pass  # the injected kill: some shards never finished
            resumed = observatory.collect_daily(
                num_days,
                workers=workers,
                checkpoint_dir=ckpt,
                resume=True,
                scenario=entry.scenario,
            )
        actual["resume_dataset_sha256"] = dataset_digest(resumed.dataset)
        actual.update(_serve_pass(entry, config, num_days))
    return actual


def _serve_pass(
    entry: CatalogEntry, config: SimulationConfig, num_days: int
) -> dict:
    """Collect through the live service, then restart and catch up.

    The restart finds the store complete, so its ``run()`` is just
    ``catch_up()``: every interval is replayed and checked against the
    stored column.  A mismatch (``DatasetError``) or a partial replay
    is returned as ``catchup_error``.
    """
    with tempfile.TemporaryDirectory() as root:
        with ObservatoryService(
            config, num_days=num_days, store_root=root, scenario=entry.scenario
        ) as service:
            served = service.run()
        error = None
        try:
            with ObservatoryService(
                config, num_days=num_days, store_root=root, scenario=entry.scenario
            ) as service:
                restarted = service.run()
            if restarted.replayed != restarted.total:
                error = (
                    f"catch-up replayed {restarted.replayed} of "
                    f"{restarted.total} intervals"
                )
        except DatasetError as exc:
            error = f"catch-up replay failed: {exc}"
    return {
        "serve_dataset_sha256": served.dataset_sha256,
        "catchup_error": error,
    }


def _diff_lines(expected, actual, prefix: str = "") -> list[str]:
    """Human-readable leaf-level diff of two pinned structures."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines = []
        for key in sorted(set(expected) | set(actual)):
            lines.extend(
                _diff_lines(
                    expected.get(key), actual.get(key), f"{prefix}{key}."
                )
            )
        return lines
    if expected != actual:
        return [
            f"  {prefix.rstrip('.')}: pinned "
            f"{json.dumps(expected)} != observed {json.dumps(actual)}"
        ]
    return []


def _update_entry(entry: CatalogEntry, actual: dict) -> None:
    """Rewrite the catalog file with freshly observed pins."""
    with open(entry.path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["expect"] = {
        "dataset_sha256": actual["dataset_sha256"],
        "signature": actual["signature"],
    }
    atomic_write_text(entry.path, json.dumps(raw, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"catalog files (default: {CATALOG_DIR}/*.json)",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--resume-check",
        action="store_true",
        help="also kill each collection mid-run and resume it from "
        "checkpoints, and collect it through the live service and its "
        "catch-up replay; every dataset must hash identically",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the catalog files with the observed values "
        "instead of diffing (review the diff before committing)",
    )
    parser.add_argument(
        "--artifact",
        default=None,
        metavar="FILE",
        help="write a JSON report of every scenario's expected/observed "
        "values (CI uploads this on failure)",
    )
    args = parser.parse_args(argv)

    paths = args.paths or sorted(glob.glob(os.path.join(CATALOG_DIR, "*.json")))
    if not paths:
        print("no catalog files found", file=sys.stderr)
        return 2

    worlds = _WorldCache()
    report = {}
    failures = 0
    for path in paths:
        entry = load_catalog_entry(path)
        actual = collect_signature(
            entry, worlds, args.workers, args.resume_check
        )
        if args.update:
            _update_entry(entry, actual)
            print(f"updated {path}")
            continue
        problems = []
        if not entry.expect:
            problems.append("  no pinned expect block (run --update)")
        else:
            problems.extend(_diff_lines(entry.expect, {
                "dataset_sha256": actual["dataset_sha256"],
                "signature": actual["signature"],
            }))
        if args.resume_check:
            for key, label in (
                ("resume_dataset_sha256", "resumed"),
                ("serve_dataset_sha256", "served"),
            ):
                if actual[key] != actual["dataset_sha256"]:
                    problems.append(
                        f"  {label} dataset {actual[key]} != "
                        f"uninterrupted {actual['dataset_sha256']}"
                    )
            if actual["catchup_error"]:
                problems.append(f"  {actual['catchup_error']}")
        report[entry.scenario.name] = {
            "path": path,
            "expected": entry.expect,
            "observed": actual,
            "ok": not problems,
        }
        if problems:
            failures += 1
            print(f"FAIL {entry.scenario.name} ({path})")
            for line in problems:
                print(line)
        else:
            print(f"ok   {entry.scenario.name}")
    if args.artifact and not args.update:
        atomic_write_text(args.artifact, json.dumps(report, indent=2) + "\n")
    if failures:
        print(
            f"{failures} scenario(s) diverged from their pins", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
