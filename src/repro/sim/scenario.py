"""Scenario library: declarative timelines of exogenous events.

The paper's central observation is that address activity is shaped by
the world around it — outages take regions dark, CGNAT consolidates
whole dynamic pools behind a handful of gateways, transfer-market
sales light up dormant space, lockdowns move daytime traffic home.
This module makes such dynamics *injectable*: a :class:`Scenario` is a
list of named :class:`ScenarioEvent` entries, compiled once by the
coordinator into the two deterministic channels the engine already
understands:

- **directives** — ``(day, block_index, kind_value, salt)`` policy
  switches, the exact shape the restructure schedule emits; and
- **perturbations** — ``(start_day, stop_day, factor, block_indexes)``
  multiplicative hit-volume windows applied to subscriber activity
  rows (:func:`perturb_hits`).

Determinism seam
----------------
Compilation draws from **no RNG at all**: block selection is the
stateless :func:`~repro.sim.util.hash_coin` keyed by block index and a
per-event salt, and directive salts are fixed per event position
(:data:`SCENARIO_SALT_BASE`).  The engine applies perturbations as a
pure function of the precompiled tables (:func:`build_day_factor_tables`)
— per-block policy and UA streams are never touched, so any timeline
is bit-identical at any ``--workers`` count, across ``--resume``, and
under ``repro serve`` replay, and the empty timeline is bit-identical
to a scenario-free run.

Perturbations shape the *observed hit volume* only (window columns and
the ``addr_days`` counter).  The subscriber-level side channels — UA
sampling, the login panel, scan snapshots — deliberately observe the
unperturbed activity: they are drawn from per-block RNG streams whose
call order must not depend on the timeline.

Event model
-----------
=================  =========  ===========================================
kind               mechanism  meaning
=================  =========  ===========================================
``lockdown``       perturb    diurnal/volume shift: hits scaled by
                              ``factor`` over ``[start_day, start_day +
                              duration_days)`` (Covid-19 WFH shape)
``outage``         perturb    regional blackout: factor fixed to ``0.0``
``cgnat``          both       selected dynamic blocks consolidate to
                              ``gateway`` policy on ``start_day``; the
                              surviving egress addresses carry the
                              consolidated subscriber load (hits x
                              :data:`CGNAT_HIT_FACTOR` onward)
``transfer_burst`` directive  unused blocks sold and deployed: switch to
                              ``to_policy`` (default ``dynamic_short``)
``scanner_storm``  directive  temporary ``crawler`` takeover, reverting
                              to the pre-storm effective policy after
                              ``duration_days``
``renumbering``    directive  exhaustion-driven renumbering: same policy
                              kind, fresh address assignments (new salt)
=================  =========  ===========================================

Scenario files are JSON (``examples/scenarios/*.json``); every parse or
validation failure raises :class:`~repro.errors.ConfigError` naming the
offending file and field, mirroring the ``DatasetError`` convention of
:mod:`repro.core.io`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.errors import ConfigError
from repro.sim.policies import (
    CLIENT_KINDS,
    DYNAMIC_KINDS,
    PolicyKind,
)
from repro.sim.population import Block, InternetPopulation
from repro.sim.util import hash_coin

#: Same shape as :data:`repro.sim.engine.Directive` — duplicated here
#: (it is a plain alias) so the engine can import the apply helpers
#: below without a cycle.
Directive = tuple[int, int, str, int]

#: One multiplicative hit-volume window:
#: ``(start_day, stop_day, factor, block_indexes)`` — half-open day
#: range, factors of overlapping perturbations multiply.
Perturbation = tuple[int, int, float, tuple[int, ...]]

#: Base of the deterministic per-event directive salts.  Restructure-
#: schedule salts are drawn from ``integers(1, 2**31)``, so scenario
#: salts live in ``[2**31, ...)`` — the two spaces never collide.
SCENARIO_SALT_BASE = 2**31

#: Salt of the stateless fractional block-selection coin.
SCENARIO_SELECT_SALT = 0x5CE51337

#: Hit-volume multiplier a ``cgnat`` consolidation applies from its
#: ``start_day`` onward: the subscribers of the consolidated block now
#: funnel through few egress addresses, so per-address volume jumps.
CGNAT_HIT_FACTOR = 3.0

#: Every event kind this library understands.
EVENT_KINDS = (
    "lockdown",
    "outage",
    "cgnat",
    "transfer_burst",
    "scanner_storm",
    "renumbering",
)

#: Kinds spanning a ``[start_day, start_day + duration_days)`` window.
WINDOWED_KINDS = frozenset({"lockdown", "outage", "scanner_storm"})

_EVENT_FIELDS = frozenset(
    {"kind", "start_day", "duration_days", "factor", "to_policy", "select"}
)
_SELECT_FIELDS = frozenset(
    {"country", "network_type", "policy", "fraction", "max_blocks"}
)
_SCENARIO_FIELDS = frozenset({"name", "description", "events"})


@dataclass(frozen=True)
class BlockSelector:
    """Which /24 blocks an event hits (all predicates AND together).

    ``country``/``network_type`` match block metadata, ``policy``
    matches the block's *baseline* assignment policy, ``fraction``
    keeps each candidate with a stateless per-block coin, and
    ``max_blocks`` truncates the (index-ordered) result.
    """

    country: str | None = None
    network_type: str | None = None
    policy: str | None = None
    fraction: float = 1.0
    max_blocks: int | None = None


@dataclass(frozen=True)
class ScenarioEvent:
    """One named exogenous event on the timeline."""

    kind: str
    start_day: int
    duration_days: int = 0
    factor: float | None = None
    to_policy: str | None = None
    select: BlockSelector = field(default_factory=BlockSelector)

    @property
    def end_day(self) -> int:
        """Exclusive last day of a windowed event."""
        return self.start_day + self.duration_days


@dataclass(frozen=True)
class Scenario:
    """A declarative timeline of exogenous events."""

    name: str
    events: tuple[ScenarioEvent, ...]
    description: str = ""

    @classmethod
    def empty(cls) -> "Scenario":
        return cls(name="baseline", events=())


@dataclass(frozen=True)
class ScenarioPlan:
    """A compiled scenario: the engine's two deterministic channels."""

    directives: tuple[Directive, ...]
    perturbations: tuple[Perturbation, ...]

    @classmethod
    def empty(cls) -> "ScenarioPlan":
        return cls(directives=(), perturbations=())


@dataclass(frozen=True)
class CatalogEntry:
    """One golden-catalog file: scenario + world + pinned expectations."""

    scenario: Scenario
    world: dict[str, Any]
    expect: dict[str, Any]
    path: str


# -- parsing ---------------------------------------------------------------


def _fail(source: str, fieldname: str, message: str) -> ConfigError:
    return ConfigError(f"scenario file {source}: {fieldname} {message}")


def _require_mapping(value: Any, source: str, fieldname: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise _fail(
            source, fieldname,
            f"must be an object, got {type(value).__name__}",
        )
    return value


def _require_str(value: Any, source: str, fieldname: str) -> str:
    if not isinstance(value, str):
        raise _fail(
            source, fieldname, f"must be a string, got {type(value).__name__}"
        )
    return value


def _require_int(value: Any, source: str, fieldname: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(
            source, fieldname,
            f"must be an integer, got {value!r}",
        )
    return value


def _require_number(value: Any, source: str, fieldname: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(
            source, fieldname, f"must be a number, got {value!r}"
        )
    return float(value)


def _reject_unknown(
    mapping: Mapping[str, Any],
    allowed: frozenset[str],
    source: str,
    fieldname: str,
) -> None:
    for key in sorted(mapping):
        if key not in allowed:
            raise _fail(
                source, f"{fieldname}.{key}",
                f"is not a recognized field (expected one of "
                f"{', '.join(sorted(allowed))})",
            )


def _parse_selector(raw: Any, source: str, fieldname: str) -> BlockSelector:
    mapping = _require_mapping(raw, source, fieldname)
    _reject_unknown(mapping, _SELECT_FIELDS, source, fieldname)
    country = None
    if "country" in mapping:
        country = _require_str(mapping["country"], source, f"{fieldname}.country")
    network_type = None
    if "network_type" in mapping:
        network_type = _require_str(
            mapping["network_type"], source, f"{fieldname}.network_type"
        )
    policy = None
    if "policy" in mapping:
        policy = _require_str(mapping["policy"], source, f"{fieldname}.policy")
        if policy not in {kind.value for kind in PolicyKind}:
            raise _fail(
                source, f"{fieldname}.policy",
                f"must be a policy kind "
                f"({', '.join(kind.value for kind in PolicyKind)}), "
                f"got {policy!r}",
            )
    fraction = 1.0
    if "fraction" in mapping:
        fraction = _require_number(
            mapping["fraction"], source, f"{fieldname}.fraction"
        )
        if not 0.0 < fraction <= 1.0:
            raise _fail(
                source, f"{fieldname}.fraction",
                f"must be in (0, 1], got {fraction}",
            )
    max_blocks = None
    if "max_blocks" in mapping:
        max_blocks = _require_int(
            mapping["max_blocks"], source, f"{fieldname}.max_blocks"
        )
        if max_blocks < 1:
            raise _fail(
                source, f"{fieldname}.max_blocks",
                f"must be >= 1, got {max_blocks}",
            )
    return BlockSelector(
        country=country,
        network_type=network_type,
        policy=policy,
        fraction=fraction,
        max_blocks=max_blocks,
    )


def _parse_event(raw: Any, source: str, fieldname: str) -> ScenarioEvent:
    mapping = _require_mapping(raw, source, fieldname)
    _reject_unknown(mapping, _EVENT_FIELDS, source, fieldname)
    if "kind" not in mapping:
        raise _fail(source, f"{fieldname}.kind", "is required")
    kind = _require_str(mapping["kind"], source, f"{fieldname}.kind")
    if kind not in EVENT_KINDS:
        raise _fail(
            source, f"{fieldname}.kind",
            f"must be one of {', '.join(EVENT_KINDS)}; got {kind!r}",
        )
    if "start_day" not in mapping:
        raise _fail(source, f"{fieldname}.start_day", "is required")
    start_day = _require_int(mapping["start_day"], source, f"{fieldname}.start_day")
    if start_day < 0:
        raise _fail(
            source, f"{fieldname}.start_day", f"must be >= 0, got {start_day}"
        )

    windowed = kind in WINDOWED_KINDS
    duration_days = 0
    if windowed:
        if "duration_days" not in mapping:
            raise _fail(
                source, f"{fieldname}.duration_days",
                f"is required for {kind!r} events",
            )
        duration_days = _require_int(
            mapping["duration_days"], source, f"{fieldname}.duration_days"
        )
        if duration_days < 1:
            raise _fail(
                source, f"{fieldname}.duration_days",
                f"must be >= 1, got {duration_days}",
            )
    elif "duration_days" in mapping:
        raise _fail(
            source, f"{fieldname}.duration_days",
            f"is not allowed for instantaneous {kind!r} events",
        )

    factor: float | None = None
    if kind == "lockdown":
        if "factor" not in mapping:
            raise _fail(
                source, f"{fieldname}.factor",
                "is required for 'lockdown' events",
            )
        factor = _require_number(mapping["factor"], source, f"{fieldname}.factor")
        if factor <= 0:
            raise _fail(
                source, f"{fieldname}.factor",
                f"must be > 0 (use an 'outage' event to silence blocks), "
                f"got {factor}",
            )
    elif "factor" in mapping:
        raise _fail(
            source, f"{fieldname}.factor",
            f"is only meaningful on 'lockdown' events, not {kind!r}",
        )

    to_policy: str | None = None
    if kind == "transfer_burst":
        to_policy = PolicyKind.DYNAMIC_SHORT.value
        if "to_policy" in mapping:
            to_policy = _require_str(
                mapping["to_policy"], source, f"{fieldname}.to_policy"
            )
            client_values = sorted(kind.value for kind in CLIENT_KINDS)
            if to_policy not in client_values:
                raise _fail(
                    source, f"{fieldname}.to_policy",
                    f"must be a client policy kind "
                    f"({', '.join(client_values)}), got {to_policy!r}",
                )
    elif "to_policy" in mapping:
        raise _fail(
            source, f"{fieldname}.to_policy",
            f"is only meaningful on 'transfer_burst' events, not {kind!r}",
        )

    select = BlockSelector()
    if "select" in mapping:
        select = _parse_selector(mapping["select"], source, f"{fieldname}.select")
    return ScenarioEvent(
        kind=kind,
        start_day=start_day,
        duration_days=duration_days,
        factor=factor,
        to_policy=to_policy,
        select=select,
    )


def parse_scenario(raw: Any, source: str = "<scenario>") -> Scenario:
    """Build a :class:`Scenario` from decoded JSON, validating strictly.

    Every failure is a :class:`~repro.errors.ConfigError` naming
    *source* and the offending field — never a raw ``KeyError`` or
    ``TypeError``.
    """
    mapping = _require_mapping(raw, source, "top level")
    _reject_unknown(mapping, _SCENARIO_FIELDS, source, "top level")
    if "name" not in mapping:
        raise _fail(source, "name", "is required")
    name = _require_str(mapping["name"], source, "name")
    if not name:
        raise _fail(source, "name", "must not be empty")
    description = ""
    if "description" in mapping:
        description = _require_str(mapping["description"], source, "description")
    if "events" not in mapping:
        raise _fail(source, "events", "is required (use [] for a baseline)")
    raw_events = mapping["events"]
    if not isinstance(raw_events, list):
        raise _fail(
            source, "events",
            f"must be a list, got {type(raw_events).__name__}",
        )
    events = tuple(
        _parse_event(entry, source, f"events[{position}]")
        for position, entry in enumerate(raw_events)
    )
    return Scenario(name=name, events=events, description=description)


def load_scenario(path: str | os.PathLike[str]) -> Scenario:
    """Load and validate a scenario timeline from a JSON file.

    Golden-catalog files (which additionally carry ``world`` and
    ``expect`` pins) are accepted too: the pins describe the recorded
    signature, not the timeline, so ``--scenario`` can point straight
    at ``examples/scenarios/*.json``.
    """
    source = os.fspath(path)
    raw = _read_json(path)
    if isinstance(raw, Mapping) and ("world" in raw or "expect" in raw):
        return load_catalog_entry(path).scenario
    return parse_scenario(raw, source=source)


def load_catalog_entry(path: str | os.PathLike[str]) -> CatalogEntry:
    """Load a golden-catalog file: scenario + ``world`` + ``expect``.

    Catalog files are scenario files with two extra objects: ``world``
    (the pinned simulation configuration the signature was recorded
    under) and ``expect`` (the pinned dataset SHA-256 and metric
    signature).  ``tools/scenario_golden.py`` consumes them.
    """
    source = os.fspath(path)
    mapping = _require_mapping(_read_json(path), source, "top level")
    _reject_unknown(
        mapping, _SCENARIO_FIELDS | {"world", "expect"}, source, "top level"
    )
    if "world" not in mapping:
        raise _fail(source, "world", "is required in a catalog entry")
    world = dict(_require_mapping(mapping["world"], source, "world"))
    expect: dict[str, Any] = {}
    if "expect" in mapping:
        expect = dict(_require_mapping(mapping["expect"], source, "expect"))
    scenario = parse_scenario(
        {key: mapping[key] for key in _SCENARIO_FIELDS if key in mapping},
        source=source,
    )
    return CatalogEntry(scenario=scenario, world=world, expect=expect, path=source)


def _read_json(path: str | os.PathLike[str]) -> Any:
    source = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"scenario file {source}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"scenario file {source}: not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


# -- compilation -----------------------------------------------------------


class _KindTimeline:
    """Effective policy kind per block as directives accumulate.

    Seeded with the base restructure directives, then updated event by
    event in timeline order, so a later event observes the policy an
    earlier one (or the schedule) installed.  Same-day entries resolve
    last-wins — exactly how the engine applies same-day directives.
    """

    def __init__(
        self, blocks: list[Block], base_directives: Iterable[Directive]
    ) -> None:
        self._baseline = {block.index: block.kind for block in blocks}
        self._entries: dict[int, list[tuple[int, PolicyKind]]] = {}
        for day, index, kind_value, _salt in base_directives:
            self._entries.setdefault(index, []).append(
                (day, PolicyKind(kind_value))
            )
        for entries in self._entries.values():
            entries.sort(key=lambda entry: entry[0])

    def effective_kind(self, index: int, day: int) -> PolicyKind:
        kind = self._baseline[index]
        for entry_day, entry_kind in self._entries.get(index, ()):
            if entry_day > day:
                break
            kind = entry_kind
        return kind

    def record(self, index: int, day: int, kind: PolicyKind) -> None:
        entries = self._entries.setdefault(index, [])
        entries.append((day, kind))
        entries.sort(key=lambda entry: entry[0])  # stable: same-day appends win


def _event_salt(event_position: int, phase: int) -> int:
    """Deterministic directive salt for event *event_position*.

    Two salts per event (phase 0 = the switch, phase 1 = a revert) —
    pure position arithmetic, no RNG.
    """
    return SCENARIO_SALT_BASE + event_position * 2 + phase


def _selected_indexes(
    population: InternetPopulation,
    event: ScenarioEvent,
    event_position: int,
    eligible: Callable[[Block], bool],
) -> tuple[int, ...]:
    """Resolve an event's selector to block indexes — RNG-free.

    Fractional selection uses :func:`~repro.sim.util.hash_coin` keyed
    by block index and the event position, so it neither consumes nor
    perturbs any simulation stream.
    """
    select = event.select
    indexes = [
        block.index
        for block in population.blocks
        if (select.country is None or block.country == select.country)
        and (select.network_type is None or block.network_type == select.network_type)
        and (select.policy is None or block.kind.value == select.policy)
        and eligible(block)
    ]
    if select.fraction < 1.0 and indexes:
        keep = hash_coin(
            np.asarray(indexes, dtype=np.uint64),
            SCENARIO_SELECT_SALT + event_position,
            select.fraction,
        )
        indexes = [index for index, kept in zip(indexes, keep.tolist()) if kept]
    if select.max_blocks is not None:
        indexes = indexes[: select.max_blocks]
    return tuple(indexes)


def compile_scenario(
    scenario: Scenario,
    population: InternetPopulation,
    num_days: int,
    base_directives: tuple[Directive, ...] = (),
    source: str | None = None,
) -> ScenarioPlan:
    """Compile a scenario against one world and horizon.

    *base_directives* is the restructure schedule's output for the same
    run: events observe the effective policy those directives install
    (a ``cgnat`` event only consolidates blocks that are still dynamic
    on its day; a ``scanner_storm`` reverts to the policy the schedule
    will have installed by its end day).

    Raises :class:`~repro.errors.ConfigError` for events outside the
    ``num_days`` horizon and for selectors matching no block — a
    scenario that silently does nothing is a misconfiguration.
    """
    label = source if source is not None else f"<scenario {scenario.name!r}>"
    timeline = _KindTimeline(population.blocks, base_directives)
    directives: list[Directive] = []
    perturbations: list[Perturbation] = []
    for position, event in enumerate(scenario.events):
        fieldname = f"events[{position}]"
        if event.start_day >= num_days:
            raise _fail(
                label, f"{fieldname}.start_day",
                f"is outside the {num_days}-day horizon "
                f"(got {event.start_day})",
            )
        if event.kind in WINDOWED_KINDS and event.end_day > num_days:
            raise _fail(
                label, f"{fieldname}.duration_days",
                f"runs past the {num_days}-day horizon "
                f"(days [{event.start_day}, {event.end_day}))",
            )
        eligible = _eligibility(event, timeline)
        indexes = _selected_indexes(population, event, position, eligible)
        if not indexes:
            raise _fail(
                label, f"{fieldname}.select",
                f"matches no eligible block for {event.kind!r} on day "
                f"{event.start_day}",
            )
        if event.kind == "lockdown":
            assert event.factor is not None
            perturbations.append(
                (event.start_day, event.end_day, float(event.factor), indexes)
            )
        elif event.kind == "outage":
            perturbations.append((event.start_day, event.end_day, 0.0, indexes))
        elif event.kind == "cgnat":
            salt = _event_salt(position, 0)
            for index in indexes:
                directives.append(
                    (event.start_day, index, PolicyKind.GATEWAY.value, salt)
                )
                timeline.record(index, event.start_day, PolicyKind.GATEWAY)
            perturbations.append(
                (event.start_day, num_days, CGNAT_HIT_FACTOR, indexes)
            )
        elif event.kind == "transfer_burst":
            assert event.to_policy is not None
            salt = _event_salt(position, 0)
            new_kind = PolicyKind(event.to_policy)
            for index in indexes:
                directives.append(
                    (event.start_day, index, new_kind.value, salt)
                )
                timeline.record(index, event.start_day, new_kind)
        elif event.kind == "scanner_storm":
            salt = _event_salt(position, 0)
            revert_salt = _event_salt(position, 1)
            # Revert targets are resolved before the storm is recorded,
            # so a storm reverts to what the world would have run
            # without it (including schedule switches during the storm).
            reverts = {
                index: timeline.effective_kind(index, event.end_day)
                for index in indexes
            }
            for index in indexes:
                directives.append(
                    (event.start_day, index, PolicyKind.CRAWLER.value, salt)
                )
                timeline.record(index, event.start_day, PolicyKind.CRAWLER)
                if event.end_day < num_days:
                    directives.append(
                        (event.end_day, index, reverts[index].value, revert_salt)
                    )
                    timeline.record(index, event.end_day, reverts[index])
        else:  # renumbering
            salt = _event_salt(position, 0)
            for index in indexes:
                kind = timeline.effective_kind(index, event.start_day)
                directives.append((event.start_day, index, kind.value, salt))
                timeline.record(index, event.start_day, kind)
    return ScenarioPlan(
        directives=tuple(directives), perturbations=tuple(perturbations)
    )


def _eligibility(
    event: ScenarioEvent, timeline: _KindTimeline
) -> Callable[[Block], bool]:
    """Which blocks an event kind can act on (by *effective* policy)."""
    if event.kind == "cgnat":
        return lambda block: (
            timeline.effective_kind(block.index, event.start_day) in DYNAMIC_KINDS
        )
    if event.kind == "transfer_burst":
        return lambda block: (
            timeline.effective_kind(block.index, event.start_day)
            is PolicyKind.UNUSED
        )
    if event.kind == "renumbering":
        return lambda block: (
            timeline.effective_kind(block.index, event.start_day) in CLIENT_KINDS
        )
    return lambda block: True


# -- the engine's pure apply helpers --------------------------------------


def build_day_factor_tables(
    perturbations: Iterable[Perturbation], num_days: int
) -> dict[int, np.ndarray]:
    """Per-block day-indexed factor tables (blocks at 1.0 are absent).

    A pure function of the compiled perturbation tuples: overlapping
    windows multiply, days outside every window stay exactly ``1.0``.
    The engine looks a block up once and skips the perturbation path
    entirely when it is absent — which is how the empty timeline stays
    bit-identical to a scenario-free run.
    """
    tables: dict[int, np.ndarray] = {}
    for start_day, stop_day, factor, indexes in perturbations:
        lo = max(int(start_day), 0)
        hi = min(int(stop_day), num_days)
        if lo >= hi:
            continue
        for index in indexes:
            table = tables.get(index)
            if table is None:
                table = tables[index] = np.ones(num_days, dtype=np.float64)
            table[lo:hi] *= factor
    return tables


def perturb_hits(
    hits: np.ndarray, factors: float | np.ndarray
) -> np.ndarray:
    """Scale subscriber hit rows by their day factors — pure, RNG-free.

    ``factor > 0`` keeps the subscriber visible with at least one
    daily hit (``max(1, floor(hits * factor))``); ``factor <= 0``
    silences the row entirely (an outage).  Products and floors of
    integers this size are exact in float64, so the batch and reference
    kernels computing this row-by-row in different groupings produce
    bit-identical window columns.
    """
    factor_array = np.asarray(factors, dtype=np.float64)
    scaled = hits.astype(np.float64) * factor_array
    kept = np.maximum(np.floor(scaled), 1.0)
    return np.where(factor_array > 0.0, kept, 0.0)
