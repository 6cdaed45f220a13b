"""Address-assignment policies: how one /24 block behaves day by day.

Section 5 of the paper attributes the striking variety of /24 activity
patterns (Fig. 6) to the interplay of *address assignment practice* and
*user behaviour*.  Each policy class here is the generative counterpart
of one observed pattern:

- :class:`StaticPolicy` — fixed subscriber→address mapping, sparse
  filling degree (Fig. 6a).
- :class:`RoundRobinPolicy` — a cycling pool assigning consecutive
  addresses, high filling degree but low utilization (Fig. 6b).
- :class:`DynamicLongLeasePolicy` — DHCP with long leases: subscribers
  hold addresses for weeks (Fig. 6c).
- :class:`DynamicShortLeasePolicy` — ≤24h leases: subscribers land on
  a fresh address almost daily, near-complete filling (Fig. 6d).
- :class:`GatewayPolicy` — a handful of CGN/proxy addresses
  aggregating thousands of subscribers: maximal utilization, huge
  traffic, huge User-Agent diversity (Sec. 6).
- :class:`CrawlerPolicy` — bots: huge traffic, one User-Agent.
- :class:`ServerPolicy` / :class:`RouterPolicy` — infrastructure that
  rarely or never contacts the CDN but answers probes (Sec. 3.3).
- :class:`UnusedPolicy` — routed but idle space.

A policy is a stateful day-by-day generator: calling
:meth:`AddressPolicy.day_activity` for consecutive days yields the
block's active offsets, per-address hit counts, and the subscriber
attribution needed for User-Agent sampling.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from itertools import accumulate
from typing import ClassVar, Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.sim.behavior import (
    daily_hits,
    draw_engagement,
    hit_medians,
    hits_from_medians,
    scaled_activity_probability,
    weekday_factor,
)
from repro.sim.config import SimulationConfig
from repro.sim.util import hash_int

BLOCK_SIZE = 256

#: Log-normal width of a crawler's day-to-day traffic volume.
_CRAWLER_SIGMA = 0.4

#: Memoized weekday-factor tables, keyed by (day-of-weeks, network
#: type, weekend factors) — a pure function of the key, shared by
#: every block simulating the same horizon.  Bounded; cleared when it
#: would outgrow any plausible working set.
_FACTOR_TABLES: dict[tuple, list[float]] = {}


class PolicyKind(enum.Enum):
    """The assignment-practice taxonomy used throughout the library."""

    STATIC = "static"
    DYNAMIC_SHORT = "dynamic_short"
    DYNAMIC_LONG = "dynamic_long"
    ROUND_ROBIN = "round_robin"
    GATEWAY = "gateway"
    CRAWLER = "crawler"
    SERVER = "server"
    ROUTER = "router"
    UNUSED = "unused"


#: Kinds whose addresses act as WWW clients (appear in CDN logs).
CLIENT_KINDS = frozenset(
    {
        PolicyKind.STATIC,
        PolicyKind.DYNAMIC_SHORT,
        PolicyKind.DYNAMIC_LONG,
        PolicyKind.ROUND_ROBIN,
        PolicyKind.GATEWAY,
        PolicyKind.CRAWLER,
    }
)

#: Kinds counted as dynamic assignment (for ground-truth comparisons).
DYNAMIC_KINDS = frozenset(
    {PolicyKind.DYNAMIC_SHORT, PolicyKind.DYNAMIC_LONG, PolicyKind.ROUND_ROBIN}
)


@dataclass
class DayActivity:
    """One block-day of CDN-visible activity.

    ``offsets``/``hits`` are per *address* (offset within the /24);
    the ``sub_*`` arrays are per active *subscriber* and carry the
    attribution needed to sample User-Agents (a gateway address
    aggregates many subscribers).
    """

    offsets: np.ndarray
    hits: np.ndarray
    sub_ids: np.ndarray
    sub_hits: np.ndarray
    sub_offsets: np.ndarray

    @classmethod
    def empty(cls) -> "DayActivity":
        return cls(
            offsets=np.empty(0, dtype=np.int64),
            hits=np.empty(0, dtype=np.int64),
            sub_ids=np.empty(0, dtype=np.int64),
            sub_hits=np.empty(0, dtype=np.int64),
            sub_offsets=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_subscribers(
        cls, sub_ids: np.ndarray, sub_hits: np.ndarray, sub_offsets: np.ndarray
    ) -> "DayActivity":
        """Aggregate per-subscriber rows into per-address rows."""
        if sub_ids.size == 0:
            return cls.empty()
        per_offset = np.bincount(sub_offsets, weights=sub_hits, minlength=BLOCK_SIZE)
        offsets = np.flatnonzero(per_offset)
        return cls(
            offsets=offsets.astype(np.int64),
            hits=per_offset[offsets].astype(np.int64),
            sub_ids=sub_ids.astype(np.int64),
            sub_hits=sub_hits.astype(np.int64),
            sub_offsets=sub_offsets.astype(np.int64),
        )


@dataclass
class DaysActivity:
    """A whole horizon of block activity in columnar (CSR) layout.

    The batched counterpart of a sequence of :class:`DayActivity`
    values: day ``d``'s subscriber rows live at
    ``[day_starts[d], day_starts[d + 1])`` of the three row arrays, in
    exactly the order the scalar :meth:`AddressPolicy.day_activity`
    would have produced them — that row-order contract is what lets
    downstream per-day consumers (User-Agent sampling) draw identical
    streams from either path.

    ``snapshots`` maps a relative day index to a private copy of
    :meth:`AddressPolicy.assigned_offsets` as of the *end* of that day
    (after any lease churn), matching a scalar caller that snapshots
    between two ``day_activity`` calls.
    """

    day_starts: np.ndarray
    sub_ids: np.ndarray
    sub_hits: np.ndarray
    sub_offsets: np.ndarray
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_days(self) -> int:
        return int(self.day_starts.size - 1)

    def day_slice(self, day: int) -> slice:
        """Row range of one relative day."""
        return slice(int(self.day_starts[day]), int(self.day_starts[day + 1]))


def _day_starts(counts: Sequence[int]) -> np.ndarray:
    return np.array([0, *accumulate(counts)], dtype=np.int64)


def _concat_rows(parts: Sequence[np.ndarray], dtype: type = np.int64) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0]  # every part is a fresh array, never mutated later
    return np.concatenate(parts)


def _silent_days(num_days: int, snapshots: dict[int, np.ndarray]) -> DaysActivity:
    """A horizon with no CDN-visible activity (infrastructure blocks)."""
    return DaysActivity(
        day_starts=np.zeros(num_days + 1, dtype=np.int64),
        sub_ids=np.empty(0, dtype=np.int64),
        sub_hits=np.empty(0, dtype=np.int64),
        sub_offsets=np.empty(0, dtype=np.int64),
        snapshots=snapshots,
    )


class AddressPolicy(abc.ABC):
    """Base class: a stateful per-/24 activity generator."""

    kind: ClassVar[PolicyKind]

    def __init__(self, rng: np.random.Generator, network_type: str, config: SimulationConfig) -> None:
        self._rng = rng
        self.network_type = network_type
        self._config = config

    @abc.abstractmethod
    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        """Advance one day and return the block's CDN activity."""

    @abc.abstractmethod
    def assigned_offsets(self) -> np.ndarray:
        """Offsets currently holding an assignment (probe-relevant)."""

    @abc.abstractmethod
    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        """Advance ``len(day_of_weeks)`` days in one batched call.

        The contract: for the same starting state, the returned rows
        for day ``d`` are element-wise identical to what ``d + 1``
        scalar :meth:`day_activity` calls would have produced on day
        ``d``, the policy's internal RNG finishes in the identical
        state, and ``snapshots[d]`` equals an
        :meth:`assigned_offsets` call made right after day ``d``.

        Implementations make bit-identical RNG calls day by day but
        defer every deterministic computation (hit medians, log-normal
        ``exp``, traffic scaling, aggregation) to single array ops
        over the whole horizon.
        """

    def _prepare_days(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int],
    ) -> tuple[list[float], set[int]]:
        """Validate a horizon: per-day weekday factors + snapshot days."""
        num_days = len(day_of_weeks)
        if num_days != len(traffic_scales):
            raise ConfigError(
                "day_of_weeks and traffic_scales must have equal length: "
                f"{num_days} != {len(traffic_scales)}"
            )
        config = self._config
        key = (
            tuple(day_of_weeks),
            self.network_type,
            config.weekend_residential_factor,
            config.weekend_work_factor,
        )
        factors = _FACTOR_TABLES.get(key)
        if factors is None:
            factors = [
                weekday_factor(
                    int(day_of_week),
                    self.network_type,
                    config.weekend_residential_factor,
                    config.weekend_work_factor,
                )
                for day_of_week in day_of_weeks
            ]
            if len(_FACTOR_TABLES) > 256:
                _FACTOR_TABLES.clear()
            _FACTOR_TABLES[key] = factors
        wanted = {int(day) for day in snapshot_days}
        for day in wanted:
            if not 0 <= day < num_days:
                raise ConfigError(
                    f"snapshot day {day} outside horizon [0, {num_days})"
                )
        return factors, wanted

    @property
    def subscriber_count(self) -> int:
        """Subscribers currently served by this block (0 for infra)."""
        return 0

    @property
    def scan_category(self) -> str:
        """How the scanner models this block: client/server/router/none."""
        if self.kind in CLIENT_KINDS:
            return "client"
        return "none"


class _SubscriberPool:
    """Shared subscriber bookkeeping: engagement, identity, turnover."""

    def __init__(
        self,
        rng: np.random.Generator,
        count: int,
        sub_base: int,
        turnover_daily: float,
    ) -> None:
        if count <= 0:
            raise ConfigError(f"subscriber count must be positive: {count}")
        self._rng = rng
        self.engagement = draw_engagement(rng, count)
        # Median daily hits are a pure element-wise function of
        # engagement, so the cache is maintained incrementally at churn
        # (bit-identical to a full recompute) and the hot path never
        # evaluates exp() for stable subscribers.
        self.median_hits = hit_medians(self.engagement)
        self.sub_ids = sub_base + np.arange(count, dtype=np.int64)
        self._count = count  # fixed for the pool's lifetime
        self._next_id = sub_base + count
        self._turnover_daily = turnover_daily
        # Per-weekday-factor activity probabilities, refreshed lazily:
        # churn only records the dirty indexes, and the next access
        # recomputes those entries from the then-current engagement —
        # an element-wise function, so the batched refresh matches
        # eager per-churn updates bit for bit.
        self._probs: dict[float, np.ndarray] = {}
        self._dirty: dict[float, list[np.ndarray]] = {}

    def __len__(self) -> int:
        return self._count

    def turn_over(self) -> np.ndarray:
        """Replace a random sliver of subscribers (new tenants).

        Returns the indexes that turned over, so policies can decide
        whether the address mapping follows the line (static) or the
        pool (dynamic).
        """
        churned = (self._rng.random(self._count) < self._turnover_daily).nonzero()[0]
        if churned.size == 0:
            return churned
        fresh = draw_engagement(self._rng, churned.size)
        self.engagement[churned] = fresh
        self.median_hits[churned] = hit_medians(fresh)
        self.sub_ids[churned] = self._next_id + np.arange(churned.size)
        self._next_id += churned.size
        for dirty in self._dirty.values():
            dirty.append(churned)
        return churned

    def _probabilities(self, factor: float) -> np.ndarray:
        probs = self._probs.get(factor)
        if probs is None:
            probs = scaled_activity_probability(self.engagement, factor)
            self._probs[factor] = probs
            self._dirty[factor] = []
            return probs
        dirty = self._dirty[factor]
        if dirty:
            idx = dirty[0] if len(dirty) == 1 else np.concatenate(dirty)
            # Duplicate indexes are fine: every entry resolves to the
            # same element-wise function of the current engagement.
            probs[idx] = scaled_activity_probability(self.engagement[idx], factor)
            dirty.clear()
        return probs

    def active_for(self, factor: float) -> np.ndarray:
        """Indexes of subscribers active under a known weekday factor."""
        return (self._rng.random(self._count) < self._probabilities(factor)).nonzero()[0]

    def active_today(self, day_of_week: int, network_type: str, config: SimulationConfig) -> np.ndarray:
        """Indexes of subscribers active today."""
        factor = weekday_factor(
            day_of_week,
            network_type,
            config.weekend_residential_factor,
            config.weekend_work_factor,
        )
        return self.active_for(factor)

    def hits_for(self, indexes: np.ndarray) -> np.ndarray:
        return daily_hits(self.engagement[indexes], self._rng)


class StaticPolicy(AddressPolicy):
    """Fixed one-to-one subscriber→address assignment (Fig. 6a).

    Filling degree equals the subscriber count — typically well under
    64 addresses, the paper's signature of static assignment (Fig. 8b).
    """

    kind = PolicyKind.STATIC

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        count = int(rng.integers(8, 80))
        self._pool = _SubscriberPool(rng, count, sub_base, config.subscriber_turnover_daily)
        self._offsets = np.sort(rng.choice(BLOCK_SIZE, size=count, replace=False))

    @property
    def subscriber_count(self) -> int:
        return len(self._pool)

    def assigned_offsets(self) -> np.ndarray:
        return self._offsets.copy()

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        self._pool.turn_over()  # line keeps its address; tenant changes
        active = self._pool.active_today(day_of_week, self.network_type, self._config)
        return DayActivity.from_subscribers(
            self._pool.sub_ids[active],
            self._pool.hits_for(active),
            self._offsets[active],
        )

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        factors, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        pool = self._pool
        counts: list[int] = []
        ids: list[np.ndarray] = []
        med: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        normals: list[np.ndarray] = []
        snapshots: dict[int, np.ndarray] = {}
        for day, factor in enumerate(factors):
            # RNG order per day, as in day_activity: turnover coins,
            # activity coins, one normal per active subscriber.
            pool.turn_over()
            active = pool.active_for(factor)
            normals.append(self._rng.standard_normal(active.size))
            counts.append(int(active.size))
            ids.append(pool.sub_ids[active])
            med.append(pool.median_hits[active])
            offs.append(self._offsets[active])
            if day in wanted:
                snapshots[day] = self._offsets.copy()
        sub_hits = hits_from_medians(
            _concat_rows(med, np.float64), _concat_rows(normals, np.float64)
        )
        return DaysActivity(
            day_starts=_day_starts(counts),
            sub_ids=_concat_rows(ids),
            sub_hits=sub_hits,
            sub_offsets=_concat_rows(offs),
            snapshots=snapshots,
        )


class DynamicShortLeasePolicy(AddressPolicy):
    """DHCP with a ≤24h maximum lease (Fig. 6d).

    Every day, active subscribers draw fresh addresses from the pool,
    so over weeks nearly every address in the block is used at least
    once: filling degree ≈ 256 regardless of concurrency.
    """

    kind = PolicyKind.DYNAMIC_SHORT

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        count = int(rng.integers(230, 380))
        self._pool = _SubscriberPool(rng, count, sub_base, config.subscriber_turnover_daily)
        self._last_offsets = np.empty(0, dtype=np.int64)

    @property
    def subscriber_count(self) -> int:
        return len(self._pool)

    def assigned_offsets(self) -> np.ndarray:
        return self._last_offsets.copy()

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        self._pool.turn_over()
        active = self._pool.active_today(day_of_week, self.network_type, self._config)
        if active.size > BLOCK_SIZE:
            active = self._rng.choice(active, size=BLOCK_SIZE, replace=False)
        offsets = self._rng.permutation(BLOCK_SIZE)[: active.size]
        self._last_offsets = np.sort(offsets)
        return DayActivity.from_subscribers(
            self._pool.sub_ids[active], self._pool.hits_for(active), offsets
        )

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        factors, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        pool = self._pool
        counts: list[int] = []
        ids: list[np.ndarray] = []
        med: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        normals: list[np.ndarray] = []
        snapshots: dict[int, np.ndarray] = {}
        last_offsets = self._last_offsets
        for day, factor in enumerate(factors):
            pool.turn_over()
            active = pool.active_for(factor)
            if active.size > BLOCK_SIZE:
                active = self._rng.choice(active, size=BLOCK_SIZE, replace=False)
            offsets = self._rng.permutation(BLOCK_SIZE)[: active.size]
            normals.append(self._rng.standard_normal(active.size))
            counts.append(int(active.size))
            ids.append(pool.sub_ids[active])
            med.append(pool.median_hits[active])
            offs.append(offsets)
            last_offsets = offsets  # sorting deferred to snapshot/exit
            if day in wanted:
                snapshots[day] = np.sort(last_offsets)
        # Restore the scalar invariant before returning: assigned
        # offsets reflect the last simulated day.
        self._last_offsets = np.sort(last_offsets)
        sub_hits = hits_from_medians(
            _concat_rows(med, np.float64), _concat_rows(normals, np.float64)
        )
        return DaysActivity(
            day_starts=_day_starts(counts),
            sub_ids=_concat_rows(ids),
            sub_hits=sub_hits,
            sub_offsets=_concat_rows(offs),
            snapshots=snapshots,
        )


class DynamicLongLeasePolicy(AddressPolicy):
    """DHCP with a long lease (Fig. 6c).

    Subscribers hold their address for weeks; a small daily probability
    moves a subscriber to a new free address.  Heavily engaged
    subscribers produce near-continuous rows in the activity matrix,
    casual ones sparse rows — the texture of Fig. 6c.
    """

    kind = PolicyKind.DYNAMIC_LONG

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        count = int(rng.integers(140, 250))
        self._pool = _SubscriberPool(rng, count, sub_base, config.subscriber_turnover_daily)
        self._sub_offsets = rng.permutation(BLOCK_SIZE)[:count]
        self._lease_churn_daily = float(rng.uniform(1 / 60, 1 / 15))

    @property
    def subscriber_count(self) -> int:
        return len(self._pool)

    def assigned_offsets(self) -> np.ndarray:
        return np.sort(self._sub_offsets)

    def _free_offsets(self) -> np.ndarray:
        """Unassigned offsets, ascending — a fast ``setdiff1d``.

        ``flatnonzero`` over an occupancy mask returns the same sorted
        unique complement ``np.setdiff1d(np.arange(BLOCK_SIZE), ...)``
        would, without the sort of a 256-element range every day.
        """
        taken = np.zeros(BLOCK_SIZE, dtype=bool)
        taken[self._sub_offsets] = True
        return np.flatnonzero(~taken)

    def _reassign_leases(self) -> None:
        moving = np.flatnonzero(self._rng.random(len(self._pool)) < self._lease_churn_daily)
        if moving.size == 0:
            return
        free = self._free_offsets()
        if free.size == 0:
            return
        self._rng.shuffle(free)
        takeable = min(moving.size, free.size)
        self._sub_offsets[moving[:takeable]] = free[:takeable]

    def _churn_tenants(self, churned: np.ndarray) -> None:
        """A new tenant gets a fresh lease, i.e. a new address."""
        free = self._free_offsets()
        self._rng.shuffle(free)
        takeable = min(churned.size, free.size)
        self._sub_offsets[churned[:takeable]] = free[:takeable]

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        churned = self._pool.turn_over()
        if churned.size:
            self._churn_tenants(churned)
        self._reassign_leases()
        active = self._pool.active_today(day_of_week, self.network_type, self._config)
        return DayActivity.from_subscribers(
            self._pool.sub_ids[active],
            self._pool.hits_for(active),
            self._sub_offsets[active],
        )

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        factors, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        pool = self._pool
        counts: list[int] = []
        ids: list[np.ndarray] = []
        med: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        normals: list[np.ndarray] = []
        snapshots: dict[int, np.ndarray] = {}
        for day, factor in enumerate(factors):
            churned = pool.turn_over()
            if churned.size:
                self._churn_tenants(churned)
            self._reassign_leases()
            active = pool.active_for(factor)
            normals.append(self._rng.standard_normal(active.size))
            counts.append(int(active.size))
            ids.append(pool.sub_ids[active])
            med.append(pool.median_hits[active])
            offs.append(self._sub_offsets[active])
            if day in wanted:
                snapshots[day] = np.sort(self._sub_offsets)
        sub_hits = hits_from_medians(
            _concat_rows(med, np.float64), _concat_rows(normals, np.float64)
        )
        return DaysActivity(
            day_starts=_day_starts(counts),
            sub_ids=_concat_rows(ids),
            sub_hits=sub_hits,
            sub_offsets=_concat_rows(offs),
            snapshots=snapshots,
        )


class RoundRobinPolicy(AddressPolicy):
    """A cycling assignment pool (Fig. 6b).

    Few concurrent subscribers, but the pool pointer advances daily, so
    consecutive addresses light up in a marching diagonal band: filling
    degree reaches 256 while spatio-temporal utilization stays low —
    the paper's canonical under-utilized dynamic pool.
    """

    kind = PolicyKind.ROUND_ROBIN

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        count = int(rng.integers(40, 95))
        self._pool = _SubscriberPool(rng, count, sub_base, config.subscriber_turnover_daily)
        self._pointer = int(rng.integers(0, BLOCK_SIZE))
        self._advance = int(rng.integers(2, 9))
        self._last_offsets = np.empty(0, dtype=np.int64)

    @property
    def subscriber_count(self) -> int:
        return len(self._pool)

    def assigned_offsets(self) -> np.ndarray:
        return self._last_offsets.copy()

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        self._pool.turn_over()
        active = self._pool.active_today(day_of_week, self.network_type, self._config)
        offsets = (self._pointer + np.arange(active.size)) % BLOCK_SIZE
        self._pointer = (self._pointer + self._advance) % BLOCK_SIZE
        self._last_offsets = np.sort(np.unique(offsets))
        return DayActivity.from_subscribers(
            self._pool.sub_ids[active], self._pool.hits_for(active), offsets
        )

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        factors, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        pool = self._pool
        counts: list[int] = []
        ids: list[np.ndarray] = []
        med: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        normals: list[np.ndarray] = []
        snapshots: dict[int, np.ndarray] = {}
        last_offsets = self._last_offsets
        for day, factor in enumerate(factors):
            pool.turn_over()
            active = pool.active_for(factor)
            offsets = (self._pointer + np.arange(active.size)) % BLOCK_SIZE
            self._pointer = (self._pointer + self._advance) % BLOCK_SIZE
            normals.append(self._rng.standard_normal(active.size))
            counts.append(int(active.size))
            ids.append(pool.sub_ids[active])
            med.append(pool.median_hits[active])
            offs.append(offsets)
            last_offsets = offsets  # dedup/sort deferred to snapshot/exit
            if day in wanted:
                snapshots[day] = np.sort(np.unique(last_offsets))
        self._last_offsets = np.sort(np.unique(last_offsets))
        sub_hits = hits_from_medians(
            _concat_rows(med, np.float64), _concat_rows(normals, np.float64)
        )
        return DaysActivity(
            day_starts=_day_starts(counts),
            sub_ids=_concat_rows(ids),
            sub_hits=sub_hits,
            sub_offsets=_concat_rows(offs),
            snapshots=snapshots,
        )


class GatewayPolicy(AddressPolicy):
    """CGN / proxy gateways: few addresses, thousands of users (Sec. 6).

    The gateway addresses are active every day, carry aggregate traffic
    orders of magnitude above a residential line, and exhibit huge
    User-Agent diversity — the top-right region of Fig. 10.
    """

    kind = PolicyKind.GATEWAY

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        # CGN egress ranges fill most of a /24 with translator
        # addresses, each aggregating many users — the paper's fully
        # utilized, traffic-heavy gateway blocks (Secs. 5.3 and 6).
        self._num_gateways = int(rng.integers(128, 257))
        self._gw_offsets = np.sort(rng.choice(BLOCK_SIZE, self._num_gateways, replace=False))
        count = int(rng.integers(2000, 12000))
        self._pool = _SubscriberPool(rng, count, sub_base, config.subscriber_turnover_daily)
        self._salt = int(rng.integers(0, 2**31))
        # Per-subscriber egress offset — a pure element-wise hash of
        # the subscriber id, so the cache is rehashed only at churn
        # (bit-identical to hashing every row every day).
        self._sub_gw_offsets = self._gw_offsets[
            hash_int(self._pool.sub_ids, self._salt, self._num_gateways)
        ]

    def _rehash(self, churned: np.ndarray) -> None:
        self._sub_gw_offsets[churned] = self._gw_offsets[
            hash_int(self._pool.sub_ids[churned], self._salt, self._num_gateways)
        ]

    @property
    def subscriber_count(self) -> int:
        return len(self._pool)

    def assigned_offsets(self) -> np.ndarray:
        return self._gw_offsets.copy()

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        churned = self._pool.turn_over()
        if churned.size:
            self._rehash(churned)
        active = self._pool.active_today(day_of_week, self.network_type, self._config)
        hits = self._pool.hits_for(active)
        hits = np.maximum(1, (hits * traffic_scale).astype(np.int64))
        return DayActivity.from_subscribers(
            self._pool.sub_ids[active], hits, self._sub_gw_offsets[active]
        )

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        factors, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        pool = self._pool
        counts: list[int] = []
        ids: list[np.ndarray] = []
        med: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        normals: list[np.ndarray] = []
        snapshots: dict[int, np.ndarray] = {}
        for day, factor in enumerate(factors):
            churned = pool.turn_over()
            if churned.size:
                self._rehash(churned)
            active = pool.active_for(factor)
            normals.append(self._rng.standard_normal(active.size))
            counts.append(int(active.size))
            ids.append(pool.sub_ids[active])
            med.append(pool.median_hits[active])
            offs.append(self._sub_gw_offsets[active])
            if day in wanted:
                snapshots[day] = self._gw_offsets.copy()
        hits = hits_from_medians(
            _concat_rows(med, np.float64), _concat_rows(normals, np.float64)
        )
        # Per-row traffic scale: int64 * float64 is the same element-wise
        # multiply the scalar path performs with a python-float scale.
        scale_rows = np.repeat(np.asarray(traffic_scales, dtype=np.float64), counts)
        sub_hits = np.maximum(1, (hits * scale_rows).astype(np.int64))
        return DaysActivity(
            day_starts=_day_starts(counts),
            sub_ids=_concat_rows(ids),
            sub_hits=sub_hits,
            sub_offsets=_concat_rows(offs),
            snapshots=snapshots,
        )


class CrawlerPolicy(AddressPolicy):
    """WWW client bots: massive request volume, one User-Agent each.

    The bottom-right region of Fig. 10: very many samples, very few
    unique User-Agent strings.
    """

    kind = PolicyKind.CRAWLER

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        count = int(rng.integers(2, 8))
        self._offsets = np.sort(rng.choice(BLOCK_SIZE, count, replace=False))
        self._bot_ids = sub_base + np.arange(count, dtype=np.int64)
        self._median_hits = rng.uniform(5e4, 2e5, size=count)

    @property
    def subscriber_count(self) -> int:
        return int(self._bot_ids.size)

    def assigned_offsets(self) -> np.ndarray:
        return self._offsets.copy()

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        active = np.flatnonzero(self._rng.random(self._bot_ids.size) < 0.985)
        # exp(0.4 * N(0,1)) consumes the same bitstream as lognormal(0, 0.4)
        # and is the shared math of the batched days_activity path.
        normals = self._rng.standard_normal(active.size)
        hits = self._median_hits[active] * np.exp(_CRAWLER_SIGMA * normals)
        hits = np.maximum(1, (hits * traffic_scale).astype(np.int64))
        return DayActivity.from_subscribers(
            self._bot_ids[active], hits, self._offsets[active]
        )

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        factors, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        counts: list[int] = []
        ids: list[np.ndarray] = []
        medians: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        normals: list[np.ndarray] = []
        snapshots: dict[int, np.ndarray] = {}
        for day in range(len(factors)):
            active = (self._rng.random(self._bot_ids.size) < 0.985).nonzero()[0]
            normals.append(self._rng.standard_normal(active.size))
            counts.append(int(active.size))
            ids.append(self._bot_ids[active])
            medians.append(self._median_hits[active])
            offs.append(self._offsets[active])
            if day in wanted:
                snapshots[day] = self._offsets.copy()
        hits = _concat_rows(medians, np.float64) * np.exp(
            _CRAWLER_SIGMA * _concat_rows(normals, np.float64)
        )
        scale_rows = np.repeat(np.asarray(traffic_scales, dtype=np.float64), counts)
        sub_hits = np.maximum(1, (hits * scale_rows).astype(np.int64))
        return DaysActivity(
            day_starts=_day_starts(counts),
            sub_ids=_concat_rows(ids),
            sub_hits=sub_hits,
            sub_offsets=_concat_rows(offs),
            snapshots=snapshots,
        )


class ServerPolicy(AddressPolicy):
    """Servers: answer probes, almost never appear as WWW clients.

    A minority of server blocks fetch software updates via the WWW
    (paper Sec. 3.3), producing faint, sporadic CDN activity.
    """

    kind = PolicyKind.SERVER

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        count = int(rng.integers(4, 64))
        self._offsets = np.sort(rng.choice(BLOCK_SIZE, count, replace=False))
        self._ids = sub_base + np.arange(count, dtype=np.int64)
        self._fetches_updates = bool(rng.random() < 0.15)

    def assigned_offsets(self) -> np.ndarray:
        return self._offsets.copy()

    @property
    def scan_category(self) -> str:
        return "server"

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        if not self._fetches_updates:
            return DayActivity.empty()
        active = np.flatnonzero(self._rng.random(self._offsets.size) < 0.03)
        if active.size == 0:
            return DayActivity.empty()
        hits = self._rng.integers(1, 20, size=active.size).astype(np.int64)
        return DayActivity.from_subscribers(
            self._ids[active], hits, self._offsets[active]
        )

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        factors, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        num_days = len(factors)
        snapshots = {day: self._offsets.copy() for day in wanted}
        if not self._fetches_updates:
            # The scalar path consumes no RNG for these blocks either.
            return _silent_days(num_days, snapshots)
        counts: list[int] = []
        ids: list[np.ndarray] = []
        hits: list[np.ndarray] = []
        offs: list[np.ndarray] = []
        for _ in range(num_days):
            active = (self._rng.random(self._offsets.size) < 0.03).nonzero()[0]
            counts.append(int(active.size))
            if active.size == 0:
                # Scalar path returns empty *before* drawing hit counts.
                continue
            hits.append(self._rng.integers(1, 20, size=active.size).astype(np.int64))
            ids.append(self._ids[active])
            offs.append(self._offsets[active])
        return DaysActivity(
            day_starts=_day_starts(counts),
            sub_ids=_concat_rows(ids),
            sub_hits=_concat_rows(hits),
            sub_offsets=_concat_rows(offs),
            snapshots=snapshots,
        )


class RouterPolicy(AddressPolicy):
    """Router interface addresses: visible to traceroute/ICMP only."""

    kind = PolicyKind.ROUTER

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)
        count = int(rng.integers(2, 33))
        self._offsets = np.sort(rng.choice(BLOCK_SIZE, count, replace=False))

    def assigned_offsets(self) -> np.ndarray:
        return self._offsets.copy()

    @property
    def scan_category(self) -> str:
        return "router"

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        return DayActivity.empty()

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        _, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        return _silent_days(
            len(day_of_weeks), {day: self._offsets.copy() for day in wanted}
        )


class UnusedPolicy(AddressPolicy):
    """Routed but idle space: no clients, no probe responses."""

    kind = PolicyKind.UNUSED

    def __init__(self, rng, network_type, config, sub_base: int) -> None:
        super().__init__(rng, network_type, config)

    def assigned_offsets(self) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def day_activity(self, day_of_week: int, traffic_scale: float = 1.0) -> DayActivity:
        return DayActivity.empty()

    def days_activity(
        self,
        day_of_weeks: Sequence[int],
        traffic_scales: Sequence[float],
        snapshot_days: Iterable[int] = (),
    ) -> DaysActivity:
        _, wanted = self._prepare_days(day_of_weeks, traffic_scales, snapshot_days)
        return _silent_days(
            len(day_of_weeks),
            {day: np.empty(0, dtype=np.int64) for day in wanted},
        )


_POLICY_CLASSES: dict[PolicyKind, type[AddressPolicy]] = {
    PolicyKind.STATIC: StaticPolicy,
    PolicyKind.DYNAMIC_SHORT: DynamicShortLeasePolicy,
    PolicyKind.DYNAMIC_LONG: DynamicLongLeasePolicy,
    PolicyKind.ROUND_ROBIN: RoundRobinPolicy,
    PolicyKind.GATEWAY: GatewayPolicy,
    PolicyKind.CRAWLER: CrawlerPolicy,
    PolicyKind.SERVER: ServerPolicy,
    PolicyKind.ROUTER: RouterPolicy,
    PolicyKind.UNUSED: UnusedPolicy,
}


def make_policy(
    kind: PolicyKind,
    seed: np.random.SeedSequence | int,
    network_type: str,
    config: SimulationConfig,
    sub_base: int,
) -> AddressPolicy:
    """Instantiate a fresh policy of the given kind.

    The same ``(kind, seed)`` pair always yields the same day-by-day
    behaviour, which is how whole simulation runs stay reproducible.
    """
    rng = np.random.default_rng(seed)
    cls = _POLICY_CLASSES[kind]
    return cls(rng, network_type, config, sub_base=sub_base)
