"""Trace-driven cache simulator.

Two replacement policies over the same event loop:

* LRU: the classic single-list baseline.
* ZIPF_CONSTRUCTION: capacity is split into a kernel for objects requested
  at least twice and an accessory part for objects seen once, plus a
  managing part that keeps per-object request statistics even after
  eviction.  A returning object whose statistics survived goes straight
  back into the kernel; that ghost memory is what distinguishes the
  construction from policies that only know the currently resident set.

Renewal is modeled through an optional change log: a request for a resident
object whose content changed since it was last fetched counts as a miss
(an updating request) and refreshes the copy in place, without eviction.
A stale request still advances the object's request count, so on an
accessory object it triggers the usual promotion to the kernel.

Capacity is accounted in bytes by default; with byte_accounting off every
object charges exactly 1, which is the objects-mode used when comparing
against size-free analytical results.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Iterable, NamedTuple, Sequence

from .trace import Trace, TraceRecord

__all__ = [
    "Policy",
    "CacheConfig",
    "Eviction",
    "OccupancySample",
    "SimulationResult",
    "CacheSim",
    "simulate",
    "compare_policies",
    "HIT",
    "MISS",
    "STALE_MISS",
    "UNCACHEABLE",
]

SECONDS_PER_DAY = 86_400.0

# Outcomes of a single event.
HIT = "hit"
MISS = "miss"
STALE_MISS = "stale_miss"
UNCACHEABLE = "uncacheable"


class Policy(Enum):
    LRU = "lru"
    ZIPF_CONSTRUCTION = "zipf_construction"


@dataclass(frozen=True)
class CacheConfig:
    """Simulator knobs.

    kernel_fraction splits cacheable capacity between kernel and accessory
    (ZIPF_CONSTRUCTION only; the managing part consumes no object capacity).
    managing_capacity bounds retained statistics entries; None means 10x the
    estimated number of objects that fit the cache (estimated from the mean
    size of objects seen so far, floor 100).  occupancy_stride controls how
    often the per-part occupancy series is sampled, in events.
    """

    capacity_bytes: int
    policy: Policy = Policy.LRU
    kernel_fraction: float = 1.0 / 3.0
    managing_capacity: int | None = None
    byte_accounting: bool = True
    occupancy_stride: int = 1000

    def __post_init__(self):
        if self.capacity_bytes < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < self.kernel_fraction < 1.0:
            raise ValueError("kernel_fraction must lie in (0, 1)")
        if self.managing_capacity is not None and self.managing_capacity < 1:
            raise ValueError("managing_capacity must be >= 1 (or None for auto)")
        if self.occupancy_stride < 1:
            raise ValueError("occupancy_stride must be >= 1")


class Eviction(NamedTuple):
    object_id: str
    insert_ts: float
    evict_ts: float
    count: int  # the object's cumulative request count at eviction time

    @property
    def duration_days(self) -> float:
        return (self.evict_ts - self.insert_ts) / SECONDS_PER_DAY


class OccupancySample(NamedTuple):
    timestamp: float
    kernel_bytes: int
    accessory_bytes: int
    managing_entries: int


@dataclass
class SimulationResult:
    policy: Policy
    capacity_bytes: int
    byte_accounting: bool
    requests: int = 0
    hits: int = 0
    misses: int = 0
    stale_misses: int = 0
    uncacheable: int = 0
    bypassed: int = 0
    hit_bytes: int = 0
    origin_bytes: int = 0
    total_bytes: int = 0
    start_ts: float = 0.0
    end_ts: float = 0.0
    evictions: list[Eviction] = field(default_factory=list)
    occupancy: list[OccupancySample] = field(default_factory=list)
    bypassed_objects: frozenset[str] = frozenset()

    @property
    def cacheable_requests(self) -> int:
        return self.requests - self.uncacheable

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else math.nan

    @property
    def byte_hit_ratio(self) -> float:
        return self.hit_bytes / self.total_bytes if self.total_bytes else math.nan

    @property
    def duration_days(self) -> float:
        return (self.end_ts - self.start_ts) / SECONDS_PER_DAY

    @property
    def nu_out(self) -> float:
        """User-side request rate, requests/day."""
        d = self.duration_days
        return self.requests / d if d > 0 else math.nan

    @property
    def nu_int(self) -> float:
        """Network-side request rate (everything not served from cache)."""
        d = self.duration_days
        return (self.requests - self.hits) / d if d > 0 else math.nan


class _Stats:
    """Managing-part entry: per-object statistics that outlive residency."""

    __slots__ = (
        "count",
        "last_request",
        "last_fetch",
        "resident",
        "in_kernel",
        "size",
        "residency_start",
    )

    def __init__(self, now: float, size: int):
        self.count = 1
        self.last_request = now
        self.last_fetch = now
        self.resident = False
        self.in_kernel = False
        self.size = size
        self.residency_start = now


class _Engine:
    """Accounting both policies share: charges, bypasses and the eviction log."""

    def __init__(self, config: CacheConfig, counts: dict[Hashable, int]):
        self.capacity = config.capacity_bytes
        self.byte_accounting = config.byte_accounting
        self.counts = counts  # driver-maintained global request counts
        self.evictions: list[Eviction] = []
        self.bypassed: set[Hashable] = set()
        self.bypass_events = 0

    def _charge(self, size: int) -> int:
        return size if self.byte_accounting else 1

    def _bypass(self, obj: Hashable):
        self.bypassed.add(obj)
        self.bypass_events += 1

    def _log_eviction(self, obj: Hashable, stats: _Stats, now: float):
        self.evictions.append(Eviction(obj, stats.residency_start, now, self.counts.get(obj, 0)))


class _LruEngine(_Engine):
    def __init__(self, config: CacheConfig, counts: dict[Hashable, int]):
        super().__init__(config, counts)
        self.entries: OrderedDict[Hashable, _Stats] = OrderedDict()
        self.used = 0

    def access(self, obj: Hashable, now: float, size: int, fresh_fn) -> str:
        entry = self.entries.get(obj)
        if entry is not None:
            self.entries.move_to_end(obj)
            if fresh_fn(obj, entry.last_fetch, now):
                return HIT
            entry.last_fetch = now
            return STALE_MISS
        charge = self._charge(size)
        if charge > self.capacity:
            self._bypass(obj)
            return MISS
        self.entries[obj] = _Stats(now, size)
        self.used += charge
        while self.used > self.capacity:
            victim_id, victim = self.entries.popitem(last=False)
            self.used -= self._charge(victim.size)
            self._log_eviction(victim_id, victim, now)
        return MISS

    def occupancy(self, now: float) -> OccupancySample:
        return OccupancySample(now, self.used, 0, 0)

    def check_invariants(self):
        assert self.used <= self.capacity, "LRU over capacity"
        assert self.used == sum(self._charge(e.size) for e in self.entries.values())


class _ZipfEngine(_Engine):
    """Kernel + accessory + managing construction."""

    def __init__(self, config: CacheConfig, counts: dict[Hashable, int]):
        super().__init__(config, counts)
        self.kernel_capacity = int(config.capacity_bytes * config.kernel_fraction)
        self.accessory_capacity = config.capacity_bytes - self.kernel_capacity
        self.managing_capacity = config.managing_capacity
        self.managing: dict[Hashable, _Stats] = {}
        self.accessory: OrderedDict[Hashable, None] = OrderedDict()
        self.kernel_bytes = 0
        self.accessory_bytes = 0
        # Kernel objects by request count.  They enter a bucket only at their own
        # requests, in time order, so each bucket is in last-request order.
        self._kernel: dict[int, OrderedDict[Hashable, None]] = {}
        self._kernel_counts: list[int] = []  # sorted counts of non-empty buckets
        # Lazy min-heap of ghosts, revalidated on pop.  Ghosts enter in eviction
        # order but leave by last request, so a FIFO queue would drop wrong ones.
        self._ghost_heap: list[tuple[float, int, Hashable]] = []
        self._seq = 0
        # Running mean object size, for the auto managing bound.
        self._size_sum = 0
        self._size_n = 0

    def _managing_bound(self) -> int:
        if self.managing_capacity is not None:
            return self.managing_capacity
        if not self.byte_accounting:
            return 10 * self.capacity
        mean = self._size_sum / self._size_n if self._size_n else 1.0
        return max(100, int(10 * self.capacity / max(mean, 1.0)))

    def _push_ghost(self, obj: Hashable, stats: _Stats):
        self._seq += 1
        heapq.heappush(self._ghost_heap, (stats.last_request, self._seq, obj))

    def _kernel_add(self, obj: Hashable, count: int):
        bucket = self._kernel.get(count)
        if bucket is None:
            bucket = self._kernel[count] = OrderedDict()
            insort(self._kernel_counts, count)
        bucket[obj] = None

    def _kernel_remove(self, obj: Hashable, count: int):
        bucket = self._kernel[count]
        del bucket[obj]
        if not bucket:
            del self._kernel[count]
            del self._kernel_counts[bisect_left(self._kernel_counts, count)]

    def _end_residency(self, obj: Hashable, stats: _Stats, now: float):
        self._log_eviction(obj, stats, now)
        stats.resident = False
        stats.in_kernel = False
        self._push_ghost(obj, stats)

    def _evict_kernel_over_capacity(self, now: float):
        while self.kernel_bytes > self.kernel_capacity:
            count = self._kernel_counts[0]
            bucket = self._kernel[count]
            obj, _ = bucket.popitem(last=False)
            if not bucket:
                del self._kernel[count]
                del self._kernel_counts[0]
            stats = self.managing[obj]
            self.kernel_bytes -= self._charge(stats.size)
            self._end_residency(obj, stats, now)

    def _insert_kernel(self, obj: Hashable, stats: _Stats, now: float) -> bool:
        """Place an object (residency fields already set) into the kernel.

        False if it cannot fit even an empty kernel.  An object that is itself
        the minimum leaves again at once; that zero-length residency is logged.
        """
        charge = self._charge(stats.size)
        if charge > self.kernel_capacity:
            return False
        stats.resident = True
        stats.in_kernel = True
        self.kernel_bytes += charge
        self._kernel_add(obj, stats.count)
        self._evict_kernel_over_capacity(now)
        return True

    def _insert_accessory(self, obj: Hashable, stats: _Stats, now: float) -> bool:
        charge = self._charge(stats.size)
        if charge > self.accessory_capacity:
            return False
        stats.resident = True
        stats.in_kernel = False
        stats.residency_start = now
        self.accessory[obj] = None
        self.accessory_bytes += charge
        # FIFO overflow; the newcomer sits at the tail and cannot evict itself
        # because its charge alone fits the capacity checked above.
        while self.accessory_bytes > self.accessory_capacity:
            victim_id, _ = self.accessory.popitem(last=False)
            victim = self.managing[victim_id]
            self.accessory_bytes -= self._charge(victim.size)
            self._end_residency(victim_id, victim, now)
        return True

    def _enforce_managing_bound(self):
        bound = self._managing_bound()
        while len(self.managing) > bound and self._ghost_heap:
            last, _, obj = heapq.heappop(self._ghost_heap)
            stats = self.managing.get(obj)
            if stats is None or stats.resident or stats.last_request != last:
                continue
            del self.managing[obj]
        # All remaining entries may be resident; those are never dropped.

    def access(self, obj: Hashable, now: float, size: int, fresh_fn) -> str:
        stats = self.managing.get(obj)

        if stats is None:
            # Admission: first request ever seen for this object.
            stats = _Stats(now, size)
            self.managing[obj] = stats
            self._size_sum += self._charge(size)
            self._size_n += 1
            if not self._insert_accessory(obj, stats, now):
                self._bypass(obj)
                self._push_ghost(obj, stats)
            self._enforce_managing_bound()
            return MISS

        stats.count += 1
        stats.last_request = now

        if stats.resident:
            fresh = fresh_fn(obj, stats.last_fetch, now)
            if not fresh:
                stats.last_fetch = now
            if stats.in_kernel:
                self._kernel_remove(obj, stats.count - 1)
                self._kernel_add(obj, stats.count)
            else:
                # Promotion: a repeat request moves it from accessory to the
                # kernel; residency_start is kept, so residence spans both parts.
                del self.accessory[obj]
                self.accessory_bytes -= self._charge(stats.size)
                if not self._insert_kernel(obj, stats, now):
                    self._bypass(obj)
                    self._end_residency(obj, stats, now)
            return HIT if fresh else STALE_MISS

        # Returning ghost: statistics survived eviction, so the refetched
        # copy goes straight into the kernel.
        stats.last_fetch = now
        stats.residency_start = now
        if not self._insert_kernel(obj, stats, now):
            self._bypass(obj)
            self._push_ghost(obj, stats)
        return MISS

    def occupancy(self, now: float) -> OccupancySample:
        return OccupancySample(now, self.kernel_bytes, self.accessory_bytes, len(self.managing))

    def check_invariants(self):
        assert self.kernel_bytes <= self.kernel_capacity, "kernel over capacity"
        assert self.accessory_bytes <= self.accessory_capacity, "accessory over capacity"
        k_bytes = a_bytes = 0
        for obj, stats in self.managing.items():
            if not stats.resident:
                continue
            if stats.in_kernel:
                assert stats.count >= 2, f"kernel object {obj} with count {stats.count}"
                k_bytes += self._charge(stats.size)
            else:
                assert obj in self.accessory
                assert stats.count == 1, f"accessory object {obj} with count {stats.count}"
                a_bytes += self._charge(stats.size)
        assert k_bytes == self.kernel_bytes and a_bytes == self.accessory_bytes
        for obj in self.accessory:
            assert self.managing[obj].resident and not self.managing[obj].in_kernel
        kernel = {o: st.count for o, st in self.managing.items() if st.resident and st.in_kernel}
        assert all(self._kernel.values()), "empty kernel bucket"
        assert sum(map(len, self._kernel.values())) == len(kernel), "kernel object in two buckets"
        assert {o: c for c, b in self._kernel.items() for o in b} == kernel, "kernel buckets"
        assert self._kernel_counts == sorted(self._kernel), "kernel count list"


class CacheSim:
    """Single-event simulator front end.

    ``process`` applies one record and returns the event outcome (HIT, MISS,
    STALE_MISS or UNCACHEABLE); ``result`` finalizes counters into a
    SimulationResult.  Feeding events one by one is exactly equivalent to
    ``simulate`` over the same stream.  Object keys are opaque to the
    simulator: whatever ``process`` (or ``simulate``, with int codes) passes
    in is what the change log is keyed by and what the eviction log holds.
    """

    def __init__(
        self, config: CacheConfig, changes: dict[Hashable, Sequence[float]] | None = None
    ):
        self.config = config
        self._changes = changes or {}
        self._counts: dict[Hashable, int] = {}
        engine = _LruEngine if config.policy is Policy.LRU else _ZipfEngine
        self._engine = engine(config, self._counts)
        self._result = SimulationResult(
            policy=config.policy,
            capacity_bytes=config.capacity_bytes,
            byte_accounting=config.byte_accounting,
        )
        self._events = 0
        self._last_ts: float | None = None
        self._finalized = False

    def _fresh(self, obj: Hashable, last_fetch: float, now: float) -> bool:
        times = self._changes.get(obj)
        if not times:
            return True
        i = bisect_right(times, now)
        return i == 0 or times[i - 1] <= last_fetch

    def process(self, rec: TraceRecord) -> str:
        return self._step(rec.timestamp, rec.object_id, rec.size_bytes, rec.cacheable)

    def _step(self, now: float, obj: Hashable, size: int, cacheable: bool) -> str:
        """Apply one request; the per-event body of process and simulate."""
        last = self._last_ts
        if last is None:
            self._result.start_ts = now
        elif now < last:
            raise ValueError(f"records out of order: {now} after {last}")
        self._last_ts = now

        r = self._result
        r.requests += 1
        r.total_bytes += size
        if not cacheable:
            r.uncacheable += 1
            r.origin_bytes += size
            outcome = UNCACHEABLE
        else:
            self._counts[obj] = self._counts.get(obj, 0) + 1
            outcome = self._engine.access(obj, now, size, self._fresh)
            if outcome == HIT:
                r.hits += 1
                r.hit_bytes += size
            elif outcome == STALE_MISS:
                r.stale_misses += 1
                r.origin_bytes += size
            else:
                r.misses += 1
                r.origin_bytes += size

        self._events += 1
        if self._events % self.config.occupancy_stride == 0:
            r.occupancy.append(self._engine.occupancy(now))
        return outcome

    def check_invariants(self):
        self._engine.check_invariants()

    def result(self) -> SimulationResult:
        r = self._result
        if self._last_ts is not None:
            r.end_ts = self._last_ts
        if not self._finalized:
            self._finalized = True
            if self._events % self.config.occupancy_stride != 0 and self._last_ts is not None:
                r.occupancy.append(self._engine.occupancy(self._last_ts))
        r.evictions = list(self._engine.evictions)
        r.bypassed = self._engine.bypass_events
        r.bypassed_objects = frozenset(self._engine.bypassed)
        return r


# simulate turns this many requests at a time into Python lists, so the
# lists stay small: less memory, and the garbage collector's full passes
# do not walk one list entry per request of the whole trace.
_REPLAY_BLOCK = 1 << 16


def simulate(
    records: Iterable[TraceRecord],
    config: CacheConfig,
    changes: dict[str, Sequence[float]] | None = None,
) -> SimulationResult:
    """Run one configuration over a time-ordered record stream.

    The records (a Trace, or any record iterable, converted once) are fed
    as int object codes; the change log is re-keyed to codes up front, and
    the eviction log and bypassed objects are mapped back to ids.
    """
    trace = Trace.from_records(records)
    ids = trace.object_ids
    code_of = {obj: code for code, obj in enumerate(ids)}
    sim = CacheSim(
        config,
        {code_of[obj]: times for obj, times in (changes or {}).items() if obj in code_of},
    )
    # deque(maxlen=0) drains the map without a Python-level loop.
    for start in range(0, len(trace), _REPLAY_BLOCK):
        block = trace[start : start + _REPLAY_BLOCK]
        deque(
            map(
                sim._step,
                block.timestamps.tolist(),
                block.objects.tolist(),
                block.sizes.tolist(),
                block.cacheable.tolist(),
            ),
            maxlen=0,
        )
    result = sim.result()
    result.evictions = [
        Eviction(ids[obj], insert_ts, evict_ts, count)
        for obj, insert_ts, evict_ts, count in result.evictions
    ]
    result.bypassed_objects = frozenset(ids[obj] for obj in result.bypassed_objects)
    return result


def compare_policies(
    records: Iterable[TraceRecord],
    configs: Sequence[CacheConfig],
    changes: dict[str, Sequence[float]] | None = None,
) -> list[SimulationResult]:
    """Simulate several configurations, in config order, over the identical record stream."""
    if not configs:
        raise ValueError("need at least one configuration")
    trace = Trace.from_records(records)
    return [simulate(trace, cfg, changes) for cfg in configs]
