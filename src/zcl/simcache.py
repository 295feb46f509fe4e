"""Trace-driven cache simulator.

Two replacement policies:

* LRU: the classic single-list baseline.
* ZIPF_CONSTRUCTION: capacity is split into a kernel for objects requested
  at least twice and an accessory part for objects seen once, plus a
  managing part that keeps per-object request statistics even after
  eviction.  A returning object whose statistics survived goes straight
  back into the kernel; that ghost memory is what distinguishes the
  construction from policies that only know the currently resident set.
  The kernel's victims and the ghosts to drop come from lazy min-heaps
  holding at most one entry per object, refreshed when it reaches the top,
  so a kernel hit only updates its object's statistics and the heaps grow
  with the objects, not with the evictions.

Renewal is modeled through an optional change log: a request for a resident
object whose content changed since it was last fetched counts as a miss
(an updating request) and refreshes the copy in place, without eviction.
The fetch time is not stored: a resident copy was fetched at its object's
previous request, or no change has fallen since then (that request was a
hit), so a change since the fetch is one since the previous request.
A stale request still advances the object's request count, so on an
accessory object it triggers the usual promotion to the kernel.

Capacity is accounted in bytes by default; with byte_accounting off every
object charges exactly 1, which is the objects-mode used when comparing
against size-free analytical results.

An engine per policy holds only the policy state: the cache parts, the
per-object statistics, the change log, a count of evictions and a count of
bypasses (requests whose object could not be placed).  Objects are dense int
codes, and the statistics are array columns indexed by code, so an entry
costs a few machine words and no Python object.  The engine keeps no
eviction log: with an optional sink attached, it hands each eviction, as
one Eviction, to the sink when it happens.  So the one reader of the
evictions (the `--evictions-out` writer, the lifetime fold of `zcl
analyze`, or a list's append) sees them in order, and the simulator's
memory does not depend on who reads them.  Its access(obj, now, charge)
applies one cacheable request; the front end that drives it resolves the
charge, the size or 1, so no engine knows the accounting mode.  One front
end drives it: a CacheSim applies a trace block (trace.Block) at a time,
using its object codes as they are.  numpy does the per-event bookkeeping
(the order check, request and byte totals, uncacheable requests, the
occupancy sample points), and Python calls access once per cacheable
request and nothing else.  replay runs a stream of blocks through every
configuration in lockstep, one CacheSim each; CacheSim.process applies one
TraceRecord as a block of one row, coding its object keys as they arrive.
simulate replays a whole Trace in the blocks of Trace.blocks; `zcl
simulate` and `zcl analyze` replay the blocks of trace.read_blocks as they
are parsed, so they never hold the whole trace.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .trace import SECONDS_PER_DAY, Block, Trace, TraceRecord

__all__ = [
    "Policy",
    "CacheConfig",
    "Eviction",
    "OccupancySample",
    "SimulationResult",
    "CacheSim",
    "simulate",
    "replay",
    "HIT",
    "MISS",
    "STALE_MISS",
    "UNCACHEABLE",
]

# Outcomes of a single event.
HIT = "hit"
MISS = "miss"
STALE_MISS = "stale_miss"
UNCACHEABLE = "uncacheable"

# What an engine access returns, as small ints that numpy tallies per block.
_HIT, _STALE_MISS, _MISS = 0, 1, 2
_OUTCOMES = (HIT, STALE_MISS, MISS)


class Policy(Enum):
    LRU = "lru"
    ZIPF_CONSTRUCTION = "zipf_construction"


@dataclass(frozen=True)
class CacheConfig:
    """Simulator knobs.

    kernel_fraction splits cacheable capacity between kernel and accessory
    (ZIPF_CONSTRUCTION only; the managing part consumes no object capacity).
    managing_capacity bounds retained statistics entries; None means 10x the
    number of objects that fit the cache: 10x capacity in objects mode, and
    in byte mode estimated from the mean charge of the entries made so far
    (an object whose entry was dropped counts again when it returns), floor
    100.  occupancy_stride controls how often the per-part occupancy series
    is sampled, in events.
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
    count: int  # requests since the cache last made the object's entry

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
    """One configuration's counts; misses and origin_bytes (bytes not served
    as hits) derive from them.  start_ts and end_ts: first and last timestamp."""

    policy: Policy
    capacity_bytes: int
    byte_accounting: bool
    requests: int = 0
    hits: int = 0
    stale_misses: int = 0
    uncacheable: int = 0
    bypassed: int = 0
    hit_bytes: int = 0
    total_bytes: int = 0
    start_ts: float = 0.0
    end_ts: float = 0.0
    evictions: int = 0
    occupancy: list[OccupancySample] = field(default_factory=list)

    @property
    def cacheable_requests(self) -> int:
        return self.requests - self.uncacheable

    @property
    def misses(self) -> int:
        return self.cacheable_requests - self.hits - self.stale_misses

    @property
    def origin_bytes(self) -> int:
        return self.total_bytes - self.hit_bytes

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


EvictionSink = Callable[[Eviction], object]

# The part of the construction an entry's object is in.
_GHOST, _ACCESSORY, _KERNEL = 0, 1, 2


class _Engine:
    """What both policies share: the per-object columns, freshness, the
    bypass count and the eviction count.

    Objects are dense int codes, and each engine keeps its per-object state
    in array columns indexed by code, grown with grow(n) as codes are handed
    out: count, the requests since the object's entry was made (0 when it
    has none), charge, and last_request and residency_start (timestamps).
    Under LRU an entry lives for one residency; under the construction it
    lives until the managing part drops it.  changes is the change log keyed
    by code, and ids the id of each code, held only when a sink is attached;
    CacheSim fills both as its blocks bring new ids.

    access(obj, now, charge) applies one cacheable request that takes charge
    units of capacity and returns _HIT, _STALE_MISS or _MISS.  Each eviction
    is counted and, when a sink is attached, handed to it as one Eviction,
    built when it happens and named ids[obj].
    """

    def __init__(self, config: CacheConfig, sink: EvictionSink | None):
        self.capacity = config.capacity_bytes
        self.changes: dict[int, Sequence[float]] = {}  # empty when there is no change log
        self.ids: list[Hashable] = []  # held only with a sink
        self.sink = sink
        self.evictions = 0
        self.bypassed = 0
        self.count = array("q")
        self.charge = array("q")
        self.last_request = array("d")
        self.residency_start = array("d")

    def grow(self, n: int):
        """Add the columns' rows for n more codes, with no entries."""
        zeros = bytes(8 * n)
        for column in (self.count, self.charge, self.last_request, self.residency_start):
            column.frombytes(zeros)

    def _refetch(self, obj: int, now: float) -> bool:
        """Whether resident obj's copy changed since its fetch: a change in
        (last_request, now], read before last_request moves to now."""
        times = self.changes.get(obj)
        if not times:
            return False
        i = bisect_right(times, now)
        return i > 0 and times[i - 1] > self.last_request[obj]

    def _make_entry(self, obj: int, now: float, charge: int):
        self.count[obj] = 1
        self.charge[obj] = charge
        self.last_request[obj] = self.residency_start[obj] = now

    def _log_eviction(self, obj: int, now: float):
        self.evictions += 1
        if self.sink is not None:
            self.sink(Eviction(self.ids[obj], self.residency_start[obj], now, self.count[obj]))


class _LruEngine(_Engine):
    def __init__(self, config: CacheConfig, sink: EvictionSink | None):
        super().__init__(config, sink)
        self.entries: OrderedDict[int, None] = OrderedDict()  # the resident objects
        self.used = 0

    def access(self, obj: int, now: float, charge: int) -> int:
        count = self.count
        n = count[obj]
        if n:
            count[obj] = n + 1
            self.entries.move_to_end(obj)
            outcome = _STALE_MISS if self.changes and self._refetch(obj, now) else _HIT
            self.last_request[obj] = now
            return outcome
        if charge > self.capacity:
            self.bypassed += 1
            return _MISS
        self._make_entry(obj, now, charge)
        self.entries[obj] = None
        self.used += charge
        while self.used > self.capacity:
            victim, _ = self.entries.popitem(last=False)
            self.used -= self.charge[victim]
            self._log_eviction(victim, now)
            count[victim] = 0
        return _MISS

    def occupancy(self, now: float) -> OccupancySample:
        return OccupancySample(now, self.used, 0, 0)

    def check_invariants(self):
        assert self.used <= self.capacity, "LRU over capacity"
        assert self.used == sum(self.charge[o] for o in self.entries)
        assert {o for o, n in enumerate(self.count) if n} == self.entries.keys(), "LRU entries"


class _ZipfEngine(_Engine):
    """The paper's construction: a kernel, an accessory and a managing part.

    The policy, which tests/naive_construction.py restates with plain scans:
    - An entry counts its object's requests since it was made; its charge is
      fixed then.  A request with no entry makes one, in the accessory FIFO.
    - A request for a resident object is a hit, or a stale miss, refetched in
      place, if the change log changed it since its fetch.  In the accessory,
      it promotes the object to the kernel, and the residency goes on.
    - A request for a ghost, an entry whose object is not resident, refetches
      it straight into the kernel as a new residency.
    - The kernel evicts the lowest count, ties by the oldest last request in
      order of arrival; the accessory evicts its head.  Evicted objects become
      ghosts.  A newcomer that is the kernel's minimum leaves at once, and
      that residency (of zero length for a ghost) is logged.
    - An object bigger than the part it would enter is bypassed: a newcomer
      or a ghost stays a ghost, and a promoted object is evicted.
    - After each new entry, while the entries exceed the managing bound, the
      ghost with the oldest last request is dropped, ties at one timestamp by
      the order in which they last became ghosts.

    Besides the shared columns each object has a tick, the engine's clock at
    its last repeat request or on becoming a ghost; its part (_GHOST,
    _ACCESSORY or _KERNEL) and queued, whether it has a ghost heap entry, in
    bytearrays.  managing counts the entries.  An object's heap keys only
    grow while its entry lives, so each lazy heap holds at most one entry per
    object, never ahead of its key, and puts an out-of-date top back under
    its current key: a current top is the true minimum.
    """

    def __init__(self, config: CacheConfig, sink: EvictionSink | None):
        super().__init__(config, sink)
        self.kernel_capacity = int(config.capacity_bytes * config.kernel_fraction)
        self.accessory_capacity = config.capacity_bytes - self.kernel_capacity
        self.tick = array("q")
        self.part = bytearray()
        self.queued = bytearray()
        self.managing = 0
        self.accessory: OrderedDict[int, None] = OrderedDict()
        self.kernel_bytes = 0
        self.accessory_bytes = 0
        self._tick = 0  # repeat requests and new ghosts so far
        # Lazy min-heaps, checked at the top: a (count, tick, obj) per kernel
        # object and a (last_request, tick, obj) per queued object.
        self._kernel_heap: list[tuple[int, int, int]] = []
        self._ghost_heap: list[tuple[float, int, int]] = []
        # The managing bound when it does not follow the mean charge: the
        # configured one, or in objects mode 10x the objects that fit.
        self._fixed_bound = config.managing_capacity
        if self._fixed_bound is None and not config.byte_accounting:
            self._fixed_bound = 10 * self.capacity
        # Running mean charge, for the bound that is not fixed.
        self._charge_sum = 0
        self._charge_n = 0

    def grow(self, n: int):
        super().grow(n)
        self.tick.frombytes(bytes(8 * n))
        self.part += bytes(n)
        self.queued += bytes(n)

    def _managing_bound(self) -> int:
        """Bound on managing entries, read after an admission."""
        if self._fixed_bound is not None:
            return self._fixed_bound
        mean = self._charge_sum / self._charge_n
        return max(100, int(10 * self.capacity / max(mean, 1.0)))

    def _to_ghost(self, obj: int):
        self.part[obj] = _GHOST
        self._tick = self.tick[obj] = self._tick + 1
        if not self.queued[obj]:
            self.queued[obj] = 1
            heapq.heappush(self._ghost_heap, (self.last_request[obj], self._tick, obj))

    def _evict(self, obj: int, now: float):
        self._log_eviction(obj, now)
        self._to_ghost(obj)

    def _bypass(self, obj: int, now: float):
        """An object too big for the part it would enter: a resident one (a
        failed promotion) is evicted, a newcomer or a ghost stays a ghost."""
        self.bypassed += 1
        if self.part[obj] != _GHOST:
            self._evict(obj, now)
        else:
            self._to_ghost(obj)

    def _insert_kernel(self, obj: int, now: float):
        """Place an object (residency columns already set) into the kernel, or
        bypass it; then evict the kernel's minimum while it is over capacity."""
        charge = self.charge[obj]
        if charge > self.kernel_capacity:
            self._bypass(obj, now)
            return
        self.part[obj] = _KERNEL
        self.kernel_bytes += charge
        heap, count, tick = self._kernel_heap, self.count, self.tick
        heapq.heappush(heap, (count[obj], tick[obj], obj))
        # Keys only grow, so a current entry at the top is the true minimum.
        while self.kernel_bytes > self.kernel_capacity:
            _, t, victim = heap[0]
            if tick[victim] != t:  # out of date: back in under its current key
                heapq.heapreplace(heap, (count[victim], tick[victim], victim))
            else:
                heapq.heappop(heap)
                self.kernel_bytes -= self.charge[victim]
                self._evict(victim, now)

    def _insert_accessory(self, obj: int, now: float):
        """Place a newcomer into the accessory, or bypass it; then evict the
        accessory's head while it is over capacity."""
        charge = self.charge[obj]
        if charge > self.accessory_capacity:
            self._bypass(obj, now)
            return
        self.part[obj] = _ACCESSORY
        self.accessory[obj] = None
        self.accessory_bytes += charge
        # FIFO overflow; the newcomer sits at the tail and cannot evict itself
        # because its charge alone fits the capacity checked above.
        while self.accessory_bytes > self.accessory_capacity:
            victim, _ = self.accessory.popitem(last=False)
            self.accessory_bytes -= self.charge[victim]
            self._evict(victim, now)

    def _enforce_managing_bound(self):
        bound = self._managing_bound()
        heap, tick = self._ghost_heap, self.tick
        while self.managing > bound and heap:
            _, t, obj = heap[0]
            if self.part[obj]:  # resident: queued again when it next becomes a ghost
                heapq.heappop(heap)
                self.queued[obj] = 0
            elif tick[obj] != t:  # a ghost again since: back in under its current key
                heapq.heapreplace(heap, (self.last_request[obj], tick[obj], obj))
            else:  # the oldest ghost
                heapq.heappop(heap)
                self.queued[obj] = self.count[obj] = 0
                self.managing -= 1
        # All remaining entries may be resident; those are never dropped.

    def access(self, obj: int, now: float, charge: int) -> int:
        count = self.count
        n = count[obj] + 1

        if n == 1:
            # Admission: first request ever seen for this object, or the
            # first since its entry was dropped.
            self._make_entry(obj, now, charge)
            self.tick[obj] = 0
            self.part[obj] = _GHOST
            self.managing += 1
            self._charge_sum += charge
            self._charge_n += 1
            self._insert_accessory(obj, now)
            self._enforce_managing_bound()
            return _MISS

        count[obj] = n
        self._tick = self.tick[obj] = self._tick + 1

        part = self.part[obj]
        if part:  # resident
            outcome = _STALE_MISS if self.changes and self._refetch(obj, now) else _HIT
            self.last_request[obj] = now
            if part == _ACCESSORY:
                # Promotion: a repeat request moves it from accessory to the
                # kernel; residency_start is kept, so residence spans both parts.
                del self.accessory[obj]
                self.accessory_bytes -= self.charge[obj]
                self._insert_kernel(obj, now)
            return outcome

        # Returning ghost: statistics survived eviction, so the refetched
        # copy goes straight into the kernel.
        self.last_request[obj] = self.residency_start[obj] = now
        self._insert_kernel(obj, now)
        return _MISS

    def occupancy(self, now: float) -> OccupancySample:
        return OccupancySample(now, self.kernel_bytes, self.accessory_bytes, self.managing)

    def check_invariants(self):
        assert self.kernel_bytes <= self.kernel_capacity, "kernel over capacity"
        assert self.accessory_bytes <= self.accessory_capacity, "accessory over capacity"
        count, tick, part, charge = self.count, self.tick, self.part, self.charge
        entries = [o for o, n in enumerate(count) if n]
        assert len(entries) == self.managing, "managing count"
        members = {p: [o for o in entries if part[o] == p] for p in (_GHOST, _ACCESSORY, _KERNEL)}
        assert members[_ACCESSORY] == sorted(self.accessory), "accessory members"
        assert all(count[o] == 1 for o in members[_ACCESSORY]), "accessory count above 1"
        assert all(count[o] >= 2 for o in members[_KERNEL]), "kernel count below 2"
        assert self.kernel_bytes == sum(charge[o] for o in members[_KERNEL])
        assert self.accessory_bytes == sum(charge[o] for o in members[_ACCESSORY])
        kernel = {o: (count[o], tick[o]) for o in members[_KERNEL]}
        keys = {obj: (n, t) for n, t, obj in self._kernel_heap}
        assert len(keys) == len(self._kernel_heap) and keys.keys() == kernel.keys(), "kernel heap"
        assert all(keys[o] <= key for o, key in kernel.items()), "kernel entry ahead"
        ghosts = {o: (self.last_request[o], tick[o]) for o in members[_GHOST]}
        queued = {obj: (r, t) for r, t, obj in self._ghost_heap}
        assert len(queued) == len(self._ghost_heap) and queued.keys() >= ghosts.keys(), "ghost heap"
        assert queued.keys() == {o for o, q in enumerate(self.queued) if q} <= set(entries), "queued"
        assert all(queued[o] <= key for o, key in ghosts.items()), "ghost entry ahead"


def _sum(values: np.ndarray) -> int:
    """Exact sum of an int64 column.

    numpy's int64 sum wraps modulo 2**64, so it is exact whenever the true
    sum fits int64, which the float64 sum tells; otherwise sum Python ints.
    """
    if abs(float(values.sum(dtype=np.float64))) < 2.0**62:
        return int(values.sum())
    return sum(values.tolist())


class CacheSim:
    """One configuration's replay, a block at a time.

    replay applies each trace block through _replay; ``process`` applies one
    record as a block of one row and returns the event outcome (HIT, MISS,
    STALE_MISS or UNCACHEABLE).  ``result`` returns the counts so far as a
    SimulationResult, so feeding records one by one gives exactly the result
    ``simulate`` gives over the same stream.  changes is the change log by
    the caller's ids: as a block's new ids take their codes, their change
    times are keyed to the codes.  sink, if given, is called with each
    Eviction as it happens, named by the caller's id, and only then is an
    id table held.  Object keys are opaque to process: it codes each
    record's key when it first arrives.  A size outside int64 raises
    OverflowError, and a timestamp that is not finite or a size below 1
    ValueError, as Trace.from_records does, before the record changes
    anything.
    """

    def __init__(
        self,
        config: CacheConfig,
        changes: dict[Hashable, Sequence[float]] | None = None,
        sink: EvictionSink | None = None,
    ):
        self.config = config
        self._changes = {} if changes is None else changes  # by the caller's keys
        self._codes: dict[Hashable, int] = {}  # process's keys, by first arrival
        engine = _LruEngine if config.policy is Policy.LRU else _ZipfEngine
        # The engine's change log by code and its id table grow as blocks bring ids.
        self._engine = engine(config, sink)
        # Its end_ts is the last timestamp seen; requests == 0 means none yet.
        self._result = SimulationResult(
            policy=config.policy,
            capacity_bytes=config.capacity_bytes,
            byte_accounting=config.byte_accounting,
        )

    def process(self, rec: TraceRecord) -> str:
        """Apply one record, as a block of one row, and return its outcome."""
        key, size = rec.object_id, rec.size_bytes
        if not -(2**63) <= size < 2**63:
            raise OverflowError(f"size {size} of {key!r} out of int64 range")
        if not (math.isfinite(rec.timestamp) and size >= 1):
            raise ValueError(f"{key!r}: timestamp {rec.timestamp} is not finite or size {size} "
                             "is below 1")
        new = () if key in self._codes else (key,)
        code = self._codes.get(key, len(self._codes))
        block = Block(
            np.array([rec.timestamp], dtype=np.float64), np.array([code]), np.zeros(1, np.int32),
            np.array([size], dtype=np.int64), np.array([rec.cacheable], dtype=bool), None, new, (),
        )
        outcomes = self._replay(block)
        if new:
            self._codes[key] = code
        return _OUTCOMES[outcomes[0]] if rec.cacheable else UNCACHEABLE

    def _replay(self, block: Block) -> np.ndarray:
        """Apply a block of requests and return the outcomes of its cacheable ones.

        The block's new ids take the next codes: the engine's columns grow
        by as many rows, the change log is re-keyed to them and, with a
        sink, they join the id table.  Each cacheable request is charged its
        size, or 1 in objects mode.  numpy does the per-event bookkeeping
        (order check, totals, the uncacheable requests); Python runs only the
        engine, once per cacheable request, pausing at each occupancy sample
        point.  An out-of-order block raises before it changes anything.
        """
        times = block.timestamps
        r, engine = self._result, self._engine
        pairs = np.concatenate(([r.end_ts] if r.requests else times[:1], times))
        back = np.flatnonzero(pairs[1:] < pairs[:-1])
        if len(back):
            i = back[0]
            raise ValueError(f"records out of order: {float(pairs[i + 1])} after {float(pairs[i])}")

        new = block.new_object_ids
        if self._changes:
            for code, obj in enumerate(new, len(engine.count)):
                if obj in self._changes:
                    engine.changes[code] = self._changes[obj]
        if engine.sink is not None:
            engine.ids += new
        engine.grow(len(new))

        n = len(times)
        cacheable = np.flatnonzero(block.cacheable)
        outcomes = np.empty(len(cacheable), dtype=np.int8)
        if not n:
            return outcomes
        sizes = block.sizes
        c_sizes = sizes[cacheable]
        charges = c_sizes.tolist() if self.config.byte_accounting else repeat(1)
        # Samples fall after every occupancy_stride-th event, uncacheable ones
        # included; each becomes a cut in the cacheable sub-stream.
        stride = self.config.occupancy_stride
        samples = np.arange((-r.requests - 1) % stride, n, stride)
        cuts = np.searchsorted(cacheable, samples, side="right")
        accesses = map(
            engine.access, block.objects[cacheable].tolist(), times[cacheable].tolist(), charges
        )
        occupancy = engine.occupancy
        done = 0
        for cut, now in zip(cuts.tolist(), times[samples].tolist()):
            outcomes[done:cut] = np.fromiter(accesses, np.int8, cut - done)
            r.occupancy.append(occupancy(now))
            done = cut
        outcomes[done:] = np.fromiter(accesses, np.int8, len(outcomes) - done)

        hits, stale, _ = np.bincount(outcomes, minlength=3).tolist()
        if not r.requests:
            r.start_ts = float(times[0])
        r.requests += n
        r.total_bytes += _sum(sizes)
        r.uncacheable += n - len(cacheable)
        r.hits += hits
        r.stale_misses += stale
        r.hit_bytes += _sum(c_sizes[outcomes == _HIT])
        r.end_ts = float(times[-1])
        return outcomes

    def check_invariants(self):
        self._engine.check_invariants()

    def result(self) -> SimulationResult:
        """A copy of the counts so far with the engine's, plus a tail occupancy
        sample unless the last event was a sample point."""
        r, engine = self._result, self._engine
        tail = [engine.occupancy(r.end_ts)] if r.requests % self.config.occupancy_stride else []
        return replace(
            r, occupancy=r.occupancy + tail, evictions=engine.evictions, bypassed=engine.bypassed
        )


def replay(
    blocks: Iterable[Block],
    configs: Sequence[CacheConfig],
    changes: dict[str, Sequence[float]] | None = None,
    sinks: Sequence[EvictionSink | None] | None = None,
) -> list[SimulationResult]:
    """Run several configurations, in config order, over one stream of trace blocks.

    Each block is replayed through every configuration's CacheSim before the
    next is taken.  sinks, if given, holds one eviction sink (or None) per
    configuration; with no sink a CacheSim holds no id.
    """
    if not configs:
        raise ValueError("need at least one configuration")
    if sinks is None:
        sinks = [None] * len(configs)
    elif len(sinks) != len(configs):
        raise ValueError(f"{len(sinks)} eviction sinks for {len(configs)} configurations")
    sims = [CacheSim(config, changes, sink) for config, sink in zip(configs, sinks)]
    for block in blocks:
        for sim in sims:
            sim._replay(block)
    return [sim.result() for sim in sims]


def simulate(
    records: Iterable[TraceRecord],
    config: CacheConfig,
    changes: dict[str, Sequence[float]] | None = None,
) -> SimulationResult:
    """Run one configuration over a time-ordered record stream.

    The records (a Trace, or any record iterable, converted once) are
    replayed in the blocks of Trace.blocks; see replay.
    """
    return replay(Trace.from_records(records).blocks(), [config], changes)[0]
