"""Naive restatements of the simulator, for differential tests.

NaiveConstruction follows the construction policy as the
simcache._ZipfEngine docstring states it, with plain dicts and a linear scan
for every victim: no heaps or lazy entries.  One clock orders everything:
it ticks at each request, at each placement in a part and whenever an
object becomes a ghost.  NaiveLru keeps its resident objects in a plain list
in recency order.  Tally counts, one record at a time, what a
SimulationResult reports, with either reference deciding each outcome.
All three are slow on purpose and meant for traces of a few hundred
requests.
"""

from zcl.simcache import HIT, MISS, STALE_MISS, UNCACHEABLE, Eviction, OccupancySample

KERNEL, ACCESSORY, GHOST = "kernel", "accessory", "ghost"


class _Entry:
    def __init__(self, charge):
        self.count = 1  # requests since the entry was made
        self.charge = charge  # fixed when the entry is made
        self.part = GHOST
        self.start = self.fetched = self.last_time = None  # timestamps
        self.last_request = self.placed = 0  # clock readings: placed in a part or as a ghost


def changed(changes, obj, fetched, now):
    """Whether the change log changed obj after its fetch and by now."""
    return any(fetched < t <= now for t in changes.get(obj, ()))


class NaiveConstruction:
    def __init__(self, config, changes=None):
        self.config = config
        kernel = int(config.capacity_bytes * config.kernel_fraction)
        self.capacities = {KERNEL: kernel, ACCESSORY: config.capacity_bytes - kernel}
        self.changes = changes or {}
        self.entries = {}
        self.admitted = []  # the charge of every entry made
        self.clock = 0
        self.evictions = []
        self.evicted_from = []  # the part of each eviction; a failed promotion's is the kernel
        self.bypassed = 0

    def tick(self):
        self.clock += 1
        return self.clock

    def bound(self):
        c = self.config
        if c.managing_capacity is not None:
            return c.managing_capacity
        if not c.byte_accounting:
            return 10 * c.capacity_bytes
        mean = sum(self.admitted) / len(self.admitted)
        return max(100, int(10 * c.capacity_bytes / max(mean, 1.0)))

    def members(self, part):
        return [o for o, e in self.entries.items() if e.part == part]

    def evict(self, obj, part, now):
        e = self.entries[obj]
        self.evictions.append(Eviction(obj, e.start, now, e.count))
        self.evicted_from.append(part)
        self.to_ghost(e)

    def to_ghost(self, e):
        e.part = GHOST
        e.placed = self.tick()

    def place(self, obj, part, now):
        """Put obj into part, or bypass it; then evict from part while it is over capacity."""
        e = self.entries[obj]
        if e.charge > self.capacities[part]:
            self.bypassed += 1
            if e.part == GHOST:
                self.to_ghost(e)
            else:  # a promotion ends the residency
                self.evict(obj, part, now)
            return
        e.part = part
        e.placed = self.tick()
        while sum(self.entries[o].charge for o in self.members(part)) > self.capacities[part]:
            self.evict(min(self.members(part), key=lambda o: self.order(part, o)), part, now)

    def order(self, part, obj):
        """Victim order: the accessory is first in, first out; the kernel takes
        the lowest count, then the oldest last request."""
        e = self.entries[obj]
        return e.placed if part == ACCESSORY else (e.count, e.last_request)

    def enforce_bound(self):
        bound = self.bound()
        while len(self.entries) > bound and self.members(GHOST):
            victim = min(self.members(GHOST), key=lambda o: (self.entries[o].last_time,
                                                             self.entries[o].placed))
            del self.entries[victim]

    def process(self, rec):
        if not rec.cacheable:
            return UNCACHEABLE
        obj, now = rec.object_id, rec.timestamp
        charge = rec.size_bytes if self.config.byte_accounting else 1
        e = self.entries.get(obj)
        if e is None:
            e = self.entries[obj] = _Entry(charge)
            e.start = e.fetched = e.last_time = now
            e.last_request = self.tick()
            self.admitted.append(charge)
            self.place(obj, ACCESSORY, now)
            self.enforce_bound()
            return MISS
        e.count += 1
        e.last_time = now
        e.last_request = self.tick()
        if e.part == GHOST:  # refetched straight into the kernel
            e.start = e.fetched = now
            self.place(obj, KERNEL, now)
            return MISS
        outcome = HIT
        if changed(self.changes, obj, e.fetched, now):
            e.fetched = now
            outcome = STALE_MISS
        if e.part == ACCESSORY:  # promotion; the residency goes on
            self.place(obj, KERNEL, now)
        return outcome

    def occupancy(self, now):
        kernel, accessory = (sum(self.entries[o].charge for o in self.members(p))
                             for p in (KERNEL, ACCESSORY))
        return OccupancySample(now, kernel, accessory, len(self.entries))


class NaiveLru:
    """LRU: a hit moves its object to the back, a miss puts it there and
    evicts from the front while the resident charges exceed capacity; an
    object bigger than capacity is bypassed.  An entry lives for one
    residency and counts its requests."""

    def __init__(self, config, changes=None):
        self.config = config
        self.changes = changes or {}
        self.recency = []  # resident objects, least recently requested first
        self.entries = {}
        self.evictions = []
        self.bypassed = 0

    def process(self, rec):
        if not rec.cacheable:
            return UNCACHEABLE
        obj, now = rec.object_id, rec.timestamp
        charge = rec.size_bytes if self.config.byte_accounting else 1
        e = self.entries.get(obj)
        if e is not None:
            e.count += 1
            self.recency.remove(obj)
            self.recency.append(obj)
            if changed(self.changes, obj, e.fetched, now):
                e.fetched = now
                return STALE_MISS
            return HIT
        if charge > self.config.capacity_bytes:
            self.bypassed += 1
            return MISS
        e = self.entries[obj] = _Entry(charge)
        e.start = e.fetched = now
        self.recency.append(obj)
        while sum(self.entries[o].charge for o in self.recency) > self.config.capacity_bytes:
            victim = self.recency.pop(0)
            gone = self.entries.pop(victim)
            self.evictions.append(Eviction(victim, gone.start, now, gone.count))
        return MISS

    def occupancy(self, now):
        return OccupancySample(now, sum(self.entries[o].charge for o in self.recency), 0, 0)


class Tally:
    """One config's SimulationResult fields and derived counts, counted one
    record at a time.

    add takes each record with its outcome and the reference that decided
    it, which it reads an occupancy sample off after every stride-th record;
    fields adds a tail sample unless the last record was a sample point.
    """

    def __init__(self, config):
        self.config = config
        self.stride = config.occupancy_stride
        self.counts = dict.fromkeys(
            ["requests", "hits", "misses", "stale_misses", "uncacheable", "hit_bytes",
             "origin_bytes", "total_bytes"], 0)
        self.start_ts = self.end_ts = 0.0
        self.occupancy = []

    def add(self, rec, outcome, reference):
        c = self.counts
        if not c["requests"]:
            self.start_ts = rec.timestamp
        self.end_ts = rec.timestamp
        c["requests"] += 1
        c["total_bytes"] += rec.size_bytes
        key = {HIT: "hits", MISS: "misses", STALE_MISS: "stale_misses",
               UNCACHEABLE: "uncacheable"}[outcome]
        c[key] += 1
        if outcome == HIT:
            c["hit_bytes"] += rec.size_bytes
        else:
            c["origin_bytes"] += rec.size_bytes
        if c["requests"] % self.stride == 0:
            self.occupancy.append(reference.occupancy(rec.timestamp))

    def fields(self, reference):
        tail = [reference.occupancy(self.end_ts)] if self.counts["requests"] % self.stride else []
        c = self.config
        return {"policy": c.policy, "capacity_bytes": c.capacity_bytes,
                "byte_accounting": c.byte_accounting, **self.counts,
                "start_ts": self.start_ts, "end_ts": self.end_ts,
                "evictions": len(reference.evictions), "bypassed": reference.bypassed,
                "occupancy": self.occupancy + tail}
