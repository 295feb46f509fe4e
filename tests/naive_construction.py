"""A naive restatement of the construction policy, for differential tests.

It follows the policy as the simcache._ZipfEngine docstring states it, with
plain dicts and a linear scan for every victim: no heaps or lazy entries.
One clock orders everything: it ticks at each request, at each placement
in a part and whenever an object becomes a ghost.  It is slow on purpose
and meant for traces of a few hundred requests.
"""

from zcl.simcache import HIT, MISS, STALE_MISS, UNCACHEABLE, Eviction

KERNEL, ACCESSORY, GHOST = "kernel", "accessory", "ghost"


class _Entry:
    def __init__(self, charge):
        self.count = 1  # requests since the entry was made
        self.charge = charge  # fixed when the entry is made
        self.part = GHOST
        self.start = self.fetched = self.last_time = None  # timestamps
        self.last_request = self.placed = 0  # clock readings: placed in a part or as a ghost


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

    def changed(self, obj, fetched, now):
        return any(fetched < t <= now for t in self.changes.get(obj, ()))

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
        if self.changed(obj, e.fetched, now):
            e.fetched = now
            outcome = STALE_MISS
        if e.part == ACCESSORY:  # promotion; the residency goes on
            self.place(obj, KERNEL, now)
        return outcome
