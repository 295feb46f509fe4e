import dataclasses
import io
import math
import random
import re
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_construction import ACCESSORY, GHOST, KERNEL, NaiveConstruction, NaiveLru, Tally

from zcl import model
from zcl import simcache as simcache_module
from zcl import trace as trace_module
from zcl.analytics import LifetimeFold
from zcl.simcache import (
    HIT,
    MISS,
    STALE_MISS,
    UNCACHEABLE,
    CacheConfig,
    CacheSim,
    Eviction,
    Policy,
    SimulationResult,
    replay,
    simulate,
)
from zcl.synth import SyntheticWorkloadSpec, generate_synthetic_trace
from zcl.trace import Trace, TraceRecord, read_blocks, write_canonical_csv

DAY = 86_400.0


def rec(t, obj, size=1, cacheable=True):
    return TraceRecord(float(t), "c0", obj, size, cacheable)


def objects_config(capacity, policy=Policy.LRU, **kw):
    return CacheConfig(capacity_bytes=capacity, policy=policy, byte_accounting=False, **kw)


def logged_sim(config, changes=None):
    """A CacheSim, and the list its evictions are appended to as they happen."""
    log = []
    return CacheSim(config, changes, sink=log.append), log


def logged_replay(blocks, configs, changes=None):
    """replay, and one list per config that its evictions are appended to."""
    logs = [[] for _ in configs]
    results = replay(blocks, configs, changes, [log.append for log in logs])
    assert [r.evictions for r in results] == list(map(len, logs))
    return results, logs


def simulate_logged(records, config, changes=None):
    """simulate, and the list of its evictions."""
    (result,), (log,) = logged_replay(Trace.from_records(records).blocks(), [config], changes)
    return result, log


# --- basic contracts ------------------------------------------------------------


def test_infinite_capacity_hit_ratio_is_repeat_fraction():
    rng = random.Random(0)
    records = [rec(t, f"o{rng.randrange(40)}") for t in range(500)]
    result = simulate(records, objects_config(10**12))
    p = len({r.object_id for r in records})
    k = len(records)
    assert result.hits == k - p
    assert result.hit_ratio == (k - p) / k
    assert result.evictions == 0


def test_capacity_one_alternating_never_hits():
    records = [rec(t, "AB"[t % 2]) for t in range(40)]
    result = simulate(records, objects_config(1))
    assert result.hits == 0
    assert result.hit_ratio == 0.0


# Twenty requests through a 3-object LRU, executed by hand:
#   seq:  A B C A D B E A C D B A E C B D A C E B   (t = 1..20)
# Only t=4 hits; every other request misses and evicts the LRU victim.  An
# eviction's count is the requests of its residency: 2 for A's first, whose
# t=4 hit it holds, and 1 for every other.
HAND_TRACE = "ABCADBEACDBAECBDACEB"
HAND_OUTCOMES = [MISS] * 3 + [HIT] + [MISS] * 16
HAND_EVICTIONS = [
    ("B", 2, 5, 1),
    ("C", 3, 6, 1),
    ("A", 1, 7, 2),
    ("D", 5, 8, 1),
    ("B", 6, 9, 1),
    ("E", 7, 10, 1),
    ("A", 8, 11, 1),
    ("C", 9, 12, 1),
    ("D", 10, 13, 1),
    ("B", 11, 14, 1),
    ("A", 12, 15, 1),
    ("E", 13, 16, 1),
    ("C", 14, 17, 1),
    ("B", 15, 18, 1),
    ("D", 16, 19, 1),
    ("A", 17, 20, 1),
]


def test_lru_hand_oracle_event_for_event():
    sim, log = logged_sim(objects_config(3))
    outcomes = [sim.process(rec(t + 1, obj)) for t, obj in enumerate(HAND_TRACE)]
    assert outcomes == HAND_OUTCOMES
    result = sim.result()
    assert result.hits == 1
    assert result.evictions == len(HAND_EVICTIONS)
    got = [(e.object_id, e.insert_ts, e.evict_ts, e.count) for e in log]
    assert got == [(o, float(i), float(e), c) for o, i, e, c in HAND_EVICTIONS]


def test_lru_eviction_counts_the_requests_of_its_residency():
    # Capacity 1 on a,b,a,b: each residency holds one request, so every
    # eviction, a's second included, has count 1 and its residence falls in t_u.
    sim, log = logged_sim(objects_config(1))
    for t, obj in [(0, "a"), (1, "b"), (3, "a"), (7, "b")]:
        sim.process(rec(t * DAY, obj))
    assert [(e.object_id, e.count) for e in log] == [("a", 1), ("b", 1), ("a", 1)]
    fold = LifetimeFold()
    for eviction in log:
        fold.add(eviction)
    stats = fold.stats()
    assert (stats.t_u.count, stats.t_u.mean_days) == (3, 7 / 3)
    assert stats.t_eff.count == 0


def test_unordered_records_rejected():
    sim = CacheSim(objects_config(4))
    sim.process(rec(10, "A"))
    with pytest.raises(ValueError):
        sim.process(rec(9, "B"))


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("times, block, pair", [
    # 5 -> 3 is the first decrease inside one block, 6 -> 2 the second.
    ([0, 1, 1, 5, 3, 6, 2], 1 << 16, "3.0 after 5.0"),
    # Blocks of 7: the first decrease is from the last request of block one
    # (6) to the first of block two (5.5); a later one in block two is not named.
    ([0, 1, 2, 3, 4, 5, 6, 5.5, 7, 4, 8], 7, "5.5 after 6.0"),
])
def test_simulate_rejects_unordered_records_like_process(policy, times, block, pair):
    records = [rec(t, f"o{i % 3}", cacheable=i % 2 == 0) for i, t in enumerate(times)]
    config = objects_config(2, policy)
    sim = CacheSim(config)
    with pytest.raises(ValueError, match=re.escape(f"records out of order: {pair}")):
        for r in records:
            sim.process(r)
    with mock.patch.object(trace_module, "_BLOCK_ROWS", block):
        with pytest.raises(ValueError, match=re.escape(f"records out of order: {pair}")):
            simulate(Trace.from_records(records), config)


def test_oversized_object_bypasses_without_failing():
    records = [rec(1, "big", size=10_000), rec(2, "big", size=10_000), rec(3, "small", size=10)]
    result = simulate(records, CacheConfig(capacity_bytes=1000))
    assert result.bypassed == 2
    assert result.hits == 0
    assert result.requests == 3


def test_byte_totals_exact_beyond_int64():
    big = 2**62
    records = [rec(t, obj, size=big, cacheable=t != 2) for t, obj in enumerate("AABAA")]
    config = CacheConfig(capacity_bytes=2**63)
    sim = CacheSim(config)
    for r in records:
        sim.process(r)
    expected = sim.result()
    got = simulate(Trace.from_records(records), config)
    assert (got.total_bytes, got.hit_bytes, got.origin_bytes) == (5 * big, 3 * big, 2 * big)
    assert got == expected


def test_request_conservation_and_rate_ordering():
    rng = random.Random(3)
    records = [
        rec(t * 7.0, f"o{rng.randrange(30)}", cacheable=rng.random() < 0.7)
        for t in range(1000)
    ]
    result = simulate(records, objects_config(10))
    assert result.hits + result.misses + result.stale_misses + result.uncacheable == 1000
    assert result.nu_int <= result.nu_out
    assert result.nu_int == pytest.approx(result.nu_out * (1 - result.hit_ratio))


def test_determinism_identical_eviction_logs():
    rng = random.Random(9)
    records = [rec(t * 2.0, f"o{rng.randrange(50)}", size=rng.randrange(1, 500)) for t in range(2000)]
    a, a_log = simulate_logged(records, CacheConfig(capacity_bytes=5000))
    b, b_log = simulate_logged(records, CacheConfig(capacity_bytes=5000))
    assert a_log == b_log and a_log
    assert a == b


def test_lru_stack_property_uniform_sizes():
    rng = random.Random(17)
    records = [rec(t * 5.0, f"o{int(rng.paretovariate(0.9)) % 400}") for t in range(4000)]
    ratios = [
        simulate(records, objects_config(c)).hit_ratio for c in (10, 25, 50, 100, 200, 400)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))


KEYS = [1, "1", (1, "1")]


@pytest.mark.parametrize("policy", list(Policy))
def test_process_keeps_opaque_keys_apart(policy):
    # 1, "1" and a tuple are three objects, and only the int changed, at t=5.
    sim, log = logged_sim(objects_config(100, policy), {1: [5.0]})
    assert [sim.process(rec(t, key)) for t, key in enumerate(KEYS)] == [MISS] * 3
    assert [sim.process(rec(10 + t, key)) for t, key in enumerate(KEYS)] == [STALE_MISS, HIT, HIT]
    assert sim.result().stale_misses == 1 and log == []


@pytest.mark.parametrize("config", [
    objects_config(1),
    objects_config(2, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.5),  # an accessory of 1
])
def test_process_names_evictions_by_the_callers_key(config):
    sim, log = logged_sim(config)
    for t, key in enumerate(KEYS):
        sim.process(rec(t, key))
    assert log == [Eviction(1, 0.0, 1.0, 1), Eviction("1", 1.0, 2.0, 1)]
    assert [type(e.object_id) for e in log] == [int, str]


@pytest.mark.parametrize("policy", list(Policy))
def test_process_and_replay_agree_event_for_event(policy):
    # An occupancy sample after every event, and every eviction in order.
    records, changes = random_workload(41, n_events=3000)
    config = CacheConfig(capacity_bytes=100_000, policy=policy, occupancy_stride=1)
    sim, log = logged_sim(config, changes)
    outcomes = [sim.process(r) for r in records]
    blocks = Trace.from_records(records).blocks(64)
    (result,), (replayed,) = logged_replay(blocks, [config], changes)
    assert result.stale_misses == outcomes.count(STALE_MISS) > 0
    assert replayed == log and log
    assert result.occupancy == sim.result().occupancy and len(result.occupancy) == len(records)
    assert result == sim.result()


@pytest.mark.parametrize("policy", list(Policy))
def test_process_rejects_a_charge_beyond_int64(policy):
    huge = rec(2, "B", size=2**63)
    with pytest.raises(OverflowError):  # as a Trace rejects the size
        Trace.from_records([huge])
    sim = CacheSim(CacheConfig(capacity_bytes=2**64, policy=policy))
    sim.process(rec(1, "A", size=5))
    with pytest.raises(OverflowError, match="out of int64 range"):
        sim.process(huge)
    # The rejected record changed nothing.
    assert sim.process(rec(3, "A", size=5)) == HIT
    result = sim.result()
    assert (result.requests, result.misses, result.total_bytes) == (2, 1, 10)
    sim.check_invariants()
    # Objects mode and an uncacheable request reject the size too, as a Trace does.
    objects = CacheSim(objects_config(2, policy))
    with pytest.raises(OverflowError):
        objects.process(huge)
    with pytest.raises(OverflowError):
        objects.process(rec(3, "C", size=2**64, cacheable=False))


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("bad", [
    rec(math.nan, "B"), rec(math.inf, "B"), rec(3, "B", size=0), rec(3, "B", size=-4),
    rec(math.nan, "A", size=5, cacheable=False),
])
def test_process_rejects_what_a_trace_rejects(policy, bad):
    with pytest.raises(ValueError, match="not finite"):
        Trace.from_records([bad])
    sim = CacheSim(CacheConfig(capacity_bytes=100, policy=policy))
    sim.process(rec(1, "A", size=5))
    before = sim.result()
    with pytest.raises(ValueError, match="not finite"):
        sim.process(bad)
    # The rejected record changed nothing.
    assert sim.result() == before
    assert sim.process(rec(3, "A", size=5)) == HIT
    sim.check_invariants()


# --- segmented construction -------------------------------------------------------


class Entry(NamedTuple):
    count: int
    part: str  # GHOST, ACCESSORY or KERNEL

    @property
    def resident(self):
        return self.part != GHOST


PARTS = {simcache_module._GHOST: GHOST, simcache_module._ACCESSORY: ACCESSORY,
         simcache_module._KERNEL: KERNEL}


def managing(sim):
    """The construction's entries by the caller's key: each key's code, read
    from the engine's columns."""
    engine = sim._engine
    return {
        key: Entry(engine.count[code], PARTS[engine.part[code]])
        for key, code in sim._codes.items()
        if engine.count[code]
    }


def kernel_members(sim):
    """The construction's kernel: its resident objects outside the accessory."""
    return {o for o, s in managing(sim).items() if s.part == KERNEL}


def test_repeat_request_promotes_to_kernel():
    sim = CacheSim(objects_config(6, Policy.ZIPF_CONSTRUCTION))
    assert sim.process(rec(1, "A")) == MISS
    assert sim.process(rec(2, "A")) == HIT
    assert kernel_members(sim) == {"A"} and managing(sim)["A"].count == 2
    sim.check_invariants()


def test_ghost_returns_straight_into_kernel():
    # capacity 3, kernel 1 + accessory 2: A is pushed out of the accessory by
    # C, then returns as a ghost and must land in the kernel.
    sim, log = logged_sim(objects_config(3, Policy.ZIPF_CONSTRUCTION))
    assert sim.process(rec(1, "A")) == MISS
    assert sim.process(rec(2, "B")) == MISS
    assert sim.process(rec(3, "C")) == MISS  # evicts A (FIFO)
    assert [(e.object_id, e.count) for e in log] == [("A", 1)]
    assert sim.process(rec(4, "A")) == MISS  # ghost: refetch into kernel
    assert kernel_members(sim) == {"A"} and managing(sim)["A"].count == 2
    assert sim.process(rec(5, "A")) == HIT
    sim.check_invariants()


def test_construction_bypasses_a_newcomer_a_ghost_and_a_promotion():
    # Byte mode, kernel 20 + accessory 80.  A 90-byte newcomer fits neither
    # part: it stays a ghost, and its return is bypassed again at count 2.
    # A 50-byte object fits the accessory but not the kernel, so its
    # promotion fails: the hit is served and the residency is logged.
    sim, log = logged_sim(CacheConfig(100, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.2))
    outcomes = []
    for r in [rec(1, "big", 90), rec(2, "big", 90), rec(3, "mid", 50), rec(4, "mid", 50)]:
        outcomes.append(sim.process(r))
        sim.check_invariants()
        if r.object_id == "big":
            assert not managing(sim)["big"].resident
    assert outcomes == [MISS, MISS, MISS, HIT]
    assert managing(sim)["big"].count == 2
    assert log == [Eviction("mid", 3.0, 4.0, 2)]
    assert not managing(sim)["mid"].resident
    assert sim.result().bypassed == 3


def test_accessory_eviction_is_fifo_by_insertion():
    sim, log = logged_sim(objects_config(4, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.26))
    # kernel capacity 1, accessory 3
    for t, obj in enumerate(["A", "B", "C", "D", "E"], start=1):
        sim.process(rec(t, obj))
    gone = [e.object_id for e in log]
    assert gone == ["A", "B"]  # oldest inserted leave first
    sim.check_invariants()


def test_kernel_eviction_prefers_low_count_then_stale_recency():
    sim, log = logged_sim(objects_config(6, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.34))
    # kernel capacity 2, accessory 4
    t = iter(range(1, 100))
    for obj in ["A", "A", "B", "B"]:  # A and B promoted into the kernel
        sim.process(rec(next(t), obj))
    sim.process(rec(next(t), "A"))  # A now count 3, B stays count 2
    for obj in ["C", "C"]:  # C promoted; kernel overflows
        sim.process(rec(next(t), obj))
    assert kernel_members(sim) == {"A", "C"}  # B had the minimum count
    assert [e.object_id for e in log] == ["B"]
    sim.check_invariants()


@pytest.mark.parametrize("objects, evicted", [
    # B is admitted before A, but A reaches count 2 first, so A is the first
    # count-2 victim.
    ("BAABCCDD", [("A", 2), ("B", 2)]),
    # D is promoted at count 2, the minimum, and leaves at once.  It returns
    # at count 3, and B, which reached count 3 before A, leaves.
    ("AABBBADDD", [("D", 2), ("B", 3)]),
])
def test_kernel_ties_leave_in_order_of_reaching_the_count(objects, evicted):
    # Kernel of 2, every request at one timestamp.
    sim, log = logged_sim(objects_config(6, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.34))
    for obj in objects:
        sim.process(rec(7, obj))
        sim.check_invariants()
    assert [(e.object_id, e.count) for e in log] == evicted


def test_managing_never_drops_resident_entries():
    config = objects_config(4, Policy.ZIPF_CONSTRUCTION, managing_capacity=3)
    sim = CacheSim(config)
    for t, obj in enumerate(["A", "B", "C", "D", "E", "F", "G"], start=1):
        sim.process(rec(t, obj))
    entries = managing(sim)
    assert len(entries) <= 4  # every resident is tracked even past the bound
    for obj, stats in entries.items():
        if stats.resident:
            assert stats.count >= 1
    sim.check_invariants()


@pytest.mark.parametrize("bound, requests, kept", [
    # Accessory of 2 turns A then B into ghosts (last requests t=1 and t=2);
    # the next admission overflows a bound of 3 and must drop A, not B.
    (3, [(1, "A"), (2, "B"), (3, "C"), (4, "D")], "BCD"),
    # Every request at one timestamp.  C evicts A from the accessory and A
    # returns to the kernel; D evicts B, then C's promotion evicts A again.
    # At E's entry, the fifth, both ghosts were last requested at 7, and B
    # became a ghost before A last did: B is dropped.
    (4, [(7, obj) for obj in "ABCADCE"], "ACDE"),
])
def test_managing_drops_oldest_last_request_first(bound, requests, kept):
    sim = CacheSim(objects_config(3, Policy.ZIPF_CONSTRUCTION, managing_capacity=bound))
    for t, obj in requests:
        sim.process(rec(t, obj))
        sim.check_invariants()
    assert "".join(sorted(managing(sim))) == kept


def test_ghost_heap_never_outgrows_the_managing_part():
    # 1,000 objects against a bound of 10 x 100: no ghost is ever dropped,
    # so only the one entry per ghost keeps the heap from growing per eviction.
    spec = SyntheticWorkloadSpec(
        universe_size=1_000, zipf_alpha=0.8, clients=1, per_client_rate=3e4, seed=5
    )
    sim = CacheSim(objects_config(100, Policy.ZIPF_CONSTRUCTION))
    for r in generate_synthetic_trace(spec).records:
        sim.process(r)
    engine = sim._engine
    assert sim.result().evictions > 10 * engine.managing
    assert len(engine._ghost_heap) <= engine.managing <= engine._managing_bound()
    sim.check_invariants()


def test_objects_mode_managing_bound_is_ten_times_capacity_without_floor():
    # Objects mode bounds managing at 10 x 3 = 30 entries; the byte-mode
    # floor of 100 does not apply, so 50 one-off objects leave 30 entries.
    sim = CacheSim(objects_config(3, Policy.ZIPF_CONSTRUCTION))
    for t in range(50):
        sim.process(rec(t, f"o{t}"))
    assert len(managing(sim)) == 30
    sim.check_invariants()


def test_forgotten_ghost_readmitted_as_new():
    # Kernel of 0 objects, accessory of 2.
    config = objects_config(2, Policy.ZIPF_CONSTRUCTION, managing_capacity=1)
    sim, log = logged_sim(config)
    sim.process(rec(1, "A"))
    sim.process(rec(2, "B"))
    sim.process(rec(3, "C"))  # accessory evicts A; managing bound drops its ghost
    assert "A" not in managing(sim)
    sim.process(rec(4, "A"))  # comes back as if never seen
    stats = managing(sim)["A"]
    assert stats.count == 1 and stats.part == ACCESSORY
    sim.process(rec(5, "D"))
    sim.process(rec(6, "E"))  # the re-made entry leaves the accessory
    assert [(e.object_id, e.insert_ts, e.count) for e in log if e.object_id == "A"] == [
        ("A", 1.0, 1), ("A", 4.0, 1),
    ]


def test_zero_length_kernel_residency_logged_once():
    # Kernel of 1 already held by a count-3 object: a promoted count-2 object
    # is itself the minimum and leaves immediately, exactly one log entry.
    sim, log = logged_sim(objects_config(3, Policy.ZIPF_CONSTRUCTION))
    t = iter(range(1, 100))
    for obj in ["A", "A", "A", "B", "B"]:
        sim.process(rec(next(t), obj))
    entries = [e for e in log if e.object_id == "B"]
    assert len(entries) == 1
    assert entries[0].count == 2
    sim.check_invariants()


# --- renewal (stale copies) ---------------------------------------------------------


def test_stale_copy_is_miss_then_fresh_again():
    changes = {"A": [50.0]}
    sim = CacheSim(objects_config(4), changes)
    assert sim.process(rec(1, "A")) == MISS
    assert sim.process(rec(10, "A")) == HIT
    assert sim.process(rec(60, "A")) == STALE_MISS  # changed at t=50
    assert sim.process(rec(70, "A")) == HIT  # refetched at t=60
    result = sim.result()
    assert result.stale_misses == 1
    assert result.hits == 2


def test_result_is_a_copy_with_one_tail_sample():
    # A stride of 2 over five requests: samples after the second and fourth,
    # then a tail sample at t=70.  Misses: A at t=1 and B at t=70; origin
    # bytes: everything but the 10-byte hit.
    config = CacheConfig(capacity_bytes=100, occupancy_stride=2)
    changes = {"A": [50.0]}
    records = [rec(1, "A", 10), rec(10, "A", 10), rec(20, "U", 7, cacheable=False),
               rec(60, "A", 10), rec(70, "B", 5)]
    sim = CacheSim(config, changes)
    assert [sim.process(r) for r in records] == [MISS, HIT, UNCACHEABLE, STALE_MISS, MISS]
    first, second = sim.result(), sim.result()
    assert first == second == simulate(records, config, changes)
    assert [(s.timestamp, s.kernel_bytes) for s in first.occupancy] == [
        (10.0, 10), (60.0, 10), (70.0, 15),
    ]
    assert (first.misses, first.stale_misses, first.uncacheable) == (2, 1, 1)
    assert (first.hit_bytes, first.origin_bytes, first.total_bytes) == (10, 32, 42)
    # The tail sample stays out of the series when the replay goes on.
    sim.process(rec(80, "B", 5))
    assert [s.timestamp for s in sim.result().occupancy] == [10.0, 60.0, 80.0]
    assert [s.timestamp for s in first.occupancy] == [10.0, 60.0, 70.0]


def test_stale_request_still_promotes_in_construction():
    changes = {"A": [5.0]}
    sim = CacheSim(objects_config(6, Policy.ZIPF_CONSTRUCTION), changes)
    sim.process(rec(1, "A"))
    assert sim.process(rec(10, "A")) == STALE_MISS
    assert kernel_members(sim) == {"A"} and managing(sim)["A"].count == 2
    sim.check_invariants()


@pytest.mark.parametrize("changes", [None, {}])
def test_freshness_never_consulted_without_change_log(changes):
    records, _ = random_workload(5, n_events=3000)
    never = mock.patch.object(
        simcache_module._Engine, "_refetch", side_effect=AssertionError("freshness consulted")
    )
    for policy in Policy:
        config = CacheConfig(capacity_bytes=100_000, policy=policy)
        with never:
            whole = simulate(records, config, changes)
            sim = CacheSim(config, changes)
            for r in records:
                sim.process(r)
        stepped = sim.result()
        assert whole.hits > 0 and whole.stale_misses == 0
        assert (stepped.hits, stepped.stale_misses) == (whole.hits, 0)


def test_stale_misses_counted_with_a_change_log():
    records, changes = random_workload(5, n_events=3000)
    for policy in Policy:
        config = CacheConfig(capacity_bytes=100_000, policy=policy)
        whole = simulate(records, config, changes)
        sim = CacheSim(config, changes)
        outcomes = [sim.process(r) for r in records]
        assert whole.stale_misses > 0
        assert whole.stale_misses == outcomes.count(STALE_MISS) == sim.result().stale_misses


def test_renewal_only_reduces_hits():
    spec = SyntheticWorkloadSpec(
        universe_size=3000,
        zipf_alpha=0.72,
        clients=2,
        per_client_rate=10_000.0,
        horizon_days=5.0,
        renewal=model.RenewalModel(0.72, 0.60, 5.0, 3000),
        seed=23,
    )
    out = generate_synthetic_trace(spec)
    for policy in Policy:
        config = objects_config(600, policy)
        static = simulate(out.records, config)
        renewed = simulate(out.records, config, out.changes)
        assert renewed.hits <= static.hits
        assert renewed.hit_ratio <= static.hit_ratio
        # staleness redirects requests upstream, never changes totals
        assert renewed.requests == static.requests


def test_unbounded_cache_matches_wolman_integral():
    """Steady-state hit ratio under uniform renewal is the Wolman integral.

    With every object changing at rate mu and a cache that never evicts, a
    request hits iff its object was requested since its last change.  After a
    2-day warm-up the replayed hit ratio over cacheable requests must match
    model.wolman_hit_ratio to 3e-3: the integral treats rank as continuous
    (0.86004 here, against 0.86085 for the sum over discrete ranks), and
    3e5 requests leave a sampling error of a few 1e-4 (seeds 1-5 gave
    0.86019 to 0.86103).
    """
    n, alpha, rate, mu, warmup_s = 10_000, 0.8, 50_000.0, 1.0, 2 * DAY
    spec = SyntheticWorkloadSpec(
        universe_size=n,
        zipf_alpha=alpha,
        clients=1,
        per_client_rate=rate,
        horizon_days=6.0,
        renewal=mu,
        seed=3,
    )
    out = generate_synthetic_trace(spec)
    expected = model.wolman_hit_ratio(
        model.WolmanParams(universe=n, alpha=alpha, request_rate=rate, change_rate=mu)
    )
    # A replay's prefix is the replay of the prefix, so the requests after the
    # warm-up are the whole trace's less the warm-up's.
    trace = out.records
    warm = int(np.searchsorted(trace.timestamps, warmup_s))
    for policy in Policy:
        # Each part of the construction cache, a third or two thirds of
        # capacity, also holds the whole universe, so nothing is evicted.
        config = objects_config(100 * n, policy)
        before, whole = (simulate(part, config, out.changes) for part in (trace[:warm], trace))
        assert whole.evictions == 0
        hits = whole.hits - before.hits
        requests = whole.cacheable_requests - before.cacheable_requests
        assert hits / requests == pytest.approx(expected, abs=3e-3)


# --- step replay vs whole trace ------------------------------------------------------


def random_workload(seed, n_events=10_000, n_objects=300):
    rng = random.Random(seed)
    sizes = {f"o{i}": rng.randrange(1, 2000) for i in range(n_objects)}
    t = 0.0
    records = []
    for _ in range(n_events):
        t += rng.expovariate(1.0)
        obj = f"o{min(int(rng.paretovariate(0.8)), n_objects - 1)}"
        records.append(
            TraceRecord(t, f"c{rng.randrange(8)}", obj, sizes[obj], rng.random() < 0.85)
        )
    changes = {
        f"o{i}": sorted(rng.uniform(0, t) for _ in range(rng.randrange(0, 4)))
        for i in range(0, n_objects, 7)
    }
    return records, changes


@pytest.mark.parametrize("policy", list(Policy))
def test_event_replay_equals_whole_trace(policy):
    records, changes = random_workload(31)
    config = CacheConfig(capacity_bytes=100_000, policy=policy, occupancy_stride=997)
    whole, whole_log = simulate_logged(records, config, changes)
    sim, stepped_log = logged_sim(config, changes)
    for r in records:
        sim.process(r)
    stepped = sim.result()
    assert stepped_log == whole_log and whole_log
    assert stepped.evictions == whole.evictions == len(whole_log)
    assert stepped.occupancy == whole.occupancy
    for field in ("hits", "misses", "stale_misses", "uncacheable", "bypassed",
                  "hit_bytes", "origin_bytes", "total_bytes", "requests"):
        assert getattr(stepped, field) == getattr(whole, field), field


AWKWARD_IDS = ["a", "b", "a,b", 'say "hi"', "", " ", "0", "1", "x\ny", "é"]


@st.composite
def replay_cases(draw):
    """Small record lists with tied timestamps, uncacheable requests and a change log."""
    n = draw(st.integers(min_value=0, max_value=60))
    # Mostly cacheable requests, or runs in which every request is cacheable or none is.
    mix = draw(st.sampled_from(["mixed", "all", "none"]))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5, DAY]), min_size=n, max_size=n))
    records, t = [], 0.0
    for gap in gaps:
        t += gap
        records.append(TraceRecord(
            t,
            draw(st.sampled_from(["c0", "c,1"])),
            draw(st.sampled_from(AWKWARD_IDS)),
            draw(st.integers(min_value=1, max_value=40)),
            mix == "all" or (mix == "mixed" and (draw(st.booleans()) or draw(st.booleans()))),
        ))
    changes = draw(st.dictionaries(
        st.sampled_from(AWKWARD_IDS + ["never-requested"]),
        st.lists(st.floats(min_value=0.0, max_value=t + 1.0), max_size=4).map(sorted),
    ))
    return records, changes, draw(cache_configs(st.sampled_from(list(Policy))))


def cache_configs(policies):
    """Small configurations of the drawn policies, sized for replay_cases."""
    return st.builds(
        CacheConfig,
        capacity_bytes=st.integers(min_value=1, max_value=80),
        policy=policies,
        kernel_fraction=st.sampled_from([0.25, 0.5]),
        managing_capacity=st.sampled_from([None, 1, 3]),
        byte_accounting=st.booleans(),
        # 1000, the default, is longer than any drawn trace.
        occupancy_stride=st.integers(min_value=1, max_value=7) | st.just(1000),
    )


@st.composite
def construction_cases(draw):
    """Up to 200 requests over up to 30 objects, many at tied timestamps, with
    sizes up to above either part's capacity, a construction configuration in
    either accounting mode with a managing bound that is often small, and a
    change log or none."""
    n_objects = draw(st.integers(min_value=1, max_value=30))
    byte_accounting = draw(st.booleans())
    gaps = [0.0, 0.0, 1.0, 7.5]
    # One draw per request (draws dominate the run time): the gap since the
    # last request, an object, a size from 1 to 80, and 1 in 10 uncacheable.
    codes = st.integers(min_value=0, max_value=len(gaps) * n_objects * 80 * 10 - 1)
    records, t = [], 0.0
    n = draw(st.integers(min_value=0, max_value=200))
    for code in draw(st.lists(codes, min_size=n, max_size=n)):
        code, gap = divmod(code, len(gaps))
        code, obj = divmod(code, n_objects)
        tenth, size = divmod(code, 80)
        t += gaps[gap]
        records.append(TraceRecord(t, "c0", f"o{obj}", size + 1, tenth != 9))
    times = st.sampled_from([r.timestamp for r in records]) if records else st.just(0.0)
    changes = draw(st.none() | st.dictionaries(
        st.sampled_from([f"o{i}" for i in range(n_objects)]),
        st.lists(times | st.floats(min_value=0.0, max_value=t + 1.0), max_size=4).map(sorted),
    ))
    config = CacheConfig(
        capacity_bytes=draw(st.integers(min_value=1, max_value=60 if byte_accounting else 12)),
        policy=Policy.ZIPF_CONSTRUCTION,
        kernel_fraction=draw(st.sampled_from([0.2, 1 / 3, 0.5, 0.8])),
        managing_capacity=draw(st.sampled_from([None, 1, 2, 3, 5, 8])),
        byte_accounting=byte_accounting,
    )
    return records, changes, config


@given(case=construction_cases())
@settings(max_examples=400, deadline=None)
def test_construction_equals_the_naive_reference(case):
    """CacheSim.process against tests/naive_construction.py, event for event:
    the outcome, the evictions so far and the bypass count.  An eviction has
    count 1 exactly when it leaves the accessory."""
    records, changes, config = case
    sim, log = logged_sim(config, changes)
    naive = NaiveConstruction(config, changes)
    for r in records:
        assert sim.process(r) == naive.process(r)
        assert len(log) == len(naive.evictions)  # so far; the evictions are compared below
        assert sim._engine.bypassed == naive.bypassed
        sim.check_invariants()
    assert log == naive.evictions
    assert [e.count == 1 for e in log] == [p == ACCESSORY for p in naive.evicted_from]


@given(case=replay_cases(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_simulate_equals_the_naive_references(case, data):
    """Every replay path against NaiveLru or NaiveConstruction.

    Per config, CacheSim.process steps with its reference event for event
    (the outcome, the evictions so far and the bypass count), checking the
    engine after every event and the managing bound after every admission,
    unless no ghost was left to drop; a Tally counts the reference's result.
    Then replay runs every config in one pass over Trace blocks and streamed
    CSV blocks of 1, 7 and 65,536 rows, with list sinks and with none, and
    each config's result and evictions must be its reference's.
    """
    records, changes, config = case
    configs = [config, *data.draw(st.lists(cache_configs(st.sampled_from(list(Policy))),
                                           max_size=2))]
    changes = data.draw(st.sampled_from([changes, None]))
    expected, expected_logs = [], []
    for config in configs:
        zipf = config.policy is Policy.ZIPF_CONSTRUCTION
        naive = (NaiveConstruction if zipf else NaiveLru)(config, changes)
        sim, log = logged_sim(config, changes)
        tally = Tally(config)
        for r in records:
            admitting = zipf and r.cacheable and r.object_id not in managing(sim)
            outcome = naive.process(r)
            assert sim.process(r) == outcome
            assert len(log) == len(naive.evictions)
            assert sim._engine.bypassed == naive.bypassed
            sim.check_invariants()
            if admitting:
                entries = managing(sim)
                assert len(entries) <= sim._engine._managing_bound() or all(
                    entry.resident for entry in entries.values()
                )
            tally.add(r, outcome, naive)
        assert log == naive.evictions
        expected.append(tally.fields(naive))
        expected_logs.append(naive.evictions)
    assert {f.name for f in dataclasses.fields(SimulationResult)} <= expected[0].keys()

    def tallied(results):
        return [{name: getattr(r, name) for name in expected[0]} for r in results]

    text = io.StringIO()
    write_canonical_csv(records, text)
    sources = [
        lambda: Trace.from_records(records).blocks(),
        lambda: read_blocks(io.StringIO(text.getvalue())),  # ids arrive a block at a time
    ]
    for rows in (1, 7, 1 << 16):
        with mock.patch.object(trace_module, "_BLOCK_ROWS", rows):
            for blocks in sources:
                results, logs = logged_replay(blocks(), configs, changes)
                assert tallied(results) == expected
                assert logs == expected_logs  # one list per config, in config order
                # With no sink no id table is held; the change log is keyed all the same.
                assert tallied(replay(blocks(), configs, changes)) == expected
    assert tallied([simulate(records, configs[0], changes)]) == expected[:1]


@pytest.mark.parametrize("policy", list(Policy))
def test_invariants_hold_after_every_event(policy):
    records, changes = random_workload(57, n_events=1500, n_objects=80)
    config = CacheConfig(capacity_bytes=20_000, policy=policy)
    sim = CacheSim(config, changes)
    for r in records:
        sim.process(r)
        sim.check_invariants()


def test_occupancy_never_exceeds_capacity():
    records, _ = random_workload(71, n_events=4000)
    for policy in Policy:
        result = simulate(records, CacheConfig(capacity_bytes=50_000, policy=policy))
        for sample in result.occupancy:
            assert sample.kernel_bytes + sample.accessory_bytes <= 50_000


# --- policy comparison -----------------------------------------------------------------


def test_compare_empty_config_list_rejected():
    with pytest.raises(ValueError):
        replay(Trace.from_records([]).blocks(), [])


def test_replay_takes_one_sink_per_config():
    config = objects_config(1)
    with pytest.raises(ValueError, match="1 eviction sinks for 2 configurations"):
        replay(Trace.from_records([rec(0, "A")]).blocks(), [config, config], None, [print])


def test_replay_mixes_configs_with_and_without_a_sink():
    """One config with a sink beside sink-less ones, which hold no id table,
    in one replay over blocks that each bring new ids: every result, and the
    one log, is what the replay with a sink per config gives."""
    records, changes = random_workload(23, n_events=3000)
    configs = [CacheConfig(capacity_bytes=30_000, policy=policy) for policy in Policy]
    trace = Trace.from_records(records)
    with mock.patch.object(trace_module, "_BLOCK_ROWS", 97):
        full, full_logs = logged_replay(trace.blocks(), configs, changes)
        for logged in range(len(configs)):
            log = []
            sinks = [log.append if i == logged else None for i in range(len(configs))]
            assert replay(trace.blocks(), configs, changes, sinks) == full
            assert log == full_logs[logged] and log


def test_empty_record_stream_yields_zero_result():
    result = simulate([], objects_config(5))
    assert result.requests == 0
    assert result.evictions == 0 and result.occupancy == []


def test_compare_policies_on_zipf_day_capacity():
    spec = SyntheticWorkloadSpec(
        universe_size=20_000,
        zipf_alpha=0.8,
        clients=4,
        per_client_rate=5000.0,
        horizon_days=5.0,
        seed=77,
    )
    records = generate_synthetic_trace(spec).records
    day_objects = 20_000  # one day of traffic, in objects
    configs = [
        objects_config(day_objects, Policy.LRU),
        objects_config(day_objects, Policy.ZIPF_CONSTRUCTION),
    ]
    lru, seg = replay(records.blocks(), configs)
    assert 0.0 < lru.hit_ratio < 1.0
    assert 0.0 < seg.hit_ratio < 1.0
    assert lru.requests == seg.requests == len(records)
