import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcl import simcache as simcache_module
from zcl.simcache import (
    HIT,
    MISS,
    STALE_MISS,
    UNCACHEABLE,
    CacheConfig,
    CacheSim,
    Eviction,
    Policy,
    compare_policies,
    simulate,
)
from zcl.synth import RankDependentRenewal, SyntheticWorkloadSpec, generate_synthetic_trace
from zcl.trace import Trace, TraceRecord

DAY = 86_400.0


def rec(t, obj, size=1, cacheable=True):
    return TraceRecord(float(t), "c0", obj, size, cacheable)


def objects_config(capacity, policy=Policy.LRU, **kw):
    return CacheConfig(capacity_bytes=capacity, policy=policy, byte_accounting=False, **kw)


# --- basic contracts ------------------------------------------------------------


def test_infinite_capacity_hit_ratio_is_repeat_fraction():
    rng = random.Random(0)
    records = [rec(t, f"o{rng.randrange(40)}") for t in range(500)]
    result = simulate(records, objects_config(10**12))
    p = len({r.object_id for r in records})
    k = len(records)
    assert result.hits == k - p
    assert result.hit_ratio == (k - p) / k
    assert not result.evictions


def test_capacity_one_alternating_never_hits():
    records = [rec(t, "AB"[t % 2]) for t in range(40)]
    result = simulate(records, objects_config(1))
    assert result.hits == 0
    assert result.hit_ratio == 0.0


# Twenty requests through a 3-object LRU, executed by hand:
#   seq:  A B C A D B E A C D B A E C B D A C E B   (t = 1..20)
# Only t=4 hits; every other request misses and evicts the LRU victim.
HAND_TRACE = "ABCADBEACDBAECBDACEB"
HAND_OUTCOMES = [MISS] * 3 + [HIT] + [MISS] * 16
HAND_EVICTIONS = [
    ("B", 2, 5, 1),
    ("C", 3, 6, 1),
    ("A", 1, 7, 2),
    ("D", 5, 8, 1),
    ("B", 6, 9, 2),
    ("E", 7, 10, 1),
    ("A", 8, 11, 3),
    ("C", 9, 12, 2),
    ("D", 10, 13, 2),
    ("B", 11, 14, 3),
    ("A", 12, 15, 4),
    ("E", 13, 16, 2),
    ("C", 14, 17, 3),
    ("B", 15, 18, 4),
    ("D", 16, 19, 3),
    ("A", 17, 20, 5),
]


def test_lru_hand_oracle_event_for_event():
    sim = CacheSim(objects_config(3))
    outcomes = [sim.process(rec(t + 1, obj)) for t, obj in enumerate(HAND_TRACE)]
    assert outcomes == HAND_OUTCOMES
    result = sim.result()
    assert result.hits == 1
    got = [(e.object_id, e.insert_ts, e.evict_ts, e.count) for e in result.evictions]
    assert got == [(o, float(i), float(e), c) for o, i, e, c in HAND_EVICTIONS]


def test_unordered_records_rejected():
    sim = CacheSim(objects_config(4))
    sim.process(rec(10, "A"))
    with pytest.raises(ValueError):
        sim.process(rec(9, "B"))


def test_oversized_object_bypasses_without_failing():
    records = [rec(1, "big", size=10_000), rec(2, "big", size=10_000), rec(3, "small", size=10)]
    result = simulate(records, CacheConfig(capacity_bytes=1000))
    assert result.bypassed == 2
    assert "big" in result.bypassed_objects
    assert result.hits == 0
    assert result.requests == 3


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
    a = simulate(records, CacheConfig(capacity_bytes=5000))
    b = simulate(records, CacheConfig(capacity_bytes=5000))
    assert a.evictions == b.evictions
    assert a.occupancy == b.occupancy


def test_lru_stack_property_uniform_sizes():
    rng = random.Random(17)
    records = [rec(t * 5.0, f"o{int(rng.paretovariate(0.9)) % 400}") for t in range(4000)]
    ratios = [
        simulate(records, objects_config(c)).hit_ratio for c in (10, 25, 50, 100, 200, 400)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))


# --- segmented construction -------------------------------------------------------


def test_repeat_request_promotes_to_kernel():
    sim = CacheSim(objects_config(6, Policy.ZIPF_CONSTRUCTION))
    assert sim.process(rec(1, "A")) == MISS
    assert sim.process(rec(2, "A")) == HIT
    stats = sim._engine.managing["A"]
    assert stats.resident and stats.in_kernel and stats.count == 2
    sim.check_invariants()


def test_ghost_returns_straight_into_kernel():
    # capacity 3, kernel 1 + accessory 2: A is pushed out of the accessory by
    # C, then returns as a ghost and must land in the kernel.
    sim = CacheSim(objects_config(3, Policy.ZIPF_CONSTRUCTION))
    assert sim.process(rec(1, "A")) == MISS
    assert sim.process(rec(2, "B")) == MISS
    assert sim.process(rec(3, "C")) == MISS  # evicts A (FIFO)
    evicted = sim._engine.evictions
    assert [(e.object_id, e.count) for e in evicted] == [("A", 1)]
    assert sim.process(rec(4, "A")) == MISS  # ghost: refetch into kernel
    stats = sim._engine.managing["A"]
    assert stats.resident and stats.in_kernel and stats.count == 2
    assert sim.process(rec(5, "A")) == HIT
    sim.check_invariants()


def test_accessory_eviction_is_fifo_by_insertion():
    sim = CacheSim(objects_config(4, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.26))
    # kernel capacity 1, accessory 3
    for t, obj in enumerate(["A", "B", "C", "D", "E"], start=1):
        sim.process(rec(t, obj))
    gone = [e.object_id for e in sim._engine.evictions]
    assert gone == ["A", "B"]  # oldest inserted leave first
    sim.check_invariants()


def test_kernel_eviction_prefers_low_count_then_stale_recency():
    sim = CacheSim(objects_config(6, Policy.ZIPF_CONSTRUCTION, kernel_fraction=0.34))
    # kernel capacity 2, accessory 4
    t = iter(range(1, 100))
    for obj in ["A", "A", "B", "B"]:  # A and B promoted into the kernel
        sim.process(rec(next(t), obj))
    sim.process(rec(next(t), "A"))  # A now count 3, B stays count 2
    for obj in ["C", "C"]:  # C promoted; kernel overflows
        sim.process(rec(next(t), obj))
    kernel_members = {
        o for o, s in sim._engine.managing.items() if s.resident and s.in_kernel
    }
    assert kernel_members == {"A", "C"}  # B had the minimum count
    assert [e.object_id for e in sim._engine.evictions] == ["B"]
    sim.check_invariants()


def test_managing_never_drops_resident_entries():
    config = objects_config(4, Policy.ZIPF_CONSTRUCTION, managing_capacity=3)
    sim = CacheSim(config)
    for t, obj in enumerate(["A", "B", "C", "D", "E", "F", "G"], start=1):
        sim.process(rec(t, obj))
    managing = sim._engine.managing
    assert len(managing) <= 4  # every resident is tracked even past the bound
    for obj, stats in managing.items():
        if stats.resident:
            assert stats.count >= 1
    sim.check_invariants()


def test_managing_drops_oldest_last_request_first():
    # Accessory of 2 turns A then B into ghosts (last requests t=1 and t=2);
    # the next admission overflows a bound of 3 and must drop A, not B.
    config = objects_config(3, Policy.ZIPF_CONSTRUCTION, managing_capacity=3)
    sim = CacheSim(config)
    for t, obj in [(1, "A"), (2, "B"), (3, "C"), (4, "D")]:
        sim.process(rec(t, obj))
    ghosts = {o for o, s in sim._engine.managing.items() if not s.resident}
    assert ghosts == {"B"}  # A (older last request) was dropped at D's admission
    assert "A" not in sim._engine.managing
    sim.check_invariants()


def test_forgotten_ghost_readmitted_as_new():
    config = objects_config(2, Policy.ZIPF_CONSTRUCTION, managing_capacity=1)
    sim = CacheSim(config)
    sim.process(rec(1, "A"))
    sim.process(rec(2, "B"))  # accessory evicts A; managing bound drops its ghost
    sim.process(rec(3, "C"))
    assert "A" not in sim._engine.managing
    sim.process(rec(4, "A"))  # comes back as if never seen
    stats = sim._engine.managing["A"]
    assert stats.count == 1 and not stats.in_kernel


def test_zero_length_kernel_residency_logged_once():
    # Kernel of 1 already held by a count-3 object: a promoted count-2 object
    # is itself the minimum and leaves immediately, exactly one log entry.
    sim = CacheSim(objects_config(3, Policy.ZIPF_CONSTRUCTION))
    t = iter(range(1, 100))
    for obj in ["A", "A", "A", "B", "B"]:
        sim.process(rec(next(t), obj))
    entries = [e for e in sim._engine.evictions if e.object_id == "B"]
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


def test_stale_request_still_promotes_in_construction():
    changes = {"A": [5.0]}
    sim = CacheSim(objects_config(6, Policy.ZIPF_CONSTRUCTION), changes)
    sim.process(rec(1, "A"))
    assert sim.process(rec(10, "A")) == STALE_MISS
    stats = sim._engine.managing["A"]
    assert stats.in_kernel and stats.count == 2
    sim.check_invariants()


def test_renewal_only_reduces_hits():
    spec = SyntheticWorkloadSpec(
        universe_size=3000,
        zipf_alpha=0.72,
        clients=2,
        per_client_rate=10_000.0,
        horizon_days=5.0,
        renewal=RankDependentRenewal(alpha_r=0.60),
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
    whole = simulate(records, config, changes)
    sim = CacheSim(config, changes)
    for r in records:
        sim.process(r)
    stepped = sim.result()
    assert stepped.evictions == whole.evictions
    assert stepped.occupancy == whole.occupancy
    for field in ("hits", "misses", "stale_misses", "uncacheable", "bypassed",
                  "hit_bytes", "origin_bytes", "total_bytes", "requests"):
        assert getattr(stepped, field) == getattr(whole, field), field


AWKWARD_IDS = ["a", "b", "a,b", 'say "hi"', "", " ", "0", "1", "x\ny", "é"]


@st.composite
def replay_cases(draw):
    """Small record lists with tied timestamps, uncacheable requests and a change log."""
    n = draw(st.integers(min_value=0, max_value=60))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5, DAY]), min_size=n, max_size=n))
    records, t = [], 0.0
    for gap in gaps:
        t += gap
        records.append(TraceRecord(
            t,
            draw(st.sampled_from(["c0", "c,1"])),
            draw(st.sampled_from(AWKWARD_IDS)),
            draw(st.integers(min_value=1, max_value=40)),
            draw(st.booleans()) or draw(st.booleans()),
        ))
    changes = draw(st.dictionaries(
        st.sampled_from(AWKWARD_IDS + ["never-requested"]),
        st.lists(st.floats(min_value=0.0, max_value=t + 1.0), max_size=4).map(sorted),
    ))
    config = CacheConfig(
        capacity_bytes=draw(st.integers(min_value=1, max_value=80)),
        policy=draw(st.sampled_from(list(Policy))),
        kernel_fraction=draw(st.sampled_from([0.25, 0.5])),
        managing_capacity=draw(st.sampled_from([None, 1, 3])),
        byte_accounting=draw(st.booleans()),
        occupancy_stride=draw(st.integers(min_value=1, max_value=7)),
    )
    return records, changes, config


@given(case=replay_cases())
@settings(max_examples=300, deadline=None)
def test_simulate_equals_per_event_process(case):
    """simulate over a Trace (int keys) against CacheSim.process over records (id keys)."""
    records, changes, config = case
    sim = CacheSim(config, changes)
    for r in records:
        sim.process(r)
    expected = sim.result()
    for block in (1, 7, 1 << 16):  # replay blocks of one, several and all requests
        with mock.patch.object(simcache_module, "_REPLAY_BLOCK", block):
            got = simulate(Trace.from_records(records), config, changes)
        assert got == expected
        assert got.evictions == expected.evictions
        assert got.occupancy == expected.occupancy
        assert got.bypassed_objects == expected.bypassed_objects


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


def test_compare_single_config_equals_simulate():
    records, _ = random_workload(13, n_events=2000)
    config = CacheConfig(capacity_bytes=30_000)
    (via_compare,) = compare_policies(records, [config])
    direct = simulate(records, config)
    assert via_compare.evictions == direct.evictions
    assert via_compare.hits == direct.hits


def test_compare_empty_config_list_rejected():
    with pytest.raises(ValueError):
        compare_policies([], [])


def test_empty_record_stream_yields_zero_result():
    result = simulate([], objects_config(5))
    assert result.requests == 0
    assert result.evictions == [] and result.occupancy == []


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
    lru, seg = compare_policies(records, configs)
    assert 0.0 < lru.hit_ratio < 1.0
    assert 0.0 < seg.hit_ratio < 1.0
    assert lru.requests == seg.requests == len(records)
