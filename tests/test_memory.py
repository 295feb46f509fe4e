"""Memory that grows with the number of objects, not with the trace length,
and at a small cost per object.

Each growth case streams N and then 3N requests of one synth spec with a
fixed universe through read_blocks, in blocks of 4,096 rows, and compares
the tracemalloc peaks.  By N requests nearly every object has been seen, so
a peak that still grows with the trace is per-request state.  At the default
16,384 rows the block parse dominates the peak and moves with the block
layout, hence the small blocks.  The CSV writer's case writes the N and 3N
request traces themselves, and its peak is what it holds above them.

The footprint cases replay a trace with no evictions, whose peak is the
engine's per-object state plus one block's temporaries, and bound it per
distinct cacheable object.

Left out: analytics.LifetimeFold, which keeps 8 B per count-1 or count-2
eviction by design, so that the lifetime means keep their bits.
"""

import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from zcl import trace as trace_module
from zcl.analytics import ProfileFold
from zcl.simcache import CacheConfig, Policy, replay
from zcl.synth import SyntheticWorkloadSpec, generate_synthetic_trace
from zcl.trace import read_blocks, write_canonical_csv

UNIVERSE = 2_000
N = 10_000
FLOOR = 64 * 1024  # bytes: objects first seen after N, and allocator noise

CONSTRUCTION_OBJECTS = 100  # a managing bound of 1,000 entries, half the universe
SMALL_UNIVERSE = 1_000  # every object fits that bound, so it is never reached


@pytest.fixture(scope="module")
def csv_texts():
    """The canonical CSV of N and of 3N requests at each universe, and their records."""
    out = {}
    for universe, n in [(u, n) for u in (UNIVERSE, SMALL_UNIVERSE) for n in (N, 3 * N)]:
        spec = SyntheticWorkloadSpec(
            universe_size=universe,
            zipf_alpha=0.8,
            clients=1,
            per_client_rate=float(n),
            cacheable_fraction=0.85,
            seed=5,
        )
        records = generate_synthetic_trace(spec).records
        text = io.StringIO()
        write_canonical_csv(records, text)
        out[universe, n] = (text.getvalue(), records)
    return out


def replay_one(config):
    return lambda f: replay(read_blocks(f), [config])


def fold_profile(f):
    fold = ProfileFold()
    for block in read_blocks(f):
        fold.add(block)
    return fold.profile()


CONSTRUCTION = replay_one(
    CacheConfig(CONSTRUCTION_OBJECTS, Policy.ZIPF_CONSTRUCTION, byte_accounting=False)
)
CASES = {  # the universe of the trace, and the run
    "lru-bytes": (UNIVERSE, replay_one(CacheConfig(2_000_000))),
    "lru-objects": (UNIVERSE, replay_one(CacheConfig(200, byte_accounting=False))),
    "construction-bound-reached": (UNIVERSE, CONSTRUCTION),
    "construction-bound-never-reached": (SMALL_UNIVERSE, CONSTRUCTION),
    "profile-fold": (UNIVERSE, fold_profile),
}


def peak(run, arg):
    tracemalloc.start()
    try:
        run(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", sorted(CASES))
def test_peak_memory_does_not_grow_with_the_trace(csv_texts, monkeypatch, case):
    # The bound (10x capacity in objects mode) is reached within the first N
    # at UNIVERSE, and never at SMALL_UNIVERSE.
    for universe, n in [(UNIVERSE, N), (SMALL_UNIVERSE, 3 * N)]:
        records = csv_texts[universe, n][1]
        distinct = len(set(records.objects[records.cacheable].tolist()))
        assert (distinct > 10 * CONSTRUCTION_OBJECTS) == (universe == UNIVERSE)
    universe, run = CASES[case]
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 4096)
    short, long = (peak(run, io.StringIO(csv_texts[universe, n][0])) for n in (N, 3 * N))
    assert long <= 1.1 * short + FLOOR, f"{short} B at {N} requests, {long} B at {3 * N}"


def write_to_devnull(records):
    with open(os.devnull, "w", encoding="utf-8") as out:
        write_canonical_csv(records, out)


def test_csv_write_peak_does_not_grow_with_the_trace(csv_texts, monkeypatch, read_mode):
    """write_canonical_csv's peak above the trace it writes, in blocks of
    1,024 rows: 10 and 30 blocks, every other one formatted by the forked
    child when there is one."""
    monkeypatch.setattr(trace_module, "_BLOCK_ROWS", 1024)
    short, long = (peak(write_to_devnull, csv_texts[UNIVERSE, n][1]) for n in (N, 3 * N))
    assert len(read_mode) == 2 * (trace_module._usable_cpus() > 1)
    assert long <= 1.1 * short + FLOOR, f"{short} B at {N} requests, {long} B at {3 * N}"


# Bytes of tracemalloc peak per distinct cacheable object, for a replay in
# blocks of 4,096 rows that evicts nothing.  Engines that kept one Python
# object per entry read 427 B (construction) and 291 B (LRU); per-object
# columns read 249 B and 189 B.
FOOTPRINT = {Policy.ZIPF_CONSTRUCTION: 340, Policy.LRU: 240}


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_peak_memory_per_object(policy):
    spec = SyntheticWorkloadSpec(
        universe_size=20_000,
        zipf_alpha=0.8,
        clients=1,
        per_client_rate=1e5,
        cacheable_fraction=0.85,
        seed=5,
    )
    records = generate_synthetic_trace(spec).records
    objects = len(np.unique(records.objects[records.cacheable]))
    config = CacheConfig(10**12, policy)  # every part holds every object
    tracemalloc.start()
    try:
        (result,) = replay(records.blocks(4096), [config])
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evictions == 0 and objects > 15_000
    assert used / objects <= FOOTPRINT[policy], f"{used / objects:.0f} B per object"
