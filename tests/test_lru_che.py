"""Objects-mode LRU against the Che approximation (an independent oracle).

Che, Tung & Wang (IEEE JSAC 2002) give the LRU hit ratio under independent
Zipf requests through one characteristic time; Fricker, Robert & Roberts
(ITC 2012) show it is accurate to well under 1e-3 at these cache sizes.
The bisection is in tests/oracles.py, which imports nothing from zcl:
nothing here asks zcl for an expected value.
"""

import pytest
from oracles import che_hit_ratio

from zcl.simcache import CacheConfig, Policy, simulate
from zcl.synth import SyntheticWorkloadSpec, generate_synthetic_trace

UNIVERSE, ALPHA = 100_000, 0.8
WARMUP = 100_000  # requests replayed before hits are counted

# Fixed from the approximation before any replay was compared with it: the
# Che error (< 1e-3 here) plus five standard errors of a hit ratio over
# ~1.7e5 cacheable requests (5 * sqrt(0.25 / 1.7e5) ~ 6e-3), rounded up.
TOLERANCE = 0.01


@pytest.fixture(scope="module")
def zipf_trace():
    """~3e5 independent Zipf(0.8) requests over 1e5 objects, 85 % cacheable."""
    spec = SyntheticWorkloadSpec(
        universe_size=UNIVERSE,
        zipf_alpha=ALPHA,
        clients=1,
        per_client_rate=300_000.0,
        horizon_days=1.0,
        cacheable_fraction=0.85,
        seed=8,
    )
    return generate_synthetic_trace(spec).records


@pytest.mark.parametrize("capacity", [1_000, 5_000, 20_000])
def test_lru_hit_ratio_matches_che(zipf_trace, capacity):
    config = CacheConfig(capacity_bytes=capacity, policy=Policy.LRU, byte_accounting=False)
    warm = simulate(zipf_trace[:WARMUP], config)
    # An LRU cache holds the last `capacity` distinct objects requested, so
    # once it is full its state no longer depends on the empty start.
    assert warm.occupancy[-1].kernel_bytes == capacity
    whole = simulate(zipf_trace, config)
    hits = whole.hits - warm.hits
    requests = whole.cacheable_requests - warm.cacheable_requests
    assert hits / requests == pytest.approx(che_hit_ratio(ALPHA, UNIVERSE, capacity), abs=TOLERANCE)
