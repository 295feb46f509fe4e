import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from zcl.model import RenewalModel, TwoValuedChangeRate
from zcl.synth import SyntheticWorkloadSpec, generate_synthetic_trace


def small_spec(**overrides):
    base = dict(
        universe_size=2000,
        zipf_alpha=0.8,
        clients=4,
        per_client_rate=5000.0,
        horizon_days=1.0,
        seed=11,
    )
    base.update(overrides)
    return SyntheticWorkloadSpec(**base)


def counts_by_object(records):
    counts: dict[str, int] = {}
    for r in records:
        if r.cacheable:
            counts[r.object_id] = counts.get(r.object_id, 0) + 1
    return counts


def test_identical_spec_and_seed_reproduce_stream():
    a = generate_synthetic_trace(small_spec())
    b = generate_synthetic_trace(small_spec())
    assert a.records == b.records
    assert a.changes == b.changes


def test_different_seed_changes_stream():
    a = generate_synthetic_trace(small_spec(seed=1))
    b = generate_synthetic_trace(small_spec(seed=2))
    assert a.records != b.records


def test_records_in_time_order_within_horizon():
    out = generate_synthetic_trace(small_spec())
    ts = [r.timestamp for r in out.records]
    assert ts == sorted(ts)
    assert ts[0] >= 0.0
    assert ts[-1] < 86_400.0


def test_single_object_universe_gets_every_request():
    out = generate_synthetic_trace(
        small_spec(universe_size=1, zipf_alpha=0.5, renewal=0.0)
    )
    assert all(r.object_id == "o1" for r in out.records)
    assert counts_by_object(out.records)["o1"] == len(out.records)


def test_sizes_fixed_per_object():
    out = generate_synthetic_trace(small_spec())
    sizes: dict[str, int] = {}
    for r in out.records:
        assert sizes.setdefault(r.object_id, r.size_bytes) == r.size_bytes
        assert r.size_bytes >= 1


def test_mean_size_matches_model():
    out = generate_synthetic_trace(
        small_spec(universe_size=50_000, size_mean_bytes=13_312.0, size_sigma=1.0)
    )
    per_object = {r.object_id: r.size_bytes for r in out.records}
    mean = np.mean(list(per_object.values()))
    # lognormal mean with sigma=1 over ~30k sampled objects: a few percent
    assert mean == pytest.approx(13_312.0, rel=0.1)


def test_uncacheable_universe_disjoint_and_sized():
    out = generate_synthetic_trace(small_spec(cacheable_fraction=0.6))
    frac = sum(r.cacheable for r in out.records) / len(out.records)
    assert frac == pytest.approx(0.6, abs=0.02)
    uncacheable_ids = {r.object_id for r in out.records if not r.cacheable}
    cacheable_ids = {r.object_id for r in out.records if r.cacheable}
    assert uncacheable_ids.isdisjoint(cacheable_ids)
    assert all(i.startswith("u") for i in uncacheable_ids)


def test_uniform_limit_of_small_alpha():
    # alpha -> 0 degenerates to uniform sampling over the universe.
    out = generate_synthetic_trace(
        SyntheticWorkloadSpec(
            universe_size=10_000,
            zipf_alpha=1e-9,
            clients=10,
            per_client_rate=100_000.0,
            horizon_days=1.0,
            seed=3,
        )
    )
    counts = np.zeros(10_000)
    for r in out.records:
        counts[int(r.object_id[1:]) - 1] += 1
    expected = len(out.records) / 10_000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < sps.chi2.ppf(0.999, 10_000 - 1)
    # Rank-group means are flat: first and last decile of ranks within 10%.
    assert counts[:1000].mean() == pytest.approx(counts[-1000:].mean(), rel=0.10)


def test_rank_frequency_slope_recovers_alpha(zipf08_million):
    counts = np.array(sorted(counts_by_object(zipf08_million.records).values(), reverse=True))
    ranks = np.arange(1, counts.size + 1)
    sel = slice(9, 1000)
    slope, _ = np.polyfit(np.log(ranks[sel]), np.log(counts[sel]), 1)
    assert slope == pytest.approx(-0.8, abs=0.05)


def test_pairwise_count_ratios_follow_power_law(zipf08_million):
    counts = np.array(sorted(counts_by_object(zipf08_million.records).values(), reverse=True))
    big = np.nonzero(counts >= 1000)[0]
    assert big.size >= 5
    for a in big:
        for b in big:
            if a >= b:
                continue
            i, j = a + 1, b + 1
            ratio = counts[a] / counts[b]
            law = (j / i) ** 0.8
            assert 0.8 * law <= ratio <= 1.25 * law


# --- renewal ground truth -----------------------------------------------------


def test_two_valued_change_events_chi_square():
    renewal = TwoValuedChangeRate(mu_popular=2.0, mu_unpopular=1.0, popular_cutoff=50)
    out = generate_synthetic_trace(
        small_spec(universe_size=100, per_client_rate=100.0, horizon_days=10.0, renewal=renewal)
    )
    chi2 = 0.0
    for i in range(1, 101):
        obj = f"o{i}"
        expected = (2.0 if i <= 50 else 1.0) * 10.0
        observed = len(out.changes.get(obj, []))
        chi2 += (observed - expected) ** 2 / expected
    assert chi2 < sps.chi2.ppf(0.999, 100)


def test_rank_dependent_change_rates_decrease_and_vanish_at_tail():
    renewal = RenewalModel(0.72, 0.70, 15.0, 1000)
    rates = renewal(np.arange(1, 1001, dtype=float))
    assert rates[0] > rates[10] > rates[500]
    assert rates[-1] == 0.0
    assert (rates >= 0).all()


def test_rank_dependent_total_events_match_expectation():
    renewal = RenewalModel(0.72, 0.70, 15.0, 2000)
    spec = small_spec(
        universe_size=2000, zipf_alpha=0.72, per_client_rate=50.0, horizon_days=15.0, renewal=renewal
    )
    out = generate_synthetic_trace(spec)
    rates = renewal(np.arange(1, 2001, dtype=float))
    expected = rates.sum() * 15.0
    observed = sum(len(v) for v in out.changes.values())
    assert observed == pytest.approx(expected, abs=4 * np.sqrt(expected))
    # ground-truth rates are reported per object
    assert out.change_rates["o1"] == pytest.approx(rates[0])


def test_change_events_inside_horizon_and_sorted():
    renewal = TwoValuedChangeRate(mu_popular=5.0, mu_unpopular=0.5, popular_cutoff=10)
    out = generate_synthetic_trace(small_spec(universe_size=50, horizon_days=2.0, renewal=renewal))
    for times in out.changes.values():
        assert times == sorted(times)
        assert all(0 <= t < 2 * 86_400 for t in times)


def test_ten_million_object_universe_supported():
    # The cumulative sampling table must cope with the largest contracted
    # universe; a short trace keeps this a memory/latency smoke test.
    out = generate_synthetic_trace(
        small_spec(universe_size=10_000_000, per_client_rate=250.0, horizon_days=1.0)
    )
    assert len(out.records) > 0
    assert all(r.object_id.startswith("o") for r in out.records)


def test_bad_spec_values_rejected():
    with pytest.raises(ValueError):
        small_spec(zipf_alpha=1.0)
    with pytest.raises(ValueError):
        small_spec(cacheable_fraction=0.0)
    with pytest.raises(ValueError):
        small_spec(universe_size=0)
    for rate in (-1e-9, float("nan")):
        with pytest.raises(ValueError):
            small_spec(renewal=rate)

    # A RenewalModel of another exponent or universe than the spec's.
    for universe, law in ((100, RenewalModel(0.5, 0.4, 1.0, 100)), (200, RenewalModel(0.8, 0.4, 1.0, 100))):
        with pytest.raises(ValueError, match="renewal model is for"):
            small_spec(universe_size=universe, renewal=law)


# --- the generator's output, pinned -----------------------------------------------


def grid_spec(universe, fraction, renewal, per_client_rate=100.0):
    return SyntheticWorkloadSpec(
        universe_size=universe,
        zipf_alpha=0.8,
        clients=3,
        per_client_rate=per_client_rate,
        cacheable_fraction=fraction,
        renewal={
            "none": 0.0,
            "two": TwoValuedChangeRate(mu_popular=3.0, mu_unpopular=0.5, popular_cutoff=3),
            "rank": RenewalModel(0.8, 0.6, 1.0, universe),
        }[renewal],
        seed=universe,
    )


def output_digest(out):
    """SHA-256 (first 16 hex digits) over every column's dtype and bytes, both
    id tables, the change log and the change rates."""
    digest = hashlib.sha256()
    t = out.records
    for column in (t.timestamps, t.objects, t.clients, t.sizes, t.cacheable):
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    for part in (t.object_ids, t.client_ids, out.changes, out.change_rates):
        digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


# (universe, cacheable fraction, renewal) -> digest; ~300 requests each.
GRID_DIGESTS = {
    (1, 0.05, "none"): "95c564575987f249",
    (1, 0.05, "two"): "03a94d8beb22f4a8",
    (1, 0.05, "rank"): "95c564575987f249",
    (1, 0.85, "none"): "0b790ff6555ea77e",
    (1, 0.85, "two"): "6c8e3a4549802547",
    (1, 0.85, "rank"): "0b790ff6555ea77e",
    (1, 1.0, "none"): "f6f7e944ac364a45",
    (1, 1.0, "two"): "9eb546eb1f2d6ded",
    (1, 1.0, "rank"): "f6f7e944ac364a45",
    (2, 0.05, "none"): "bde94d5dcf588f72",
    (2, 0.05, "two"): "2528669b13ebe11f",
    (2, 0.05, "rank"): "f44e86ee273266e6",
    (2, 0.85, "none"): "ea530fc070cf0660",
    (2, 0.85, "two"): "30e7cf93dcb8f219",
    (2, 0.85, "rank"): "a69a08ce76e0ae2c",
    (2, 1.0, "none"): "a8ac4866da8d7b40",
    (2, 1.0, "two"): "903bb5489f7e5cec",
    (2, 1.0, "rank"): "7795d0ac050707fd",
    (10, 0.05, "none"): "f7cf318772e67660",
    (10, 0.05, "two"): "52467089b8c3d532",
    (10, 0.05, "rank"): "7a6583810b9af2af",
    (10, 0.85, "none"): "41674a562c689bac",
    (10, 0.85, "two"): "889f3c802b4d0d3d",
    (10, 0.85, "rank"): "2103c8826b8af9b1",
    (10, 1.0, "none"): "3bde16758c26fa78",
    (10, 1.0, "two"): "786199ad10621dc9",
    (10, 1.0, "rank"): "62a10c31b0c51baf",
    (11, 0.05, "none"): "5cb81274f459607c",
    (11, 0.05, "two"): "765fcf877cf6a3c3",
    (11, 0.05, "rank"): "392222df6c5e85dd",
    (11, 0.85, "none"): "b97043374fcb0194",
    (11, 0.85, "two"): "3f8f8cd830bd0d12",
    (11, 0.85, "rank"): "0c775154c0db5275",
    (11, 1.0, "none"): "ae708d2b373384f0",
    (11, 1.0, "two"): "9ff1bdd27f82f389",
    (11, 1.0, "rank"): "4817cd9b810da3e1",
    (1000, 0.05, "none"): "70e8250dfc086a45",
    (1000, 0.05, "two"): "5e53df26ad0b7e67",
    (1000, 0.05, "rank"): "992cdb26967b797b",
    (1000, 0.85, "none"): "46c1bfad6789afa7",
    (1000, 0.85, "two"): "c8423815bb2be598",
    (1000, 0.85, "rank"): "feb6b2cdf76f191e",
    (1000, 1.0, "none"): "eee0ea4b77a9dd7e",
    (1000, 1.0, "two"): "5f916316759e172e",
    (1000, 1.0, "rank"): "541e9ef8a06012db",
}


@pytest.mark.parametrize("universe,fraction,renewal", list(GRID_DIGESTS))
def test_generator_output_is_pinned(universe, fraction, renewal):
    out = generate_synthetic_trace(grid_spec(universe, fraction, renewal))
    assert output_digest(out) == GRID_DIGESTS[universe, fraction, renewal]


def test_generator_output_is_pinned_when_no_request_arrives():
    out = generate_synthetic_trace(grid_spec(10, 0.85, "two", per_client_rate=1e-6))
    assert len(out.records) == 0
    assert out.changes  # the change log is still drawn
    assert output_digest(out) == "8a8bb6d1f217535c"


@pytest.mark.parametrize("universe,fraction,renewal", list(GRID_DIGESTS))
def test_id_table_is_in_key_order_and_every_code_occurs(universe, fraction, renewal):
    """Independent of the generator: ids sort by -r for u<r> and +r for o<r>,
    codes cover the table, and each request's id has its flag's prefix."""
    t = generate_synthetic_trace(grid_spec(universe, fraction, renewal)).records
    ids = list(t.object_ids)

    def key(object_id):
        rank = int(object_id[1:])
        return -rank if object_id[0] == "u" else rank

    assert ids == sorted(set(ids), key=key)
    assert np.array_equal(np.unique(t.objects), np.arange(len(ids)))
    prefixes = np.array([i[0] for i in ids])[t.objects]
    assert (prefixes == np.where(t.cacheable, "o", "u")).all()


def test_generation_peak_memory_per_request():
    """Temporaries stay small next to the 25 B per request of output columns;
    numpy reports its buffers to tracemalloc."""
    spec = SyntheticWorkloadSpec(
        universe_size=10_000,
        zipf_alpha=0.8,
        clients=2,
        per_client_rate=100_000.0,
        cacheable_fraction=0.85,
        seed=1,
    )
    tracemalloc.start()
    try:
        out = generate_synthetic_trace(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(out.records) <= 48
