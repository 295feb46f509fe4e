import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcl import analytics
from zcl.analytics import (
    LifetimeFold,
    PopularityProfile,
    ProfileFold,
    alpha_growth_constant,
    build_popularity_profile,
    compute_cacheable_fraction,
    estimate_alpha,
    lifetimes_from_evictions,
    merge_profiles,
    renewal_observables,
)
from zcl.simcache import CacheConfig, Eviction, Policy, replay
from zcl.synth import SyntheticWorkloadSpec, generate_synthetic_trace
from zcl.trace import Trace, TraceRecord

DAY = 86_400.0


def rec(t, obj, cacheable=True, size=100, client="c0"):
    return TraceRecord(t, client, obj, size, cacheable)


def profile_from_counts(counts, extra_requests=0):
    """Profile built straight from a descending count vector."""
    counts = np.asarray(sorted(counts, reverse=True), dtype=np.int64)
    return PopularityProfile(
        counts=counts,
        object_ids=tuple(f"o{i}" for i in range(counts.size)),
        window_start_s=0.0,
        window_end_s=DAY,
        total_requests=int(counts.sum()) + extra_requests,
    )


# --- profile construction ------------------------------------------------------


def test_profile_basic_counts():
    profile = build_popularity_profile([rec(0, "A"), rec(1, "A"), rec(2, "B")])
    assert profile.counts.tolist() == [2, 1]
    assert profile.p == 2
    assert profile.M == 1
    assert profile.k == 3
    assert profile.K == 3


def test_profile_all_singletons_degenerate():
    profile = build_popularity_profile([rec(0, "A"), rec(1, "B"), rec(2, "C")])
    assert profile.M == 0
    assert profile.counts.tolist() == [1, 1, 1]
    with pytest.raises(ValueError):
        estimate_alpha(profile)


def test_profile_tie_order_first_seen():
    profile = build_popularity_profile(
        [rec(0, "B"), rec(1, "A"), rec(2, "B"), rec(3, "A"), rec(4, "C")]
    )
    assert profile.object_ids == ("B", "A", "C")


def test_profile_counts_uncacheable_only_in_K():
    profile = build_popularity_profile(
        [rec(0, "A"), rec(1, "u1", cacheable=False), rec(2, "A")]
    )
    assert profile.k == 2
    assert profile.K == 3


def test_profile_window_filter():
    records = [rec(0, "A"), rec(0.5 * DAY, "A"), rec(2 * DAY, "B")]
    profile = build_popularity_profile(records, window_days=1.0)
    assert profile.p == 1
    assert profile.k == 2
    assert profile.window_days == 1.0


def reference_profile(records, window_days=None):
    """The per-record dict loop build_popularity_profile replaces."""
    counts, total, start, end, cutoff = {}, 0, None, None, None
    for r in records:
        if start is None:
            start = r.timestamp
            if window_days is not None:
                cutoff = start + window_days * DAY
        if cutoff is not None and r.timestamp >= cutoff:
            continue
        end = r.timestamp
        total += 1
        if r.cacheable:
            counts[r.object_id] = counts.get(r.object_id, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    window_end = start + window_days * DAY if window_days is not None else end
    return [c for _, c in ranked], tuple(o for o, _ in ranked), start, window_end, total


@st.composite
def profile_cases(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 600.0, DAY / 3]), min_size=n, max_size=n))
    times = np.cumsum(gaps).tolist()
    records = [
        rec(t, draw(st.sampled_from(["A", "B", "C", "a,b", 'q"', "", "D"])),
            cacheable=draw(st.sampled_from([True, True, False])))
        for t in times
    ]
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    return records, draw(st.sampled_from([None, 0.5, 1.0, 2.0]))


@given(case=profile_cases())
@settings(max_examples=300, deadline=None)
def test_profile_list_and_trace_match_reference(case):
    records, window_days = case
    expected = reference_profile(records, window_days)
    trace = Trace.from_records(records)
    window = trace
    if window_days is not None:
        window = trace[trace.timestamps < records[0].timestamp + window_days * DAY]
    builds = [lambda: build_popularity_profile(records, window_days),
              lambda: build_popularity_profile(trace, window_days)]
    for rows in (1, 7):
        fold = ProfileFold(window_days)
        # The cut blocks keep every id, so they concatenate to the window.
        assert Trace.from_blocks([fold.add(block) for block in trace.blocks(rows)]) == window
        builds.append(fold.profile)
    for build in builds:
        if not expected[0]:
            with pytest.raises(ValueError):
                build()
            continue
        got = build()
        assert got.counts.tolist() == expected[0]
        assert got.object_ids == expected[1]  # tie order included
        assert (got.window_start_s, got.window_end_s, got.total_requests) == expected[2:]
        assert got.window_days == (expected[3] - expected[2]) / DAY


def test_profile_requires_cacheable_records():
    with pytest.raises(ValueError):
        build_popularity_profile([rec(0, "x", cacheable=False)])


def test_profile_rejects_malformed_construction():
    with pytest.raises(ValueError, match="non-increasing"):
        PopularityProfile(np.array([1, 2]), ("a", "b"), 0.0, DAY, 3)
    with pytest.raises(ValueError, match="at least one request"):
        PopularityProfile(np.array([2, 0]), ("a", "b"), 0.0, DAY, 2)
    with pytest.raises(ValueError, match="cannot be below"):
        PopularityProfile(np.array([2, 1]), ("a", "b"), 0.0, DAY, 2)


def test_profile_ranked_list_shape():
    # A ranked list whose last twice-requested line sits at rank 78166 out of
    # 200045, with rank 457 counted 112 times.
    counts = np.concatenate(
        [
            np.linspace(5000, 113, 456).astype(np.int64),
            [112],
            np.full(78166 - 457, 2, dtype=np.int64),
            np.ones(200045 - 78166, dtype=np.int64),
        ]
    )
    profile = profile_from_counts(counts)
    assert profile.p == 200045
    assert profile.M == 78166
    assert profile.counts[456] == 112
    # the head-sum identity holds exactly
    assert profile.counts[: profile.M].sum() == profile.k - profile.p + profile.M


# --- exponent estimator ---------------------------------------------------------


def synthetic_profile_for(M, p, k):
    """Any descending integer profile realizing the three special points."""
    head = k - p + M  # head mass forced by the identity
    counts = np.full(M, 2, dtype=np.int64)
    counts[0] += head - 2 * M
    return profile_from_counts(np.concatenate([counts, np.ones(p - M, dtype=np.int64)]))


@pytest.mark.parametrize(
    "M,p,k,alpha",
    [
        (99_000, 310_000, 1_040_000, 0.7612),
        (201_000, 607_000, 2_500_000, 0.8080),
    ],
)
def test_alpha_reference_rows(M, p, k, alpha):
    profile = synthetic_profile_for(M, p, k)
    assert (profile.M, profile.p, profile.k) == (M, p, k)
    assert estimate_alpha(profile) == pytest.approx(alpha, abs=5e-4)


def test_alpha_zero_when_head_is_all_pairs():
    # Everything requested twice up to M, singletons after: k-p+M == 2M.
    counts = [2] * 100 + [1] * 50
    assert estimate_alpha(profile_from_counts(counts)) == 0.0


@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=300).filter(
        lambda xs: any(x >= 2 for x in xs)
    )
)
@settings(max_examples=150)
def test_alpha_forms_identical_on_random_profiles(counts):
    profile = profile_from_counts(counts)
    M, p, k = profile.M, profile.p, profile.k
    head = int(profile.counts[:M].sum())
    assert head == k - p + M
    assert estimate_alpha(profile) == 1.0 - 2.0 * M / head


# --- cacheable fraction ----------------------------------------------------------


def test_cacheable_fraction_reference_rows():
    assert compute_cacheable_fraction(10.4e5, 56.5e3, 31) == pytest.approx(0.59, abs=0.01)
    assert compute_cacheable_fraction(25.0e5, 69.8e3, 61) == pytest.approx(0.59, abs=0.01)


def test_cacheable_fraction_saturates_at_one():
    assert compute_cacheable_fraction(700.0, 70.0, 10.0) == 1.0


def test_cacheable_fraction_zero_denominator():
    with pytest.raises(ValueError):
        compute_cacheable_fraction(10.0, 0.0, 5.0)


# --- renewal observables ----------------------------------------------------------


def test_renewal_observables_zero_deficit_case():
    profile = synthetic_profile_for(M=20, p=60, k=100)
    obs = renewal_observables(profile_with_K(profile, 200), hit_ratio=0.3)
    assert obs.delta_h == pytest.approx(0.0, abs=1e-12)
    assert obs.delta_k == pytest.approx(0.0, abs=1e-12)
    assert obs.k_r == pytest.approx(100.0)


def profile_with_K(profile, K):
    return PopularityProfile(
        counts=profile.counts,
        object_ids=profile.object_ids,
        window_start_s=profile.window_start_s,
        window_end_s=profile.window_end_s,
        total_requests=K,
    )


def test_renewal_alpha_r_zero_when_hits_twice_M():
    profile = synthetic_profile_for(M=30, p=100, k=200)
    obs = renewal_observables(profile_with_K(profile, 200), hit_ratio=0.3)  # H*K = 60 = 2M
    assert obs.alpha_r == pytest.approx(0.0, abs=1e-12)


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=200).filter(
        lambda xs: any(x >= 2 for x in xs)
    ),
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=150)
def test_renewal_budget_identity(counts, hit_ratio, extra):
    profile = profile_from_counts(counts, extra_requests=extra)
    obs = renewal_observables(profile, hit_ratio)
    assert obs.k_r + obs.delta_k == pytest.approx(profile.k, rel=1e-12)
    assert obs.delta_k == pytest.approx(obs.delta_h * profile.K, rel=1e-12)


def test_renewal_rejects_bad_hit_ratio():
    profile = synthetic_profile_for(M=5, p=10, k=20)
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            renewal_observables(profile, bad)


# --- merging -----------------------------------------------------------------------


def test_merge_with_empty_is_identity():
    profile = build_popularity_profile([rec(0, "A"), rec(1, "A"), rec(2, "B")])
    merged = merge_profiles(profile, PopularityProfile.empty())
    assert merged is profile
    assert merge_profiles(PopularityProfile.empty(), profile) is profile


def test_merge_commutes_on_scalars():
    a = build_popularity_profile([rec(0, "A"), rec(1, "B"), rec(2, "A")])
    b = build_popularity_profile([rec(2 * DAY, "B"), rec(2 * DAY + 1, "C")])
    ab, ba = merge_profiles(a, b), merge_profiles(b, a)
    assert ab.counts.tolist() == ba.counts.tolist()
    assert sorted(ab.object_ids) == sorted(ba.object_ids)
    assert (ab.p, ab.M, ab.k, ab.K) == (ba.p, ba.M, ba.k, ba.K)


def test_merge_halves_equals_whole():
    spec = SyntheticWorkloadSpec(
        universe_size=500, zipf_alpha=0.7, clients=3, per_client_rate=2000.0, horizon_days=1.0, seed=5
    )
    records = generate_synthetic_trace(spec).records
    mid = len(records) // 2
    whole = build_popularity_profile(records)
    first = build_popularity_profile(records[:mid])
    second = build_popularity_profile(records[mid:])
    merged = merge_profiles(first, second)
    assert dict(zip(merged.object_ids, merged.counts.tolist())) == dict(
        zip(whole.object_ids, whole.counts.tolist())
    )
    assert (merged.p, merged.M, merged.k, merged.K) == (whole.p, whole.M, whole.k, whole.K)
    assert estimate_alpha(merged) == estimate_alpha(whole)
    assert merged.window_days == pytest.approx(whole.window_days)


def test_merge_rejects_overlapping_windows():
    a = build_popularity_profile([rec(0, "A"), rec(10, "A")])
    b = build_popularity_profile([rec(5, "B"), rec(15, "B")])
    with pytest.raises(ValueError):
        merge_profiles(a, b)


def test_merge_associative_up_to_tie_order():
    thirds = [
        build_popularity_profile([rec(0, "A"), rec(1, "B"), rec(2, "A")]),
        build_popularity_profile([rec(DAY, "B"), rec(DAY + 1, "C")]),
        build_popularity_profile([rec(2 * DAY, "C"), rec(2 * DAY + 1, "A")]),
    ]
    left = merge_profiles(merge_profiles(thirds[0], thirds[1]), thirds[2])
    right = merge_profiles(thirds[0], merge_profiles(thirds[1], thirds[2]))
    assert dict(zip(left.object_ids, left.counts.tolist())) == dict(
        zip(right.object_ids, right.counts.tolist())
    )
    assert (left.p, left.M, left.k, left.K) == (right.p, right.M, right.k, right.K)
    assert left.window_days == right.window_days


# --- growth constant ----------------------------------------------------------------


def test_growth_constant_reference_value():
    assert alpha_growth_constant(0.76, 31, 0.81, 61) == pytest.approx(0.0739, abs=5e-4)


def test_growth_constant_zero_when_alpha_unchanged():
    assert alpha_growth_constant(0.8, 10, 0.8, 20) == 0.0


def test_growth_constant_antisymmetric():
    fwd = alpha_growth_constant(0.7, 10, 0.8, 40)
    rev = alpha_growth_constant(0.8, 40, 0.7, 10)
    assert fwd == pytest.approx(rev, rel=1e-12)  # both positive: slope is direction-free
    assert alpha_growth_constant(0.8, 10, 0.7, 40) == pytest.approx(-fwd, rel=1e-12)


def test_growth_constant_equal_windows_error():
    with pytest.raises(ValueError):
        alpha_growth_constant(0.7, 10, 0.8, 10)


# --- lifetimes -----------------------------------------------------------------------


def test_lifetime_single_eviction_after_one_day():
    config = CacheConfig(capacity_bytes=1, policy=Policy.LRU, byte_accounting=False)
    records = [rec(0.0, "A"), rec(DAY, "B")]
    fold = LifetimeFold()
    replay(Trace.from_records(records).blocks(), [config], None, [fold.add])
    stats = fold.stats()
    assert stats.t_u.mean_days == pytest.approx(1.0)
    assert stats.t_u.count == 1
    assert stats.t_u.stderr_days is None
    assert stats.t_eff.count == 0


# The t_u ~ T_eff coincidence claim on synthetic traces is exercised (and
# deliberately red) in tests/test_acceptance.py::test_criterion_11_*; see the
# module docstring there for why a memoryless workload cannot satisfy it.


def test_lifetime_no_evictions_at_infinite_capacity():
    config = CacheConfig(capacity_bytes=10**15, policy=Policy.LRU)
    records = [rec(i * 10.0, f"o{i % 5}") for i in range(100)]
    fold = LifetimeFold()
    replay(Trace.from_records(records).blocks(), [config], None, [fold.add])
    stats = fold.stats()
    assert stats.t_u.count == 0 and stats.t_u.mean_days is None
    assert stats.t_eff.count == 0


def test_lifetimes_from_eviction_log_groups_by_count():
    evs = [
        Eviction("a", 0.0, DAY, 1),
        Eviction("b", 0.0, 3 * DAY, 1),
        Eviction("c", 0.0, 2 * DAY, 2),
        Eviction("d", 0.0, 5 * DAY, 7),
    ]
    stats = lifetimes_from_evictions(evs)
    assert stats.t_u.mean_days == pytest.approx(2.0)
    assert stats.t_u.stderr_days == pytest.approx(np.std([1, 3], ddof=1) / math.sqrt(2))
    assert stats.t_eff.mean_days == pytest.approx(2.0)
    assert stats.t_eff.count == 1


@pytest.mark.parametrize("policy", list(Policy))
def test_lifetime_fold_as_sink_equals_grouping_the_eviction_list(policy):
    """The fold fed during the replay gives the bits of numpy over each class's list."""
    rng = random.Random(5)
    records = [rec(t * 600.0, f"o{int(rng.paretovariate(0.8)) % 300}") for t in range(5000)]
    config = CacheConfig(capacity_bytes=40, policy=policy, byte_accounting=False)
    evictions, fold, alone = [], LifetimeFold(), LifetimeFold()
    replay(Trace.from_records(records).blocks(), [config, config], None,
           [evictions.append, fold.add])
    replay(Trace.from_records(records).blocks(), [config], None, [alone.add])
    for count, sample in ((1, fold.stats().t_u), (2, fold.stats().t_eff)):
        durations = np.array([e.duration_days for e in evictions if e.count == count])
        assert sample.count == len(durations) >= 2
        assert sample.mean_days == float(durations.mean())
        assert sample.stderr_days == float(durations.std(ddof=1) / math.sqrt(len(durations)))
    assert fold.stats() == lifetimes_from_evictions(evictions) == alone.stats()


# --- measurement summary ---------------------------------------------------------------


def test_summary_json_field_names_pinned():
    from zcl.simcache import simulate

    records = [rec(i * 3600.0, f"o{i % 3}", size=2048) for i in range(48)]
    result = simulate(records, CacheConfig(capacity_bytes=10**9))
    summary = analytics.MeasurementSummary.from_simulation(result)
    doc = summary.to_json_dict()
    assert set(doc) == {
        "S_eff_over_nu_int_days",
        "nu_out_Rpd",
        "nu_int_Rpd",
        "H_pct",
        "nu_B_out_kbps",
        "nu_B_int_kbps",
        "HB_pct",
        "E_C_kbyte",
        "E_S_kbyte",
        "T_st_days",
    }
    # 48 requests over 47 hours, 45 hits (3 distinct objects)
    assert doc["H_pct"] == pytest.approx(100.0 * 45 / 48)
    assert doc["nu_out_Rpd"] == pytest.approx(48 / (47 / 24))
    assert doc["nu_int_Rpd"] == pytest.approx(3 / (47 / 24))
    assert doc["E_C_kbyte"] == pytest.approx(2.0)
    assert doc["E_S_kbyte"] == pytest.approx(2.0)
