"""Empirical observables of a request stream.

The central object is the popularity profile: per-object request counts of
the cacheable traffic in an observation window, ranked descending.  Its two
special ranks drive everything else: p, the number of distinct cacheable
objects, and M, the last rank requested at least twice.  The exact identity

    sum(counts[:M]) == k - p + M        (k = total cacheable requests)

holds for every profile because all ranks beyond M have count exactly one,
and it is what makes the exponent estimator a pure function of (M, p, k).
ProfileFold builds the profile one block of a trace stream at a time, so
its memory grows with the number of objects, not with the trace length.
LifetimeFold takes the simulator's evictions one at a time, as its
eviction sink, and keeps only the durations the residence means need.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .trace import SECONDS_PER_DAY, Block, Trace, TraceRecord

__all__ = [
    "PopularityProfile",
    "ProfileFold",
    "LifetimeSample",
    "LifetimeStats",
    "LifetimeFold",
    "RenewalObservables",
    "MeasurementSummary",
    "build_popularity_profile",
    "estimate_alpha",
    "compute_cacheable_fraction",
    "renewal_observables",
    "lifetimes_from_evictions",
    "merge_profiles",
    "alpha_growth_constant",
    "export_profile_csv",
]


@dataclass(frozen=True)
class PopularityProfile:
    """Ranked cacheable request counts over one observation window.

    counts are descending, ties broken by first appearance in the stream so
    construction is deterministic; object_ids is rank-aligned.  K counts all
    requests in the window, cacheable or not.
    """

    counts: np.ndarray
    object_ids: tuple[str, ...]
    window_start_s: float
    window_end_s: float
    total_requests: int

    def __post_init__(self):
        c = self.counts
        if c.size != len(self.object_ids):
            raise ValueError("counts and object_ids must be rank-aligned")
        if c.size:
            if c[-1] < 1:
                raise ValueError("every ranked object needs at least one request")
            if (c[:-1] < c[1:]).any():
                raise ValueError("counts must be non-increasing")
        if self.total_requests < int(c.sum()):
            raise ValueError("total requests K cannot be below cacheable requests k")

    @classmethod
    def empty(cls) -> "PopularityProfile":
        return cls(np.zeros(0, dtype=np.int64), (), 0.0, 0.0, 0)

    @property
    def p(self) -> int:
        """Distinct cacheable objects."""
        return int(self.counts.size)

    @property
    def k(self) -> int:
        """Total cacheable requests."""
        return int(self.counts.sum())

    @property
    def M(self) -> int:
        """Last rank with count >= 2 (0 when every object was seen once)."""
        return int((self.counts >= 2).sum())

    @property
    def K(self) -> int:
        return self.total_requests

    @property
    def window_days(self) -> float:
        return (self.window_end_s - self.window_start_s) / SECONDS_PER_DAY

    def is_empty(self) -> bool:
        return self.counts.size == 0


class ProfileFold:
    """The popularity profile of a block stream, folded one block at a time.

    The window starts at the stream's first request, cacheable or not.  With
    window_days it ends that many days later and holds every request before
    its end, wherever the request stands in the stream; without, it holds
    every request and ends at the last one's timestamp.  add(block) counts
    the block's in-window cacheable requests per object code and returns the
    block cut to the window, with its new ids kept, because codes index the
    id table of the whole stream.  profile() ranks the counts: descending,
    ties in order of first cacheable request in the window.  Memory grows
    with the number of objects, not with the number of requests.
    """

    def __init__(self, window_days: float | None = None):
        self.window_days = window_days
        self._ids: list[str] = []
        self._counts = np.zeros(0, dtype=np.int64)  # cacheable requests per code
        self._order: list[np.ndarray] = []  # codes by first cacheable request
        self._start: float | None = None
        self._last = 0.0
        self._total = 0

    def _window_end(self) -> float:
        if self.window_days is None:
            return self._last
        return self._start + self.window_days * SECONDS_PER_DAY

    def add(self, block: Block) -> Block:
        self._ids += block.new_object_ids
        times = block.timestamps
        if len(times):
            if self._start is None:
                self._start = float(times[0])
            self._last = float(times[-1])
            if self.window_days is not None:
                inside = times < self._window_end()
                if not inside.all():
                    # Cut the six columns; keep the new ids.
                    block = Block(*(c if c is None else c[inside] for c in block[:6]), *block[6:])
        self._total += len(block.timestamps)
        codes = block.objects[block.cacheable]
        grown = len(self._ids) - len(self._counts)
        if grown:
            self._counts = np.concatenate((self._counts, np.zeros(grown, dtype=np.int64)))
        seen, at = np.unique(codes, return_index=True)
        self._order.append(codes[np.sort(at[self._counts[seen] == 0])])
        self._counts += np.bincount(codes, minlength=len(self._counts))
        return block

    def profile(self) -> PopularityProfile:
        """The ranked profile of the blocks added so far.

        Raises ValueError when no cacheable request fell inside the window.
        """
        if not self._counts.any():
            raise ValueError("no cacheable records in window: profile undefined")
        order = np.concatenate(self._order)
        ranked = order[np.argsort(-self._counts[order], kind="stable")]
        return PopularityProfile(
            counts=self._counts[ranked],
            object_ids=tuple(self._ids[code] for code in ranked.tolist()),
            window_start_s=self._start,
            window_end_s=self._window_end(),
            total_requests=self._total,
        )


def build_popularity_profile(
    records: Iterable[TraceRecord], window_days: float | None = None
) -> PopularityProfile:
    """Count cacheable requests per object and rank them by popularity.

    The records (a Trace, or any record iterable) are folded by ProfileFold
    in the blocks of Trace.blocks; see ProfileFold for the window.  Raises
    ValueError when no cacheable record falls inside the window.
    """
    fold = ProfileFold(window_days)
    for block in Trace.from_records(records).blocks():
        fold.add(block)
    return fold.profile()


def estimate_alpha(profile: PopularityProfile) -> float:
    """Zipf exponent from the special points: alpha = 1 - 2M / (k - p + M).

    The denominator equals sum(counts[:M]) exactly (see module docstring);
    both forms are computed and must agree to machine precision.  M == 0
    leaves the exponent undefined and raises ValueError.
    """
    M = profile.M
    if M == 0:
        raise ValueError("no object was requested twice: exponent undefined")
    head = int(profile.counts[:M].sum())
    identity = profile.k - profile.p + M
    from_sum = 1.0 - 2.0 * M / head
    from_identity = 1.0 - 2.0 * M / identity
    if from_sum != from_identity:
        raise AssertionError(
            f"estimator forms disagree ({from_sum!r} vs {from_identity!r}); "
            "profile invariant broken"
        )
    return from_identity


def compute_cacheable_fraction(k: float, nu_out: float, window_days: float) -> float:
    """Fraction of cacheable documents: p_c = k / (nu_out * T_st)."""
    denom = nu_out * window_days
    if denom <= 0:
        raise ValueError(f"nu_out * window must be positive, got {denom}")
    return k / denom


@dataclass(frozen=True)
class RenewalObservables:
    """Renewal effect extracted from a profile and the measured hit ratio H.

    delta_h:  hit-ratio deficit attributed to documents changing upstream
    delta_k:  number of updating requests, delta_h * K
    k_r:      requests explained without renewal, H*K + p - M
    alpha_r:  flattened exponent of the actually-served stream, 1 - 2M/(H*K)

    k_r + delta_k == k exactly.
    """

    delta_h: float
    delta_k: float
    k_r: float
    alpha_r: float


def renewal_observables(profile: PopularityProfile, hit_ratio: float) -> RenewalObservables:
    """Split repeat traffic into cached hits and renewal-forced refetches."""
    if not 0.0 < hit_ratio <= 1.0:
        raise ValueError(f"hit ratio must lie in (0, 1], got {hit_ratio}")
    M, p, k, K = profile.M, profile.p, profile.k, profile.K
    if M == 0:
        raise ValueError("degenerate profile (M == 0): renewal split undefined")
    hk = hit_ratio * K
    if hk <= 0:
        raise ValueError("H*K must be positive")
    delta_h = (k - p + M - hk) / K
    return RenewalObservables(
        delta_h=delta_h,
        delta_k=delta_h * K,
        k_r=hk + p - M,
        alpha_r=1.0 - 2.0 * M / hk,
    )


@dataclass(frozen=True)
class LifetimeSample:
    """Mean residence of one object class, with standard error when n >= 2."""

    mean_days: float | None
    stderr_days: float | None
    count: int


@dataclass(frozen=True)
class LifetimeStats:
    """Replay-measured residence times.

    Evictions are classed by their count, the requests since the cache last
    made the object's entry: t_u covers evictions of count 1, t_eff those of
    count 2.  Under LRU an entry lives for one residency, so the count is the
    requests of that residency.  Under the construction the entry lives in
    the managing part across residencies, and its count is the kernel's
    ordering key, so count 1 is exactly an accessory residency: t_u is the
    accessory's residence time, and t_eff the stay of objects that reached
    the kernel on their second request, a ghost's return included.  A
    count taken at the start of each residency instead would class a
    returning ghost's kernel stay as once-requested, though the kernel holds
    it as requested twice.  Objects still resident at the end of the stream
    are censored and contribute nothing.
    """

    t_u: LifetimeSample
    t_eff: LifetimeSample


def _sample_from(durations_days: Sequence[float]) -> LifetimeSample:
    n = len(durations_days)
    if n == 0:
        return LifetimeSample(None, None, 0)
    arr = np.asarray(durations_days, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(n)) if n >= 2 else None
    return LifetimeSample(mean, stderr, n)


class LifetimeFold:
    """Residence times of a stream of evictions, folded one eviction at a time.

    add(eviction) is an eviction sink for the simulator.  It keeps only the
    durations, in days, of the evictions whose count, the requests since the
    object's entry was made, is 1 (t_u) or 2 (t_eff); see LifetimeStats.
    They are float64 arrays, so stats() gives the same bits as grouping a
    whole eviction list.
    """

    def __init__(self):
        self._once = array("d")
        self._twice = array("d")

    def add(self, eviction) -> None:
        if eviction.count == 1:
            self._once.append(eviction.duration_days)
        elif eviction.count == 2:
            self._twice.append(eviction.duration_days)

    def stats(self) -> LifetimeStats:
        return LifetimeStats(t_u=_sample_from(self._once), t_eff=_sample_from(self._twice))


def lifetimes_from_evictions(evictions) -> LifetimeStats:
    """Group evictions into the once- and twice-requested residence means."""
    fold = LifetimeFold()
    for eviction in evictions:
        fold.add(eviction)
    return fold.stats()


def merge_profiles(a: PopularityProfile, b: PopularityProfile) -> PopularityProfile:
    """Combine profiles of two disjoint windows of the same object namespace.

    Per-object counts are summed and re-ranked; K is additive; the merged
    window spans both inputs.  Overlapping windows would double-count and
    raise ValueError.
    """
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    if max(a.window_start_s, b.window_start_s) < min(a.window_end_s, b.window_end_s):
        raise ValueError("profiles cover overlapping windows; refusing to double count")
    merged: dict[str, int] = {}
    for prof in (a, b):
        for obj, cnt in zip(prof.object_ids, prof.counts):
            merged[obj] = merged.get(obj, 0) + int(cnt)
    ranked = sorted(merged.items(), key=lambda kv: -kv[1])
    return PopularityProfile(
        counts=np.fromiter((c for _, c in ranked), dtype=np.int64, count=len(ranked)),
        object_ids=tuple(obj for obj, _ in ranked),
        window_start_s=min(a.window_start_s, b.window_start_s),
        window_end_s=max(a.window_end_s, b.window_end_s),
        total_requests=a.total_requests + b.total_requests,
    )


def alpha_growth_constant(
    alpha1: float, window1_days: float, alpha2: float, window2_days: float
) -> float:
    """Log-slope of the exponent across observation windows.

    alpha grows roughly logarithmically with the measurement window; the
    constant is (alpha2 - alpha1) / ln(T2 / T1).  Equal windows make the
    slope undefined.
    """
    if window1_days <= 0 or window2_days <= 0:
        raise ValueError("windows must be positive")
    if window1_days == window2_days:
        raise ValueError("equal windows: growth constant undefined")
    return (alpha2 - alpha1) / math.log(window2_days / window1_days)


def export_profile_csv(profile: PopularityProfile, out: IO[str]) -> int:
    """Write `rank,object_id,count` rows, rank ascending (count descending)."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "object_id", "count"])
    for rank, (obj, cnt) in enumerate(zip(profile.object_ids, profile.counts), start=1):
        writer.writerow([rank, obj, int(cnt)])
    return profile.p


@dataclass(frozen=True)
class MeasurementSummary:
    """Headline measurements of one simulated (or logged) configuration.

    Mirrors the usual proxy report: request rates on the user side (nu_out)
    and the network side (nu_int), hit ratios by requests and by bytes,
    mean document sizes from cache E(C) and from the network E(S), and the
    observation window.  KByte is 1024 bytes; Kbit/s uses 1000.
    """

    nu_out_rpd: float
    nu_int_rpd: float
    hit_ratio: float
    nu_b_out_kbps: float
    nu_b_int_kbps: float
    byte_hit_ratio: float
    mean_cache_doc_kbyte: float | None
    mean_origin_doc_kbyte: float | None
    window_days: float
    size_to_traffic_days: float | None

    @classmethod
    def from_simulation(cls, result) -> "MeasurementSummary":
        days = result.duration_days
        seconds = days * SECONDS_PER_DAY
        origin_requests = result.requests - result.hits
        to_kbps = lambda nbytes: nbytes * 8.0 / 1000.0 / seconds if seconds > 0 else math.nan
        e_c = result.hit_bytes / result.hits / 1024.0 if result.hits else None
        e_s = result.origin_bytes / origin_requests / 1024.0 if origin_requests else None
        # Cache size expressed as days of network-side flow: bytes of origin
        # traffic normally, origin requests when capacity is counted in objects.
        size_days = None
        flow = result.origin_bytes if result.byte_accounting else origin_requests
        if flow > 0 and days > 0:
            size_days = result.capacity_bytes / (flow / days)
        return cls(
            nu_out_rpd=result.nu_out,
            nu_int_rpd=result.nu_int,
            hit_ratio=result.hit_ratio,
            nu_b_out_kbps=to_kbps(result.total_bytes),
            nu_b_int_kbps=to_kbps(result.origin_bytes),
            byte_hit_ratio=result.byte_hit_ratio,
            mean_cache_doc_kbyte=e_c,
            mean_origin_doc_kbyte=e_s,
            window_days=days,
            size_to_traffic_days=size_days,
        )

    def to_json_dict(self) -> dict:
        return {
            "S_eff_over_nu_int_days": self.size_to_traffic_days,
            "nu_out_Rpd": self.nu_out_rpd,
            "nu_int_Rpd": self.nu_int_rpd,
            "H_pct": self.hit_ratio * 100.0,
            "nu_B_out_kbps": self.nu_b_out_kbps,
            "nu_B_int_kbps": self.nu_b_int_kbps,
            "HB_pct": self.byte_hit_ratio * 100.0,
            "E_C_kbyte": self.mean_cache_doc_kbyte,
            "E_S_kbyte": self.mean_origin_doc_kbyte,
            "T_st_days": self.window_days,
        }
