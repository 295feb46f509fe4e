"""Synthetic proxy workloads with known ground truth.

Requests arrive as a merged Poisson process from N clients, object choice is
Zipf(alpha) over a fixed universe, and (optionally) every object's content
changes according to its own Poisson process whose rate may depend on
popularity rank.  Everything is driven by one seed, so a spec+seed pair
always reproduces the identical record stream and change log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import RenewalModel, mu_of_rank
from .trace import Trace

__all__ = [
    "NoRenewal",
    "TwoValuedRenewal",
    "RankDependentRenewal",
    "SyntheticWorkloadSpec",
    "SyntheticTrace",
    "generate_synthetic_trace",
]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class NoRenewal:
    """Documents never change."""

    def rates(self, universe: int, alpha: float, horizon_days: float) -> np.ndarray:
        return np.zeros(universe)


@dataclass(frozen=True)
class TwoValuedRenewal:
    """One change rate for popular ranks, another for the rest (rates per day)."""

    mu_popular: float
    mu_unpopular: float
    popular_cutoff: int

    def __post_init__(self):
        if self.mu_popular < 0 or self.mu_unpopular < 0:
            raise ValueError("change rates must be non-negative")
        if self.popular_cutoff < 1:
            raise ValueError("popular cutoff must be >= 1")

    def rates(self, universe: int, alpha: float, horizon_days: float) -> np.ndarray:
        mus = np.full(universe, self.mu_unpopular)
        mus[: min(self.popular_cutoff, universe)] = self.mu_popular
        return mus


@dataclass(frozen=True)
class RankDependentRenewal:
    """Rank-dependent change rate derived from a second, flatter exponent.

    mu(i) = ((p/i)**alpha - (p/i)**alpha_r) / window; alpha_r must not
    exceed the workload's popularity exponent.  When window_days is left
    None the generation horizon is used as the observation window.
    """

    alpha_r: float
    window_days: float | None = None

    def rates(self, universe: int, alpha: float, horizon_days: float) -> np.ndarray:
        window = self.window_days if self.window_days is not None else horizon_days
        model = RenewalModel(alpha, self.alpha_r, window, universe)
        ranks = np.arange(1, universe + 1, dtype=float)
        log_ratio = np.log(universe / ranks)
        # Vectorized twin of mu_of_rank (same expm1 evaluation); parity is
        # asserted at the endpoints.
        mus = np.exp(self.alpha_r * log_ratio) * np.expm1((alpha - self.alpha_r) * log_ratio) / window
        for probe in (1, universe):
            expect = mu_of_rank(model, probe)
            if abs(mus[probe - 1] - expect) > 1e-9 * max(expect, 1.0):
                raise AssertionError("vectorized change rates diverge from mu_of_rank")
        return np.maximum(mus, 0.0)


Renewal = NoRenewal | TwoValuedRenewal | RankDependentRenewal


@dataclass(frozen=True)
class SyntheticWorkloadSpec:
    """Knobs of the generator.

    universe_size:      cacheable object universe n
    zipf_alpha:         popularity exponent in (0, 1)
    clients:            number of clients N
    per_client_rate:    requests/day per client (lambda)
    horizon_days:       trace length T
    cacheable_fraction: probability a request targets the cacheable universe;
                        the remainder goes to a disjoint universe of size
                        max(1, n // 10) with the same exponent
    renewal:            NoRenewal, TwoValuedRenewal or RankDependentRenewal
    size_mean_bytes:    mean of the per-object lognormal size law
    size_sigma:         sigma of the size law (log scale); sizes are fixed
                        per object, not per request
    seed:               single source of randomness
    """

    universe_size: int
    zipf_alpha: float
    clients: int = 1
    per_client_rate: float = 10_000.0
    horizon_days: float = 1.0
    cacheable_fraction: float = 1.0
    renewal: Renewal = field(default_factory=NoRenewal)
    size_mean_bytes: float = 13_312.0
    size_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        if not 0.0 < self.zipf_alpha < 1.0:
            raise ValueError(f"zipf_alpha must lie in (0, 1), got {self.zipf_alpha}")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.per_client_rate <= 0 or self.horizon_days <= 0:
            raise ValueError("rates and horizon must be positive")
        if not 0.0 < self.cacheable_fraction <= 1.0:
            raise ValueError("cacheable_fraction must lie in (0, 1]")
        if isinstance(self.renewal, RankDependentRenewal):
            if self.renewal.alpha_r > self.zipf_alpha:
                raise ValueError(
                    "rank-dependent renewal needs alpha_r <= zipf_alpha"
                )
        if self.size_mean_bytes < 1 or self.size_sigma < 0:
            raise ValueError("bad size model")


@dataclass
class SyntheticTrace:
    """Generated records plus the ground truth behind them."""

    records: Trace
    changes: dict[str, list[float]]  # object_id -> sorted change times (s)
    change_rates: dict[str, float]  # object_id -> rate per day, zero omitted


class _ZipfSampler:
    """Inverse-CDF sampling of ranks 1..n with weights i**-alpha.

    The cumulative table costs O(n) once; each draw is a binary search.
    """

    def __init__(self, n: int, alpha: float):
        weights = np.arange(1, n + 1, dtype=float) ** -alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random(count)
        return np.searchsorted(self._cdf, u, side="left") + 1


def _object_sizes(rng: np.random.Generator, n: int, mean: float, sigma: float) -> np.ndarray:
    # E[lognormal(m, s)] = exp(m + s^2/2); solve m for the requested mean.
    m = math.log(mean) - sigma**2 / 2.0
    sizes = rng.lognormal(mean=m, sigma=sigma, size=n)
    return np.maximum(1, np.rint(sizes)).astype(np.int64)


def generate_synthetic_trace(spec: SyntheticWorkloadSpec) -> SyntheticTrace:
    """Generate the record stream and change log described by ``spec``.

    Draw order is fixed (arrivals, clients, cacheable flags, ranks, sizes,
    change events), so identical specs yield bit-identical streams.  Records
    come out in time order, as the columns of one Trace.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.universe_size
    total_rate = spec.clients * spec.per_client_rate  # requests/day
    horizon_s = spec.horizon_days * SECONDS_PER_DAY

    count = int(rng.poisson(total_rate * spec.horizon_days))
    times = np.sort(rng.random(count)) * horizon_s
    client_ids = rng.integers(0, spec.clients, size=count)
    cacheable = (
        np.ones(count, dtype=bool)
        if spec.cacheable_fraction >= 1.0
        else rng.random(count) < spec.cacheable_fraction
    )

    n_cacheable = int(cacheable.sum())
    ranks = np.zeros(count, dtype=np.int64)
    ranks[cacheable] = _ZipfSampler(n, spec.zipf_alpha).draw(rng, n_cacheable)
    n_other = count - n_cacheable
    other_universe = max(1, n // 10)
    if n_other:
        ranks[~cacheable] = _ZipfSampler(other_universe, spec.zipf_alpha).draw(
            rng, n_other
        )

    sizes = _object_sizes(rng, n, spec.size_mean_bytes, spec.size_sigma)
    other_sizes = _object_sizes(rng, other_universe, spec.size_mean_bytes, spec.size_sigma)

    # Object change processes: Poisson(mu_i * T) events, each uniform on the
    # horizon, sorted per object.
    mus = spec.renewal.rates(n, spec.zipf_alpha, spec.horizon_days)
    changes: dict[str, list[float]] = {}
    change_rates: dict[str, float] = {}
    active = np.nonzero(mus > 0)[0]
    if active.size:
        event_counts = rng.poisson(mus[active] * spec.horizon_days)
        for idx, n_events in zip(active, event_counts):
            obj = f"o{idx + 1}"
            change_rates[obj] = float(mus[idx])
            if n_events:
                changes[obj] = sorted((rng.random(int(n_events)) * horizon_s).tolist())

    # Ids only for ranks that occur: cacheable rank r keys as r, uncacheable
    # rank r as -r, so one np.unique gives the id table and the codes.
    keys = np.where(cacheable, ranks, -ranks)
    occurring, codes = np.unique(keys, return_inverse=True)
    request_sizes = np.empty(count, dtype=np.int64)
    request_sizes[cacheable] = sizes[ranks[cacheable] - 1]
    request_sizes[~cacheable] = other_sizes[ranks[~cacheable] - 1]
    records = Trace(
        timestamps=times,
        objects=codes.astype(np.int32),
        object_ids=tuple(f"o{k}" if k > 0 else f"u{-k}" for k in occurring.tolist()),
        clients=client_ids.astype(np.int32),
        client_ids=tuple(f"c{i}" for i in range(spec.clients)),
        sizes=request_sizes,
        cacheable=cacheable,
    )
    return SyntheticTrace(records=records, changes=changes, change_rates=change_rates)
