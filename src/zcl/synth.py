"""Synthetic proxy workloads with known ground truth.

Requests arrive as a merged Poisson process from N clients, object choice is
Zipf(alpha) over a fixed universe, and (optionally) every object's content
changes according to its own Poisson process whose rate may depend on
popularity rank.  The rate law is one of ``model``'s change rates, the same
object ``model.wolman_hit_ratio`` integrates.  Everything is driven by one
seed, so a spec+seed pair always reproduces the identical record stream and
change log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChangeRate, RenewalModel, check_change_rate
from .trace import SECONDS_PER_DAY, Trace

__all__ = [
    "SyntheticWorkloadSpec",
    "SyntheticTrace",
    "generate_synthetic_trace",
]


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
    renewal:            change rate per day by popularity rank: a float for a
                        rate that does not depend on rank (0.0, the default,
                        means no renewal), or a law such as
                        model.TwoValuedChangeRate or a model.RenewalModel
                        of this alpha and n, called on the ranks 1..n
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
    renewal: ChangeRate = 0.0
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
        check_change_rate(self.renewal)
        if isinstance(self.renewal, RenewalModel):
            law = (self.renewal.alpha, self.renewal.universe)
            own = (self.zipf_alpha, self.universe_size)
            if law != own:
                raise ValueError(f"renewal model is for (alpha, universe) {law}, the spec for {own}")
        if self.size_mean_bytes < 1 or self.size_sigma < 0:
            raise ValueError("bad size model")


@dataclass
class SyntheticTrace:
    """Generated records plus the ground truth behind them."""

    records: Trace
    changes: dict[str, list[float]]  # object_id -> sorted change times (s)


def _zipf_ranks(rng: np.random.Generator, n: int, alpha: float, count: int) -> np.ndarray:
    """count ranks from 1..n with weights i**-alpha, by inverse-CDF sampling.

    The cumulative table costs O(n) and draws no random numbers; each rank
    is a binary search.
    """
    cdf = np.cumsum(np.arange(1, n + 1, dtype=float) ** -alpha)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(count), side="left")
    ranks += 1
    return ranks


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
    times = rng.random(count)
    times.sort()
    times *= horizon_s
    client_ids = rng.integers(0, spec.clients, size=count).astype(np.int32)
    cacheable = (
        np.ones(count, dtype=bool)
        if spec.cacheable_fraction >= 1.0
        else rng.random(count) < spec.cacheable_fraction
    )

    # One slot table covers both universes: uncacheable rank r sits at slot
    # other - r and cacheable rank r at other + r - 1, so slot order is the
    # id order (u<other>..u1, then o1..o<n>) and no whole-trace key or sort
    # is needed.
    other_universe = max(1, n // 10)
    slots = np.empty(count, dtype=np.int32)
    n_cacheable = int(cacheable.sum())
    slots[cacheable] = _zipf_ranks(rng, n, spec.zipf_alpha, n_cacheable) + (other_universe - 1)
    if n_cacheable < count:
        slots[~cacheable] = other_universe - _zipf_ranks(
            rng, other_universe, spec.zipf_alpha, count - n_cacheable
        )

    sizes = _object_sizes(rng, n, spec.size_mean_bytes, spec.size_sigma)
    other_sizes = _object_sizes(rng, other_universe, spec.size_mean_bytes, spec.size_sigma)

    # Object change processes: Poisson(mu_i * T) events, each uniform on the
    # horizon, sorted per object.
    mus = (
        spec.renewal(np.arange(1, n + 1, dtype=float))
        if callable(spec.renewal)
        else np.full(n, spec.renewal)
    )
    changes: dict[str, list[float]] = {}
    active = np.nonzero(mus > 0)[0]
    if active.size:
        event_counts = rng.poisson(mus[active] * spec.horizon_days)
        for idx, n_events in zip(active, event_counts):
            if n_events:
                changes[f"o{idx + 1}"] = sorted((rng.random(int(n_events)) * horizon_s).tolist())

    request_sizes = np.concatenate((other_sizes[::-1], sizes))[slots]
    # Ids only for slots that occur: a slot's code is the number of occurring
    # slots below it.
    present = np.zeros(other_universe + n, dtype=bool)
    present[slots] = True
    codes = np.cumsum(present, dtype=np.int32)[slots]
    codes -= 1
    occurring = np.flatnonzero(present).tolist()
    records = Trace(
        timestamps=times,
        objects=codes,
        object_ids=tuple(
            f"u{other_universe - s}" if s < other_universe else f"o{s - other_universe + 1}"
            for s in occurring
        ),
        clients=client_ids,
        client_ids=tuple(f"c{i}" for i in range(spec.clients)),
        sizes=request_sizes,
        cacheable=cacheable,
    )
    return SyntheticTrace(records=records, changes=changes)
