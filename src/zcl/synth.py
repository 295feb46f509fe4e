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
from itertools import chain, compress

import numpy as np

from . import trace
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


def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """The cumulative weights of ranks 1..n under i**-alpha, ending at 1.

    A uniform draw u picks rank searchsorted(cdf, u) + 1 (inverse-CDF
    sampling): the table costs O(n), and each rank is a binary search.
    """
    cdf = np.cumsum(np.arange(1, n + 1, dtype=float) ** -alpha)
    cdf /= cdf[-1]
    return cdf


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
    client_ids = rng.integers(0, spec.clients, size=count, dtype=np.int32)

    # The flags and ranks are drawn a block of rows at a time, straight into
    # their columns.  A float64 draw takes one 64-bit output whatever its
    # size, so the stream is that of one whole-trace draw.
    rows = trace._BLOCK_ROWS
    blocks = [slice(start, start + rows) for start in range(0, count, rows)]
    cacheable = np.ones(count, dtype=bool)
    if spec.cacheable_fraction < 1.0:
        for block in blocks:
            flags = cacheable[block]
            np.less(rng.random(flags.size), spec.cacheable_fraction, out=flags)

    # One slot table covers both universes: uncacheable rank r sits at slot
    # other - r and cacheable rank r at other + r - 1, so slot order is the
    # id order (u<other>..u1, then o1..o<n>) and no whole-trace key or sort
    # is needed.  searchsorted gives r - 1, and every cacheable rank is drawn
    # before any uncacheable one.
    other_universe = max(1, n // 10)
    slots = np.empty(count, dtype=np.int32)
    cdf = _zipf_cdf(n, spec.zipf_alpha)
    for block in blocks:
        here = cacheable[block]
        ranks = np.searchsorted(cdf, rng.random(np.count_nonzero(here)))
        slots[block][here] = ranks + other_universe
    if not cacheable.all():
        cdf = _zipf_cdf(other_universe, spec.zipf_alpha)
        for block in blocks:
            here = ~cacheable[block]
            ranks = np.searchsorted(cdf, rng.random(np.count_nonzero(here)))
            slots[block][here] = (other_universe - 1) - ranks

    sizes = _object_sizes(rng, n, spec.size_mean_bytes, spec.size_sigma)
    other_sizes = _object_sizes(rng, other_universe, spec.size_mean_bytes, spec.size_sigma)

    # Object change processes: Poisson(mu_i * T) events, each uniform on the
    # horizon, sorted per object.
    mus = (
        spec.renewal(np.arange(1, n + 1, dtype=float))
        if callable(spec.renewal)
        else np.full(n, spec.renewal)
    )
    active = np.flatnonzero(mus > 0)
    event_counts = rng.poisson(mus[active] * spec.horizon_days)
    # One draw for every event, in object order, split by the counts.
    when = (rng.random(int(event_counts.sum())) * horizon_s).tolist()
    has = event_counts > 0
    ends = np.cumsum(event_counts[has]).tolist()
    changes = {
        f"o{idx + 1}": sorted(when[start:end])
        for idx, start, end in zip(active[has].tolist(), [0, *ends], ends)
    }

    request_sizes = np.concatenate((other_sizes[::-1], sizes))[slots]
    # Ids only for slots that occur: a slot's code is the number of occurring
    # slots below it.
    present = np.zeros(other_universe + n, dtype=bool)
    present[slots] = True
    codes = np.cumsum(present, dtype=np.int32)[slots]
    codes -= 1
    del slots  # before the id strings are made
    object_ids = chain(
        map("u{}".format, compress(range(other_universe, 0, -1), present[:other_universe])),
        map("o{}".format, compress(range(1, n + 1), present[other_universe:])),
    )
    records = Trace(
        timestamps=times,
        objects=codes,
        object_ids=tuple(object_ids),
        clients=client_ids,
        client_ids=tuple(f"c{i}" for i in range(spec.clients)),
        sizes=request_sizes,
        cacheable=cacheable,
    )
    return SyntheticTrace(records=records, changes=changes)
