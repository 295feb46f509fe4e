"""zcl: a Zipf cache lab.

Trace-driven web proxy cache simulation (segmented kernel/accessory
construction with persistent request statistics, LRU baseline), workload
analytics built on ranked popularity profiles, synthetic Zipf/renewal
workload generation, and the closed-form steady-state performance models
tying them together.
"""

from .analytics import (
    LifetimeStats,
    MeasurementSummary,
    PopularityProfile,
    RenewalObservables,
    alpha_growth_constant,
    build_popularity_profile,
    compute_cacheable_fraction,
    estimate_alpha,
    measure_lifetimes,
    merge_profiles,
    renewal_observables,
)
from .model import (
    RenewalModel,
    TwoValuedChangeRate,
    WolmanParams,
    ZipfLaw,
    expected_hit_ratio,
    hit_scaling,
    ideal_hit_ratio,
    ideal_hit_ratio_with_renewal,
    kernel_accessory_ratio,
    kernel_size,
    mu_at_quantile,
    mu_of_rank,
    special_point_residuals,
    wolman_hit_ratio,
    zipf_normalization,
)
from .simcache import CacheConfig, CacheSim, Policy, SimulationResult, compare_policies, simulate
from .synth import (
    NoRenewal,
    RankDependentRenewal,
    SyntheticTrace,
    SyntheticWorkloadSpec,
    TwoValuedRenewal,
    generate_synthetic_trace,
)
from .trace import (
    Trace,
    TraceFormatError,
    TraceRecord,
    parse_squid_log,
    read_canonical_csv,
    read_trace,
    write_canonical_csv,
)

__version__ = "0.1.0"
