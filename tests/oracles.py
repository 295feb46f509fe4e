"""Closed-form expected values that replay tests compare against.

This module imports nothing from zcl, so it stays an independent oracle.
Rates are per day and times in days.  Under independent requests, object i
is requested at rate a_i = rate * p_i and changes at rate mu_i; with
s_i = a_i + mu_i, a request at time t after the trace starts hits with
probability a_i / s_i * (1 - exp(-s_i t)): the last event before it must
be a request, and must fall after the start.
"""

import numpy as np


def zipf_weights(alpha: float, universe: int) -> np.ndarray:
    """The request probability of ranks 1..universe, proportional to rank**-alpha."""
    q = np.arange(1, universe + 1, dtype=float) ** -alpha
    q /= q.sum()
    return q


def che_hit_ratio(alpha: float, universe: int, capacity: int) -> float:
    """Hit ratio of an LRU cache of `capacity` objects under Zipf(alpha) requests.

    Che, Tung & Wang (IEEE JSAC 2002): the characteristic time t solves
    sum_i (1 - exp(-q_i t)) = capacity; the hit ratio is
    sum_i q_i (1 - exp(-q_i t)).
    """
    q = zipf_weights(alpha, universe)
    lo, hi = 0.0, 1.0
    while -np.expm1(-q * hi).sum() < capacity:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if -np.expm1(-q * mid).sum() < capacity:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return float((q * -np.expm1(-q * t)).sum())


def steady_hit_ratio(p: np.ndarray, rate: float, mu) -> float:
    """sum_i p_i a_i / s_i: the hit ratio of an infinite cache long after the start."""
    a = rate * p
    return float((p * a / (a + mu)).sum())


def finite_hit_ratio(p: np.ndarray, rate: float, mu, start: float, end: float) -> float:
    """The hit ratio of an infinite cache over the requests in [start, end].

    The per-object hit probability averaged over the window:
    sum_i p_i (a_i / s_i) [1 - exp(-s_i W) (1 - exp(-s_i (T - W))) / (s_i (T - W))]
    with W = start and T = end > start.
    """
    a = rate * p
    s = a + mu
    span = end - start
    cold = np.exp(-s * start) * -np.expm1(-s * span) / (s * span)
    return float((p * a / s * (1.0 - cold)).sum())
