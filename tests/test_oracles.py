"""The closed forms of tests/oracles.py, checked against each other."""

import numpy as np
import pytest
from oracles import finite_hit_ratio, steady_hit_ratio, zipf_weights

P = zipf_weights(0.8, 1000)
RATE = 10_000.0  # requests per day


def test_zipf_weights_sum_to_one_and_fall_with_rank():
    assert P.sum() == pytest.approx(1.0, abs=1e-12)
    assert (np.diff(P) < 0).all()
    assert P[0] / P[9] == pytest.approx(10**0.8)


@pytest.mark.parametrize("days", [0.01, 1.0, 30.0])
def test_finite_sum_without_change_counts_only_the_first_requests(days):
    # With mu = 0 and W = 0 only each object's first request misses.
    distinct = -np.expm1(-RATE * P * days).sum()
    expected = 1.0 - distinct / (RATE * days)
    assert finite_hit_ratio(P, RATE, 0.0, 0.0, days) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mu", [0.0, 0.5, np.where(np.arange(1000) < 100, 5.0, 0.1)])
def test_finite_sum_rises_to_the_steady_sum_as_the_window_moves_on(mu):
    steady = steady_hit_ratio(P, RATE, mu)
    finite = [finite_hit_ratio(P, RATE, mu, start, start + 1.0) for start in (0, 0.5, 1, 2, 4, 8)]
    assert all(b > a for a, b in zip(finite, finite[1:]))
    assert finite[-1] < steady
    assert finite_hit_ratio(P, RATE, mu, 100.0, 101.0) == pytest.approx(steady, rel=1e-12)
