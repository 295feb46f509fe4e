import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcl import model

# Reference rows from month-scale proxy log analyses used as fixtures
# throughout: (M, p, k) in units of 1e5 requests/objects.
ROW4 = dict(M=2.01e5, p=6.07e5, k=25.0e5)

alphas = st.floats(min_value=0.05, max_value=0.95)


# --- normalization -----------------------------------------------------------


def test_normalization_exact_small_case():
    # (1-0.5)/(4**0.5 - 1) == 0.5
    assert model.zipf_normalization(0.5, 4) == pytest.approx(0.5, abs=1e-15)


@given(alpha=alphas, p=st.floats(min_value=2, max_value=1e7))
@settings(max_examples=100)
def test_normalization_defining_property(alpha, p):
    A = model.zipf_normalization(alpha, p)
    integral = A * (p ** (1 - alpha) - 1) / (1 - alpha)
    assert integral == pytest.approx(1.0, rel=1e-12)


def test_normalization_reference_value():
    assert model.zipf_normalization(0.81, 6.07e5) == pytest.approx(0.0164435, rel=1e-4)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3, -0.2])
def test_normalization_rejects_bad_exponent(alpha):
    with pytest.raises(ValueError):
        model.zipf_normalization(alpha, 100)


def test_normalization_rejects_tiny_universe():
    with pytest.raises(ValueError):
        model.zipf_normalization(0.5, 1)


def test_normalized_law_integrates_to_one():
    A = model.zipf_normalization(0.7, 1000)
    assert A * model.zipf_integral(0.7, 1000) == pytest.approx(1.0, rel=1e-12)


# --- steady-state hit ratio --------------------------------------------------


def brute_force_hit_ratio(n, alpha, rate, mu_fn, panels=1_000_000):
    """Fixed-grid trapezoid oracle, independent of the library's quadrature."""
    x = np.linspace(1.0, float(n), panels + 1)
    C = (n ** (1 - alpha) - 1.0) / (1 - alpha)
    mass = x**alpha
    g = 1.0 / (C * mass) / (1.0 + mu_fn(x) * C * mass / rate)
    return float(np.trapezoid(g, x))


def test_no_renewal_gives_unity():
    params = model.WolmanParams(universe=5000, alpha=0.7, request_rate=1e4, change_rate=0.0)
    assert model.wolman_hit_ratio(params) == pytest.approx(1.0, abs=1e-9)


def test_vanishing_request_rate_kills_hits():
    mu = 0.05
    C = (1000 ** (1 - 0.8) - 1) / (1 - 0.8)
    params = model.WolmanParams(
        universe=1000, alpha=0.8, request_rate=1e-6 * mu * C, change_rate=mu
    )
    assert model.wolman_hit_ratio(params) < 1e-3


def test_uniform_change_rate_matches_brute_force():
    n, alpha, rate, mu = 1000, 0.8, 1e4, 0.01
    params = model.WolmanParams(universe=n, alpha=alpha, request_rate=rate, change_rate=mu)
    value = model.wolman_hit_ratio(params)
    oracle = brute_force_hit_ratio(n, alpha, rate, lambda x: np.full_like(x, mu))
    assert value == pytest.approx(oracle, rel=1e-6)


def test_two_valued_change_rate_matches_split_brute_force():
    n, alpha, rate = 2000, 0.75, 5e4
    change = model.TwoValuedChangeRate(mu_popular=0.5, mu_unpopular=0.002, popular_cutoff=50)
    params = model.WolmanParams(universe=n, alpha=alpha, request_rate=rate, change_rate=change)
    value = model.wolman_hit_ratio(params)

    def oracle_piece(lo, hi, mu):
        x = np.linspace(lo, hi, 1_000_001)
        C = (n ** (1 - alpha) - 1.0) / (1 - alpha)
        mass = x**alpha
        return float(np.trapezoid(1.0 / (C * mass) / (1.0 + mu * C * mass / rate), x))

    oracle = oracle_piece(1.0, 50.0, 0.5) + oracle_piece(50.0, float(n), 0.002)
    assert value == pytest.approx(oracle, rel=1e-6)
    assert type(value) is float


def test_monotone_in_request_rate_and_change_rate():
    rates = np.logspace(2, 6, 5)
    mus = np.logspace(-4, 0, 5)
    grid = {}
    for rate in rates:
        for mu in mus:
            params = model.WolmanParams(
                universe=500, alpha=0.75, request_rate=float(rate), change_rate=float(mu)
            )
            grid[(rate, mu)] = model.wolman_hit_ratio(params)
    for mu in mus:
        col = [grid[(rate, mu)] for rate in rates]
        assert all(a <= b + 1e-12 for a, b in zip(col, col[1:])), "not monotone in rate"
    for rate in rates:
        row = [grid[(rate, mu)] for mu in mus]
        assert all(a >= b - 1e-12 for a, b in zip(row, row[1:])), "not monotone in mu"


def test_monotone_in_each_two_valued_rate():
    def value(mu_p, mu_u):
        change = model.TwoValuedChangeRate(mu_p, mu_u, popular_cutoff=40)
        return model.wolman_hit_ratio(
            model.WolmanParams(universe=800, alpha=0.8, request_rate=2e4, change_rate=change)
        )

    popular_sweep = [value(m, 0.01) for m in (0.01, 0.1, 1.0, 10.0)]
    assert all(a >= b - 1e-12 for a, b in zip(popular_sweep, popular_sweep[1:]))
    unpopular_sweep = [value(0.5, m) for m in (0.001, 0.01, 0.1, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(unpopular_sweep, unpopular_sweep[1:]))


def test_bad_universe_rejected():
    with pytest.raises(ValueError):
        model.wolman_hit_ratio(
            model.WolmanParams(universe=1, alpha=0.5, request_rate=1.0, change_rate=0.0)
        )


@pytest.mark.parametrize("field, value", [
    ("universe", math.nan),
    ("request_rate", math.nan),
    ("request_rate", -1.0),
    ("change_rate", -5.0),
    ("change_rate", -1e-4),
    ("change_rate", math.nan),
])
def test_bad_wolman_inputs_rejected_before_the_quadrature(field, value):
    params = dict(universe=1e4, alpha=0.8, request_rate=1e4, change_rate=0.0)
    params[field] = value
    with pytest.raises(ValueError):
        model.wolman_hit_ratio(model.WolmanParams(**params))


@pytest.mark.parametrize("mu_popular, mu_unpopular, cutoff", [
    (-1.0, 0.0, 10),
    (1.0, -1e-9, 10),
    (math.nan, 0.1, 10),
    (1.0, 0.1, -3),
    (1.0, 0.1, 0.5),
    (1.0, 0.1, math.nan),
])
def test_two_valued_change_rate_rejects_bad_laws(mu_popular, mu_unpopular, cutoff):
    with pytest.raises(ValueError):
        model.TwoValuedChangeRate(mu_popular, mu_unpopular, cutoff)


def test_change_rate_laws_take_rank_arrays():
    ranks = np.array([1.0, 2.5, 40.0, 41.0, 999.0, 1000.0])
    for law in (
        model.TwoValuedChangeRate(0.5, 0.01, 40),
        model.RenewalModel(0.72, 0.63, 15.0, 1000),
    ):
        assert law(ranks).tolist() == [float(law(r)) for r in ranks]
    renewal = model.RenewalModel(0.72, 0.63, 15.0, 1000)
    assert renewal(ranks).tolist() == [model.mu_of_rank(renewal, r) for r in ranks]
    with pytest.raises(ValueError):
        renewal(np.array([1.0, 1001.0]))


# --- rank-dependent change rate ----------------------------------------------


def test_change_rate_reference_quantiles():
    mu_u = model.mu_at_quantile(0.72, 0.70, 15.0, 0.25)
    mu_p = model.mu_at_quantile(0.72, 0.70, 15.0, 0.01)
    assert mu_u == pytest.approx(1 / 202.0, rel=0.02)
    assert mu_p == pytest.approx(1 / 6.2, rel=0.02)


def test_change_rate_zero_when_exponents_equal():
    m = model.RenewalModel(0.7, 0.7, 10.0, 1000)
    for rank in (1, 3, 999, 1000):
        assert model.mu_of_rank(m, rank) == 0.0


def test_change_rate_zero_at_last_rank():
    m = model.RenewalModel(0.72, 0.63, 15.0, 12345)
    assert model.mu_of_rank(m, 12345) == 0.0


def test_change_rate_rank_out_of_range():
    m = model.RenewalModel(0.72, 0.70, 15.0, 100)
    with pytest.raises(ValueError):
        model.mu_of_rank(m, 0.5)
    with pytest.raises(ValueError):
        model.mu_of_rank(m, 101)


@given(
    alpha=st.floats(min_value=0.3, max_value=0.95),
    gap=st.floats(min_value=0.0, max_value=0.25),
    frac=st.floats(min_value=1e-6, max_value=1.0),
    window=st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=200)
def test_change_rate_nonnegative_everywhere(alpha, gap, frac, window):
    alpha_r = max(0.05, alpha - gap)
    p = 1e6
    m = model.RenewalModel(alpha, alpha_r, window, p)
    rank = max(1.0, frac * p)
    # mu_of_rank internally cross-checks the two algebraic forms.
    assert model.mu_of_rank(m, rank) >= 0.0


@given(
    alpha=st.floats(min_value=0.3, max_value=0.95),
    gap=st.floats(min_value=0.02, max_value=0.25),
    frac=st.floats(min_value=1e-4, max_value=0.99),
    window=st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=200)
def test_change_rate_matches_naive_forms(alpha, gap, frac, window):
    # Away from the cancellation corners the naive textbook expressions are
    # accurate and must match the library value closely.
    alpha_r = max(0.05, alpha - gap)
    p = 1e5
    rank = max(1.0, frac * p)
    m = model.RenewalModel(alpha, alpha_r, window, p)
    value = model.mu_of_rank(m, rank)
    ratio = p / rank
    naive_direct = (ratio**alpha - ratio**alpha_r) / window
    naive_folded = (1.0 - (rank / p) ** (alpha - alpha_r)) / ((rank / p) ** alpha * window)
    assert value == pytest.approx(naive_direct, rel=1e-9)
    assert value == pytest.approx(naive_folded, rel=1e-9)


def test_alpha_r_above_alpha_rejected():
    with pytest.raises(ValueError):
        model.RenewalModel(0.7, 0.75, 10.0, 100)


@pytest.mark.parametrize("window, universe", [(math.nan, 100), (10.0, math.nan)])
def test_renewal_model_rejects_nan_window_or_universe(window, universe):
    with pytest.raises(ValueError):
        model.RenewalModel(0.72, 0.70, window, universe)


# --- ideal hit ratio bounds --------------------------------------------------


def test_ideal_hit_ratio_exact_half():
    assert model.ideal_hit_ratio(0.5) == pytest.approx(0.5, abs=1e-15)


def test_ideal_hit_ratio_limit_to_one():
    assert model.ideal_hit_ratio(0.999999) == pytest.approx(1.0, abs=1e-5)


def test_ideal_hit_ratio_reference_value():
    assert model.ideal_hit_ratio(0.77) == pytest.approx(0.813, abs=5e-4)


def test_renewal_bound_collapses_when_exponents_match():
    assert model.ideal_hit_ratio_with_renewal(0.77, 0.77) == model.ideal_hit_ratio(0.77)


def test_renewal_bound_reference_value():
    assert model.ideal_hit_ratio_with_renewal(0.72, 0.70) == pytest.approx(0.713, abs=5e-4)


@given(alpha=st.floats(min_value=0.2, max_value=0.95), gap=st.floats(min_value=1e-4, max_value=0.15))
@settings(max_examples=100)
def test_renewal_bound_below_static_bound(alpha, gap):
    alpha_r = max(0.05, alpha - gap)
    assert model.ideal_hit_ratio_with_renewal(alpha, alpha_r) < model.ideal_hit_ratio(alpha)


def test_renewal_bound_rejects_unit_alpha_r():
    with pytest.raises(ValueError):
        model.ideal_hit_ratio_with_renewal(0.8, 1.0)


def test_renewal_bound_rejects_alpha_r_above_alpha():
    # Its factor (1 - alpha) / (1 - alpha_r) would lift the bound above 1.
    with pytest.raises(ValueError, match="must not exceed alpha"):
        model.ideal_hit_ratio_with_renewal(0.7, 0.8)


# --- expected hit ratio and scaling ------------------------------------------


def test_expected_hit_ratio_saturates_at_universe():
    assert model.expected_hit_ratio(1.0, 0.8, 1e5, 1e5) == pytest.approx(1.0, rel=1e-12)


def test_expected_hit_ratio_zero_at_single_object():
    assert model.expected_hit_ratio(0.6, 0.8, 1e5, 1.0) == 0.0


def test_expected_hit_ratio_reference_value():
    # Ideal-exponent form on the largest reference row; the measured system
    # sits well below this figure, the gap being the renewal effect.
    h = model.expected_hit_ratio(0.59, 0.81, ROW4["p"], ROW4["M"])
    assert h == pytest.approx(0.469, abs=5e-4)


def test_expected_hit_ratio_monotone_in_kernel():
    hs = [model.expected_hit_ratio(0.6, 0.75, 1e5, s) for s in (10, 100, 1e3, 1e4, 1e5)]
    assert all(a < b for a, b in zip(hs, hs[1:]))
    assert hs[-1] == pytest.approx(0.6, rel=1e-12)


def test_hit_scaling_identity():
    assert model.hit_scaling(0.3, 2.0, 2.0, 0.77) == 0.3


def test_hit_scaling_reference_points():
    # Anchor at the one-day measurement, predict the three larger sizes.
    predictions = {
        2.15: 28.08,
        3.15: 32.19,
        5.96: 36.75,
    }
    for size, measured in predictions.items():
        predicted = model.hit_scaling(24.49, 1.0, size, 0.77)
        assert predicted == pytest.approx(measured, rel=0.05)


@given(
    h=st.floats(min_value=0.01, max_value=0.9),
    s1=st.floats(min_value=0.1, max_value=100),
    s2=st.floats(min_value=0.1, max_value=100),
    s3=st.floats(min_value=0.1, max_value=100),
    alpha=alphas,
)
@settings(max_examples=100)
def test_hit_scaling_composes(h, s1, s2, s3, alpha):
    direct = model.hit_scaling(h, s1, s3, alpha)
    via = model.hit_scaling(model.hit_scaling(h, s1, s2, alpha), s2, s3, alpha)
    assert via == pytest.approx(direct, rel=1e-9)


# --- kernel sizing ------------------------------------------------------------


def test_kernel_size_zero_hit_ratio():
    assert model.kernel_size(0.8, 0.0, 5e4, 10.0) == 0.0


def test_kernel_size_reference_value():
    s_k = model.kernel_size(0.81, 0.3675, 69.8e3, 18.9)
    assert s_k == pytest.approx(4.6e4, rel=0.01)


def test_kernel_size_linear_in_lifetime():
    one = model.kernel_size(0.7, 0.4, 1e4, 5.0)
    two = model.kernel_size(0.7, 0.4, 1e4, 10.0)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_ratio_empirical_reference_value():
    r = model.kernel_accessory_ratio(0.81, 18.9, 20.4, M=ROW4["M"], p=ROW4["p"])
    assert r.empirical == pytest.approx(0.459, abs=2e-3)  # roughly 1:2
    assert r.analytic == pytest.approx(0.685, abs=2e-3)


def test_ratio_forms_coincide_on_special_geometry():
    # T_eff == t_u and p == 2**(1/alpha) * M make the two forms equal.
    alpha, M = 0.81, 1000.0
    p = 2 ** (1 / alpha) * M
    r = model.kernel_accessory_ratio(alpha, 7.0, 7.0, M=M, p=p)
    assert r.empirical == pytest.approx(r.analytic, rel=1e-12)


def test_ratio_requires_m_below_p():
    with pytest.raises(ValueError):
        model.kernel_accessory_ratio(0.8, 1.0, 1.0, M=10, p=10)


def test_ratio_without_split_gives_analytic_only():
    r = model.kernel_accessory_ratio(0.8, 5.0, 4.0)
    assert r.empirical is None and r.analytic > 0


# --- special point residuals --------------------------------------------------


def test_residual_at_twice_requested_rank_zero_by_construction():
    alpha_r, M = 0.7, 500.0
    A = 1e-2
    k_r = 2 * M**alpha_r / A
    r_m, _ = model.special_point_residuals(A, k_r, M, 4 * M, alpha_r)
    assert r_m == pytest.approx(0.0, abs=1e-12)


def test_residual_at_universe_rank_zero_by_construction():
    alpha_r, p = 0.7, 5000.0
    A = 1e-2
    k_r = p**alpha_r / A
    _, r_p = model.special_point_residuals(A, k_r, p / 3, p, alpha_r)
    assert r_p == pytest.approx(0.0, abs=1e-12)


@given(alpha_r=st.floats(min_value=0.2, max_value=0.9), p=st.floats(min_value=100, max_value=1e6))
@settings(max_examples=100)
def test_both_residuals_zero_forces_rank_ratio(alpha_r, p):
    # If both hold, p/M == 2**(1/alpha_r).
    M = p / 2 ** (1 / alpha_r)
    A = 1e-3
    k_r = p**alpha_r / A
    r_m, r_p = model.special_point_residuals(A, k_r, M, p, alpha_r)
    assert r_p == pytest.approx(0.0, abs=1e-9)
    assert r_m == pytest.approx(0.0, abs=1e-9)


def test_residuals_reject_nonpositive_inputs():
    with pytest.raises(ValueError):
        model.special_point_residuals(0.0, 1.0, 1.0, 2.0, 0.5)
