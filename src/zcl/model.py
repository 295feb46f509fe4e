"""Closed-form cache performance relations and the steady-state hit-ratio integral.

Request popularity is assumed Zipf-like: the i-th most popular object is
requested with relative probability theta_i = A / i**alpha, 0 < alpha < 1,
with A fixed by normalizing the continuous form over the object universe.
On top of that law the module evaluates

* ideal hit-ratio bounds, with and without the document-renewal correction,
* the steady-state aggregate hit ratio of Wolman et al. for a population of
  changing documents (Simpson's rule over log-rank; the only integral here
  without a closed antiderivative),
* the rank-dependent document change rate implied by a second, flatter
  Zipf exponent alpha_r fitted to the same window,
* kernel sizing and kernel:accessory capacity relations,
* self-consistency residuals at the two special ranks M (last object
  requested twice) and p (universe of requested objects).

All rates are per day unless a name says otherwise.

References
----------
A. Wolman et al., "On the scale and performance of cooperative Web proxy
caching", SOSP 1999 (steady-state model).
L. Breslau et al., "Web caching and Zipf-like distributions: evidence and
implications", INFOCOM 1999 (popularity law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

__all__ = [
    "WolmanParams",
    "TwoValuedChangeRate",
    "RenewalModel",
    "KernelAccessoryRatio",
    "check_change_rate",
    "zipf_normalization",
    "zipf_integral",
    "wolman_hit_ratio",
    "mu_of_rank",
    "mu_at_quantile",
    "ideal_hit_ratio",
    "ideal_hit_ratio_with_renewal",
    "expected_hit_ratio",
    "hit_scaling",
    "kernel_size",
    "kernel_accessory_ratio",
    "special_point_residuals",
]


def _check_alpha(alpha: float, name: str = "alpha") -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {alpha}")


def zipf_normalization(alpha: float, p: float) -> float:
    """Normalization constant A of the continuous Zipf law over ranks [1, p].

    Solves integral(A * x**-alpha, x=1..p) == 1, i.e.
    A = (1 - alpha) / (p**(1 - alpha) - 1).

    The harmonic case alpha == 1 has a different antiderivative and is out
    of scope; it is rejected along with any exponent outside (0, 1).
    """
    _check_alpha(alpha)
    if p < 2:
        raise ValueError(f"universe size must be >= 2, got {p}")
    return (1.0 - alpha) / (p ** (1.0 - alpha) - 1.0)


def zipf_integral(alpha: float, upper: float) -> float:
    """integral(x**-alpha, x=1..upper) in closed form, alpha != 1."""
    e = 1.0 - alpha
    return (upper**e - 1.0) / e


@dataclass(frozen=True)
class TwoValuedChangeRate:
    """Document change rate with one value for popular and one for unpopular ranks.

    Ranks up to ``popular_cutoff`` change at ``mu_popular``, the rest at
    ``mu_unpopular``.  Called on a rank or a numpy array of ranks.
    """

    mu_popular: float
    mu_unpopular: float
    popular_cutoff: float

    def __post_init__(self):
        if not (self.mu_popular >= 0 and self.mu_unpopular >= 0):
            raise ValueError(
                f"change rates must be non-negative, got {self.mu_popular} and {self.mu_unpopular}"
            )
        if not self.popular_cutoff >= 1:
            raise ValueError(f"popular cutoff must be >= 1, got {self.popular_cutoff}")

    def __call__(self, rank):
        return np.where(rank <= self.popular_cutoff, self.mu_popular, self.mu_unpopular)


# A float is a rate that does not depend on rank; a law is called on a rank
# or a numpy array of ranks.  wolman_hit_ratio and the generator take both.
ChangeRate = Union[float, TwoValuedChangeRate, Callable[[float], float]]


def check_change_rate(rate: ChangeRate) -> None:
    """Reject a float rate that is not >= 0, NaN included; a law checks itself."""
    if not (callable(rate) or rate >= 0):
        raise ValueError(f"change rate must be >= 0, got {rate}")

# wolman_hit_ratio's Simpson tolerance and subdivision cap, and the band by
# which its value may overshoot [0, 1] before that counts as a defect.
_WOLMAN_REL_TOL = 1e-8
_WOLMAN_MAX_SUBDIVISIONS = 1_000_000
_WOLMAN_BAND = 1e-6


@dataclass(frozen=True)
class WolmanParams:
    """Inputs of the steady-state aggregate hit-ratio integral.

    Attributes
    ----------
    universe : float
        Object universe size n (>= 2, finite).
    alpha : float
        Popularity exponent in (0, 1).
    request_rate : float
        Aggregate request rate lambda*N of the collective user, requests/day.
    change_rate : float | TwoValuedChangeRate | RenewalModel | callable
        Document change rate mu as a function of rank, per day.  A bare
        float means a rank-independent rate.
    """

    universe: float
    alpha: float
    request_rate: float
    change_rate: ChangeRate = 0.0


def wolman_hit_ratio(params: WolmanParams) -> float:
    """Steady-state aggregate object hit ratio over cacheable objects.

    Evaluates

        C_N = integral( 1/(C x**alpha) * 1/(1 + mu(x) C x**alpha / (lambda N)),
                        x = 1..n )

    where C = integral(x**-alpha, 1..n) is taken in closed form.  The damping
    factor discounts one request per document per change interval: each
    change forces the next request out to the network, so faster-changing
    documents contribute less of their popularity mass to the hit ratio.

    The outer integral is taken by Simpson's rule over log-rank u = ln x,
    where its integrand is x times the above: smooth, and bounded however
    large n is.  With mu identically zero the integrand
    reduces to the normalized popularity density and the result is 1.  A
    two-valued change rate steps at its popularity cutoff; the integral is
    split at its log, and each side is taken at its constant rate.
    """
    n, alpha, rate, law = params.universe, params.alpha, params.request_rate, params.change_rate
    # Written as `not ...` so that NaN is rejected too.
    if not 2 <= n < math.inf:
        raise ValueError(f"universe size must be finite and >= 2, got {n}")
    _check_alpha(alpha)
    if not rate >= 0:
        raise ValueError(f"request rate must be >= 0, got {rate}")
    check_change_rate(law)

    C = zipf_integral(alpha, n)

    def integrand(mu: ChangeRate, u: float) -> float:
        x = min(math.exp(u), n)  # exp(ln n) may round above n
        mass = x**alpha
        mu_x = mu(x) if callable(mu) else mu
        if rate == 0.0:
            # Limit lambda*N -> 0: any positive change rate kills the hit.
            return 0.0 if mu_x > 0.0 else x / (C * mass)
        return x / (C * mass) / (1.0 + mu_x * C * mass / rate)

    pieces = [(law, 0.0, math.log(n))]
    if isinstance(law, TwoValuedChangeRate) and 1.0 < law.popular_cutoff < n:
        # Each side at its own rate: exp(ln cutoff) may round below the cutoff.
        cut = math.log(law.popular_cutoff)
        pieces = [(law.mu_popular, 0.0, cut), (law.mu_unpopular, cut, math.log(n))]
    value = sum(_simpson(partial(integrand, mu), a, b) for mu, a, b in pieces)
    if not -_WOLMAN_BAND <= value <= 1.0 + _WOLMAN_BAND:
        raise ArithmeticError(f"hit ratio {value} escaped [0, 1]")
    return float(min(max(value, 0.0), 1.0))


def _simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Simpson integral of f over [a, b], begun as its two halves.

    An interval is accepted when its two panels agree with its one to within
    its share of _WOLMAN_REL_TOL times the first estimate; the accepted value
    includes the Richardson correction.
    """

    def panel(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    m = 0.5 * (a + b)
    fs = [f(x) for x in (a, 0.5 * (a + m), m, 0.5 * (m + b), b)]
    eps = 0.5 * _WOLMAN_REL_TOL * abs(panel(a, m, *fs[:3]) + panel(m, b, *fs[2:]))
    # Stack entries: (x0, x2, f(x0), f(midpoint), f(x2), error budget).
    stack = [(a, m, *fs[:3], eps), (m, b, *fs[2:], eps)]
    total, splits = 0.0, 0
    while stack:
        x0, x2, f0, f1, f2, eps = stack.pop()
        xm = 0.5 * (x0 + x2)
        fl, fr = f(0.5 * (x0 + xm)), f(0.5 * (xm + x2))
        left, right = panel(x0, xm, f0, fl, f1), panel(xm, x2, f1, fr, f2)
        err = (left + right - panel(x0, x2, f0, f1, f2)) / 15.0
        if abs(err) <= eps:
            total += left + right + err
            continue
        splits += 1
        if splits > _WOLMAN_MAX_SUBDIVISIONS:
            raise ArithmeticError(f"no convergence in {_WOLMAN_MAX_SUBDIVISIONS} subdivisions")
        stack.append((x0, xm, f0, fl, f1, 0.5 * eps))
        stack.append((xm, x2, f1, fr, f2, 0.5 * eps))
    return total


@dataclass(frozen=True)
class RenewalModel:
    """Rank-dependent document renewal implied by two Zipf exponents.

    Over an observation window of ``window_days``, the ideal popularity
    profile has exponent ``alpha`` while the actually-served profile is
    flatter with exponent ``alpha_r`` <= alpha; the per-rank difference in
    (tail-normalized) request counts, spread over the window, is the
    document change rate mu(i).  mu is zero at rank p exactly and grows
    toward popular ranks.  An instance is itself the law: calling it on a
    rank or a numpy array of ranks returns ``mu_of_rank(self, rank)``, so it
    serves both as ``WolmanParams.change_rate`` and as the generator's
    renewal.

    Attributes
    ----------
    alpha, alpha_r : float
        Ideal and renewal-flattened exponents, both in (0, 1), alpha_r <= alpha.
    window_days : float
        Observation window the two exponents were fitted over.
    universe : float
        Number of ranked objects p.
    """

    alpha: float
    alpha_r: float
    window_days: float
    universe: float

    def __post_init__(self):
        _check_alpha(self.alpha, "alpha")
        _check_alpha(self.alpha_r, "alpha_r")
        if self.alpha_r > self.alpha:
            raise ValueError(
                f"alpha_r ({self.alpha_r}) must not exceed alpha ({self.alpha})"
            )
        if not self.window_days > 0:
            raise ValueError(f"window must be positive, got {self.window_days}")
        if not self.universe >= 1:
            raise ValueError(f"universe must be >= 1, got {self.universe}")

    def __call__(self, rank):
        return mu_of_rank(self, rank)


def mu_of_rank(model: RenewalModel, rank):
    """Document change rate mu(rank) in 1/days, for a rank or a numpy array of ranks.

    Two algebraically identical forms exist:

        mu(i) = ((p/i)**alpha - (p/i)**alpha_r) / T
              = (1 - (i/p)**(alpha - alpha_r)) / ((i/p)**alpha * T)

    Naive evaluation of either subtracts nearly equal powers when alpha_r is
    close to alpha or the rank close to p, so each is computed through
    expm1 of the log form (exact where the naive difference loses digits).
    Both are evaluated and cross-checked to 1e-12 relative; disagreement
    indicates a broken build, not bad inputs.  A float rank gives a float.
    """
    p = model.universe
    ranks = np.asarray(rank, dtype=float)
    inside = (ranks >= 1.0) & (ranks <= p)
    if not inside.all():
        raise ValueError(f"rank must lie in [1, {p}], got {ranks[~inside].flat[0]}")
    T = model.window_days
    log_ratio = np.log(p / ranks)
    gap = model.alpha - model.alpha_r
    # (p/i)^a - (p/i)^ar  ==  (p/i)^ar * (exp(gap*log_ratio) - 1)
    direct = np.exp(model.alpha_r * log_ratio) * np.expm1(gap * log_ratio) / T
    # (1 - (i/p)^gap) / (i/p)^a  ==  (p/i)^a * -(exp(-gap*log_ratio) - 1)
    folded = np.exp(model.alpha * log_ratio) * -np.expm1(-gap * log_ratio) / T
    if np.any(np.abs(direct - folded) > 1e-12 * np.maximum(np.abs(direct), np.abs(folded))):
        raise AssertionError(f"change-rate forms disagree at rank {rank}")
    return direct if direct.ndim else float(direct)


def mu_at_quantile(
    alpha: float, alpha_r: float, window_days: float, quantile: float
) -> float:
    """Change rate at rank q*p; the universe size cancels at fixed quantiles.

    The conventional summary points are quantile 0.25 (unpopular documents,
    mu_u) and 0.01 (popular documents, mu_p).
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    # mu(q*p) depends on p only through p/i = 1/q; any universe >= 1/q works.
    model = RenewalModel(alpha, alpha_r, window_days, universe=max(2.0, 1.0 / quantile))
    return mu_of_rank(model, quantile * model.universe)


def ideal_hit_ratio(alpha: float) -> float:
    """Upper bound on the hit ratio of an ideal cache: 2**((alpha-1)/alpha).

    Follows from normalizing the Zipf law over the requested universe and
    cutting it at the last twice-requested rank: everything below that rank
    can at best be served once from cache.
    """
    _check_alpha(alpha)
    return 2.0 ** ((alpha - 1.0) / alpha)


def ideal_hit_ratio_with_renewal(alpha: float, alpha_r: float) -> float:
    """Ideal hit-ratio bound corrected for document renewal.

    Multiplies the static bound by (1-alpha)/(1-alpha_r), which is <= 1
    since alpha_r must not exceed alpha: renewal can only spoil hits.
    """
    _check_alpha(alpha)
    _check_alpha(alpha_r, "alpha_r")
    if alpha_r > alpha:
        raise ValueError(f"alpha_r ({alpha_r}) must not exceed alpha ({alpha})")
    return ideal_hit_ratio(alpha) * (1.0 - alpha) / (1.0 - alpha_r)


def expected_hit_ratio(
    cacheable_fraction: float, exponent: float, universe: float, kernel_objects: float
) -> float:
    """Hit ratio of a cache whose kernel holds the top ``kernel_objects`` ranks.

    H = p_c * integral(A x**-exponent, 1..S_k) with A normalized over the
    full universe.  Pass the plain popularity exponent for the ideal figure
    or the renewal-flattened one for the real system.
    """
    if not 0.0 <= cacheable_fraction <= 1.0:
        raise ValueError(f"cacheable fraction must lie in [0, 1], got {cacheable_fraction}")
    if not 1.0 <= kernel_objects <= universe:
        raise ValueError(
            f"kernel size must lie in [1, universe={universe}], got {kernel_objects}"
        )
    return cacheable_fraction * (
        zipf_normalization(exponent, universe) * zipf_integral(exponent, kernel_objects)
    )


def hit_scaling(h1: float, s1: float, s2: float, alpha: float) -> float:
    """Power-law growth of hit ratio with cache size: H2 = H1 * (S2/S1)**(1-alpha)."""
    if s1 <= 0 or s2 <= 0:
        raise ValueError("cache sizes must be positive")
    _check_alpha(alpha)
    return h1 * (s2 / s1) ** (1.0 - alpha)


def kernel_size(alpha: float, hit_ratio: float, nu_out: float, t_eff: float) -> float:
    """Kernel capacity (objects) implied by measured performance.

    S_k = (1-alpha) * H / 2 * nu_out * T_eff, with nu_out the collective
    user request rate (requests/day) and T_eff the residence time (days) of
    twice-requested objects.
    """
    if nu_out < 0 or t_eff < 0:
        raise ValueError("rates and lifetimes must be non-negative")
    _check_alpha(alpha)
    return (1.0 - alpha) * hit_ratio / 2.0 * nu_out * t_eff


@dataclass(frozen=True)
class KernelAccessoryRatio:
    """Both forms of the kernel:accessory capacity ratio S_k/S_u.

    ``analytic`` uses only the exponent and the two lifetimes,
    T_eff / ((2**(1/alpha) - 1) * t_u).  ``empirical`` weighs the lifetimes
    by the observed rank split, (M/(p-M)) * (T_eff/t_u), and is None when M
    and p were not supplied.  The forms coincide only when p/M == 2**(1/alpha);
    measured profiles need not satisfy that, so both are reported and neither
    is declared canonical.
    """

    analytic: float
    empirical: float | None = None


def kernel_accessory_ratio(
    alpha: float,
    t_eff: float,
    t_u: float,
    M: float | None = None,
    p: float | None = None,
) -> KernelAccessoryRatio:
    """Capacity ratio of the repeatedly-requested kernel to the once-requested part."""
    _check_alpha(alpha)
    if t_u <= 0:
        raise ValueError(f"t_u must be positive, got {t_u}")
    analytic = t_eff / ((2.0 ** (1.0 / alpha) - 1.0) * t_u)
    empirical = None
    if M is not None or p is not None:
        if M is None or p is None:
            raise ValueError("M and p must be given together")
        if not 0 < M < p:
            raise ValueError(f"need 0 < M < p, got M={M}, p={p}")
        empirical = (M / (p - M)) * (t_eff / t_u)
    return KernelAccessoryRatio(analytic=analytic, empirical=empirical)


def special_point_residuals(
    A: float, k_r: float, M: float, p: float, alpha_r: float
) -> tuple[float, float]:
    """Self-consistency residuals of the renewal-flattened law at ranks M and p.

    A consistent profile pins the law at its two special ranks: count 2 at
    rank M (the last twice-requested object) and count 1 at rank p (the last
    requested object).  Returns (A*k_r/M**alpha_r - 2, A*k_r/p**alpha_r - 1);
    both zero forces p/M == 2**(1/alpha_r).
    """
    if min(A, k_r, M, p) <= 0:
        raise ValueError("all inputs must be positive")
    r_m = A * k_r / M**alpha_r - 2.0
    r_p = A * k_r / p**alpha_r - 1.0
    return r_m, r_p
