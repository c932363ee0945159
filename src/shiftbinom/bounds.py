"""Closed-form error bounds for the binomial-family approximations.

Each bound is evaluated exactly as written, with every constituent exposed
for audit. The guarantees themselves are not re-derived here; the test
suite checks empirically that every bound dominates the corresponding
exactly computed distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DegenerateEnsembleError,
    FitRangeError,
    IntegerDistribution,
    ShiftedBinomialFit,
    _two_param_params,
)
from .ensemble import BernoulliEnsemble, MomentSummary, moments

__all__ = ["BoundReport", "theorem_bounds", "corollary_bounds", "ehm_bound", "two_param_bound"]


@dataclass(frozen=True)
class BoundReport:
    """All constituents and final values of the shifted-binomial bounds."""

    K: float
    A1: float
    A2: float
    A3: float
    A4: float
    eta: float
    tv_bound: float
    loc_bound: float
    tv_corollary: float
    loc_corollary: float
    notes: tuple[str, ...] = field(default_factory=tuple)


def _eta_tail_term(
    sorted_p: np.ndarray, fit: ShiftedBinomialFit, sigma2: float
) -> tuple[float, float]:
    """Support-mismatch term: bounds on P(W < s) and P(W > n+s).

    Each side is the smaller of a counting estimate and an exponential tail
    estimate. The counting estimates need an ordering of the probabilities,
    which is not intrinsic to the ensemble; we use ascending order for both
    maxima (see the left/right slices below) and cap each product with its
    exponential, which is ordering-free.
    """
    m = len(sorted_p)
    s, n = fit.s, fit.n
    exp_low = math.exp(-sigma2 / 4.0)
    exp_high = math.exp(-sigma2 / 4.0 + 1.0)

    if s <= 0:
        low = 0.0
    else:
        low = min(s * float(sorted_p[s - 1]), exp_low)
    excess = m - n - s
    if excess <= 0:
        high = 0.0
    else:
        high = min(excess * float(sorted_p[-1]), exp_high)
    eta = low + high
    eta_exponential_only = (exp_low if s > 0 else 0.0) + (exp_high if excess > 0 else 0.0)
    return eta, eta_exponential_only


def theorem_bounds(
    e: BernoulliEnsemble, ms: MomentSummary, fit: ShiftedBinomialFit
) -> BoundReport:
    """Evaluate the total-variation and local bounds for the shifted binomial.

    Parameters
    ----------
    e : BernoulliEnsemble
        The source probabilities (needed for the tail term's maxima).
    ms : MomentSummary
        Moments of e.
    fit : ShiftedBinomialFit
        The rounded three-parameter fit being bounded.

    Returns
    -------
    BoundReport
        K, A1..A4, eta, the assembled tv/loc bounds, and the simplified
        corollary values.

    Raises
    ------
    DegenerateEnsembleError
        If sigma^2 = 0, where the bounds do not apply.
    """
    if ms.sigma2 <= 0.0:
        raise DegenerateEnsembleError("degenerate ensemble: sigma^2 = 0, bounds not applicable")
    sigma2 = ms.sigma2
    n, p = fit.n, fit.p
    q = 1.0 - p
    K = (1.0 - p ** (n + 1) - q ** (n + 1)) / sigma2

    # Nonnegative analytically (it equals a sum of squares); clamp the
    # cancellation residue so constituents stay >= 0.
    spread = max(sigma2 * (ms.lambda3 - ms.lambda4) - (ms.lambda2 - ms.lambda3) ** 2, 0.0)
    rounding = ms.lambda1 * (fit.frac_n + fit.frac_s) + n * fit.frac_s

    A1 = spread / (sigma2 * max(1.0, ms.v / 2.0 - 1.0))
    A2 = rounding / n
    A3 = spread / (sigma2 * max(1.0, ms.v / 3.0 - 2.0) ** 1.5)
    A4 = rounding / (n * math.sqrt(max(1.0, ms.v - 1.0)))

    sorted_p = np.sort(e.as_array())
    eta, eta_exp_only = _eta_tail_term(sorted_p, fit, sigma2)

    tv_bound = K * (4.0 * A1 + 2.0 * A2) + eta
    loc_bound = K * (8.0 * A3 + 4.0 * A4) + eta
    tv_cor, loc_cor = corollary_bounds(ms, fit)
    return BoundReport(
        K=K, A1=A1, A2=A2, A3=A3, A4=A4, eta=eta,
        tv_bound=tv_bound, loc_bound=loc_bound,
        tv_corollary=tv_cor, loc_corollary=loc_cor,
        notes=(f"eta_exponential_only={eta_exp_only:.12g}",),
    )


def corollary_bounds(ms: MomentSummary, fit: ShiftedBinomialFit) -> tuple[float, float]:
    """Simplified order-of-magnitude bounds: O(1/n) for TV, O(n^-3/2) local."""
    if ms.sigma2 <= 0.0 or ms.v <= 0.0 or fit.n < 1:
        raise DegenerateEnsembleError("corollary bounds need sigma^2 > 0, v > 0, n >= 1")
    tail = 2.0 * math.exp(-ms.sigma2 / 4.0 + 1.0)
    tv = (17.0 + 2.0 * ms.lambda1 / fit.n) / ms.sigma2 + tail
    loc = (222.0 + 12.0 * ms.lambda1 / fit.n) / (ms.sigma2 * math.sqrt(ms.v)) + tail
    return tv, loc


def ehm_bound(e: BernoulliEnsemble, ms: MomentSummary | None = None) -> float:
    """One-parameter binomial bound: TV(W, Bi(m, l1/m)) in terms of spread.

    ``ms`` (the moments of e) is computed when not passed in.
    """
    ms = moments(e) if ms is None else ms
    p_arr = e.as_array()
    m = e.m
    p = ms.lambda1 / m
    if p <= 0.0 or p >= 1.0:
        raise DegenerateEnsembleError(f"one-parameter fit degenerate: p = {p:.6g}")
    q = 1.0 - p
    factor = (1.0 - p ** (m + 1) - q ** (m + 1)) / ((m + 1) * p * q)
    return factor * float(np.sum((p_arr - p) ** 2))


def two_param_bound(
    e: BernoulliEnsemble, ms: MomentSummary, exact: IntegerDistribution
) -> float:
    """Two-parameter binomial bound, including the exact excess-support term.

    The approximating Bi(n, p) with n = floor(l1^2/l2) has shorter support
    than W, so P(W > n) enters the bound; it is computed exactly from the
    supplied distribution of W rather than estimated.
    """
    n, frac, p = _two_param_params(ms)
    if p >= 1.0:
        raise FitRangeError(f"fit out of range: p = lambda1/n = {p:.6g} not below 1")
    sigma = math.sqrt(ms.sigma2)
    skew_term = (
        4.0 / (1.0 - p)
        * min(1.0, math.sqrt(math.e) / sigma)
        * (ms.lambda3 / ms.lambda1 - ms.lambda2**2 / ms.lambda1**2)
    )
    rounding_term = ms.lambda2 * frac / (ms.lambda1 * (1.0 - p) * n)
    return skew_term + rounding_term + exact.tail_above(n)
