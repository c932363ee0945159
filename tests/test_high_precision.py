"""moments() and the shifted-binomial fit against 50-digit mpmath references.

The probabilities are doubles, so they are exact inputs; the references are
the exact moments of those doubles, and the fit solved exactly from them.
Each allowance is derived from the roundings the code performs, as stated
beside it, and was fixed before the test first ran.
"""

import math

import mpmath
import numpy as np
import pytest

from shiftbinom import (
    DegenerateEnsembleError,
    FitRangeError,
    fit_shifted_binomial,
    make_ensemble,
    moments,
)

mp = mpmath.mp
U = mpmath.mpf(2) ** -53  # unit roundoff of double

# One float64 p**3 or p**4 from numpy is within 4 ulp of the exact power
# (its AVX-512 loops come from Intel SVML, stated accurate to 4 ulp; libm pow
# is within 1), and one ulp of t is at most 2u|t|.
POW_REL = 8 * U

# Relative error of each computed field, in units of u, from the term
# bounds below plus the one rounding of the correctly rounded sum (terms of
# one sign): lambda2 one product, lambda3 the power, sigma^2 the roundings of
# 1 - p and of p*q.
A2, A3, A_SIGMA = 2, 9, 3
A = max(A2, A3)
# First-order bounds, in units of u times the fit's cancellation scale
# cancel = r*(1 + 1/(1-p*)) with r = (l2+l3)/(l2-l3) >= 1 (so cancel >= 2
# and cancel >= r/(1-p*)). p* = (l2-l3)/sigma^2 carries A*r from the
# difference, A_SIGMA from sigma^2 and 2 roundings: at most (A + A_SIGMA + 2)*r.
# n* = sigma^2/(p*(1-p*)) adds p*'s error over 1-p*, sigma^2's and 3 more
# roundings (1-p*, product, quotient). s* = l1 - n*p* adds l1's unit, the
# error of n*p* = sigma^2/(1-p*) (A_SIGMA + 4 units plus p*'s over 1-p*) and
# the final rounding of |s*| <= l1 + n*p*. Each K below carries one extra
# unit for the second-order terms, which the test keeps below
# K*u*cancel < 1e-8 of the first-order ones by requiring cancel < 1e6.
K_P = A + A_SIGMA + 2 + 1
K_N = A + A_SIGMA + 2 + (A_SIGMA + 3) / 2 + 1
K_S = A + A_SIGMA + 2 + (A_SIGMA + 4) / 2 + 1 + 1
# The fit's snap window, 16 double epsilons of the scale.
SNAP = 32 * U


def _families():
    rng = np.random.default_rng(2024)
    out = []
    for m in (2, 3, 7, 20, 60):
        out += [
            ("ramp-0.3", np.arange(1, m + 1) * 0.3 / (m + 1)),
            ("ramp-1", np.arange(1, m + 1) / (m + 1)),
            ("uniform", rng.random(m)),
            ("beta-half", rng.beta(0.5, 0.5, m)),
            ("seventh-power", rng.random(m) ** 7),
            ("log-uniform", 10.0 ** rng.uniform(-30.0, 0.0, m)),
            ("iid", np.full(m, 0.3)),
            ("p-or-one", np.where(np.arange(m) % 3 == 0, 1.0, 0.37)),
            ("near-iid", np.append(np.full(m - 1, 0.3), 0.3001)),
        ]
    return out


FAMILIES = _families()


def _sum_allowance(errors, total):
    """Allowance of a correctly rounded sum of terms within ``errors`` of exact."""
    spread = mpmath.fsum(errors)
    return spread + U * (abs(total) + spread)


def _exact(probs):
    """Exact fields of MomentSummary and their allowances, at 50 digits."""
    p = [mpmath.mpf(x) for x in probs]
    q = [1 - x for x in p]
    one = 1 + U
    terms = {
        "lambda1": (p, [0] * len(p)),
        "lambda2": ([x**2 for x in p], [U * x**2 for x in p]),
        "lambda3": ([x**3 for x in p], [POW_REL * x**3 for x in p]),
        "lambda4": ([x**4 for x in p], [POW_REL * x**4 for x in p]),
        # fl(p * fl(1 - p)): two roundings
        "sigma2": ([x * y for x, y in zip(p, q)], [(one**2 - 1) * x * y for x, y in zip(p, q)]),
        # fl(fl(p*q^) * fl(q^ - p)), q^ = fl(1 - p) = (1-p)(1+eta): three
        # roundings and eta on the product, and eta*(1-p) in the difference.
        "mu3": (
            [x * y * (y - x) for x, y in zip(p, q)],
            [x * y * ((one**4 - 1) * abs(y - x) + one**4 * y * U) for x, y in zip(p, q)],
        ),
        # min(p, fl(1 - p)) is exact: p <= 1/2 is taken as is, and 1 - p is
        # exact for p >= 1/2.
        "v": ([min(x, y) for x, y in zip(p, q)], [0] * len(p)),
    }
    out = {}
    for name, (ts, errs) in terms.items():
        total = mpmath.fsum(ts)
        out[name] = (total, _sum_allowance(errs, total))
    out["v_star"] = (max(min(x, y) for x, y in zip(p, q)), mpmath.mpf(0))
    return out


@pytest.mark.parametrize("kind,probs", FAMILIES, ids=[f"{k}-{len(p)}" for k, p in FAMILIES])
def test_moments_within_their_roundings(kind, probs):
    with mp.workdps(50):
        ms = moments(make_ensemble(probs))
        for name, (exact, allowance) in _exact(probs).items():
            got = getattr(ms, name)
            assert abs(mpmath.mpf(got) - exact) <= allowance, (name, got, exact, allowance)


@pytest.mark.parametrize("kind,probs", FAMILIES, ids=[f"{k}-{len(p)}" for k, p in FAMILIES])
def test_fit_within_its_cancellation_scale(kind, probs):
    ms = moments(make_ensemble(probs))
    try:
        fit = fit_shifted_binomial(ms)
    except (DegenerateEnsembleError, FitRangeError):
        pytest.skip("the fit rejects this ensemble")
    r = (ms.lambda2 + ms.lambda3) / (ms.lambda2 - ms.lambda3)
    cancel = r * (1.0 + 1.0 / (1.0 - fit.p_star))
    assert cancel < 1e6
    with mp.workdps(50):
        ex = _exact(probs)
        l1, l2, l3 = ex["lambda1"][0], ex["lambda2"][0], ex["lambda3"][0]
        sigma2 = l1 - l2
        p_star = (l2 - l3) / sigma2
        n_star = sigma2 / (p_star * (1 - p_star))
        s_star = l1 - n_star * p_star

        assert abs(fit.p_star - p_star) <= K_P * U * p_star * r
        allow_n = K_N * U * n_star * cancel
        assert abs(fit.n_star - n_star) <= allow_n
        allow_s = K_S * U * (l1 + n_star * p_star * cancel)
        assert abs(fit.s_star - s_star) <= allow_s

        # The fit floors n* and s*, except that a value within its snap
        # window of an integer is taken as that integer.
        window_n = SNAP * fit.n_star * cancel + allow_n
        assert fit.n == math.floor(n_star) or (
            fit.n == mpmath.nint(n_star) and abs(n_star - fit.n) <= window_n)
        window_s = SNAP * (abs(ms.lambda1) + fit.n_star * fit.p_star * cancel) + allow_s
        assert fit.s == math.floor(s_star) or (
            fit.s == mpmath.nint(s_star) and abs(s_star - fit.s) <= window_s)

        # p = fl(fl(l1 - s)/n): l1's rounding, then two more.
        gap = abs(l1 - fit.s)
        allow_p = (U * l1 * (1 + U) ** 2 + gap * ((1 + U) ** 2 - 1)) / fit.n
        assert abs(fit.p - (l1 - fit.s) / fit.n) <= allow_p
