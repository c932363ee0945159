"""Exact Poisson-binomial law and the six approximating distributions.

Everything is represented as a finitely supported PMF on the integers
(:class:`IntegerDistribution`). The centerpiece is the three-parameter
shifted binomial fit: trials, success probability, and an integer shift
chosen to match the first three moments of the target sum as closely as
integer rounding allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import BernoulliEnsemble, MomentSummary, moments

__all__ = [
    "METHODS",
    "approximation_pmf",
    "IntegerDistribution",
    "ShiftedBinomialFit",
    "DegenerateEnsembleError",
    "FitRangeError",
    "exact_pmf",
    "exact_pmfs",
    "brute_force_pmf",
    "fit_shifted_binomial",
    "shifted_binomial_pmf",
    "poisson_pmf",
    "shifted_poisson_pmf",
    "one_param_binomial_pmf",
    "two_param_binomial_pmf",
    "discretized_normal_pmf",
    "fractional_binomial_loglik",
]

BRUTE_FORCE_MAX_M = 20

# The approximations approximation_pmf builds, in the sweep's column order.
METHODS = ("poisson", "shifted-poisson", "binomial1", "binomial2", "normal", "shifted-binomial")

# _floor_frac's snap window, in units of the rounding error the value
# carries. On 3400 iid and {p,1} ensembles with up to 2e5 summands, the fit's
# n* and s* stayed within 0.77 units of their integers.
_SNAP_UNITS = 16.0


class DegenerateEnsembleError(ValueError):
    """The ensemble has no usable spread (e.g. sigma^2 = 0) for this fit."""


class FitRangeError(ValueError):
    """Rounded fit parameters fell outside their valid range."""


@dataclass(frozen=True)
class IntegerDistribution:
    """PMF on the integers: entry k of ``pmf`` is P(X = offset + k).

    Construct via :meth:`from_masses`, which trims zero-mass tails so the
    stored support is tight.
    """

    offset: int
    pmf: np.ndarray

    @classmethod
    def from_masses(cls, offset: int, masses: np.ndarray) -> "IntegerDistribution":
        arr = np.asarray(masses, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a non-empty 1-d array")
        if np.any(arr < 0.0):
            worst = float(arr.min())
            raise ValueError(f"pmf has negative mass {worst!r}")
        nonzero = np.flatnonzero(arr)
        if nonzero.size == 0:
            raise ValueError("pmf has no mass")
        lo, hi = int(nonzero[0]), int(nonzero[-1])
        arr = arr[lo : hi + 1].copy()
        arr.flags.writeable = False
        return cls(offset=offset + lo, pmf=arr)

    def __len__(self) -> int:
        return len(self.pmf)

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + len(self.pmf) - 1

    def support(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.pmf))

    def prob(self, k: int) -> float:
        idx = k - self.offset
        if 0 <= idx < len(self.pmf):
            return float(self.pmf[idx])
        return 0.0

    def tail_above(self, k: int) -> float:
        """P(X > k)."""
        idx = k - self.offset + 1
        if idx <= 0:
            return float(np.sum(self.pmf))
        if idx >= len(self.pmf):
            return 0.0
        return float(np.sum(self.pmf[idx:]))

    def total_mass(self) -> float:
        return float(np.sum(self.pmf))

    def mean(self) -> float:
        return float(np.dot(self.support(), self.pmf))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot((self.support() - mu) ** 2, self.pmf))

    def third_central_moment(self) -> float:
        mu = self.mean()
        return float(np.dot((self.support() - mu) ** 3, self.pmf))


@dataclass(frozen=True)
class ShiftedBinomialFit:
    """Three-parameter fit: exact real solution plus rounded integers.

    (n_star, p_star, s_star) solve the moment equations exactly; (n, p, s)
    are the usable parameters with n = floor(n_star), s = floor(s_star) and
    p re-perturbed so that n*p + s reproduces the target mean exactly.
    """

    n_star: float
    p_star: float
    s_star: float
    n: int
    s: int
    p: float
    frac_n: float
    frac_s: float


def _floor_frac(x: float, scale: float | None = None) -> tuple[int, float]:
    """(floor(x), x - floor(x)), with x snapped to the nearest integer when
    within _SNAP_UNITS ulps of ``scale`` (by default |x|), the rounding an x
    computed from values of that size carries. Values that are integers in
    exact arithmetic (lambda1^2/lambda2 on iid input) are then not split as
    (k-1, 0.999...), while one that merely lies near an integer still floors.
    """
    nearest = round(x)
    scale = abs(x) if scale is None else scale
    if abs(x - nearest) <= _SNAP_UNITS * np.finfo(float).eps * scale:
        return int(nearest), 0.0
    f = math.floor(x)
    return int(f), x - f


def exact_pmf(e: BernoulliEnsemble) -> IntegerDistribution:
    """Exact law of the Bernoulli sum.

    Below ``_TREE_MIN_M`` summands the Bernoullis are folded in one at a
    time, new[k] = old[k]*(1-p) + old[k-1]*p: O(m^2), and every mass is
    exact to rounding in relative terms, down to the smallest tail.

    From ``_TREE_MIN_M`` summands on, the generating polynomials
    (1-p_i) + p_i*z are multiplied in a balanced product tree, FFT products
    above the leaves: O(m log^2 m). Summands with p = 0 are dropped and those
    with p = 1 each shift the offset by one before the tree runs, so the
    support never extends past what they allow. The error contract is
    absolute, not relative: every returned mass is within
    eps(m) = m * 2**-54 of the exact law of the summands with failure
    probabilities 1 - p_i rounded to double, as the fold also rounds them.
    Rounding moves a mass by at most eps(m)/2, so masses with
    |x| <= eps(m)/2 cannot be told from 0 and are returned as exactly 0,
    and a residue below -eps(m)/2 raises ValueError.
    """
    if e.m < _TREE_MIN_M:
        return IntegerDistribution.from_masses(0, _fold_pmf(e.as_array()[np.newaxis])[0])
    p = e.as_array()
    masses = _product_tree_pmf(p[(p > 0.0) & (p < 1.0)])
    noise = _tree_tolerance(e.m) / 2.0
    worst = float(masses.min())
    if worst < -noise:
        raise ValueError(f"exact PMF product tree left mass {worst!r} below -{noise!r}")
    masses[np.abs(masses) <= noise] = 0.0
    return IntegerDistribution.from_masses(int(np.count_nonzero(p == 1.0)), masses)


def exact_pmfs(ensembles: Sequence[BernoulliEnsemble]) -> list[IntegerDistribution]:
    """Exact law of each ensemble's sum, bit for bit what :func:`exact_pmf` gives.

    Ensembles that all share one size m below ``_TREE_MIN_M`` are folded
    together in one pass over a (len(ensembles), m) array: for the 20 rows
    of a sweep grid at m = 200, that pass costs about two single folds
    (2-core Xeon: 2.0 ms against 1.0 ms for one row). Any other list, the
    empty one included, is mapped through :func:`exact_pmf`.
    """
    sizes = {e.m for e in ensembles}
    if len(sizes) != 1 or sizes.pop() >= _TREE_MIN_M:
        return [exact_pmf(e) for e in ensembles]
    masses = _fold_pmf(np.stack([e.as_array() for e in ensembles]))
    return [IntegerDistribution.from_masses(0, row) for row in masses]


# From this many summands on, exact_pmf uses the product tree. The tree is
# already faster from about m = 40 (2-core Xeon: 0.29 vs 0.57 ms at
# m = 100), but the fold resolves every mass in relative terms, and below
# 256 summands it costs no more than the rest of one sweep row (moments, six
# approximations, distances, bounds): 1.3 vs 1.5 ms at m = 200, 1.7 vs
# 1.7 ms at m = 256.
_TREE_MIN_M = 256

# Tree levels whose factors have at most this many coefficients multiply
# directly, in extended precision; longer ones by FFT in double. At 32 the
# tree took 10-25% longer; at 8 it would make twice as many FFT products,
# whose rounding _tree_tolerance allows for.
_DIRECT_MAX_LEN = 16


def _tree_tolerance(m: int) -> float:
    """eps(m), the absolute error contract of the product tree on m summands.

    Rounding errors add up along the tree, and where many probabilities are
    equal they add coherently, because every row of a level then rounds
    alike. The leaf levels, which hold most of the tree's products, run in
    np.longdouble for that reason, which leaves about one FFT rounding per
    16 summands. The largest rounding error measured over ramp, Beta,
    constant-p and {p, 1-p} ensembles with m from 256 to 5e4 was
    0.034 * m * 2**-52, a quarter of the eps(m)/2 allowed. Where
    np.longdouble is no wider than double, a repeated small p reached
    0.22 * m * 2**-52.
    """
    return m * 2.0**-54


def _fold_pmf(probs: np.ndarray) -> np.ndarray:
    """Masses on 0..m of each row of a (rows, m) probability array, as (rows, m+1).

    The Bernoullis of all rows are folded in together, one summand index j
    at a time. The running laws are held as an (m+1, rows) array, so p_j and
    1-p_j of every row are one contiguous row that broadcasts along the last
    axis, and each step updates in place: masses 0..j are multiplied by
    1-p_j and the products by p_j are added one cell higher. Every mass gets
    the two products and the one addition of new[k] = old[k]*(1-p) +
    old[k-1]*p, and the new top cell is 0 + old[j]*p = old[j]*p, so each row
    is bit for bit the fold of that row alone. (Only the sign of a zero can
    differ: where p = -0.0 the top cell is +0.0, not -0.0. Such cells lie
    above every nonzero mass, where exact_pmf trims them.)
    """
    p = np.ascontiguousarray(probs.T)
    q = 1.0 - p
    m, rows = p.shape
    dist = np.zeros((m + 1, rows))
    dist[0] = 1.0
    for j in range(m):
        t = dist[: j + 1] * p[j]
        dist[: j + 1] *= q[j]
        dist[1 : j + 2] += t
    return dist.T


def _product_tree_pmf(p: np.ndarray) -> np.ndarray:
    """Coefficients of prod_i ((1-p_i) + p_i*z), multiplied pairwise by level.

    Each level is one 2-D array whose rows are the level's factors, all of
    width 2^j + 1; an odd count is padded with the polynomial 1. The result
    carries rounding noise of either sign (see :func:`_tree_tolerance`).
    """
    if p.size == 0:
        return np.ones(1)
    rows = np.stack([1.0 - p, p], axis=1).astype(np.longdouble)
    while len(rows) > 1:
        if len(rows) % 2:
            one = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
            one[0, 0] = 1.0
            rows = np.concatenate([rows, one])
        a, b = rows[0::2], rows[1::2]
        width = rows.shape[1]
        if width <= _DIRECT_MAX_LEN:
            prod = np.zeros((len(a), 2 * width - 1), dtype=np.longdouble)
            for i in range(width):
                prod[:, i : i + width] += a[:, i : i + 1] * b
        else:
            a, b = a.astype(float, copy=False), b.astype(float, copy=False)
            # n = 2^(j+1) is a power of two, the most accurate FFT length. The
            # circular product of that length wraps only the top coefficient,
            # a[-1]*b[-1], onto index 0, so take it back out there.
            n = 2 * width - 2
            top = a[:, -1] * b[:, -1]
            prod = np.empty((len(a), n + 1))
            prod[:, :n] = np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)
            prod[:, 0] -= top
            prod[:, n] = top
        rows = prod
    return rows[0, : p.size + 1].astype(float)


def brute_force_pmf(e: BernoulliEnsemble) -> IntegerDistribution:
    """Oracle PMF from explicit enumeration of all 2^m outcome vectors.

    Exists to cross-check :func:`exact_pmf`; refuses m > 20.
    """
    m = e.m
    if m > BRUTE_FORCE_MAX_M:
        raise ValueError(f"brute force enumeration capped at m={BRUTE_FORCE_MAX_M}, got {m}")
    # One array entry per outcome vector: probabilities and success counts
    # double with each variable folded in.
    outcome_prob = np.array([1.0])
    outcome_count = np.array([0])
    for p in e.probs:
        outcome_prob = np.concatenate([outcome_prob * (1.0 - p), outcome_prob * p])
        outcome_count = np.concatenate([outcome_count, outcome_count + 1])
    masses = np.bincount(outcome_count, weights=outcome_prob, minlength=m + 1)
    return IntegerDistribution.from_masses(0, masses)


def fit_shifted_binomial(ms: MomentSummary) -> ShiftedBinomialFit:
    """Solve the three-moment equations and round to integer (n, s).

    The exact solution is p* = (l2-l3)/(l1-l2), n* = (l1-l2)/(p*(1-p*)),
    s* = l1 - n*p*. Rounding keeps the mean matched exactly via
    p = (n*p* + {s*})/n, computed as the algebraically equal (l1 - s)/n,
    which avoids routing p through the cancellation-prone n*p* product.
    """
    if ms.sigma2 <= 0.0:
        raise DegenerateEnsembleError(
            "degenerate ensemble: sigma^2 = 0, no shifted binomial fit exists"
        )
    if ms.lambda2 <= ms.lambda3:
        raise DegenerateEnsembleError(
            "degenerate ensemble: lambda2 = lambda3 forces p* = 0"
        )
    p_star = (ms.lambda2 - ms.lambda3) / ms.sigma2
    n_star = ms.sigma2 / (p_star * (1.0 - p_star))
    s_star = ms.lambda1 - n_star * p_star

    # n* and s* are integers on the exact-fit families only up to rounding,
    # which grows with the cancellation in lambda2 - lambda3 and in 1 - p*.
    # Snap within a few times that rounding and no further: a fixed relative
    # window also snaps an n* that merely lies near an integer (ramp m = 9463,
    # M = 0.1: n* = 7156.9999974) and breaks n <= n*.
    cancel = (
        (ms.lambda2 + ms.lambda3) / (ms.lambda2 - ms.lambda3) * (1.0 + 1.0 / (1.0 - p_star))
    )
    n, frac_n = _floor_frac(n_star, n_star * cancel)
    s, frac_s = _floor_frac(s_star, abs(ms.lambda1) + n_star * p_star * cancel)
    if n < 1:
        raise FitRangeError(f"fit out of range: n* = {n_star:.6g} rounds below 1")
    p = (ms.lambda1 - s) / n
    # Clamping p would silently break the mean match, so fail instead.
    if not (0.0 < p < 1.0):
        raise FitRangeError(f"fit out of range: perturbed p = {p:.6g} not in (0, 1)")
    return ShiftedBinomialFit(
        n_star=n_star,
        p_star=p_star,
        s_star=s_star,
        n=n,
        s=s,
        p=p,
        frac_n=frac_n,
        frac_s=frac_s,
    )


def shifted_binomial_pmf(fit: ShiftedBinomialFit) -> IntegerDistribution:
    """Binomial(n, p) masses translated to offset s."""
    return _binomial_pmf(fit.n, fit.p, fit.s)


# Natural log of the bound on a mass outside _recurrence_window:
# exp(-746) < 2**-1076, so every such mass would round to 0 in double.
_UNDERFLOW_LOG = 746.0


def _recurrence_window(mean: float, variance: float, lo: int, hi: float) -> tuple[int, int]:
    """Integers a..b within lo..hi outside which every mass underflows.

    Bernstein's inequality, which holds for binomial and Poisson laws,
    bounds P(|X - mean| >= t) by 2 exp(-t^2 / (2 (variance + t/3))); the
    half-width t solves that bound = exp(-_UNDERFLOW_LOG) with the factor 2
    folded into the exponent.
    """
    big = _UNDERFLOW_LOG + math.log(2.0)
    t = big / 3.0 + math.sqrt(big * big / 9.0 + 2.0 * big * variance)
    return max(lo, math.floor(mean - t)), min(hi, math.ceil(mean + t))


def _binomial_pmf(n: int, p: float, offset: int = 0) -> IntegerDistribution:
    """Binomial(n, p) translated to ``offset``, built from the mode outward.

    With k0 = min(floor((n+1) p), n) the mode, the masses relative to b(k0)
    follow the ratio recurrence b(k+1)/b(k) = (n-k)/(k+1) * p/q as one
    np.cumprod on each side of k0, over the window of
    :func:`_recurrence_window` only, and are normalised by their sum. Masses
    outside the window are below 2**-1076 and come back as 0. p = 0 and
    p = 1 give the point mass at 0 and at n.

    Error contract: each step multiplies by a ratio with at most five
    roundings of u = 2**-53 (one in q = 1 - p, one in p/q, and one each in
    the division, the product and the running product), so a mass j steps
    from the mode is off by at most about 5*j*u relative, and the total
    variation distance to the exact Binomial(n, p) is at most about
    2.5*u*(sigma + 2), sigma^2 = n p q. Against 40-digit references at
    n <= 15000 the largest measured was 3.0e-15 (n = 15000, p = 0.3);
    against ``scipy.stats.binom.pmf`` it was 3.1e-15.
    """
    if p == 0.0 or p == 1.0:
        return IntegerDistribution.from_masses(offset + (n if p == 1.0 else 0), np.ones(1))
    q = 1.0 - p
    lo, hi = _recurrence_window(n * p, n * p * q, 0, n)
    k0 = min(math.floor((n + 1) * p), n)
    ratio = p / q
    up = np.arange(k0 + 1, hi + 1, dtype=float)
    down = np.arange(k0 - 1, lo - 1, -1, dtype=float)
    masses = _outward_from_mode((down + 1.0) / (n - down) / ratio, (n + 1.0 - up) / up * ratio)
    return IntegerDistribution.from_masses(offset + lo, masses)


def _outward_from_mode(down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Masses normalised to sum 1 from the ratios P(k-1)/P(k) walking left
    of the mode (``down``, nearest first) and P(k+1)/P(k) walking right."""
    masses = np.concatenate([np.cumprod(down)[::-1], [1.0], np.cumprod(up)])
    return masses / masses.sum()


# poisson_pmf drops the right tail from the first k with P(X > k) at most this.
_POISSON_TAIL = 1e-14


def poisson_pmf(lam: float) -> IntegerDistribution:
    """Poisson(lam) truncated where the right tail drops below _POISSON_TAIL.

    The masses are built as in :func:`_binomial_pmf`: from the mode
    floor(lam) outward with the ratio recurrence P(k+1)/P(k) = lam/(k+1),
    over the window where they are representable, and normalised by their
    sum. The right tail is then dropped from the first k with
    P(X > k) <= _POISSON_TAIL = 1e-14 on (the tail summed from the right).
    The masses kept are not renormalised: the dropped mass stays below
    _POISSON_TAIL and is absorbed by distance tolerances downstream.

    Error contract: each step rounds twice (the ratio and the running
    product) and nothing rounds coherently, so the kept masses are within
    total variation about u*(sqrt(lam) + 2), u = 2**-53, of the exact law;
    against 40-digit references the largest measured was 1.3e-16 for
    lam <= 7500, where ``scipy.stats.poisson.pmf`` is 3.3e-12 off.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"Poisson rate must be finite and >= 0, got {lam}")
    if lam == 0.0:
        return IntegerDistribution.from_masses(0, np.ones(1))
    lo, hi = _recurrence_window(lam, lam, 0, math.inf)
    k0 = math.floor(lam)
    up = np.arange(k0 + 1, hi + 1, dtype=float)
    down = np.arange(k0, lo, -1, dtype=float)
    masses = _outward_from_mode(down / lam, lam / up)
    # above[i] = P(X > lo + i); keep masses up to the first k where it is
    # within the floor (the last entry, 0, always is).
    above = np.append(np.cumsum(masses[:0:-1])[::-1], 0.0)
    kmax = int(np.argmax(above <= _POISSON_TAIL))
    return IntegerDistribution.from_masses(lo, masses[: kmax + 1])


def _shifted_poisson_params(ms: MomentSummary) -> tuple[int, float]:
    """Shift floor(l1 - sigma^2) and rate sigma^2 plus the fractional remainder."""
    if ms.sigma2 <= 0.0:
        raise DegenerateEnsembleError("degenerate ensemble: sigma^2 = 0")
    # l1 and sigma^2 each carry rounding relative to their own size
    shift, frac = _floor_frac(ms.lambda1 - ms.sigma2, ms.lambda1 + ms.sigma2)
    return shift, ms.sigma2 + frac


def shifted_poisson_pmf(ms: MomentSummary) -> IntegerDistribution:
    """Translated Poisson matching the first two moments.

    Shift s = floor(l1 - sigma^2); rate picks up the fractional remainder so
    the mean is matched exactly and the variance overshoots by less than 1.
    """
    shift, rate = _shifted_poisson_params(ms)
    base = poisson_pmf(rate)
    return IntegerDistribution(offset=base.offset + shift, pmf=base.pmf)


def one_param_binomial_pmf(
    e: BernoulliEnsemble, ms: MomentSummary | None = None
) -> IntegerDistribution:
    """Binomial(m, l1/m): trials fixed at m, p matched to the mean.

    ``ms`` (the moments of e) is computed when not passed in.
    """
    ms = moments(e) if ms is None else ms
    return _binomial_pmf(e.m, ms.lambda1 / e.m)


def _two_param_params(ms: MomentSummary) -> tuple[int, float, float]:
    """n = floor(l1^2/l2), the fractional part it drops, and p = l1/n."""
    if ms.lambda2 <= 0.0:
        raise DegenerateEnsembleError("degenerate ensemble: lambda2 = 0")
    n, frac = _floor_frac(ms.lambda1**2 / ms.lambda2)
    return n, frac, ms.lambda1 / n


def two_param_binomial_pmf(ms: MomentSummary) -> IntegerDistribution:
    """Binomial with n = floor(l1^2/l2) and p = l1/n (two-moment match)."""
    n, _, p = _two_param_params(ms)
    if p > 1.0:
        raise FitRangeError(f"fit out of range: p = lambda1/n = {p:.6g} exceeds 1")
    return _binomial_pmf(n, p)


def discretized_normal_pmf(
    mean: float, variance: float, support: tuple[int, int]
) -> IntegerDistribution:
    """Normal law discretized to integer cells with continuity correction.

    Cell k gets Phi(k+1/2) - Phi(k-1/2) (standardized); the two extreme
    cells absorb the remaining tails so the masses sum to 1 exactly. Phi is
    :func:`_normal_cdf`.
    """
    if variance <= 0.0:
        raise DegenerateEnsembleError(f"variance must be positive, got {variance}")
    lo, hi = int(support[0]), int(support[1])
    if hi < lo:
        raise ValueError(f"empty support range ({lo}, {hi})")
    sd = math.sqrt(variance)
    edges = (np.arange(lo, hi + 2) - 0.5 - mean) / sd
    cdf = _normal_cdf(edges)
    cdf[0] = 0.0
    cdf[-1] = 1.0
    return IntegerDistribution.from_masses(lo, np.diff(cdf))


# _normal_cdf evaluates erfc only on edges z in (-38.5, 8.3). Outside it
# erfc(-z/sqrt(2))/2 rounds to exactly 0 (Phi(-38.5) < 2**-1075) or exactly
# 1 (1 - Phi(8.3) < 2**-54), which is what it returns there.
_NORMAL_CDF_ZERO, _NORMAL_CDF_ONE = -38.5, 8.3


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal cdf Phi(z) = erfc(-z/sqrt(2))/2, elementwise, by math.erfc.

    Error contract: absolute error at most about 2**-53, the halved rounding
    of erfc on (1, 2] where z > 0; the largest measured against 40-digit
    references on |z| <= 10 was 0.94 * 2**-53, and against
    ``scipy.stats.norm.cdf`` on |z| <= 45 the largest difference was 2.2e-16.
    """
    z = np.asarray(z, dtype=float)
    cdf = (z > 0.0).astype(float)
    inner = (z > _NORMAL_CDF_ZERO) & (z < _NORMAL_CDF_ONE)
    cdf[inner] = [0.5 * math.erfc(x) for x in (z[inner] * -math.sqrt(0.5)).tolist()]
    return cdf


def approximation_pmf(
    method: str,
    e: BernoulliEnsemble,
    ms: MomentSummary | None = None,
    fit: ShiftedBinomialFit | None = None,
) -> tuple[IntegerDistribution, dict[str, float]]:
    """Build the named approximation of e's sum; returns the PMF and its parameters.

    ``ms`` (the moments of e) and, for shifted-binomial, ``fit`` (the fit of
    ms) are computed when not passed in.
    """
    ms = moments(e) if ms is None else ms
    if method == "poisson":
        return poisson_pmf(ms.lambda1), {"rate": ms.lambda1}
    if method == "shifted-poisson":
        shift, rate = _shifted_poisson_params(ms)
        return shifted_poisson_pmf(ms), {"shift": shift, "rate": rate}
    if method == "binomial1":
        return one_param_binomial_pmf(e, ms), {"n": e.m, "p": ms.lambda1 / e.m}
    if method == "binomial2":
        d = two_param_binomial_pmf(ms)
        n, _, p = _two_param_params(ms)
        return d, {"n": n, "p": p}
    if method == "normal":
        d = discretized_normal_pmf(ms.lambda1, ms.sigma2, (0, e.m))
        return d, {"mean": ms.lambda1, "variance": ms.sigma2}
    if method == "shifted-binomial":
        fit = fit_shifted_binomial(ms) if fit is None else fit
        params = {
            "n": fit.n, "p": fit.p, "s": fit.s,
            "n*": fit.n_star, "p*": fit.p_star, "s*": fit.s_star,
        }
        return shifted_binomial_pmf(fit), params
    raise ValueError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")


def fractional_binomial_loglik(x: int, n: float, p: float) -> float:
    """Unnormalized binomial log-likelihood x*log(p) + (n-x)*log(1-p).

    n may be fractional: the value interpolates linearly between the
    log-likelihoods of the two nearest integer-n models. No binomial
    coefficient is included: log C(n, x) is constant in p only while n is
    held fixed, so values at different n (or at an n that moves with the
    parameter of interest) differ by more than this function returns.
    """
    if n <= 0.0 or not math.isfinite(n):
        raise ValueError(f"n must be finite and positive, got {n}")
    if x < 0 or x > math.ceil(n):
        raise ValueError(f"x must be in [0, ceil(n)] = [0, {math.ceil(n)}], got {x}")
    if p == 0.0:
        if x > 0:
            raise ValueError("p = 0 is incompatible with x > 0")
        return 0.0
    if p == 1.0:
        if x != n:
            raise ValueError("p = 1 is incompatible with x != n")
        return 0.0
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be inside [0, 1], got {p}")
    return x * math.log(p) + (n - x) * math.log1p(-p)
