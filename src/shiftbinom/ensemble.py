"""Bernoulli ensembles and their moment-derived scalars.

An ensemble is the vector of success probabilities of independent Bernoulli
variables; everything else in the package (exact law, approximation fits,
error bounds) is a function of its power sums and a couple of min/max
statistics collected here.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "BernoulliEnsemble",
    "MomentSummary",
    "make_ensemble",
    "moments",
    "ensemble_from_spec",
    "read_probs_file",
]


@dataclass(frozen=True)
class BernoulliEnsemble:
    """Ordered success probabilities p_1..p_m, each in [0, 1].

    ``probs`` is a tuple of Python floats. The same values are also held
    once as a read-only float64 array, which :meth:`as_array` returns;
    :func:`make_ensemble` hands over the array it validated. The array takes
    no part in equality, hashing or repr.
    """

    probs: tuple[float, ...]
    # An init-only argument, so that dataclasses.replace rebuilds the array
    # from the new probs rather than carrying the old one over.
    _validated: InitVar[np.ndarray | None] = None
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, _validated: np.ndarray | None) -> None:
        if _validated is None:
            _validated = np.array(self.probs, dtype=float)
            _validated.flags.writeable = False
        object.__setattr__(self, "_array", _validated)

    @property
    def m(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        """The probabilities as a read-only float64 array, the same object on each call."""
        return self._array


@dataclass(frozen=True)
class MomentSummary:
    """Power sums and derived moments of the sum of an ensemble.

    lambda_j is the sum of the j-th powers of the probabilities; sigma2 and
    mu3 are the variance and third central moment of the sum; v is the sum of
    min(p_i, 1-p_i) and v_star its maximum.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    sigma2: float
    mu3: float
    v: float
    v_star: float


def make_ensemble(probs: Sequence[float] | Iterable[float]) -> BernoulliEnsemble:
    """Validate a probability sequence and return it as an ensemble.

    Raises ValueError on an empty or nested sequence, or on any entry that
    is non-finite or outside [0, 1], naming the first offending index.
    """
    if not isinstance(probs, (Sequence, np.ndarray)):
        probs = list(probs)
    # a copy, so the caller cannot change the ensemble's array afterwards
    arr = np.array(probs, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"probabilities must form a 1-d sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("ensemble must contain at least one probability")
    # NaN fails both comparisons, so it is caught by isfinite alone
    bad = np.flatnonzero(~np.isfinite(arr) | (arr < 0.0) | (arr > 1.0))
    if bad.size:
        i = int(bad[0])
        p = float(arr[i])
        if not math.isfinite(p):
            raise ValueError(f"probability at index {i} is not finite: {p!r}")
        raise ValueError(f"probability at index {i} is outside [0, 1]: {p!r}")
    arr.flags.writeable = False
    return BernoulliEnsemble(tuple(arr.tolist()), arr)


def moments(e: BernoulliEnsemble) -> MomentSummary:
    """Compute power sums and derived moments.

    Every sum is correctly rounded: each field is bit for bit the value
    ``math.fsum`` gives over the same double terms p, p*p, p**3, p**4, p*q,
    p*q*(q-p) and min(p, q), q = 1 - p; v_star is the largest min(p, q).
    sigma^2 and mu3 are summed per element instead of differencing power
    sums. Both matter: the fit's exactness guarantees (iid recovery, p_i in
    {p, 1} families) sit at the last floating-point digit, where pairwise
    summation and cancellation between near-equal power sums already cost
    more than the tolerance.

    The sums come from :func:`_correctly_rounded_sums`: from
    ``_CERTIFIED_MIN_M`` summands on, one pairwise fold in np.longdouble per
    term vector, with each result certified by an error bound and the rare
    uncertified one summed again by ``math.fsum``; below that, ``math.fsum``
    alone. Where np.longdouble is plain double no certificate can pass, so
    every sum takes ``math.fsum``: the same values, more slowly.
    """
    p = e.as_array()
    q = 1.0 - p
    pq = p * q
    pq_min = np.minimum(p, q)
    # In MomentSummary field order. |pq * (q - p)| <= pq elementwise, as
    # |q - p| <= 1, so the sigma^2 terms' sum bounds the mu3 terms' |sum|.
    sums = _correctly_rounded_sums(
        (lambda: p, lambda: p * p, lambda: p**3, lambda: p**4,
         lambda: pq, lambda: pq * (q - p), lambda: pq_min),
        e.m,
        abs_bound_rows=(0, 1, 2, 3, 4, 4, 6),
    )
    return MomentSummary(*sums, v_star=float(np.max(pq_min)))


# From this many summands on, _correctly_rounded_sums folds in np.longdouble
# and certifies; below it math.fsum alone is faster. The two tie near here
# (2-core Xeon, best of 7 per moments() call: 72.5 vs 64.5 us at m = 200,
# 80.5 vs 82.1 us at 256, 98.7 vs 131.4 us at 400).
_CERTIFIED_MIN_M = 256

# Unit roundoff u of np.longdouble arithmetic: 2**-64 for x87 extended
# precision, 2**-113 for IEEE quad, 2**-53 where long double is plain
# double. A double-double long double does not round like an IEEE format,
# so it also gets 2**-53. With u = 2**-53 the bound of any sum exceeds the
# distance to its double's midpoints, so every certificate fails.
_LD_MANT = np.finfo(np.longdouble).nmant
_LD_UNIT = 2.0 ** -(_LD_MANT + 1) if _LD_MANT in (52, 63, 112) else 2.0**-53


def _correctly_rounded_sums(
    terms: Sequence[Callable[[], np.ndarray]], m: int, abs_bound_rows: Sequence[int]
) -> list[float]:
    """``math.fsum`` of each term vector, bit for bit.

    Each entry of ``terms`` builds one float64 vector of m terms when called;
    entry ``abs_bound_rows[k]`` names a nonnegative vector whose terms bound
    those of vector k in absolute value (k itself when vector k is
    nonnegative).

    Below ``_CERTIFIED_MIN_M`` every vector is summed by ``math.fsum``.
    From there on, with d = ceil(log2 m), each vector in turn is built and
    added into one np.longdouble buffer of 2**(d-1) entries as
    t[i] + t[2**(d-1) + i], and the buffer is folded in place, halving its
    width, down to one entry: d levels, one rounding each. The computed sum
    S' of the exact sum S of the terms then satisfies
    |S' - S| <= (d+2) * u * sum|t|, u the long double unit roundoff (the
    textbook pairwise bound is d*u/(1 - d*u) * sum|t|; the two spare units
    cover reading sum|t| from the computed sum of a nonnegative vector and
    rounding the bound itself). The double c nearest S' is accepted when S'
    lies farther than that bound from both midpoints between c and its
    neighbouring doubles: S is then strictly between them, so it rounds to c
    as ``math.fsum`` rounds it. A sum that is not certified, or whose c is
    0 (``math.fsum`` decides the sign of zero), is summed again by
    ``math.fsum``.
    """
    if m < _CERTIFIED_MIN_M:
        return [math.fsum(term().tolist()) for term in terms]
    depth = (m - 1).bit_length()
    half = 1 << (depth - 1)
    # One buffer reused by every vector. A (len(terms), 2**(d-1)) buffer
    # folds all vectors with one call per level, but it raised the
    # sweep-large benchmark's peak RSS by 1.8 MB (4%), this one by 0.9 MB.
    acc = np.empty(half, dtype=np.longdouble)
    s = np.empty(len(terms), dtype=np.longdouble)
    for k, term in enumerate(terms):
        t = term()
        acc[:] = t[:half]
        acc[: m - half] += t[half:]
        width = half
        while width > 1:
            width //= 2
            acc[:width] += acc[width : 2 * width]
        s[k] = acc[0]
    c = s.astype(float)
    # Midpoints between c and its neighbours; exact in a wider long double.
    lo = (c.astype(np.longdouble) + np.nextafter(c, -np.inf)) / 2
    hi = (c.astype(np.longdouble) + np.nextafter(c, np.inf)) / 2
    bound = (depth + 2) * _LD_UNIT * s[list(abs_bound_rows)]
    certified = (s - lo > bound) & (hi - s > bound) & (c != 0.0)
    return [
        float(c[k]) if certified[k] else math.fsum(term().tolist())
        for k, term in enumerate(terms)
    ]


def ensemble_from_spec(kind: str, m: int, max_prob: float) -> BernoulliEnsemble:
    """Build a deterministic ensemble from a named generator.

    The only generator is "uniform-spread": p_i = i * max_prob / (m + 1) for
    i = 1..m, a ramp of probabilities topping out just below max_prob.
    """
    if kind != "uniform-spread":
        raise ValueError(f"unknown ensemble generator: {kind!r}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not (0.0 < max_prob <= 1.0):
        raise ValueError(f"max_prob must be in (0, 1], got {max_prob}")
    i = np.arange(1, m + 1, dtype=float)
    return make_ensemble(i * max_prob / (m + 1))


def read_probs_file(path: str | Path) -> BernoulliEnsemble:
    """Read one probability per line; blank lines and # comments ignored."""
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse probability {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no probabilities found")
    try:
        return make_ensemble(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
