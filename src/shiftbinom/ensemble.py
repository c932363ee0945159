"""Bernoulli ensembles and their moment-derived scalars.

An ensemble is the vector of success probabilities of independent Bernoulli
variables; everything else in the package (exact law, approximation fits,
error bounds) is a function of its power sums and a couple of min/max
statistics collected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
    """Ordered success probabilities p_1..p_m, each in [0, 1]."""

    probs: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


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
    arr = np.asarray(probs, dtype=float)
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
    return BernoulliEnsemble(tuple(arr.tolist()))


def moments(e: BernoulliEnsemble) -> MomentSummary:
    """Compute power sums and derived moments.

    Sums are correctly rounded (math.fsum), and sigma^2 and mu3 are summed
    per element instead of differencing power sums. Both matter: the fit's
    exactness guarantees (iid recovery, p_i in {p, 1} families) sit at the
    last floating-point digit, where pairwise summation and cancellation
    between near-equal power sums already cost more than the tolerance.
    """
    p = e.as_array()
    q = 1.0 - p
    pq_min = np.minimum(p, q)
    return MomentSummary(
        lambda1=math.fsum(p),
        lambda2=math.fsum(p * p),
        lambda3=math.fsum(p**3),
        lambda4=math.fsum(p**4),
        sigma2=math.fsum(p * q),
        mu3=math.fsum(p * q * (q - p)),
        v=math.fsum(pq_min),
        v_star=float(np.max(pq_min)),
    )


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
