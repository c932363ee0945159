"""Output checks, built on an exact law computed independently of shiftbinom.

The oracle multiplies the Bernoulli generating polynomials (1-p) + p*z as a
balanced product tree of ``np.convolve`` calls. It shares no code with
``shiftbinom.exact_pmf`` (a left fold) and its rounding error stays near
1e-16, so an absolute tolerance of 1e-12 separates a correct law from a
wrong one without flagging a different, equally exact algorithm.
"""

from __future__ import annotations

import numpy as np

# Laws handed over in memory: both sides are exact to rounding (~1e-16).
EXACT_TOL = 1e-12
# Laws printed by the CLI with 12 significant digits.
CSV_TOL = 1e-11
# Distances recomputed here from the oracle law, against reported ones.
DISTANCE_TOL = 1e-9


class CheckError(Exception):
    """An output of the program is wrong."""


def oracle_pmf(probs) -> np.ndarray:
    """Masses of the Bernoulli sum on 0..m."""
    polys = [np.array([1.0 - p, p]) for p in np.asarray(probs, dtype=float)]
    if not polys:
        raise ValueError("empty ensemble")
    while len(polys) > 1:
        paired = [np.convolve(polys[i], polys[i + 1]) for i in range(0, len(polys) - 1, 2)]
        if len(polys) % 2:
            paired.append(polys[-1])
        polys = paired
    return polys[0]


def ramp(m: int, max_prob: float) -> np.ndarray:
    """The uniform-spread ensemble p_i = i*M/(m+1), in the CLI's arithmetic order."""
    return np.arange(1, m + 1, dtype=float) * max_prob / (m + 1)


def aligned(a_off: int, a, b_off: int, b) -> tuple[np.ndarray, np.ndarray]:
    """Pad two PMFs with zeros onto the union of their supports."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    lo = min(a_off, b_off)
    hi = max(a_off + len(a), b_off + len(b))
    pa, pb = np.zeros(hi - lo), np.zeros(hi - lo)
    pa[a_off - lo: a_off - lo + len(a)] = a
    pb[b_off - lo: b_off - lo + len(b)] = b
    return pa, pb


def tv(a_off: int, a, b_off: int, b) -> float:
    pa, pb = aligned(a_off, a, b_off, b)
    return 0.5 * float(np.sum(np.abs(pa - pb)))


def loc(a_off: int, a, b_off: int, b) -> float:
    pa, pb = aligned(a_off, a, b_off, b)
    return float(np.max(np.abs(pa - pb)))


def check_law(offset: int, masses, ref_offset: int, ref, tol: float) -> float:
    """Largest absolute mass difference; raises CheckError beyond ``tol``."""
    if np.any(np.asarray(masses) < 0.0):
        raise CheckError("law has a negative mass")
    dev = loc(offset, masses, ref_offset, ref)
    if not dev <= tol:
        raise CheckError(f"law is {dev:.3g} off its reference (tolerance {tol:g})")
    return dev


def check_fit(fit) -> None:
    """Floor-rounding invariants of the shifted-binomial fit."""
    if not (fit.n <= fit.n_star and fit.s <= fit.s_star):
        raise CheckError(f"fit rounds up: n={fit.n} n*={fit.n_star!r} s={fit.s} s*={fit.s_star!r}")
    if not (0.0 <= fit.frac_n < 1.0 and 0.0 <= fit.frac_s < 1.0):
        raise CheckError(f"fit fractions outside [0, 1): {fit.frac_n!r}, {fit.frac_s!r}")
    if not 0.0 < fit.p < 1.0:
        raise CheckError(f"fit p outside (0, 1): {fit.p!r}")


def check_sweep_row(tvs: dict[str, float], tv_bound: float, shifted_binomial_ref: float) -> None:
    """Every TV lies in [0, 1], and the shifted binomial's is below its bound
    and agrees with the one recomputed from the oracle law."""
    for name, value in tvs.items():
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"TV of {name} outside [0, 1]: {value!r}")
    value = tvs["shifted_binomial"]
    if not value <= tv_bound:
        raise CheckError(f"shifted-binomial TV {value!r} exceeds tv_bound {tv_bound!r}")
    if not abs(value - shifted_binomial_ref) <= DISTANCE_TOL:
        raise CheckError(f"shifted-binomial TV {value!r}, oracle gives {shifted_binomial_ref!r}")


def parse_pmf_csv(text: str) -> tuple[int, np.ndarray]:
    """Read ``k,mass`` CSV (``#`` lines skipped) into (offset, masses)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "k,mass":
        raise CheckError("PMF CSV lacks its 'k,mass' header")
    ks, masses = [], []
    for ln in lines[1:]:
        k, mass = ln.split(",")
        ks.append(int(k))
        masses.append(float(mass))
    if not ks or ks != list(range(ks[0], ks[0] + len(ks))):
        raise CheckError("PMF CSV support is empty or not contiguous")
    return ks[0], np.asarray(masses)
