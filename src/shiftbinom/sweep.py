"""The sweep: exact TV of every approximation across a max-probability grid.

This is the library side of the ``sweep`` subcommand. Each grid point M
gives one row on the ramp ensemble p_i = i*M/(m+1); the grid's exact laws
are built together, since every row shares one m.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Sequence

from .bounds import theorem_bounds
from .distributions import METHODS, approximation_pmf, exact_pmfs, fit_shifted_binomial
from .ensemble import ensemble_from_spec, moments
from .metrics import tv_distance

__all__ = ["SweepRow", "SWEEP_HEADER", "run_sweep", "sweep_csv"]


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point: exact TV per approximation plus theorem bounds.

    The fields are the sweep's CSV columns: the grid point M, one TV per
    entry of METHODS in its order ('-' written '_'), then the two bounds.
    """

    M: float
    poisson: float
    shifted_poisson: float
    binomial1: float
    binomial2: float
    normal: float
    shifted_binomial: float
    tv_bound: float
    loc_bound: float

    def distances(self) -> dict[str, float]:
        """The TV columns, by field name."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:-2]}


SWEEP_HEADER = ",".join(f.name for f in fields(SweepRow))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def run_sweep(m: int, grid: Sequence[float]) -> list[SweepRow]:
    """Exact TV of all six approximations across a max-probability grid.

    Rows are deterministic functions of (m, grid); each uses the
    uniform-spread ensemble p_i = i*M/(m+1). The exact laws of all rows come
    from one :func:`exact_pmfs` call.
    """
    if m < 2:
        raise ValueError(f"sweep needs m >= 2, got {m}")
    ensembles = [ensemble_from_spec("uniform-spread", m, M) for M in grid]
    rows = []
    for M, e, exact in zip(grid, ensembles, exact_pmfs(ensembles)):
        ms = moments(e)
        fit = fit_shifted_binomial(ms)
        tvs = [tv_distance(exact, approximation_pmf(name, e, ms, fit)[0]) for name in METHODS]
        report = theorem_bounds(e, ms, fit)
        rows.append(SweepRow(M, *tvs, report.tv_bound, report.loc_bound))
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    """The rows as CSV under SWEEP_HEADER, each value to 12 significant digits."""
    lines = [SWEEP_HEADER]
    lines.extend(",".join(_fmt(c) for c in astuple(r)) for r in rows)
    return "\n".join(lines) + "\n"
