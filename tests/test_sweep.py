"""The library sweep against a reference assembled row by row."""

import numpy as np
import pytest

import shiftbinom as sb

GRID = [float(M) for M in np.linspace(0.05, 1.0, 20)]


def _reference_csv(m: int, grid) -> str:
    lines = [sb.SWEEP_HEADER]
    for M in grid:
        e = sb.ensemble_from_spec("uniform-spread", m, M)
        ms = sb.moments(e)
        fit = sb.fit_shifted_binomial(ms)
        exact = sb.exact_pmf(e)
        tvs = [sb.tv_distance(exact, sb.approximation_pmf(name, e, ms, fit)[0])
               for name in sb.METHODS]
        report = sb.theorem_bounds(e, ms, fit)
        lines.append(",".join(f"{x:.12g}" for x in [M, *tvs, report.tv_bound, report.loc_bound]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [3, 20, 57, 100, 200, 255, 256, 300])
def test_csv_matches_row_by_row_reference(m):
    assert sb.sweep_csv(sb.run_sweep(m, GRID)) == _reference_csv(m, GRID)


def test_empty_grid():
    assert sb.run_sweep(50, []) == []
    assert sb.sweep_csv([]) == sb.SWEEP_HEADER + "\n"
