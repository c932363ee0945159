"""Ensemble construction, validation, and moment summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbinom import ensemble_from_spec, make_ensemble, moments, read_probs_file

probs_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
)


def test_make_ensemble_basic():
    e = make_ensemble([0.2, 0.4])
    assert e.m == 2
    assert e.probs == (0.2, 0.4)
    np.testing.assert_array_equal(e.as_array(), [0.2, 0.4])


def test_make_ensemble_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        make_ensemble([])


def test_make_ensemble_rejects_out_of_range_with_index():
    with pytest.raises(ValueError, match="index 1"):
        make_ensemble([0.5, 1.5])
    with pytest.raises(ValueError, match="index 0"):
        make_ensemble([-0.1])


def test_make_ensemble_rejects_non_finite():
    with pytest.raises(ValueError, match="not finite"):
        make_ensemble([0.5, float("nan")])
    with pytest.raises(ValueError, match="not finite"):
        make_ensemble([float("inf")])


def test_make_ensemble_reports_first_offending_index():
    with pytest.raises(ValueError, match=r"index 1 is outside \[0, 1\]: 1.5"):
        make_ensemble([0.5, 1.5, float("nan")])
    with pytest.raises(ValueError, match="index 1 is not finite: nan"):
        make_ensemble(np.array([0.5, float("nan"), -2.0]))


def test_make_ensemble_accepts_iterables_and_rejects_nesting():
    e = make_ensemble(p / 4 for p in range(5))
    assert e.probs == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert all(type(p) is float for p in make_ensemble(np.array([0.5, 1.0])).probs)
    with pytest.raises(ValueError, match="1-d"):
        make_ensemble([[0.1, 0.2]])


def test_moments_mixed_ensemble():
    """Power sums of [0.2, 0.4, 0.6, 0.8], checked against direct sums."""
    ms = moments(make_ensemble([0.2, 0.4, 0.6, 0.8]))
    assert ms.lambda1 == pytest.approx(2.0, abs=1e-14)
    assert ms.lambda2 == pytest.approx(1.2, abs=1e-14)
    assert ms.lambda3 == pytest.approx(0.8, abs=1e-14)
    assert ms.lambda4 == pytest.approx(0.5664, abs=1e-14)
    assert ms.sigma2 == pytest.approx(0.8, abs=1e-14)
    # ramp is symmetric around 1/2, so the third central moment vanishes
    assert ms.mu3 == pytest.approx(0.0, abs=1e-14)
    # sum of min(p, 1-p) = 0.2 + 0.4 + 0.4 + 0.2
    assert ms.v == pytest.approx(1.2, abs=1e-14)
    assert ms.v_star == pytest.approx(0.4, abs=1e-14)


def test_moments_iid():
    ms = moments(make_ensemble([0.5] * 4))
    assert ms.lambda1 == 2.0
    assert ms.sigma2 == 1.0
    assert ms.v == 2.0
    assert ms.v_star == 0.5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(probs_lists)
def test_moment_summary_invariants(probs):
    e = make_ensemble(probs)
    ms = moments(e)
    assert ms.lambda1 >= ms.lambda2 >= ms.lambda3 >= ms.lambda4 >= 0.0
    assert ms.sigma2 >= -1e-15
    assert -1e-15 <= ms.v <= e.m / 2 + 1e-12
    assert ms.v_star <= 0.5 + 1e-15
    # mu3 must agree with its per-variable form sum p(1-p)(1-2p)
    p = e.as_array()
    direct = float(np.sum(p * (1 - p) * (1 - 2 * p)))
    assert ms.mu3 == pytest.approx(direct, abs=1e-12)


def test_uniform_spread_generator():
    e = ensemble_from_spec("uniform-spread", 4, 0.5)
    np.testing.assert_allclose(e.as_array(), [0.1, 0.2, 0.3, 0.4], atol=1e-15)
    big = ensemble_from_spec("uniform-spread", 100, 1.0)
    assert big.m == 100
    assert big.probs[-1] == pytest.approx(100 / 101)
    assert max(big.probs) < 1.0


def test_generator_validation():
    with pytest.raises(ValueError, match="unknown ensemble generator"):
        ensemble_from_spec("geometric", 5, 0.5)
    with pytest.raises(ValueError, match="m must be"):
        ensemble_from_spec("uniform-spread", 0, 0.5)
    with pytest.raises(ValueError, match="max_prob"):
        ensemble_from_spec("uniform-spread", 5, 0.0)
    with pytest.raises(ValueError, match="max_prob"):
        ensemble_from_spec("uniform-spread", 5, 1.2)


def test_read_probs_file(tmp_path):
    f = tmp_path / "probs.txt"
    f.write_text("# header comment\n0.5\n\n0.25  # trailing comment\n0.75\n")
    e = read_probs_file(f)
    assert e.probs == (0.5, 0.25, 0.75)


def test_read_probs_file_parse_error_names_line(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0.5\nnot-a-number\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        read_probs_file(f)


def test_read_probs_file_empty(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no probabilities"):
        read_probs_file(f)


def test_read_probs_file_out_of_range_names_path(tmp_path):
    f = tmp_path / "range.txt"
    f.write_text("0.5\n2.0\n")
    with pytest.raises(ValueError, match=r"range\.txt.*index 1"):
        read_probs_file(f)


def test_read_probs_file_missing():
    with pytest.raises(OSError):
        read_probs_file("/nonexistent/path/probs.txt")
