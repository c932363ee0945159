"""Ensemble construction, validation, and moment summaries."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftbinom.ensemble as ens_mod
from shiftbinom import (
    BernoulliEnsemble,
    MomentSummary,
    ensemble_from_spec,
    make_ensemble,
    moments,
    read_probs_file,
)

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


def _fsum_moments(probs) -> MomentSummary:
    """Reference: one math.fsum per sum, over the same double terms."""
    p = np.asarray(probs, dtype=float)
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


def _bits(ms: MomentSummary) -> dict[str, str]:
    # float.hex, not ==, so that -0.0 and +0.0 differ
    return {k: v.hex() for k, v in dataclasses.asdict(ms).items()}


def _assert_moments_match_fsum(probs):
    assert _bits(moments(make_ensemble(probs))) == _bits(_fsum_moments(probs))


@pytest.fixture
def fsum_calls(monkeypatch):
    """Count the math.fsum calls moments() makes (the uncertified sums)."""
    calls = []
    real = math.fsum

    def counting(values):
        calls.append(1)
        return real(values)

    monkeypatch.setattr(ens_mod.math, "fsum", counting)
    return calls


def _family(name, m, rng):
    if name == "ramp":
        return np.arange(1, m + 1) * 0.5 / (m + 1)
    if name == "symmetric":
        # mu3 cancels to about 1e-17 * m against sum |t| of about m / 10
        return np.arange(1, m + 1) / (m + 1)
    if name == "uniform":
        return rng.random(m)
    if name == "p7":
        return rng.random(m) ** 7
    if name == "constant":
        return np.full(m, 0.3)
    if name == "tiny":
        return rng.random(m) * 10.0 ** rng.integers(-300, 0, m)
    if name == "p-or-one":
        return np.where(rng.random(m) < 0.3, 1.0, 0.37)
    if name == "beta":
        return rng.beta(0.5, 0.5, m)
    raise AssertionError(name)


_FAMILIES = ("ramp", "symmetric", "uniform", "p7", "constant", "tiny", "p-or-one", "beta")
_CROSSOVER = ens_mod._CERTIFIED_MIN_M


class TestCorrectlyRoundedMoments:
    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("m", [_CROSSOVER - 1, _CROSSOVER, _CROSSOVER + 1, 3000, 100_000])
    def test_bit_identical_to_fsum(self, family, m):
        _assert_moments_match_fsum(_family(family, m, np.random.default_rng(m)))

    @pytest.mark.parametrize(
        "last,lambda1",
        [(2.0**-46, 128.0), (2.0**-46 + 2.0**-98, 128.0 + 2.0**-45)],
        ids=["tie", "just-above-tie"],
    )
    def test_ties_take_the_fallback(self, last, lambda1, fsum_calls):
        # 128 + 2**-46 lies halfway between 128 and its successor: the tie
        # rounds half-even to 128. Adding 2**-98 rounds up in exact
        # arithmetic, but the long double sum loses it and sits on the tie.
        probs = [0.5] * 256 + [last]
        assert len(probs) >= _CROSSOVER
        ms = moments(make_ensemble(probs))
        assert ms.lambda1.hex() == lambda1.hex()
        assert fsum_calls, "a sum on a tie must not be certified"
        _assert_moments_match_fsum(probs)

    @pytest.mark.parametrize(
        "probs",
        [[0.0] * 300, [1.0] * 300, [-0.0] * 300, [0.3] * 999 + [0.3001]],
        ids=["zeros", "ones", "negative-zeros", "near-iid"],
    )
    def test_degenerate_and_near_iid(self, probs):
        # all ones: every mu3 term is -0.0, and math.fsum gives +0.0
        _assert_moments_match_fsum(probs)

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_every_certificate_failing_keeps_the_values(self, family, monkeypatch, fsum_calls):
        """With a double's unit roundoff, as where long double is plain
        double, no certificate passes and every sum takes math.fsum."""
        monkeypatch.setattr(ens_mod, "_LD_UNIT", 2.0**-53)
        probs = _family(family, 5000, np.random.default_rng(5))
        ms = moments(make_ensemble(probs))
        assert len(fsum_calls) == 7
        assert _bits(ms) == _bits(_fsum_moments(probs))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant <= 52, reason="long double is plain double here"
    )
    def test_ramp_sums_are_certified(self, fsum_calls):
        moments(ensemble_from_spec("uniform-spread", 5000, 0.5))
        assert len(fsum_calls) <= 1

    def test_below_the_crossover_every_sum_is_fsum(self, fsum_calls):
        moments(ensemble_from_spec("uniform-spread", _CROSSOVER - 1, 0.5))
        assert len(fsum_calls) == 7

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=_CROSSOVER - 16,
            max_size=_CROSSOVER + 16,
        )
    )
    def test_matches_fsum_across_the_crossover(self, probs):
        _assert_moments_match_fsum(probs)


class TestEnsembleArray:
    def test_as_array_is_one_read_only_object(self):
        e = make_ensemble([0.2, 0.4])
        arr = e.as_array()
        assert arr is e.as_array()
        assert arr.dtype == np.float64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.9

    def test_make_ensemble_copies_the_caller_array(self):
        src = np.array([0.2, 0.4])
        e = make_ensemble(src)
        src[0] = 0.9
        assert e.probs == (0.2, 0.4)
        np.testing.assert_array_equal(e.as_array(), [0.2, 0.4])
        assert src.flags.writeable

    def test_direct_construction_equality_hash_repr(self):
        built = make_ensemble([0.2, 0.4])
        direct = BernoulliEnsemble((0.2, 0.4))
        assert built == direct and hash(built) == hash(direct)
        assert repr(built) == "BernoulliEnsemble(probs=(0.2, 0.4))"
        assert direct.as_array() is direct.as_array()
        assert not direct.as_array().flags.writeable
        np.testing.assert_array_equal(direct.as_array(), [0.2, 0.4])
        replaced = dataclasses.replace(built, probs=(0.7,))
        np.testing.assert_array_equal(replaced.as_array(), [0.7])
