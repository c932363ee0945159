"""Exact law, approximation fits, and their frozen oracle values.

Hand-computable masses (polynomial expansions of prod (q_i + p_i x)) are
asserted directly; everything m <= 20 is cross-checked against the
enumeration oracle.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import shiftbinom as sb
import shiftbinom.distributions as dist_mod
from shiftbinom import (
    DegenerateEnsembleError,
    FitRangeError,
    IntegerDistribution,
    make_ensemble,
    moments,
)


class TestIntegerDistribution:
    def test_trims_zero_tails(self):
        d = IntegerDistribution.from_masses(3, np.array([0.0, 0.5, 0.5, 0.0]))
        assert d.offset == 4
        assert d.support_min == 4 and d.support_max == 5
        np.testing.assert_array_equal(d.pmf, [0.5, 0.5])

    def test_prob_and_tail(self):
        d = IntegerDistribution.from_masses(2, np.array([0.25, 0.5, 0.25]))
        assert d.prob(3) == 0.5
        assert d.prob(99) == 0.0
        assert d.tail_above(2) == pytest.approx(0.75)
        assert d.tail_above(10) == 0.0
        assert d.tail_above(-5) == pytest.approx(1.0)

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError, match="negative"):
            IntegerDistribution.from_masses(0, np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="no mass"):
            IntegerDistribution.from_masses(0, np.array([0.0, 0.0]))

    def test_moment_methods(self):
        d = IntegerDistribution.from_masses(1, np.array([0.25, 0.5, 0.25]))
        assert d.mean() == pytest.approx(2.0)
        assert d.variance() == pytest.approx(0.5)
        assert d.third_central_moment() == pytest.approx(0.0, abs=1e-15)


class TestExactPmf:
    def test_two_fair_coins(self):
        d = sb.exact_pmf(make_ensemble([0.5, 0.5]))
        assert d.offset == 0
        np.testing.assert_allclose(d.pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_deterministic_summands_collapse(self):
        d = sb.exact_pmf(make_ensemble([1.0, 1.0, 0.0]))
        assert d.support_min == d.support_max == 2
        np.testing.assert_array_equal(d.pmf, [1.0])

    def test_mixed_ensemble_oracle_digits(self):
        # expansion of (.8+.2x)(.6+.4x)(.4+.6x)(.2+.8x), cross-checked by
        # the enumeration oracle below
        expected = [0.0384, 0.2464, 0.4304, 0.2464, 0.0384]
        e = make_ensemble([0.2, 0.4, 0.6, 0.8])
        np.testing.assert_allclose(sb.exact_pmf(e).pmf, expected, atol=1e-15)
        np.testing.assert_allclose(sb.brute_force_pmf(e).pmf, expected, atol=1e-15)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            e = make_ensemble(rng.uniform(0, 1, int(rng.integers(1, 200))))
            assert sb.exact_pmf(e).total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_moments_match_summary(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            e = make_ensemble(rng.uniform(0, 1, int(rng.integers(2, 150))))
            ms = moments(e)
            d = sb.exact_pmf(e)
            assert d.mean() == pytest.approx(ms.lambda1, abs=1e-10)
            assert d.variance() == pytest.approx(ms.sigma2, abs=1e-10)
            assert d.third_central_moment() == pytest.approx(ms.mu3, abs=1e-10)


def _reference_fold(probs) -> np.ndarray:
    """Masses on 0..m, folding one Bernoulli at a time into the running PMF."""
    dist = np.array([1.0])
    for p in probs:
        grown = np.empty(len(dist) + 1)
        grown[0] = dist[0] * (1.0 - p)
        grown[1:-1] = dist[1:] * (1.0 - p) + dist[:-1] * p
        grown[-1] = dist[-1] * p
        dist = grown
    return dist


def _fold_family(kind: str, m: int) -> np.ndarray:
    rng = np.random.default_rng([m, len(kind)])
    if kind == "ramp":
        return np.arange(1, m + 1) / (m + 1)
    if kind == "beta":
        return rng.beta(0.5, 0.5, m)
    if kind == "constant":
        return np.full(m, 1.95e-5)
    if kind == "seventh-power":
        return rng.random(m) ** 7
    if kind == "mixed":
        probs = rng.beta(2.0, 2.0, m)
        kind_of = rng.random(m)
        probs[kind_of < 0.4] = 0.0
        probs[kind_of > 0.6] = 1.0
        return probs
    return 10.0 ** rng.uniform(-300.0, 0.0, m)


FOLD_FAMILIES = ("ramp", "beta", "constant", "seventh-power", "mixed", "log-uniform")


class TestFold:
    """The 2-D fold against the one-row-at-a-time reference, bit for bit."""

    def test_every_row_matches_the_reference(self):
        for m in range(1, dist_mod._TREE_MIN_M):
            probs = np.stack([_fold_family(kind, m) for kind in FOLD_FAMILIES])
            folded = dist_mod._fold_pmf(probs)
            assert folded.shape == (len(FOLD_FAMILIES), m + 1)
            for kind, row, got in zip(FOLD_FAMILIES, probs, folded):
                want = _reference_fold(row.tolist())
                assert got.tobytes() == want.tobytes(), (kind, m)
            single = dist_mod._fold_pmf(probs[:1])[0]
            assert single.tobytes() == _reference_fold(probs[0].tolist()).tobytes()

    def test_exact_pmf_below_the_tree_is_the_fold(self):
        for m in (1, 2, 57, dist_mod._TREE_MIN_M - 1):
            probs = _fold_family("beta", m)
            want = IntegerDistribution.from_masses(0, _reference_fold(probs.tolist()))
            got = sb.exact_pmf(make_ensemble(probs))
            assert got.offset == want.offset and got.pmf.tobytes() == want.pmf.tobytes()


def _same_law(a: IntegerDistribution, b: IntegerDistribution) -> bool:
    return a.offset == b.offset and a.pmf.tobytes() == b.pmf.tobytes()


class TestExactPmfs:
    """exact_pmfs gives exact_pmf's law for each ensemble, whichever path it takes."""

    @pytest.mark.parametrize(
        "sizes",
        [[40] * 20, [1] * 3, [255] * 4, [30, 31, 30], [5, 300, 5], [256] * 3, [1000, 1000], [300]],
    )
    def test_law_by_law(self, sizes):
        ensembles = [make_ensemble(_fold_family(FOLD_FAMILIES[i % 6], m))
                     for i, m in enumerate(sizes)]
        got = sb.exact_pmfs(ensembles)
        assert len(got) == len(ensembles)
        for e, law in zip(ensembles, got):
            assert _same_law(law, sb.exact_pmf(e))

    def test_empty(self):
        assert sb.exact_pmfs([]) == []


def _tree_case(kind: str, m: int) -> list[float]:
    rng = np.random.default_rng(m)
    if kind == "ramp":
        return list(np.arange(1, m + 1) / (m + 1))
    if kind == "beta":
        return list(rng.beta(0.7, 2.5, m))
    if kind == "constant":
        # nearly a point mass at 0, where rounding adds up the most
        return [1.95e-5] * m
    # {0,1}-mixed: 40% exact zeros and 40% exact ones around Beta draws
    probs = rng.beta(2.0, 2.0, m)
    kind_of = rng.random(m)
    probs[kind_of < 0.4] = 0.0
    probs[kind_of > 0.6] = 1.0
    return list(probs)


class TestExactPmfProductTree:
    """The product tree above the crossover against the retained fold."""

    @pytest.mark.parametrize("kind", ["ramp", "beta", "constant", "mixed"])
    @pytest.mark.parametrize(
        "m",
        [dist_mod._TREE_MIN_M - 1, dist_mod._TREE_MIN_M, dist_mod._TREE_MIN_M + 1, 1000, 5000],
    )
    def test_within_contract_of_fold(self, kind, m):
        probs = _tree_case(kind, m)
        zeros, ones = probs.count(0.0), probs.count(1.0)
        got = sb.exact_pmf(make_ensemble(probs))
        fold = _reference_fold(probs)
        eps = dist_mod._tree_tolerance(m)

        padded = np.zeros(m + 1)
        padded[got.offset : got.support_max + 1] = got.pmf
        assert np.max(np.abs(padded - fold)) <= eps
        assert np.all(got.pmf >= 0.0)
        assert got.offset >= ones
        assert got.support_max <= m - zeros
        if m >= dist_mod._TREE_MIN_M:
            # unresolved masses are exact zeros, never noise
            assert np.all((got.pmf == 0.0) | (got.pmf > eps / 2))
        if fold[ones] > eps:
            assert got.offset == ones
        if fold[m - zeros] > eps:
            assert got.support_max == m - zeros

    def test_deterministic_summands_shift_exactly(self):
        m = dist_mod._TREE_MIN_M + 40
        probs = [1.0] * 150 + [0.3, 0.6, 0.9] + [0.0] * (m - 153)
        got = sb.exact_pmf(make_ensemble(probs))
        assert got.offset == 150 and got.support_max == 153
        np.testing.assert_allclose(got.pmf, sb.exact_pmf(make_ensemble([0.3, 0.6, 0.9])).pmf,
                                   rtol=0, atol=1e-16)
        point = sb.exact_pmf(make_ensemble([1.0] * 7 + [0.0] * (m - 7)))
        assert point.offset == 7 and list(point.pmf) == [1.0]

    def test_negative_residue_beyond_contract_raises(self, monkeypatch):
        m = dist_mod._TREE_MIN_M
        noisy = _reference_fold([0.5] * m)
        noisy[0] = -dist_mod._tree_tolerance(m)
        monkeypatch.setattr(dist_mod, "_product_tree_pmf", lambda p: noisy.copy())
        with pytest.raises(ValueError, match="product tree"):
            sb.exact_pmf(make_ensemble([0.5] * m))


class TestBruteForce:
    def test_single_bernoulli(self):
        d = sb.brute_force_pmf(make_ensemble([0.5]))
        np.testing.assert_allclose(d.pmf, [0.5, 0.5], atol=1e-16)

    def test_pair(self):
        d = sb.brute_force_pmf(make_ensemble([0.3, 0.3]))
        np.testing.assert_allclose(d.pmf, [0.49, 0.42, 0.09], atol=1e-15)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            sb.brute_force_pmf(make_ensemble([0.5] * 21))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_agrees_with_convolution(self, probs):
        e = make_ensemble(probs)
        a = sb.exact_pmf(e)
        b = sb.brute_force_pmf(e)
        assert a.offset == b.offset
        assert len(a.pmf) == len(b.pmf)
        np.testing.assert_allclose(a.pmf, b.pmf, atol=1e-12)


class TestShiftedBinomialFit:
    def test_mixed_ensemble_solution(self):
        fit = sb.fit_shifted_binomial(moments(make_ensemble([0.2, 0.4, 0.6, 0.8])))
        assert fit.p_star == pytest.approx(0.5, abs=1e-12)
        assert fit.n_star == pytest.approx(3.2, abs=1e-12)
        assert fit.s_star == pytest.approx(0.4, abs=1e-12)
        assert (fit.n, fit.s) == (3, 0)
        assert fit.p == pytest.approx(2 / 3, abs=1e-12)
        assert fit.frac_n == pytest.approx(0.2, abs=1e-12)
        assert fit.frac_s == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize(
        "m,p", [(4, 0.5), (10, 0.3), (57, 1 / 3), (200, 0.875), (20000, 0.93)]
    )
    def test_iid_recovered_exactly(self, m, p):
        """The rounded fit must not drift off integers on i.i.d. input."""
        fit = sb.fit_shifted_binomial(moments(make_ensemble([p] * m)))
        assert (fit.n, fit.s) == (m, 0)
        assert fit.frac_n == 0.0 and fit.frac_s == 0.0
        assert fit.p == pytest.approx(p, abs=1e-12)

    def test_near_integer_solution_still_floors(self):
        # n* lies 2.6e-6 below 7157 by coincidence, not by rounding
        e = sb.ensemble_from_spec("uniform-spread", 9463, 0.1)
        fit = sb.fit_shifted_binomial(moments(e))
        assert fit.n_star == pytest.approx(7157.0, abs=1e-5)
        assert fit.n == 7156 and fit.n <= fit.n_star
        assert fit.s <= fit.s_star and 0.0 <= fit.frac_n < 1.0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=600),
            st.builds(
                lambda p, m: [p] * m,
                st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
                st.integers(min_value=2, max_value=2000),
            ),
            st.builds(
                lambda p, m, ones: [p] * m + [1.0] * ones,
                st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
                st.integers(min_value=2, max_value=2000),
                st.integers(min_value=1, max_value=50),
            ),
        )
    )
    def test_floor_rounding_invariants(self, probs):
        """0 <= frac_n, frac_s < 1, n <= n* and s <= s* on every accepted fit.

        Floor rounding holds up to the snap: an n* or s* within the rounding
        it carries of an integer is that integer, with frac 0 (iid [0.3]*12
        gives n* = 11.999999999999998 and n = 12).
        """
        try:
            fit = sb.fit_shifted_binomial(moments(make_ensemble(probs)))
        except (DegenerateEnsembleError, FitRangeError):
            return
        assert 0.0 <= fit.frac_n < 1.0 and 0.0 <= fit.frac_s < 1.0
        for value, star, frac in ((fit.n, fit.n_star, fit.frac_n), (fit.s, fit.s_star, fit.frac_s)):
            assert value <= star or (frac == 0.0 and value == round(star)), (value, star)

    def test_mean_always_matched(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            e = make_ensemble(rng.uniform(0.01, 0.99, int(rng.integers(5, 120))))
            ms = moments(e)
            fit = sb.fit_shifted_binomial(ms)
            assert fit.n * fit.p + fit.s == pytest.approx(ms.lambda1, abs=1e-10)

    def test_degenerate_ensembles(self):
        with pytest.raises(DegenerateEnsembleError):
            sb.fit_shifted_binomial(moments(make_ensemble([1.0, 0.0])))
        with pytest.raises(DegenerateEnsembleError):
            sb.fit_shifted_binomial(moments(make_ensemble([1.0, 1.0])))

    def test_trials_round_below_one(self):
        # two opposed extreme probabilities: n* = 0.72
        with pytest.raises(FitRangeError, match="rounds below 1"):
            sb.fit_shifted_binomial(moments(make_ensemble([0.9, 0.1])))

    def test_perturbed_p_above_one(self):
        # n floors to 1 and the mean correction pushes p to lambda1 = 1.48
        with pytest.raises(FitRangeError, match="not in"):
            sb.fit_shifted_binomial(moments(make_ensemble([0.98, 0.5])))


class TestShiftedBinomialPmf:
    def test_cube_expansion(self):
        fit = sb.fit_shifted_binomial(moments(make_ensemble([0.2, 0.4, 0.6, 0.8])))
        d = sb.shifted_binomial_pmf(fit)
        assert d.offset == 0
        np.testing.assert_allclose(d.pmf, np.array([1, 6, 12, 8]) / 27, atol=1e-14)

    def test_shift_moves_support_only(self):
        base = sb.fit_shifted_binomial(moments(make_ensemble([0.5, 0.5])))
        shifted = sb.ShiftedBinomialFit(
            n_star=2.0, p_star=0.5, s_star=5.0, n=2, s=5, p=0.5, frac_n=0.0, frac_s=0.0
        )
        d0 = sb.shifted_binomial_pmf(base)
        d5 = sb.shifted_binomial_pmf(shifted)
        assert d5.support_min == d0.support_min + 5
        np.testing.assert_allclose(d5.pmf, d0.pmf, atol=1e-15)

    def test_mean_equals_target(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            e = make_ensemble(rng.uniform(0.05, 0.95, int(rng.integers(5, 100))))
            ms = moments(e)
            d = sb.shifted_binomial_pmf(sb.fit_shifted_binomial(ms))
            assert d.mean() == pytest.approx(ms.lambda1, abs=1e-10)


class TestPoissonPmf:
    def test_zero_rate_point_mass(self):
        d = sb.poisson_pmf(0.0)
        assert d.support_min == d.support_max == 0
        assert d.pmf[0] == 1.0

    def test_half_rate_masses(self):
        d = sb.poisson_pmf(0.5)
        expected = [math.exp(-0.5) * 0.5**k / math.factorial(k) for k in range(8)]
        np.testing.assert_allclose(d.pmf[:8], expected, rtol=1e-13)

    def test_truncation_mass(self):
        # slack covers mass evaluation roundoff at large rate, not truncation;
        # the truncated tail itself is held below 1e-14
        for lam in (0.1, 3.0, 47.0, 500.0):
            total = sb.poisson_pmf(lam).total_mass()
            assert 1 - 1e-12 <= total <= 1 + 1e-12

    def test_tv_against_single_bernoulli(self):
        # hand evaluation: exact = [1/2, 1/2], Poisson terms via exp(-1/2)
        p0 = math.exp(-0.5)
        p1 = 0.5 * math.exp(-0.5)
        expected = 0.5 * ((p0 - 0.5) + (0.5 - p1) + (1.0 - p0 - p1))
        got = sb.tv_distance(sb.exact_pmf(make_ensemble([0.5])), sb.poisson_pmf(0.5))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="rate"):
            sb.poisson_pmf(-1.0)


class TestShiftedPoissonPmf:
    def test_integer_split_iid(self):
        # lambda1 = 2, sigma2 = 1: shift 1, rate 1
        ms = moments(make_ensemble([0.5] * 4))
        d = sb.shifted_poisson_pmf(ms)
        assert d.support_min == 1
        np.testing.assert_allclose(d.pmf[0], math.exp(-1.0), rtol=1e-12)
        assert d.mean() == pytest.approx(2.0, abs=1e-10)

    def test_fractional_split(self):
        # lambda1 = 2, sigma2 = 0.8: shift floor(1.2) = 1, rate 0.8 + 0.2
        ms = moments(make_ensemble([0.2, 0.4, 0.6, 0.8]))
        d = sb.shifted_poisson_pmf(ms)
        assert d.support_min == 1
        np.testing.assert_allclose(d.pmf[0], math.exp(-1.0), rtol=1e-10)
        assert d.mean() == pytest.approx(2.0, abs=1e-10)

    def test_degenerate(self):
        with pytest.raises(DegenerateEnsembleError):
            sb.shifted_poisson_pmf(moments(make_ensemble([1.0, 0.0])))


class TestOneParamBinomial:
    def test_mixed_ensemble(self):
        d = sb.one_param_binomial_pmf(make_ensemble([0.2, 0.4, 0.6, 0.8]))
        np.testing.assert_allclose(d.pmf, np.array([1, 4, 6, 4, 1]) / 16, atol=1e-14)

    def test_iid_is_exact(self):
        e = make_ensemble([0.37] * 9)
        tv = sb.tv_distance(sb.exact_pmf(e), sb.one_param_binomial_pmf(e))
        assert tv <= 1e-14

    def test_extreme_pair(self):
        e = make_ensemble([0.1, 0.9])
        d = sb.one_param_binomial_pmf(e)
        np.testing.assert_allclose(d.pmf, [0.25, 0.5, 0.25], atol=1e-15)
        # exact law is [0.09, 0.82, 0.09]
        assert sb.tv_distance(sb.exact_pmf(e), d) == pytest.approx(0.32, abs=1e-13)

    @pytest.mark.parametrize("m", [7, 10])
    def test_mean_is_the_correctly_rounded_sum(self, m):
        # builtin sum([0.1] * 10) / 10 and np.sum([0.1] * 7) / 7 both give
        # 0.09999999999999999; binomial1, ehm_bound and the approx header all
        # use lambda1 = fsum, which gives the iid mean 0.1 back exactly.
        e = make_ensemble([0.1] * m)
        ms = moments(e)
        assert ms.lambda1 / m == 0.1
        for law in (sb.one_param_binomial_pmf(e), sb.one_param_binomial_pmf(e, ms)):
            np.testing.assert_array_equal(law.pmf, dist_mod._binomial_pmf(m, 0.1).pmf)
        assert sb.ehm_bound(e) == 0.0 and sb.ehm_bound(e, ms) == 0.0

    def test_mean_is_read_from_the_given_moments(self):
        e = make_ensemble([0.2, 0.4, 0.6, 0.8])
        ms = dataclasses.replace(moments(e), lambda1=1.0)
        assert sb.one_param_binomial_pmf(e, ms).mean() == pytest.approx(1.0, abs=1e-14)
        assert sb.ehm_bound(e, ms) != sb.ehm_bound(e)


class TestTwoParamBinomial:
    def test_iid_recovers_parameters(self):
        ms = moments(make_ensemble([0.3] * 12))
        d = sb.two_param_binomial_pmf(ms)
        assert d.support_max == 12
        np.testing.assert_allclose(
            d.pmf, sb.one_param_binomial_pmf(make_ensemble([0.3] * 12)).pmf, atol=1e-13
        )

    def test_mixed_ensemble(self):
        # lambda1^2/lambda2 = 4/1.2, so n = 3 and p = 2/3
        ms = moments(make_ensemble([0.2, 0.4, 0.6, 0.8]))
        d = sb.two_param_binomial_pmf(ms)
        assert d.support_max == 3
        np.testing.assert_allclose(d.pmf, np.array([1, 6, 12, 8]) / 27, atol=1e-14)

    def test_support_shorter_than_m(self):
        e = sb.ensemble_from_spec("uniform-spread", 100, 0.05)
        d = sb.two_param_binomial_pmf(moments(e))
        assert d.support_max == 75  # floor(2.5^2 / 0.08293...)

    def test_probability_one_allowed(self):
        d = sb.two_param_binomial_pmf(moments(make_ensemble([1.0, 1.0])))
        assert d.support_min == d.support_max == 2

    def test_probability_above_one_rejected(self):
        with pytest.raises(FitRangeError, match="exceeds 1"):
            sb.two_param_binomial_pmf(moments(make_ensemble([1.0, 0.98])))

    def test_degenerate(self):
        with pytest.raises(DegenerateEnsembleError):
            sb.two_param_binomial_pmf(moments(make_ensemble([0.0, 0.0])))


class TestFloorFrac:
    def test_near_integer_floors(self):
        n, frac = dist_mod._floor_frac(123456.99999)
        assert n == 123456 and frac == pytest.approx(0.99999, abs=1e-9)

    @pytest.mark.parametrize(
        "m, p, shift", [(12, 0.3, 1), (100, 0.1, 1), (4, 0.5, 1), (20000, 0.93, 17298)]
    )
    def test_iid_two_moment_parameters_snap(self, m, p, shift):
        # l1^2/l2 = m exactly, and l1 - sigma^2 = m*p^2, both up to rounding
        ms = moments(make_ensemble([p] * m))
        n, frac, p_fit = dist_mod._two_param_params(ms)
        assert (n, frac) == (m, 0.0) and p_fit == pytest.approx(p, rel=1e-14)
        assert dist_mod._shifted_poisson_params(ms)[0] == shift


class TestDiscretizedNormal:
    def test_standard_cell_masses(self):
        d = sb.discretized_normal_pmf(0.0, 1.0, (-5, 5))
        center = math.erf(0.5 / math.sqrt(2))
        assert d.prob(0) == pytest.approx(center, abs=1e-13)

    def test_symmetry(self):
        d = sb.discretized_normal_pmf(0.0, 1.0, (-6, 6))
        for k in range(1, 7):
            assert d.prob(k) == pytest.approx(d.prob(-k), abs=1e-15)

    def test_total_mass_exact(self):
        for mean, var, lo, hi in [(0.0, 1.0, -5, 5), (3.2, 0.4, 0, 7), (50.0, 17.0, 0, 100)]:
            d = sb.discretized_normal_pmf(mean, var, (lo, hi))
            assert d.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_unimodal(self):
        d = sb.discretized_normal_pmf(7.3, 4.0, (0, 30))
        diffs = np.sign(np.diff(d.pmf))
        # signs may only switch from +1 to -1 once
        switch = np.flatnonzero(np.diff(diffs) != 0)
        assert len(switch) <= 1

    def test_validation(self):
        with pytest.raises(DegenerateEnsembleError):
            sb.discretized_normal_pmf(0.0, 0.0, (-5, 5))
        with pytest.raises(ValueError, match="empty support"):
            sb.discretized_normal_pmf(0.0, 1.0, (5, -5))


def _mp_law(first: int, last: int, mode: int, mass_at_mode, ratio):
    """40-digit masses on first..last by the recurrence P(k+1) = P(k)*ratio(k)."""
    with mpmath.workdps(40):
        law = {mode: mass_at_mode()}
        for k in range(mode, last):
            law[k + 1] = law[k] * ratio(k)
        for k in range(mode - 1, first - 1, -1):
            law[k] = law[k + 1] / ratio(k)
    return law


def _mp_poisson(lam: float) -> dict:
    """40-digit Poisson masses on 0..last, far enough right that the mass
    beyond is negligible at 40 digits."""
    lam_mp = mpmath.mpf(lam)
    mode = math.floor(lam)
    last = math.ceil(lam + 40 * math.sqrt(lam) + 60)
    return _mp_law(0, last, mode,
                   lambda: mpmath.exp(-lam_mp) * lam_mp**mode / mpmath.factorial(mode),
                   lambda k: lam_mp / (k + 1))


def _mp_binomial(n: int, p: float) -> dict:
    p_mp = mpmath.mpf(p)
    mode = math.floor((n + 1) * p)
    return _mp_law(0, n, mode,
                   lambda: mpmath.binomial(n, mode) * p_mp**mode * (1 - p_mp) ** (n - mode),
                   lambda k: (n - k) * p_mp / ((k + 1) * (1 - p_mp)))


def _mp_tv(d: IntegerDistribution, law: dict):
    """TV between d and a 40-digit law whose support covers d's."""
    with mpmath.workdps(40):
        inside = [(mpmath.mpf(float(x)), law[k]) for k, x in zip(d.support().tolist(), d.pmf)]
        outside = 1 - mpmath.fsum(true for _, true in inside)
        return float((mpmath.fsum(abs(x - true) for x, true in inside) + outside) / 2)


class TestApproximationKernels:
    """The numpy/math binomial, Poisson and normal kernels against references."""

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 255, 1000, 2250, 9999, 15000])
    def test_binomial_matches_scipy(self, n):
        for p in [0.0, 1e-6, 1e-3, 0.05, 0.3, 1 / 3, 0.5, 0.7, 0.9, 0.999, 1.0]:
            ref = IntegerDistribution.from_masses(0, stats.binom.pmf(np.arange(n + 1), n, p))
            assert sb.tv_distance(dist_mod._binomial_pmf(n, p), ref) <= 1e-14, p

    @pytest.mark.parametrize("n, p", [(3000, 0.3), (400, 1e-3), (1000, 0.999)])
    def test_binomial_within_contract_of_high_precision(self, n, p):
        sigma = math.sqrt(n * p * (1 - p))
        tv = _mp_tv(dist_mod._binomial_pmf(n, p), _mp_binomial(n, p))
        assert tv <= 2.5 * 2.0**-53 * (sigma + 2)

    def test_binomial_offset_and_point_masses(self):
        d = dist_mod._binomial_pmf(4, 0.5, offset=-3)
        assert d.support_min == -3 and d.support_max == 1
        np.testing.assert_allclose(d.pmf, np.array([1, 4, 6, 4, 1]) / 16, rtol=1e-15)
        assert list(dist_mod._binomial_pmf(9, 0.0, 5).support()) == [5]
        assert list(dist_mod._binomial_pmf(9, 1.0, 5).support()) == [14]

    @pytest.mark.parametrize("lam", [0.05, 3.0, 500.0, 7500.0])
    def test_poisson_matches_high_precision(self, lam):
        # every mass returned, plus the true mass left of the support; the
        # right tail dropped by truncation is bounded in the next test
        d = sb.poisson_pmf(lam)
        law = _mp_poisson(lam)
        with mpmath.workdps(40):
            inside = mpmath.fsum(
                abs(mpmath.mpf(float(x)) - law[k]) for k, x in zip(d.support().tolist(), d.pmf)
            )
            left = mpmath.fsum(x for k, x in law.items() if k < d.support_min)
            assert float(inside / 2 + left) <= 1e-15

    @pytest.mark.parametrize("lam", [0.05, 3.0, 500.0, 7500.0])
    def test_poisson_truncation_is_not_renormalised(self, lam):
        floor = 1e-14  # poisson_pmf's fixed tail floor
        d = sb.poisson_pmf(lam)
        law = _mp_poisson(lam)
        with mpmath.workdps(40):
            dropped = mpmath.fsum(x for k, x in law.items() if k > d.support_max)
            assert dropped <= floor
            assert dropped + law[d.support_max] > floor  # the first k that qualifies
            below = mpmath.fsum(x for k, x in law.items() if k < d.support_min)
            kept = math.fsum(d.pmf)
            assert abs(kept - float(1 - dropped - below)) <= 1e-15

    def test_normal_cdf_matches_scipy(self):
        z = np.concatenate([np.linspace(-45.0, 45.0, 90001), [-1.0, 1.0, -5e-324, 5e-324]])
        assert np.max(np.abs(dist_mod._normal_cdf(z) - stats.norm.cdf(z))) <= 4.4e-16
        beyond = np.array([-38.5, 8.3, -40.0, 40.0, -1e300, 1e300])
        assert list(dist_mod._normal_cdf(beyond)) == [0, 1, 0, 1, 0, 1]


class TestFractionalLoglik:
    def test_integer_trials(self):
        assert sb.fractional_binomial_loglik(1, 2, 0.5) == pytest.approx(2 * math.log(0.5))

    def test_fractional_trials(self):
        assert sb.fractional_binomial_loglik(1, 2.5, 0.5) == pytest.approx(
            2.5 * math.log(0.5)
        )

    def test_interpolates_between_integer_models(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n_lo = int(rng.integers(1, 20))
            frac = float(rng.uniform(0.05, 0.95))
            n = n_lo + frac
            p = float(rng.uniform(0.05, 0.95))
            x = int(rng.integers(0, n_lo + 1))
            lo = sb.fractional_binomial_loglik(x, n_lo, p)
            hi = sb.fractional_binomial_loglik(x, n_lo + 1, p)
            mid = sb.fractional_binomial_loglik(x, n, p)
            assert mid == pytest.approx(lo + frac * (hi - lo), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sb.fractional_binomial_loglik(5, 2.5, 0.5)  # x above ceil(n)
        with pytest.raises(ValueError):
            sb.fractional_binomial_loglik(-1, 2.0, 0.5)
        with pytest.raises(ValueError):
            sb.fractional_binomial_loglik(1, 2.0, 0.0)  # p=0 but x>0
        with pytest.raises(ValueError):
            sb.fractional_binomial_loglik(1, 2.0, 1.0)  # p=1 but x<n
        with pytest.raises(ValueError):
            sb.fractional_binomial_loglik(1, 2.0, 1.5)

    def test_saturated_edges(self):
        assert sb.fractional_binomial_loglik(0, 3.0, 0.0) == 0.0
        assert sb.fractional_binomial_loglik(3, 3.0, 1.0) == 0.0
