"""Error-bound evaluation: constituents, frozen values, and dominance."""

import math
import warnings

import numpy as np
import pytest

import shiftbinom as sb
from shiftbinom import (
    DegenerateEnsembleError,
    FitRangeError,
    MomentSummary,
    ShiftedBinomialFit,
    make_ensemble,
    moments,
)


def _report_for(probs):
    e = make_ensemble(probs)
    ms = moments(e)
    fit = sb.fit_shifted_binomial(ms)
    return e, ms, fit, sb.theorem_bounds(e, ms, fit)


class TestBoundAssembly:
    def test_identities_and_signs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            probs = rng.uniform(0.02, 0.98, int(rng.integers(5, 120)))
            _, _, _, rep = _report_for(probs)
            for name in ("K", "A1", "A2", "A3", "A4", "eta"):
                assert getattr(rep, name) >= 0.0, name
            assert rep.tv_bound == pytest.approx(
                rep.K * (4 * rep.A1 + 2 * rep.A2) + rep.eta, rel=1e-15
            )
            assert rep.loc_bound == pytest.approx(
                rep.K * (8 * rep.A3 + 4 * rep.A4) + rep.eta, rel=1e-15
            )

    def test_notes_carry_exponential_only_tail(self):
        _, _, _, rep = _report_for([0.2, 0.4, 0.6, 0.8])
        tagged = [n for n in rep.notes if n.startswith("eta_exponential_only=")]
        assert len(tagged) == 1
        assert float(tagged[0].split("=", 1)[1]) >= 0.0


class TestTheoremBounds:
    def test_exact_family_reduces_to_tail_term(self):
        """p_i in {p, 1}: both rounding terms vanish, bound collapses to eta."""
        e, ms, fit, rep = _report_for([1.0, 0.5, 0.5])
        assert (fit.n, fit.s, fit.p) == (2, 1, 0.5)
        assert rep.A1 == 0.0
        assert rep.A2 == 0.0
        # ascending order puts the two 0.5 entries first; s = 1 picks 0.5,
        # which is below the exponential cap exp(-sigma2/4)
        assert rep.eta == 0.5
        assert rep.tv_bound == rep.eta
        assert rep.loc_bound == rep.eta
        # and the approximation itself is exact here
        tv = sb.tv_distance(sb.exact_pmf(e), sb.shifted_binomial_pmf(fit))
        assert tv <= 1e-12

    def test_iid_half_all_terms_vanish(self):
        e, ms, fit, rep = _report_for([0.5] * 20)
        assert (fit.n, fit.s) == (20, 0)
        # numerator sigma2*(l3-l4) - (l2-l3)^2 = 5*1.25 - 2.5^2 = 0
        assert rep.A1 == 0.0 and rep.A3 == 0.0
        assert rep.A2 == 0.0 and rep.A4 == 0.0
        assert rep.eta == 0.0
        assert rep.tv_bound == 0.0 and rep.loc_bound == 0.0
        assert rep.K == pytest.approx((1 - 2 * 0.5**21) / 5.0, rel=1e-15)

    @pytest.mark.parametrize("M", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [1_000, 10_000, 100_000])
    def test_dominates_exact_distance_at_scale(self, m, M):
        """TV <= tv_bound up to the computed TV's own error: the exact law's
        eps(m) and the binomial kernel's 2.5 u (sigma + 2), u = 2**-53."""
        e = sb.ensemble_from_spec("uniform-spread", m, M)
        ms = moments(e)
        fit = sb.fit_shifted_binomial(ms)
        rep = sb.theorem_bounds(e, ms, fit)
        tv = sb.tv_distance(sb.exact_pmf(e), sb.shifted_binomial_pmf(fit))
        kernel = 2.5 * 2.0**-53 * (math.sqrt(fit.n * fit.p * (1.0 - fit.p)) + 2.0)
        assert tv <= rep.tv_bound + sb.distributions._tree_tolerance(m) + kernel

    def test_dominates_exact_distance_on_ramp(self):
        e = sb.ensemble_from_spec("uniform-spread", 100, 1.0)
        ms = moments(e)
        fit = sb.fit_shifted_binomial(ms)
        rep = sb.theorem_bounds(e, ms, fit)
        exact = sb.exact_pmf(e)
        approx = sb.shifted_binomial_pmf(fit)
        assert sb.tv_distance(exact, approx) <= rep.tv_bound
        assert sb.loc_distance(exact, approx) <= rep.loc_bound

    def test_degenerate_raises(self):
        ms = MomentSummary(
            lambda1=3.0, lambda2=3.0, lambda3=3.0, lambda4=3.0,
            sigma2=0.0, mu3=0.0, v=0.0, v_star=0.0,
        )
        fit = ShiftedBinomialFit(
            n_star=1.0, p_star=0.5, s_star=0.0, n=1, s=0, p=0.5, frac_n=0.0, frac_s=0.0
        )
        with pytest.raises(DegenerateEnsembleError, match="sigma\\^2 = 0"):
            sb.theorem_bounds(make_ensemble([1.0, 1.0, 1.0]), ms, fit)

    def test_eta_below_exponential_caps(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            probs = rng.uniform(0.0, 1.0, int(rng.integers(5, 150)))
            try:
                _, ms, _, rep = _report_for(probs)
            except (DegenerateEnsembleError, FitRangeError):
                continue
            cap = math.exp(-ms.sigma2 / 4) + math.exp(-ms.sigma2 / 4 + 1)
            assert rep.eta <= cap + 1e-12


class TestCorollaryBounds:
    def test_frozen_evaluation(self):
        # direct formula at lambda1=50, n=100, sigma2=25, v=50
        ms = MomentSummary(
            lambda1=50.0, lambda2=25.0, lambda3=12.5, lambda4=6.25,
            sigma2=25.0, mu3=0.0, v=50.0, v_star=0.5,
        )
        fit = ShiftedBinomialFit(
            n_star=100.0, p_star=0.5, s_star=0.0, n=100, s=0, p=0.5,
            frac_n=0.0, frac_s=0.0,
        )
        tv, loc = sb.corollary_bounds(ms, fit)
        tail = 2 * math.exp(-5.25)
        assert tv == pytest.approx(18.0 / 25.0 + tail, rel=1e-15)
        assert loc == pytest.approx(228.0 / (25.0 * math.sqrt(50.0)) + tail, rel=1e-15)

    def test_degenerate(self):
        ms = MomentSummary(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        fit = ShiftedBinomialFit(1.0, 0.5, 0.0, 1, 0, 0.5, 0.0, 0.0)
        with pytest.raises(DegenerateEnsembleError):
            sb.corollary_bounds(ms, fit)

    def test_decay_rates_on_balanced_family(self):
        """tv shrinks like 1/m and loc like m^(-3/2) for bounded-away p_i."""
        sizes = [50, 100, 200, 400]
        tvs, locs = [], []
        for m in sizes:
            e = make_ensemble([0.5] * (m // 2) + [1 / 3] * (m // 2))
            ms = moments(e)
            fit = sb.fit_shifted_binomial(ms)
            tv, loc = sb.corollary_bounds(ms, fit)
            tvs.append(tv)
            locs.append(loc)
        lx = np.log(sizes)
        assert np.polyfit(lx, np.log(tvs), 1)[0] <= -0.9
        assert np.polyfit(lx, np.log(locs), 1)[0] <= -1.3

    def test_not_tighter_than_full_bound_soft_audit(self):
        """The simplified bounds should dominate the assembled ones.

        Violations are reported as warnings, not failures, since the
        simplification drops negative terms only under side conditions on v.
        """
        for M in np.linspace(0.05, 1.0, 20):
            e = sb.ensemble_from_spec("uniform-spread", 100, float(M))
            ms = moments(e)
            fit = sb.fit_shifted_binomial(ms)
            rep = sb.theorem_bounds(e, ms, fit)
            if rep.tv_corollary < rep.tv_bound or rep.loc_corollary < rep.loc_bound:
                warnings.warn(
                    f"simplified bound below full bound at M={M:.2f}", stacklevel=1
                )


class TestEhmBound:
    def test_iid_vanishes(self):
        assert sb.ehm_bound(make_ensemble([0.5] * 20)) == 0.0
        assert sb.ehm_bound(make_ensemble([0.3] * 12)) <= 1e-12

    def test_mixed_ensemble_value(self):
        # (1 - 2*0.5^5)/(5*0.25) * 0.2 = 0.75 * 0.2
        got = sb.ehm_bound(make_ensemble([0.2, 0.4, 0.6, 0.8]))
        assert got == pytest.approx(0.15, rel=1e-13)

    def test_constant_in_m_for_two_level_family(self):
        values = [
            sb.ehm_bound(make_ensemble([0.5] * (m // 2) + [1 / 3] * (m // 2)))
            for m in (100, 400, 1000)
        ]
        assert max(values) / min(values) <= 1.05

    def test_dominates_one_param_binomial_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            e = make_ensemble(rng.uniform(0.02, 0.98, int(rng.integers(5, 60))))
            tv = sb.tv_distance(sb.exact_pmf(e), sb.one_param_binomial_pmf(e))
            assert tv <= sb.ehm_bound(e) + 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateEnsembleError):
            sb.ehm_bound(make_ensemble([0.0, 0.0]))
        with pytest.raises(DegenerateEnsembleError):
            sb.ehm_bound(make_ensemble([1.0, 1.0]))


class TestTwoParamBound:
    def test_iid_vanishes(self):
        e = make_ensemble([0.5] * 20)
        got = sb.two_param_bound(e, moments(e), sb.exact_pmf(e))
        assert got == 0.0

    def test_mixed_ensemble_value(self):
        # 12*0.04 + 0.2 + P(W>3) with P(W>3) = 0.0384
        e = make_ensemble([0.2, 0.4, 0.6, 0.8])
        got = sb.two_param_bound(e, moments(e), sb.exact_pmf(e))
        assert got == pytest.approx(0.7184, rel=1e-12)

    def test_dominates_two_param_binomial_distance(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            e = make_ensemble(rng.uniform(0.02, 0.98, int(rng.integers(5, 60))))
            ms = moments(e)
            exact = sb.exact_pmf(e)
            tv = sb.tv_distance(exact, sb.two_param_binomial_pmf(ms))
            assert tv <= sb.two_param_bound(e, ms, exact) + 1e-12

    def test_dominates_when_trials_lie_just_below_an_integer(self):
        # l1^2/l2 = 999.999999889: a relative snap of 1e-9 rounded it up to
        # n = 1000 and dropped the rounding term, leaving a bound of 6.5e-12
        # under a TV of 1.2e-11.
        e = make_ensemble([0.3] * 999 + [0.3001])
        ms = moments(e)
        exact = sb.exact_pmf(e)
        d, params = sb.approximation_pmf("binomial2", e, ms)
        assert params["n"] == 999
        assert sb.tv_distance(exact, d) <= sb.two_param_bound(e, ms, exact)

    def test_success_probability_at_one_rejected(self):
        e = make_ensemble([1.0, 0.98])
        with pytest.raises(FitRangeError, match="not below 1"):
            sb.two_param_bound(e, moments(e), sb.exact_pmf(e))

    def test_degenerate(self):
        e = make_ensemble([0.0, 0.0])
        with pytest.raises(DegenerateEnsembleError):
            sb.two_param_bound(e, moments(e), sb.exact_pmf(e))
