"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import subprocess
from types import SimpleNamespace

import numpy as np
import pytest

import shiftbinom as sb
import shiftbinom.cli as sb_cli

import measure
import oracle
from oracle import CheckError
from spans import REQUEST, Span, Tracer, self_times
from workloads import GRID, CliRequest, CliWorkload, stratified_log_uniform


class TestPercentileRule:
    @pytest.mark.parametrize("n, q", [(1000, 0.9), (100, 0.9), (99, 0.75), (40, 0.75),
                                      (39, 0.5), (15, 0.5), (1, 0.5)])
    def test_ten_samples_beyond(self, n, q):
        assert measure.tail_quantile(n) == q

    def test_ten_samples_lie_beyond_the_chosen_percentile(self):
        for n in (100, 150, 40, 60):
            values = list(range(n))
            cut = measure.percentile(values, measure.tail_quantile(n))
            assert sum(v > cut for v in values) >= 10

    def test_percentile_matches_numpy(self):
        values = np.random.default_rng(0).random(37)
        for q in (0.5, 0.75, 0.9):
            assert measure.percentile(values, q) == pytest.approx(np.percentile(values, 100 * q))


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span(REQUEST, 0.0, 10.0, -1, 0, False, 0),
            Span("run_sweep", 1.0, 4.0, 0, 0, False, 0),
            Span("exact_pmf", 2.0, 3.0, 1, 0, False, 0),
            Span("moments", 5.0, 9.0, 0, 0, False, 0),
            # overlaps its sibling and runs past its parent: counted once, clipped
            Span("tv_distance", 8.0, 11.0, 0, 0, False, 0),
        ]
        assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])

    def test_tracer_links_parents(self):
        tracer = Tracer()
        root = tracer.begin(at=0.0)
        child = tracer.begin(at=1.0)
        grandchild = tracer.begin(at=2.0)
        tracer.end(grandchild, "moments", at=2.5)
        tracer.end(child, "run_sweep", at=4.0)
        tracer.end(root, REQUEST, at=5.0)
        assert [s.parent for s in tracer.spans] == [-1, 0, 1]
        assert self_times(tracer.spans) == pytest.approx([2.0, 2.5, 0.5])

    def test_wraps_every_namespace_and_restores(self):
        original = sb.moments
        tracer = Tracer()
        assert tracer.install() == []
        try:
            assert sb_cli.moments is sb.moments is sb.ensemble.moments is not original
            tracer.request = 7
            sb_cli.run_sweep(30, [0.5])
        finally:
            tracer.uninstall()
        assert sb_cli.moments is sb.moments is original
        names = [s.name for s in tracer.spans]
        # one sweep row sums moments seven times and fits twice
        assert names.count("moments") == 7 and names.count("fit_shifted_binomial") == 2
        assert all(s.request == 7 for s in tracer.spans)
        exact = tracer.spans[names.index("exact_pmf")]
        assert exact.size == 30 and tracer.spans[exact.parent].name == "run_sweep"

    def test_layer_metrics_sum_to_request_time(self):
        tracer = Tracer()
        tracer.install()
        try:
            root = tracer.begin()
            sb_cli.run_sweep(40, list(GRID[:3]))
            tracer.end(root, REQUEST)
        finally:
            tracer.uninstall()
        metrics = measure.layer_metrics(tracer.spans, requests=1, ensembles=3)
        shares = sum(v for k, v in metrics.items() if k.endswith(".share"))
        assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0)
        assert metrics["ensemble.moments.calls_per_ensemble"] == 7
        assert metrics["distributions.fit.calls_per_ensemble"] == 2


class TestOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 15])
    def test_matches_enumeration(self, m):
        probs = np.random.default_rng(m).random(m)
        law = oracle.oracle_pmf(probs)
        brute = sb.brute_force_pmf(sb.make_ensemble(probs))
        assert oracle.loc(0, law, brute.offset, brute.pmf) <= 1e-15

    def test_ramp_is_the_cli_ensemble(self):
        e = sb.ensemble_from_spec("uniform-spread", 57, 0.35)
        assert np.array_equal(oracle.ramp(57, 0.35), e.as_array())


class TestChecker:
    def law(self):
        probs = oracle.ramp(200, 0.6)
        return oracle.oracle_pmf(probs), sb.exact_pmf(sb.make_ensemble(probs))

    def test_accepts_exact_law(self):
        law, exact = self.law()
        assert oracle.check_law(exact.offset, exact.pmf, 0, law, oracle.EXACT_TOL) < 1e-15

    @pytest.mark.parametrize("delta", [1e-9, -1e-11])
    def test_rejects_perturbed_law(self, delta):
        law, exact = self.law()
        wrong = exact.pmf.copy()
        wrong[len(wrong) // 2] += delta
        with pytest.raises(CheckError):
            oracle.check_law(exact.offset, wrong, 0, law, oracle.EXACT_TOL)

    def test_rejects_shifted_law(self):
        law, exact = self.law()
        with pytest.raises(CheckError):
            oracle.check_law(exact.offset + 1, exact.pmf, 0, law, oracle.EXACT_TOL)

    def test_rejects_negative_mass(self):
        with pytest.raises(CheckError):
            oracle.check_law(0, [1.0 + 1e-13, -1e-13], 0, [1.0, 0.0], oracle.EXACT_TOL)

    def test_sweep_row_rules(self):
        tvs = {"poisson": 0.3, "shifted_binomial": 0.01}
        oracle.check_sweep_row(tvs, 0.02, 0.01)
        for bad_tvs, bound, ref in [({**tvs, "poisson": 1.2}, 0.02, 0.01),
                                    (tvs, 0.005, 0.01),
                                    (tvs, 0.02, 0.0101)]:
            with pytest.raises(CheckError):
                oracle.check_sweep_row(bad_tvs, bound, ref)

    def test_fit_invariants(self):
        fit = sb.fit_shifted_binomial(sb.moments(sb.make_ensemble(oracle.ramp(300, 0.7))))
        oracle.check_fit(fit)
        with pytest.raises(CheckError):
            oracle.check_fit(SimpleNamespace(**{**vars(fit), "n": fit.n + 1}))
        with pytest.raises(CheckError):
            oracle.check_fit(SimpleNamespace(**{**vars(fit), "frac_s": 1.0}))

    def test_cli_exit_code_mismatch_fails(self):
        req = CliRequest("two-sources", ["bounds"], 1, 0)
        CliWorkload().check(req, subprocess.CompletedProcess([], 1, "", ""))
        with pytest.raises(CheckError):
            CliWorkload().check(req, subprocess.CompletedProcess([], 2, "", ""))


def test_stratified_sizes_cover_every_slice():
    draws = stratified_log_uniform(np.random.default_rng(3), 1000, 10**6, 10)
    for _ in range(3):
        block = [next(draws) for _ in range(10)]
        slices = sorted(int(10 * np.log(m / 1000) / np.log(1000)) for m in block)
        assert slices == list(range(10))


def test_same_seed_same_requests(tmp_path):
    def first_args(seed):
        stream = CliWorkload().requests(np.random.default_rng(seed), tmp_path)
        return [next(stream).args for _ in range(9)]

    assert first_args(5) == first_args(5)
    assert first_args(5) != first_args(6)
