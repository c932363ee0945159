"""CLI behavior: argument handling, output formats, exit codes, sweep."""

import dataclasses
import functools
import subprocess
import sys

import numpy as np
import pytest

import shiftbinom as sb
from shiftbinom.cli import (
    SWEEP_HEADER,
    SweepRow,
    main,
    pmf_csv,
    run_sweep,
    sweep_csv,
)


def parse_pmf_csv(text: str) -> sb.IntegerDistribution:
    """Inverse of :func:`pmf_csv`; expects contiguous k values."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "k,mass":
        raise ValueError("expected header 'k,mass'")
    ks, masses = [], []
    for ln in lines[1:]:
        k_str, mass_str = ln.split(",", 1)
        ks.append(int(k_str))
        masses.append(float(mass_str))
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise ValueError("support values must be contiguous")
    return sb.IntegerDistribution.from_masses(ks[0], np.asarray(masses))


@functools.lru_cache(maxsize=1)
def _default_rows():
    return tuple(run_sweep(100, [float(M) for M in np.linspace(0.05, 1.0, 20)]))


class TestInputSelection:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exact"],
            ["exact", "--probs", "0.5", "--uniform-spread"],
            ["exact", "--probs", "0.5", "--probs-file", "x.txt"],
            ["approx", "--method", "nope", "--probs", "0.5"],
            ["distance", "--probs", "0.5", "--method", "poisson", "--metric", "l7"],
            ["sweep", "--grid-points", "-3"],
            ["sweep", "--grid-points", "0"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()

    def test_missing_probs_file_exits_2(self, capsys):
        assert main(["exact", "--probs-file", "/no/such/file.txt"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "/no/such/file.txt" in err

    def test_out_of_range_prob_exits_2(self, capsys):
        assert main(["exact", "--probs", "0.5,1.5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExact:
    def test_two_coin_csv(self, capsys):
        assert main(["exact", "--probs", "0.2,0.8"]) == 0
        assert capsys.readouterr().out == "k,mass\n0,0.16\n1,0.68\n2,0.16\n"

    def test_uniform_spread_default_size(self, capsys):
        assert main(["exact", "--uniform-spread"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,mass"
        assert len(lines) == 1 + 101  # support 0..100
        total = sum(float(ln.split(",")[1]) for ln in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        main(["exact", "--probs", "0.2,0.4,0.6"])
        expected = capsys.readouterr().out
        path = tmp_path / "pmf.csv"
        assert main(["exact", "--probs", "0.2,0.4,0.6", "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == expected


class TestApprox:
    def test_fit_header_line(self, capsys):
        assert main(["approx", "--method", "shifted-binomial",
                     "--probs", "0.2,0.4,0.6,0.8"]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first == "# shifted-binomial: n=3 p=0.666666666667 s=0 n*=3.2 p*=0.5 s*=0.4"
        d = parse_pmf_csv(out)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-10)

    def test_binomial2_header_gives_the_fitted_trials(self, capsys):
        # lambda1 = 750 and lambda2 = 250 (to rounding): n = 2250, p = 1/3.
        # Masses above k = 1644 underflow, so the printed law stops there.
        assert main(["approx", "--method", "binomial2", "--uniform-spread",
                     "--m", "3000", "--max-prob", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# binomial2: n=2250 p=0.333333333333"
        assert parse_pmf_csv(out).support_max < 2250

    @pytest.mark.parametrize("method", sb.cli.METHODS)
    def test_every_method_emits_a_distribution(self, method, capsys):
        assert main(["approx", "--method", method, "--probs", "0.2,0.4,0.6,0.8"]) == 0
        d = parse_pmf_csv(capsys.readouterr().out)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-9)


class TestDistance:
    def test_exact_fit_is_numerically_zero(self, capsys):
        assert main(["distance", "--method", "shifted-binomial",
                     "--probs", "0.5,0.5,0.5,0.5"]) == 0
        assert float(capsys.readouterr().out) <= 1e-12

    def test_matches_library_value(self, capsys):
        probs = "0.1,0.3,0.5,0.7,0.9"
        e = sb.make_ensemble([0.1, 0.3, 0.5, 0.7, 0.9])
        exact = sb.exact_pmf(e)
        want_tv = sb.tv_distance(exact, sb.poisson_pmf(sb.moments(e).lambda1))
        main(["distance", "--method", "poisson", "--probs", probs])
        assert float(capsys.readouterr().out) == pytest.approx(want_tv, rel=1e-12)
        want_loc = sb.loc_distance(exact, sb.poisson_pmf(sb.moments(e).lambda1))
        main(["distance", "--method", "poisson", "--probs", probs, "--metric", "loc"])
        assert float(capsys.readouterr().out) == pytest.approx(want_loc, rel=1e-12)


class TestBounds:
    def test_report_lines(self, capsys):
        assert main(["bounds", "--probs", "0.2,0.4,0.6,0.8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = [ln.split(",", 1)[0] for ln in lines]
        assert keys[:12] == ["K", "A1", "A2", "A3", "A4", "eta", "tv_bound",
                             "loc_bound", "tv_corollary", "loc_corollary",
                             "ehm_bound", "two_param_bound"]
        values = dict(ln.split(",", 1) for ln in lines if not ln.startswith("note"))
        assert float(values["ehm_bound"]) == pytest.approx(0.15, rel=1e-12)
        assert float(values["two_param_bound"]) == pytest.approx(0.7184, rel=1e-12)
        assert any(k == "note" for k in keys)

    def test_degenerate_warns_but_exits_0(self, capsys):
        assert main(["bounds", "--probs", "1.0,1.0"]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err and "degenerate" in captured.err
        lines = captured.out.strip().splitlines()
        assert len(lines) == 10
        assert all(ln.endswith(",n/a") for ln in lines)


class TestSweep:
    def test_default_invocation_matches_library(self, capsys):
        assert main(["sweep"]) == 0
        assert capsys.readouterr().out == sweep_csv(list(_default_rows()))

    def test_header_and_shape(self):
        text = sweep_csv(list(_default_rows()))
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 21

    def test_rows_deterministic(self):
        grid = [float(M) for M in np.linspace(0.05, 1.0, 20)]
        again = sweep_csv(run_sweep(100, grid))
        assert again == sweep_csv(list(_default_rows()))

    def test_row_invariants(self):
        for row in _default_rows():
            for name, tv in row.distances().items():
                assert 0.0 <= tv <= 1.0, name
            assert row.shifted_binomial <= row.tv_bound
            assert row.tv_bound > 0.0 and row.loc_bound > 0.0

    def test_rank_order_at_full_spread(self):
        row = _default_rows()[-1]
        assert row.M == 1.0
        d = row.distances()
        order = sorted(d, key=d.get)
        assert order == ["shifted_binomial", "normal", "binomial2",
                         "shifted_poisson", "binomial1", "poisson"]

    def test_small_m_rejected(self, capsys):
        assert main(["sweep", "--m", "1"]) == 2
        assert "m >= 2" in capsys.readouterr().err

    def test_out_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(["sweep", "--m", "10", "--grid-points", "3",
                     "--out", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == SWEEP_HEADER and len(lines) == 4


class TestRegistry:
    def test_sweep_columns_follow_methods(self):
        names = [f.name for f in dataclasses.fields(SweepRow)]
        assert names[0] == "M" and names[-2:] == ["tv_bound", "loc_bound"]
        assert names[1:-2] == [m.replace("-", "_") for m in sb.METHODS]
        assert SWEEP_HEADER == ",".join(names)

    def test_cli_binds_the_library_registry(self):
        assert sb.METHODS is sb.cli.METHODS
        assert sb.approximation_pmf is sb.cli.approximation_pmf
        for name in ("run_sweep", "SweepRow", "SWEEP_HEADER", "sweep_csv"):
            assert getattr(sb.cli, name) is getattr(sb.sweep, name) is getattr(sb, name)

    def test_unknown_method_names_every_method(self):
        with pytest.raises(ValueError, match="bogus") as info:
            sb.approximation_pmf("bogus", sb.make_ensemble([0.2, 0.4]))
        assert all(m in str(info.value) for m in sb.METHODS)


class TestPmfCsv:
    def test_round_trip_is_fixed_point(self):
        e = sb.make_ensemble([0.2, 0.4, 0.6, 0.8])
        text = pmf_csv(sb.exact_pmf(e))
        once = pmf_csv(parse_pmf_csv(text))
        assert once == text
        assert pmf_csv(parse_pmf_csv(once)) == once

    def test_tolerates_comments_and_blanks(self):
        d = parse_pmf_csv("# note\n\nk,mass\n2,0.5\n\n3,0.5\n")
        assert list(d.support()) == [2, 3]

    def test_bad_header(self):
        with pytest.raises(ValueError, match="k,mass"):
            parse_pmf_csv("x,y\n0,1.0\n")

    def test_non_contiguous_support(self):
        with pytest.raises(ValueError):
            parse_pmf_csv("k,mass\n0,0.5\n2,0.5\n")


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "shiftbinom.cli", "exact", "--probs", "0.5"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "k,mass\n0,0.5\n1,0.5\n"


def test_cli_runs_without_scipy():
    # The approximation kernels are numpy/math only; importing scipy, even
    # lazily inside a function, would cost a CLI call most of its time.
    code = "\n".join([
        "import contextlib, io, sys",
        "from shiftbinom.cli import METHODS, main",
        "ens = ['--uniform-spread', '--m', '300', '--max-prob', '0.6']",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for method in METHODS:",
        "        assert main(['distance', '--method', method] + ens) == 0",
        "    assert main(['bounds'] + ens) == 0",
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
