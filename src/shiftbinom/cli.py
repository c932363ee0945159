"""Command-line interface: flag parsing and output formatting.

Subcommands: ``exact``, ``approx``, ``distance``, ``bounds``, ``sweep``.
All output is plain text or CSV; plotting is left to external tools.

Exit codes: 0 success (including degenerate fits reported with a warning),
1 usage error, 2 computation error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import distributions as dist_mod
from .distributions import METHODS, DegenerateEnsembleError, IntegerDistribution, approximation_pmf
from .ensemble import (
    BernoulliEnsemble,
    ensemble_from_spec,
    make_ensemble,
    moments,
    read_probs_file,
)
from .metrics import loc_distance, tv_distance
from .sweep import SWEEP_HEADER, SweepRow, _fmt, run_sweep, sweep_csv

__all__ = [
    "SweepRow", "SWEEP_HEADER", "run_sweep", "sweep_csv", "approximation_pmf", "main",
    "entrypoint", "METHODS",
]


def pmf_csv(d: IntegerDistribution) -> str:
    lines = ["k,mass"]
    for k, mass in zip(d.support(), d.pmf):
        lines.append(f"{k},{_fmt(mass)}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for
    # computation errors and uses 1 for usage.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--probs", help="comma-separated probabilities")
    p.add_argument("--probs-file", help="file with one probability per line")
    p.add_argument("--uniform-spread", action="store_true",
                   help="use the ramp ensemble p_i = i*M/(m+1)")
    p.add_argument("--m", type=int, default=100, help="ensemble size for --uniform-spread")
    p.add_argument("--max-prob", type=float, default=1.0,
                   help="maximum probability M for --uniform-spread")


def _ensemble_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> BernoulliEnsemble:
    sources = [args.probs is not None, args.probs_file is not None, args.uniform_spread]
    if sum(sources) != 1:
        parser.error("exactly one of --probs, --probs-file, --uniform-spread is required")
    if args.probs is not None:
        return make_ensemble([float(tok) for tok in args.probs.split(",") if tok.strip()])
    if args.probs_file is not None:
        return read_probs_file(args.probs_file)
    return ensemble_from_spec("uniform-spread", args.m, args.max_prob)


def _build_parser() -> _Parser:
    parser = _Parser(prog="shiftbinom",
                     description="Poisson-binomial approximations, distances, and error bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", parents=[], help="exact PMF of the Bernoulli sum")
    _add_input_flags(p_exact)
    p_exact.add_argument("--out", help="write CSV here instead of stdout")

    p_approx = sub.add_parser("approx", help="fitted approximation PMF")
    _add_input_flags(p_approx)
    p_approx.add_argument("--method", required=True, choices=METHODS)
    p_approx.add_argument("--out", help="write CSV here instead of stdout")

    p_dist = sub.add_parser("distance", help="exact distance between W and an approximation")
    _add_input_flags(p_dist)
    p_dist.add_argument("--method", required=True, choices=METHODS)
    p_dist.add_argument("--metric", choices=("tv", "loc"), default="tv")

    p_bounds = sub.add_parser("bounds", help="error-bound report for the ensemble")
    _add_input_flags(p_bounds)

    p_sweep = sub.add_parser("sweep", help="TV of all six approximations over an M grid")
    p_sweep.add_argument("--m", type=int, default=100, help="ensemble size")
    p_sweep.add_argument("--grid-start", type=float, default=0.05)
    p_sweep.add_argument("--grid-stop", type=float, default=1.0)
    p_sweep.add_argument("--grid-points", type=int, default=20)
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# The BoundReport values the bounds report prints, in order.
_BOUND_NAMES = ("K", "A1", "A2", "A3", "A4", "eta", "tv_bound", "loc_bound",
                "tv_corollary", "loc_corollary")


def _cmd_bounds(e: BernoulliEnsemble) -> int:
    ms = moments(e)
    try:
        fit = dist_mod.fit_shifted_binomial(ms)
        report = bounds_mod.theorem_bounds(e, ms, fit)
    except DegenerateEnsembleError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        print("\n".join(f"{name},n/a" for name in _BOUND_NAMES))
        return 0
    lines = [f"{name},{_fmt(getattr(report, name))}" for name in _BOUND_NAMES]
    try:
        lines.append(f"ehm_bound,{_fmt(bounds_mod.ehm_bound(e, ms))}")
    except DegenerateEnsembleError:
        lines.append("ehm_bound,n/a")
    try:
        exact = dist_mod.exact_pmf(e)
        lines.append(f"two_param_bound,{_fmt(bounds_mod.two_param_bound(e, ms, exact))}")
    except (DegenerateEnsembleError, dist_mod.FitRangeError):
        lines.append("two_param_bound,n/a")
    for note in report.notes:
        lines.append(f"note,{note}")
    print("\n".join(lines))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "exact":
            e = _ensemble_from_args(parser, args)
            _emit(pmf_csv(dist_mod.exact_pmf(e)), args.out)
            return 0
        if args.command == "approx":
            e = _ensemble_from_args(parser, args)
            d, params = approximation_pmf(args.method, e)
            header = " ".join(f"{k}={_fmt(float(v))}" for k, v in params.items())
            _emit(f"# {args.method}: {header}\n" + pmf_csv(d), args.out)
            return 0
        if args.command == "distance":
            e = _ensemble_from_args(parser, args)
            exact = dist_mod.exact_pmf(e)
            approx, _ = approximation_pmf(args.method, e)
            metric = tv_distance if args.metric == "tv" else loc_distance
            print(_fmt(metric(exact, approx)))
            return 0
        if args.command == "bounds":
            return _cmd_bounds(_ensemble_from_args(parser, args))
        if args.command == "sweep":
            if args.grid_points < 1:
                parser.error(f"--grid-points must be at least 1, got {args.grid_points}")
            grid = np.linspace(args.grid_start, args.grid_stop, args.grid_points)
            rows = run_sweep(args.m, [float(M) for M in grid])
            _emit(sweep_csv(rows), args.out)
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
