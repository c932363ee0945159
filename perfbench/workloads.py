"""The benchmark's workloads: seeded request streams, execution and checks.

Each workload yields an endless, seed-determined stream of requests. The
closed loop in ``measure.py`` runs them one at a time: ``execute`` is the
timed part, ``check`` runs afterwards, outside the timing.

Request sizes are stratified: each block of requests takes one size from
every equal-width slice of the log range, in shuffled order. A run's median
and tail then depend on the size distribution, not on which sizes one seed
happened to draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

import shiftbinom as sb
import shiftbinom.cli as sb_cli

import oracle
from oracle import CheckError
from spans import REQUEST, Tracer, patch, unpatch

HERE = Path(__file__).resolve().parent

# The sweep subcommand's default grid: M = 0.05, 0.10, ..., 1.00.
GRID = tuple(float(M) for M in np.linspace(0.05, 1.0, 20))
CLI_TIMEOUT_S = 60
CLI_SWEEP_M = 100  # the sweep subcommand's default --m


def log_uniform_slice(rng: np.random.Generator, lo: int, hi: int, k: int, slices: int) -> int:
    """An integer log-uniform within slice k of [lo, hi] cut into equal log slices."""
    u = (k + rng.random()) / slices
    return int(round(lo * (hi / lo) ** u))


def stratified_log_uniform(rng: np.random.Generator, lo: int, hi: int,
                           block: int) -> Iterator[int]:
    """Integers log-uniform in [lo, hi], one per slice of each block."""
    while True:
        for k in rng.permutation(block):
            yield log_uniform_slice(rng, lo, hi, int(k), block)


class ExactCapture:
    """Keeps what ``exact_pmf`` returns during a request.

    The check compares these laws with the oracle without recomputing them.
    The wrapper costs one call and one append per exact PMF, which is below
    0.1% of the cheapest exact PMF the sweeps build.
    """

    def __init__(self) -> None:
        self.laws: list = []
        self._patched = patch("exact_pmf", self._wrap)

    def _wrap(self, fn):
        def captured(*args, **kwargs):
            law = fn(*args, **kwargs)
            if args:
                self.laws.append((args[0], law))
            return law

        return captured

    def close(self) -> None:
        unpatch(self._patched)


class SweepWorkload:
    """In-process ``run_sweep`` requests on ramp ensembles."""

    def __init__(self, m_lo: int, m_hi: int, single_point: bool, tail_q: float) -> None:
        self.m_lo, self.m_hi = m_lo, m_hi
        self.tail_q = tail_q
        self.single_point = single_point
        # requests per stratified block; a run ends on a block boundary
        self.block = len(GRID) if single_point else 10
        self.warmup_m = int(round((m_lo * m_hi) ** 0.5))
        self.capture: ExactCapture | None = None

    def warmup(self) -> None:
        grid = [GRID[9]] if self.single_point else list(GRID)
        sb_cli.run_sweep(self.warmup_m, grid)

    def start(self, root: Path, work: Path) -> None:
        self.capture = ExactCapture()

    def stop(self) -> None:
        self.capture.close()

    def requests(self, rng: np.random.Generator, work: Path) -> Iterator[tuple[int, list[float]]]:
        if not self.single_point:
            sizes = stratified_log_uniform(rng, self.m_lo, self.m_hi, self.block)
            while True:
                yield next(sizes), list(GRID)
        # A block of len(GRID) requests pairs every M with one size slice by
        # a fixed rotation, so every seed runs the same (slice, M) pairs; the
        # seed picks the order and the size within each slice.
        n = len(GRID)
        b = 0
        while True:
            for j in rng.permutation(n):
                k = (7 * int(j) + 3 * b) % n
                yield log_uniform_slice(rng, self.m_lo, self.m_hi, k, n), [GRID[j]]
            b += 1

    @staticmethod
    def ensembles(req) -> int:
        return len(req[1])

    def execute(self, req, tracer: Tracer | None, request_id: int):
        m, grid = req
        self.capture.laws.clear()
        if tracer is None:
            t0 = perf_counter()
            rows = sb_cli.run_sweep(m, grid)
            return perf_counter() - t0, rows
        tracer.install()
        tracer.request = request_id
        t0 = perf_counter()
        root = tracer.begin(at=t0)
        try:
            rows = sb_cli.run_sweep(m, grid)
        except BaseException:
            tracer.end(root, REQUEST, error=True)
            raise
        finally:
            t1 = perf_counter()
            tracer.uninstall()
        tracer.end(root, REQUEST, at=t1)
        return t1 - t0, rows

    def check(self, req, rows) -> float:
        m, grid = req
        laws = self.capture.laws
        if len(laws) != len(rows):
            laws = [None] * len(rows)
        table = [(row.M, row.distances(), row.tv_bound) for row in rows]
        try:
            return check_sweep(m, grid, table, laws, oracle.EXACT_TOL)
        except CheckError as exc:
            raise CheckError(f"run_sweep(m={m}): {exc}") from None


def check_sweep(m: int, grid, table, laws, law_tol: float) -> float:
    """Check sweep rows (M, TVs by method, tv_bound) on the ramp of size m.

    ``laws`` holds the (ensemble, exact law) each row used, or None where the
    request did not expose it; the law is then rebuilt outside the timing.
    Returns the largest deviation of an exact law from the oracle.
    """
    if len(table) != len(grid):
        raise CheckError(f"sweep returned {len(table)} rows for {len(grid)} grid points")
    worst = 0.0
    for (M, tvs, tv_bound), M_req, captured in zip(table, grid, laws):
        if not abs(M - M_req) <= 1e-9:
            raise CheckError(f"sweep row M={M!r}, expected {M_req!r}")
        probs = oracle.ramp(m, M_req)
        law = oracle.oracle_pmf(probs)
        e = sb.make_ensemble(probs)
        if captured is not None and np.array_equal(captured[0].probs, probs):
            exact = captured[1]
        else:
            exact = sb.exact_pmf(e)
        worst = max(worst, oracle.check_law(exact.offset, exact.pmf, 0, law, law_tol))
        fit = sb.fit_shifted_binomial(sb.moments(e))
        oracle.check_fit(fit)
        approx = sb.shifted_binomial_pmf(fit)
        oracle.check_sweep_row(tvs, tv_bound, oracle.tv(0, law, approx.offset, approx.pmf))
    return worst


@dataclass
class CliRequest:
    kind: str
    args: list[str]
    expect: int  # exit code
    ensembles: int
    probs: np.ndarray | None = None
    method: str | None = None
    out: Path | None = None


class CliWorkload:
    """Sequential ``python -m shiftbinom.cli`` subprocesses."""

    tail_q = 0.5
    # A run may stop anywhere: the import costs every kind of request alike.
    block = 1
    # Requests come in shuffled groups of these kinds: the valid subcommands,
    # exact and approx twice (they carry the CSV formatting), one invalid.
    KINDS = ("exact", "approx", "distance-tv", "distance-loc", "bounds", "exact", "approx", "invalid")
    WARMUP_ARGS = ["bounds", "--uniform-spread", "--m", "775", "--max-prob", "0.5"]

    def warmup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = sb_cli.main(self.WARMUP_ARGS)
        if code != 0:
            raise RuntimeError(f"warm-up request exited {code}")

    def start(self, root: Path, work: Path) -> None:
        self.root, self.work = root, work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def stop(self) -> None:
        pass

    def requests(self, rng: np.random.Generator, work: Path) -> Iterator[CliRequest]:
        sizes = stratified_log_uniform(rng, 200, 3000, 10)
        methods: list[str] = []
        invalid = int(rng.integers(2))
        first = True
        i = 0
        while True:
            kinds = self.KINDS + (("sweep",) if first else ())
            first = False
            for kind in rng.permutation(kinds):
                i += 1
                if kind == "sweep":
                    yield CliRequest("sweep", ["sweep"], 0, len(GRID))
                    continue
                if not methods:
                    methods = list(rng.permutation(sb_cli.METHODS))
                method = str(methods.pop())
                probs = heterogeneous_probs(rng, next(sizes))
                path = work / f"probs-{i}.txt"
                src = ["--probs-file", str(path)]
                if kind == "invalid":
                    invalid ^= 1
                    if invalid:
                        probs[rng.integers(len(probs))] = 1.5
                write_probs(path, probs)
                if kind == "invalid" and invalid:
                    yield CliRequest("bad-prob", ["distance", "--method", method, *src], 2, 0)
                elif kind == "invalid":
                    yield CliRequest("two-sources", ["bounds", "--probs", "0.2,0.4", *src], 1, 0)
                elif kind == "exact":
                    out = work / f"exact-{i}.csv"
                    yield CliRequest(kind, ["exact", *src, "--out", str(out)], 0, 1, probs, out=out)
                elif kind == "approx":
                    yield CliRequest(kind, ["approx", "--method", method, *src], 0, 1, probs, method)
                elif kind == "bounds":
                    yield CliRequest(kind, ["bounds", *src], 0, 1, probs)
                else:
                    metric = kind.split("-")[1]
                    yield CliRequest(kind, ["distance", "--method", method, "--metric", metric, *src],
                                     0, 1, probs, method)

    @staticmethod
    def ensembles(req: CliRequest) -> int:
        return req.ensembles

    def execute(self, req: CliRequest, tracer: Tracer | None, request_id: int):
        if req.out is not None and req.out.exists():
            req.out.unlink()
        if tracer is None:
            cmd = [sys.executable, "-m", "shiftbinom.cli", *req.args]
        else:
            spans_path = self.work / f"spans-{request_id}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *req.args]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        latency = perf_counter() - t0
        if tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                tracer.extend(json.load(fh), request_id)
            spans_path.unlink()
        return latency, proc

    def check(self, req: CliRequest, proc) -> float:
        try:
            return self._check(req, proc)
        except CheckError as exc:
            raise CheckError(f"{req.kind} {req.method or ''}: {exc}") from None

    def _check(self, req: CliRequest, proc) -> float:
        if proc.returncode != req.expect:
            raise CheckError(f"exit {proc.returncode}, expected {req.expect}: "
                             f"{proc.stderr.strip()[-300:]}")
        if req.expect != 0:
            return 0.0
        if req.kind == "sweep":
            return check_sweep(CLI_SWEEP_M, GRID, parse_sweep_csv(proc.stdout),
                               [None] * len(GRID), oracle.EXACT_TOL)
        law = oracle.oracle_pmf(req.probs)
        if req.kind == "exact":
            offset, masses = oracle.parse_pmf_csv(req.out.read_text(encoding="utf-8"))
            return oracle.check_law(offset, masses, 0, law, oracle.CSV_TOL)
        e = sb.make_ensemble(req.probs)
        if req.kind == "bounds":
            report = dict(ln.split(",", 1) for ln in proc.stdout.splitlines())
            fit = sb.fit_shifted_binomial(sb.moments(e))
            oracle.check_fit(fit)
            approx = sb.shifted_binomial_pmf(fit)
            value = oracle.tv(0, law, approx.offset, approx.pmf)
            if not value <= float(report["tv_bound"]):
                raise CheckError(f"shifted-binomial TV {value!r} exceeds tv_bound {report['tv_bound']}")
            return 0.0
        approx, _ = sb_cli.approximation_pmf(req.method, e)
        if req.method == "shifted-binomial":
            oracle.check_fit(sb.fit_shifted_binomial(sb.moments(e)))
        if req.kind == "approx":
            offset, masses = oracle.parse_pmf_csv(proc.stdout)
            if not abs(float(np.sum(masses)) - 1.0) <= 1e-9:
                raise CheckError(f"law sums to {np.sum(masses)!r}")
            oracle.check_law(offset, masses, approx.offset, approx.pmf, oracle.CSV_TOL)
            return 0.0
        value = float(proc.stdout.strip())
        distance = oracle.tv if req.kind == "distance-tv" else oracle.loc
        ref = distance(0, law, approx.offset, approx.pmf)
        if not (0.0 <= value <= 1.0 and abs(value - ref) <= oracle.DISTANCE_TOL):
            raise CheckError(f"printed {value!r}, oracle gives {ref!r}")
        return 0.0


def heterogeneous_probs(rng: np.random.Generator, m: int) -> np.ndarray:
    """Beta-distributed probabilities with a seeded shape, kept in [0.005, 0.95]."""
    a, b = rng.uniform(0.5, 4.0, size=2)
    return np.clip(rng.beta(a, b, size=m), 0.005, 0.95)


def write_probs(path: Path, probs: np.ndarray) -> None:
    lines = ["# one probability per line"] + [repr(float(p)) for p in probs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_sweep_csv(text: str):
    """Sweep CSV into (M, TVs by method, tv_bound) rows."""
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[0] != "M" or header[-2:] != ["tv_bound", "loc_bound"]:
        raise CheckError(f"unexpected sweep header {lines[0]!r}")
    table = []
    for ln in lines[1:]:
        cells = dict(zip(header, map(float, ln.split(","))))
        tvs = {k: v for k, v in cells.items() if k not in ("M", "tv_bound", "loc_bound")}
        table.append((cells["M"], tvs, cells["tv_bound"]))
    return table


# Each workload reports one tail percentile, fixed so that runs of different
# lengths stay comparable: the highest that measure.tail_quantile allows at
# the request count a 20-second run reaches on a 2-core Xeon (about 450,
# 110 and 13 requests; sweep-large drops below 100 on a slow spell).
WORKLOADS = {
    "sweep-small": SweepWorkload(20, 200, single_point=False, tail_q=0.9),
    "sweep-large": SweepWorkload(3000, 15000, single_point=True, tail_q=0.75),
    "cli": CliWorkload(),
}
