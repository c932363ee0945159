"""Closed-loop measurement and the metrics computed from it.

One caller sends the next request only when the previous one has returned;
no threads or worker pools are used. A run stops once its requests have
been busy for the requested number of seconds.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from spans import APPROX_FAMILIES, LAYER_OF, LAYERS, REQUEST, Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
# Ladder of reported tail percentiles; see tail_quantile.
TAIL_PERCENTS = (90, 75)
MIN_BEYOND = 10
PAIR_EVERY = 3


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest quantile of the ladder with at least ten of n samples beyond it.

    Falls back to the median when even p75 has fewer than ten beyond.
    """
    for pct in TAIL_PERCENTS:
        if n * (100 - pct) >= 100 * MIN_BEYOND:
            return pct / 100
    return 0.5


def setup_probes(workload: str, root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import shiftbinom and run one
    warm-up request, and the import time each reports."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


class Tally:
    """Outcome counts and timings of one run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.ensembles = 0
        self.max_dev = 0.0
        self.paired = {False: 0.0, True: 0.0}  # busy seconds of paired runs, untraced / traced
        self.traced_requests = self.traced_ensembles = 0


def run_loop(workload, seed: int, seconds: float, trace: bool, work: Path,
             tracer: Tracer | None) -> Tally:
    """Send requests in a closed loop until they have been busy ``seconds``
    and the workload's current block of requests is complete.

    With tracing, every request runs traced, and every third one also runs
    untraced, alternating which of the two goes first; those pairs give the
    tracing overhead.
    """
    tally = Tally()
    stream = workload.requests(np.random.default_rng(seed), work)
    wall_limit = 3 * seconds + 20
    started = perf_counter()
    i = 0
    while (tally.busy < seconds or i % workload.block) and perf_counter() - started < wall_limit:
        req = next(stream)
        if not trace:
            modes = (False,)
        elif i % PAIR_EVERY:
            modes = (True,)
        else:
            modes = (False, True) if i % (2 * PAIR_EVERY) else (True, False)
        for traced in modes:
            tally.attempted += 1
            try:
                latency, outcome = workload.execute(req, tracer if traced else None, i)
            except Exception as exc:  # the request itself failed: count it, keep going
                tally.failed += 1
                print(f"request {i} failed: {exc!r}", file=sys.stderr)
                continue
            tally.busy += latency
            if len(modes) == 2:
                tally.paired[traced] += latency
            tally.latencies.append(latency)
            if traced:
                tally.traced_requests += 1
                tally.traced_ensembles += workload.ensembles(req)
            try:
                tally.max_dev = max(tally.max_dev, workload.check(req, outcome))
            except Exception as exc:  # a wrong or unreadable output
                tally.failed += 1
                print(f"request {i} check failed: {exc!r}", file=sys.stderr)
                continue
            tally.ensembles += workload.ensembles(req)
        i += 1
    return tally


def end_to_end(tally: Tally, setup_walls: list[float], rss_kb: int,
               tail_q: float) -> dict[str, float]:
    lat = tally.latencies
    if tail_quantile(len(lat)) < tail_q:
        print(f"warning: {len(lat)} requests leave fewer than {MIN_BEYOND} beyond "
              f"p{round(100 * tail_q)}", file=sys.stderr)
    return {
        "setup_s": median(setup_walls),
        "ensembles_per_s": tally.ensembles / tally.busy,
        "latency_p50_ms": 1e3 * percentile(lat, 0.5),
        "latency_tail_ms": 1e3 * percentile(lat, tail_q),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def layer_metrics(spans: list[Span], requests: int, ensembles: int) -> dict[str, float]:
    """Per-layer figures from the traced requests' spans.

    Calls, self seconds and cells are per traced request; errors are totals;
    ``share`` is self time over traced request time.
    """
    selfs = self_times(spans)
    request_s = sum(s.end - s.start for s in spans if s.name == REQUEST)
    unattributed = sum(t for s, t in zip(spans, selfs) if s.name == REQUEST)
    calls, self_s, errors = defaultdict(int), defaultdict(float), defaultdict(int)
    name_calls, name_self = defaultdict(int), defaultdict(float)
    exact_cells = approx_cells = metric_cells = 0
    for s, t in zip(spans, selfs):
        layer = LAYER_OF.get(s.name)
        if layer is None:
            continue
        calls[layer] += 1
        self_s[layer] += t
        errors[layer] += s.error
        name_calls[s.name] += 1
        name_self[s.name] += t
        if s.name == "exact_pmf":
            exact_cells += s.size * s.size
        elif layer == "metrics":
            metric_cells += s.size
        elif layer == "distributions.approx" and (
                s.parent < 0 or LAYER_OF.get(spans[s.parent].name) != layer):
            approx_cells += s.size  # one nested in another is counted once
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / requests
        out[f"{layer}.self_s"] = self_s[layer] / requests
        out[f"{layer}.share"] = self_s[layer] / request_s
        out[f"{layer}.errors"] = errors[layer]
    out["ensemble.moments.calls_per_ensemble"] = name_calls["moments"] / max(ensembles, 1)
    out["distributions.fit.calls_per_ensemble"] = name_calls["fit_shifted_binomial"] / max(ensembles, 1)
    exact_self = name_self["exact_pmf"]
    out["distributions.exact.cells_per_s"] = exact_cells / exact_self if exact_self > 0 else 0.0
    for family, names in APPROX_FAMILIES.items():
        out[f"distributions.approx.{family}.self_s"] = sum(name_self[n] for n in names) / requests
    out["distributions.approx.cells"] = approx_cells / requests
    out["metrics.cells"] = metric_cells / requests
    out["trace.requests"] = requests
    out["trace.unattributed_share"] = unattributed / request_s
    return out


def peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss
