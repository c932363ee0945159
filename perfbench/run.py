"""Run one shiftbinom benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``. Spans of a
traced run are written to ``perfbench/out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shiftbinom" / "__init__.py").is_file():
        print(f"error: no shiftbinom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shiftbinom

    if Path(shiftbinom.__file__).resolve().parent != SRC / "shiftbinom":
        print(f"error: imported shiftbinom from {shiftbinom.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import measure
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_walls, import_times = measure.setup_probes(args.workload, ROOT, env)
        workload.warmup()
        workload.start(ROOT, work)
        try:
            tally = measure.run_loop(workload, args.seed, args.seconds, bool(args.trace),
                                     work, tracer)
        finally:
            workload.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not tally.latencies or (args.trace and tally.traced_requests == 0):
        print("error: no request ran to completion", file=sys.stderr)
        return 1
    if args.trace:
        spans = [s for s in tracer.spans if s is not None]
        metrics = measure.layer_metrics(spans, tally.traced_requests, tally.traced_ensembles)
        import_times += [s.end - s.start for s in spans if s.name == "import"]
        metrics["cli.import_s"] = median(import_times)
        metrics["distributions.exact.max_abs_dev"] = tally.max_dev
        metrics["trace.overhead_ratio"] = tally.paired[True] / tally.paired[False]
        tracer.dump(OUT / f"trace-{args.workload}.jsonl")
    else:
        rss = measure.peak_rss_kb(children=args.workload == "cli")
        metrics = measure.end_to_end(tally, setup_walls, rss, workload.tail_q)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics differ from {SPEC.name}: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(tally.latencies)} timed requests, "
          f"tail percentile p{round(100 * workload.tail_q)}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
