"""Set-up probe: a fresh interpreter imports shiftbinom, then runs one fixed
warm-up request of the named workload. Prints {"import_s": ...} as JSON.

    PYTHONPATH=src python3 perfbench/probe.py sweep-small
"""

import sys
import time

t0 = time.perf_counter()
import shiftbinom  # noqa: E402
import shiftbinom.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].warmup()
print(json.dumps({"import_s": import_s}))
