"""Traced CLI request: ``python -m shiftbinom.cli`` with spans recorded.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json exact --probs 0.2,0.4

Times the import of ``shiftbinom.cli`` as the ``import`` span, installs the
tracer's wrappers, calls ``shiftbinom.cli.main`` with the remaining
arguments, writes the spans (one root ``request`` span per process) to
SPANS.json and exits with the CLI's exit code.
"""

import sys
import time

t0 = time.perf_counter()
import json  # noqa: E402

from spans import REQUEST, Tracer  # noqa: E402


def run() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = tracer.begin(at=t0)
    with tracer.span("import"):
        import shiftbinom.cli
    tracer.install()
    code, error = 1, True
    try:
        code = shiftbinom.cli.main(argv)
        error = False
    except SystemExit as exc:  # argparse usage errors
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.end(root, REQUEST, error=error)
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
