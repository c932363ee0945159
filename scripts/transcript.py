"""Write the stdout, stderr and exit code of a fixed list of CLI calls.

    python scripts/transcript.py OUTDIR

Each call runs as ``python -m shiftbinom.cli ...`` against the ``src/`` tree
next to this script, and leaves OUTDIR/<name>.stdout, <name>.stderr and
<name>.exit. Run it on two checkouts and compare them with
``diff -r OUTDIR_A OUTDIR_B``: a change that keeps every output identical
shows no difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
METHODS = ("poisson", "shifted-poisson", "binomial1", "binomial2", "normal", "shifted-binomial")
RAMP_200 = ["--uniform-spread", "--m", "200", "--max-prob", "0.8"]


def calls() -> list[tuple[str, list[str]]]:
    """(name, argv) of every call, in order."""
    out = [(f"sweep-m{m}", ["sweep", "--m", str(m)])
           for m in (20, 57, 100, 200, 255, 256, 1000, 3000, 9463)]
    for method in METHODS:
        out.append((f"approx-{method}", ["approx", "--method", method, *RAMP_200]))
        out.append((f"distance-{method}", ["distance", "--method", method, *RAMP_200]))
    bounds_inputs = {
        "four": ["--probs", "0.2,0.4,0.6,0.8"],
        "degenerate": ["--probs", "1.0,1.0"],
        "ramp100": ["--uniform-spread", "--m", "100", "--max-prob", "0.5"],
        "near-iid999": ["--probs", ",".join(["0.3"] * 999 + ["0.3001"])],
        "ramp15000": ["--uniform-spread", "--m", "15000", "--max-prob", "0.5"],
    }
    out.extend((f"bounds-{name}", ["bounds", *args]) for name, args in bounds_inputs.items())
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, args in calls():
        proc = subprocess.run([sys.executable, "-m", "shiftbinom.cli", *args], env=env,
                              capture_output=True, text=True, timeout=600, check=False)
        (outdir / f"{name}.stdout").write_text(proc.stdout, encoding="utf-8")
        (outdir / f"{name}.stderr").write_text(proc.stderr, encoding="utf-8")
        (outdir / f"{name}.exit").write_text(f"{proc.returncode}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
