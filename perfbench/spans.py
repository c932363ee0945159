"""Span tracing of shiftbinom from outside the package.

The tracer wraps the public functions of each ``shiftbinom`` module in every
``shiftbinom.*`` namespace that binds them (the CLI imports several names
directly, so patching the defining module alone would miss those calls).
Spans are kept in memory as (name, start, end, parent, request) plus an
error flag and a work size, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

# Layers are named after the modules; "import" is the span the traced CLI
# entry script records around ``import shiftbinom.cli``.
LAYERS = {
    "ensemble": ("make_ensemble", "ensemble_from_spec", "read_probs_file", "moments"),
    "distributions.exact": ("exact_pmf",),
    "distributions.fit": ("fit_shifted_binomial",),
    "distributions.approx": (
        "poisson_pmf", "shifted_poisson_pmf", "one_param_binomial_pmf",
        "two_param_binomial_pmf", "discretized_normal_pmf", "shifted_binomial_pmf",
    ),
    "metrics": ("tv_distance", "loc_distance"),
    "bounds": ("theorem_bounds", "corollary_bounds", "ehm_bound", "two_param_bound"),
    "cli": ("run_sweep", "approximation_pmf", "main", "pmf_csv", "sweep_csv", "import"),
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}

# Approximation PMF functions grouped by family, for the per-family self times.
APPROX_FAMILIES = {
    "poisson": ("poisson_pmf", "shifted_poisson_pmf"),
    "binomial": ("one_param_binomial_pmf", "two_param_binomial_pmf", "shifted_binomial_pmf"),
    "normal": ("discretized_normal_pmf",),
}

REQUEST = "request"  # name of the root span of one request


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root
    request: int
    error: bool
    size: int  # work done: m for exact_pmf, cells produced or compared otherwise


def shiftbinom_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "shiftbinom" or key.startswith("shiftbinom."))]


def patch(name: str, make_wrapper: Callable, modules: list | None = None) -> list[tuple]:
    """Replace ``name`` in every loaded shiftbinom module that binds it.

    Returns (module, name, previous value) triples for :func:`unpatch`.
    """
    wrappers: dict[int, Callable] = {}
    patched = []
    for mod in shiftbinom_modules() if modules is None else modules:
        fn = vars(mod).get(name)
        if not callable(fn):
            continue
        if id(fn) not in wrappers:
            wrappers[id(fn)] = make_wrapper(fn)
        setattr(mod, name, wrappers[id(fn)])
        patched.append((mod, name, fn))
    return patched


def unpatch(patched: list[tuple[object, str, object]]) -> None:
    for mod, name, fn in reversed(patched):
        setattr(mod, name, fn)


def _size(name: str, args: tuple, result: object) -> int:
    """Work size of one call, read from O(1) attributes only."""
    if name == "exact_pmf" and args:
        return len(args[0].probs)
    if LAYER_OF.get(name) == "distributions.approx" and result is not None:
        return len(result.pmf)
    if LAYER_OF.get(name) == "metrics" and len(args) >= 2:
        a, b = args[0], args[1]
        return max(a.support_max, b.support_max) - min(a.support_min, b.support_min) + 1
    return 0


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.request = 0
        self._stack: list[int] = []
        self._starts: dict[int, float] = {}
        self._patched: list = []

    def begin(self, at: float | None = None) -> int:
        """Open a span; ``at`` is a start time the caller took before any tracer work."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._starts[idx] = perf_counter() if at is None else at
        return idx

    def end(self, idx: int, name: str, error: bool = False, size: int = 0,
            at: float | None = None) -> None:
        t = perf_counter() if at is None else at
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, self._starts.pop(idx), t, parent, self.request, error, size)

    @contextmanager
    def span(self, name: str):
        idx = self.begin()
        try:
            yield
        except BaseException:
            self.end(idx, name, error=True)
            raise
        self.end(idx, name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, name, error=True)
                raise
            t = perf_counter()
            self.end(idx, name, size=_size(name, args, result), at=t)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every listed function; returns the names found nowhere."""
        missing = []
        modules = shiftbinom_modules()
        for name in LAYER_OF:
            if name == "import":
                continue
            found = patch(name, functools.partial(self._wrap, name), modules)
            self._patched += found
            if not found:
                missing.append(name)
        return missing

    def uninstall(self) -> None:
        unpatch(self._patched)
        self._patched = []

    def extend(self, rows: list, request: int) -> None:
        """Append spans recorded by another process, renumbering parents."""
        base = len(self.spans)
        for name, start, end, parent, _req, error, size in rows:
            self.spans.append(Span(name, start, end, parent + base if parent >= 0 else -1,
                                   request, bool(error), int(size)))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out
