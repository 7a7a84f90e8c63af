"""Spans around calls into hyperbisect's public functions, recorded from outside.

Each public function is wrapped at the module attribute through which its
caller looks it up: ``verdicts`` imports ``ideal_member`` by name,
``momentcurve`` calls ``poly.count_roots_open`` and the CLI imports most
library functions by name, so one function can sit behind several
attributes.  Private helpers (``_soft_imbalance`` and the like) are not
wrapped.

A span records its name, start, end, parent span and operation id.  Self
time is a span's duration minus the time its child spans cover; it is
accumulated while the run goes, in integer nanoseconds, so it is exact.
Per-name totals cover every span; the span log itself keeps the first
``span_cap`` spans, because a verdict sweep makes millions of
``ideal_member`` calls.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from fractions import Fraction

# (module, attribute, span name)
WRAPPED = (
    ("hyperbisect.verdicts", "ideal_member", "gf2poly.ideal_member"),
    ("hyperbisect.cli", "ideal_member", "gf2poly.ideal_member"),
    ("hyperbisect.cli", "surviving_monomials", "gf2poly.surviving_monomials"),
    ("hyperbisect.gf2poly", "multinomial_parity", "parity.multinomial_parity"),
    ("hyperbisect.cli", "equal_blocks_parity", "parity.equal_blocks_parity"),
    ("hyperbisect.cli", "anchored_blocks_parity",
     "parity.anchored_blocks_parity"),
    ("hyperbisect.verdicts", "verdict", "verdicts.verdict"),
    ("hyperbisect.cli", "verdict", "verdicts.verdict"),
    ("hyperbisect.verdicts", "certificate_checks",
     "verdicts.certificate_checks"),
    ("hyperbisect.verdicts", "frontier_table", "verdicts.frontier_table"),
    ("hyperbisect.cli", "frontier_table", "verdicts.frontier_table"),
    ("hyperbisect.polynomials", "count_roots_open",
     "polynomials.count_roots_open"),
    ("hyperbisect.momentcurve", "hyperplane_through",
     "momentcurve.hyperplane_through"),
    ("hyperbisect.momentcurve", "verify_bisection",
     "momentcurve.verify_bisection"),
    ("hyperbisect.momentcurve", "enumerate_bisections",
     "momentcurve.enumerate_bisections"),
    ("hyperbisect.cli", "enumerate_bisections",
     "momentcurve.enumerate_bisections"),
    ("hyperbisect.cli", "count_bisections", "momentcurve.count_bisections"),
    ("hyperbisect.testmap", "solve_bisection", "testmap.solve_bisection"),
    ("hyperbisect.cli", "solve_bisection", "testmap.solve_bisection"),
    ("hyperbisect.testmap", "phi", "testmap.phi"),
    ("hyperbisect.cli", "frontier_svg", "figures.frontier_svg"),
    ("hyperbisect.cli", "main", "cli.main"),
)


def _roots_key(args, result):
    p, a, b = args
    return tuple(p), Fraction(a), Fraction(b)


def _hyperplane_key(args, result):
    return result.normal, result.offset


# span name -> function of (args, result) giving the key of distinct work
DISTINCT = {
    "polynomials.count_roots_open": _roots_key,
    "momentcurve.hyperplane_through": _hyperplane_key,
}

# span name -> function of result giving an amount added to a counter
COUNTED = {
    "testmap.solve_bisection": lambda result: result.restarts_used,
    "momentcurve.enumerate_bisections": len,
}


class Tracer:
    """Records spans while installed; restores every attribute on exit."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, op, self_ns)
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.counted: dict[str, int] = {name: 0 for name in COUNTED}
        self.op_id: int | None = None
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    def _open(self) -> tuple[list[int], int | None]:
        frame = [self._next_id, 0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start, end) -> None:
        self._stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], name, start, end, parent, self.op_id,
                               dur - frame[1]))

    @contextlib.contextmanager
    def span(self, name: str, op_id: int | None = None):
        """A span opened by the harness itself, e.g. one per operation."""
        if op_id is not None:
            self.op_id = op_id
        frame, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, frame, parent, start, time.perf_counter_ns())

    def wrap(self, name: str, fn):
        distinct = DISTINCT.get(name)
        counted = COUNTED.get(name)

        def traced(*args, **kwargs):
            frame, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent, start,
                            time.perf_counter_ns())
            if distinct is not None:
                self.distinct[name].add(distinct(args, result))
            if counted is not None:
                self.counted[name] += counted(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "self_ns": self_ns}) + "\n")
