"""Per-layer spans recorded from outside the twinbeam package.

While a :class:`Tracer` is installed, each public twinbeam function that
a layer module binds at module level is replaced, at that binding, by a
wrapper that records a span: name, start, end, parent span and
invocation id.  ``TwoQubitDM`` construction and validation and the
report renderers are wrapped on their classes.  Spans are named after
the module that defines the function (``interferometer.run_network``),
so one function bound in several modules gives one span name.

Spans stay in memory; the caller writes them out.  A span's self time
is its duration minus the durations of its direct children, so the self
times of one pass add up to the duration of its root span.
"""

from __future__ import annotations

import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from twinbeam import cli, fock, interferometer, metrics, reporting, scenarios

LAYERS = ("fock", "interferometer", "metrics", "scenarios", "reporting", "cli")

#: the benchmark's own span around one pass; its self time is what no layer covers
ROOT = "bench.pass"

SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "invocation")

_MODULES = (cli, scenarios, interferometer, metrics, fock, reporting)
_METHODS = (
    (metrics.TwoQubitDM, "__post_init__", "metrics.TwoQubitDM"),
    (metrics.TwoQubitDM, "validate", "metrics.validate"),
    (reporting.ScenarioReport, "to_json", "reporting.render"),
    (reporting.ScenarioReport, "to_csv", "reporting.render"),
    (reporting.ScenarioReport, "to_table", "reporting.render"),
)


class Tracer:
    """Spans and counts of one traced pass; install it with ``with``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.invocation = -1
        self._stack: list[int] = []
        self._inputs: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, invocation: int) -> None:
        """Mark the start of one CLI invocation within the pass."""
        self.invocation = invocation
        self._inputs.clear()

    @contextmanager
    def root(self):
        """The span around one pass."""
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.invocation])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module in _MODULES:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("twinbeam."):
                    continue
                name = f"{fn.__module__.removeprefix('twinbeam.')}.{fn.__name__}"
                self._patch(module, attr, self.wrap(name, fn, _COUNTERS.get(name)))
        for cls, attr, name in _METHODS:
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)


def _count_run_network(tracer: Tracer, args, result) -> None:
    net, state = args[0], args[1]
    tracer.counts["monomials_out"] += len(result.terms)
    tracer.counts["run_network_calls"] += 1
    key = (net, state.statistics, frozenset(state.terms.items()))
    if key not in tracer._inputs:
        tracer._inputs.add(key)
        tracer.counts["distinct_propagations"] += 1


def _count_detect(tracer: Tracer, args, result) -> None:
    tracer.counts["branches"] += len(result)


_COUNTERS = {
    "interferometer.run_network": _count_run_network,
    "interferometer.detect": _count_detect,
}


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter]:
    """Total self time and call count for each span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for (name, start, end, _, _), child in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start - child)
        calls[name] += 1
    return totals, calls
