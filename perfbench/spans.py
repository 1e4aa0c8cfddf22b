"""In-memory spans, call counting and the summary statistics of the benchmark.

Spans are recorded only around the benchmark's own calls into the package;
nothing inside the package is instrumented.  A traced run uses `Tracer`, an
untraced run `NullTracer`, whose spans cost one no-op context manager.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
import time
from typing import Iterator, Sequence


@dataclasses.dataclass
class Span:
    """One timed call: ``parent`` and ``op`` are indices into the span list."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int
    rhs_calls: int
    jac_calls: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class CallCounter:
    """Counts RHS and Jacobian calls of the models the benchmark passes in.

    `wrap` returns a copy of a `ModelDefinition` (built with
    `dataclasses.replace`) whose ``rhs`` and ``jacobian`` count their calls;
    the package itself is not patched.
    """

    def __init__(self) -> None:
        self.rhs = 0
        self.jac = 0

    def wrap(self, model):
        rhs = model.rhs

        def counted_rhs(X, mu):
            self.rhs += 1
            return rhs(X, mu)

        changes = {"rhs": counted_rhs}
        if model.jacobian is not None:
            jac = model.jacobian

            def counted_jac(X, mu):
                self.jac += 1
                return jac(X, mu)

            changes["jacobian"] = counted_jac
        return dataclasses.replace(model, **changes)


class Tracer:
    """Records spans in memory; a span opened with no parent starts an op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counter = CallCounter()
        self._stack: list[int] = []

    def wrap(self, model):
        return self.counter.wrap(model)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent].op if parent is not None else index
        rhs0, jac0 = self.counter.rhs, self.counter.jac
        record = Span(name, time.perf_counter(), math.nan, parent, op, 0, 0)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            record.rhs_calls = self.counter.rhs - rhs0
            record.jac_calls = self.counter.jac - jac0
            self._stack.pop()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def by_name(self, first: int = 0, last: int | None = None) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for s in self.spans[first:last]:
            out.setdefault(s.name, []).append(s)
        return out


class NullTracer:
    """Tracing off: no spans, no counting, models passed through unchanged."""

    _null = contextlib.nullcontext()

    def wrap(self, model):
        return model

    def span(self, name: str):
        return self._null


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample; with ten samples or fewer there is
    no such percentile and the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n

