"""Spans around the benchmark's calls into the package's public functions.

A traced run wraps every call the benchmark makes into an ``hsgeom``
module in a span (name, start, end, parent).  Spans stay in memory and are
turned into per-layer figures when the run ends.  An untraced run uses
``NullTracer``, whose ``call`` is a plain call, so end-to-end numbers carry
no tracing cost.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass


def layer_name(fn) -> str:
    """``hsgeom.mixedstates.vol_mixed`` -> ``mixedstates.vol_mixed``."""
    module = getattr(fn, "__module__", "") or ""
    return f"{module.rpartition('.')[2]}.{fn.__name__}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Calls straight through; used for the end-to-end (untraced) run."""

    def call(self, fn, *args, name=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Records one span per call, nested under the innermost open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, fn, *args, name=None, **kwargs):
        with self.span(name or layer_name(fn)):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def names(self) -> set[str]:
        return {s.name for s in self.spans}

    def mean_ms(self, name: str) -> float | None:
        values = self.durations(name)
        return 1e3 * statistics.fmean(values) if values else None
