"""In-memory spans recorded around calls into the package's public functions.

A span holds a name, start and end (time.perf_counter, which is the
system-wide monotonic clock on Linux, so spans from different processes of
one run line up), the id of the span that was open when it started, and
free-form counts. Spans stay in memory until the process writes them out at
the end. The tracer is single-threaded: it is never installed around code
that runs on a thread pool.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, proc: str) -> None:
        self.proc = proc
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {"proc": self.proc, "id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None}
        record.update(counts)
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace module.attr with a version that records a span per call.

        `counts(args, result)` returns extra fields for the span. Names that
        the module no longer has are skipped, so a refactor that removes a
        function leaves its span empty instead of breaking the benchmark.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.update(counts(args, result))
            return result

        setattr(module, attr, traced)

    def tally(self, module, attr: str, field: str) -> None:
        """Replace module.attr with a version that adds its time and call count
        to the innermost open span (fields `<field>_s` and `<field>_calls`).

        For functions called too often to give each call a span of its own.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._open:
                    record = self.spans[self._open[-1]]
                    record[f"{field}_s"] = record.get(f"{field}_s", 0.0) + time.perf_counter() - started
                    record[f"{field}_calls"] = record.get(f"{field}_calls", 0) + 1

        setattr(module, attr, tallied)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans, name: str, proc: str | None = None) -> float:
    return sum((duration(s) for s in spans if s["name"] == name and (proc is None or s["proc"] == proc)), 0.0)


def count(spans, name: str, field: str, proc: str | None = None) -> int:
    return sum(s.get(field, 0) for s in spans if s["name"] == name and (proc is None or s["proc"] == proc))
