"""In-memory span recorder that wraps brickeval's public functions from outside.

A wrapper replaces a function in the module that calls it (for example
``brickeval.rewards.parse_structure``), so the program is unchanged and
only calls that go through that name are recorded. Each span holds its
name, start, end, parent span, request id, an optional work count (such
as bricks) and an optional outcome tag. Spans stay in memory until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable

from perfstats import self_times

# Span record fields, by position.
NAME, START, END, PARENT, RID, COUNT, TAG = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._rid: Any = None
        self._restore: list[tuple[object, str, Callable]] = []

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        count: Callable[[tuple, Any], int] | None = None,
        tag: Callable[[tuple, Any], str] | None = None,
        rid: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Record a span around every call of ``module.attr``.

        ``count`` and ``tag`` derive the work count and outcome from the
        arguments and result; ``rid`` gives the request id of a root span,
        which its descendants inherit.
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack and rid is not None:
                self._rid = rid(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._rid, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record[TAG] = "raised"
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
            if count is not None:
                record[COUNT] = count(args, result)
            if tag is not None:
                record[TAG] = tag(args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()

    def self_times(self) -> list[float]:
        return self_times([(s[START], s[END], s[PARENT]) for s in self.spans])

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "rid", "count", "tag")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def durations(tracer: Tracer, name: str, tag: str | None = None) -> list[float]:
    return [s[END] - s[START] for s in tracer.spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)]


def self_durations(tracer: Tracer, selfs: list[float], name: str,
                   tag: str | None = None) -> list[float]:
    return [selfs[i] for i, s in enumerate(tracer.spans)
            if s[NAME] == name and (tag is None or s[TAG] == tag)]


def per_unit(tracer: Tracer, name: str) -> float:
    """Total span time per counted unit (for example seconds per brick)."""
    total_time = 0.0
    total_count = 0
    for s in tracer.spans:
        if s[NAME] == name and s[COUNT]:
            total_time += s[END] - s[START]
            total_count += s[COUNT]
    return total_time / total_count if total_count else 0.0
