"""Spans the benchmark records around calls into the program.

Nothing here changes the program: a traced run replaces a public
function or method with a wrapper that notes when the call started and
ended, attributed to the request the benchmark is currently driving.
Spans stay in memory and are summed per request when the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable


class SpanLog:
    """In-memory ``(request, name, start, end)`` records."""

    def __init__(self) -> None:
        self.records: list[tuple[Any, str, float, float]] = []
        self.current: Any = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.records.append(
                    (self.current, name, start, time.perf_counter())
                )

        traced.__wrapped_span__ = name
        return traced

    def take(self) -> list[tuple[str, float, float]]:
        """Hand over and forget the records, without the request field."""
        taken = [(name, start, end) for _, name, start, end in self.records]
        self.records.clear()
        return taken

    def totals(self) -> dict[Any, dict[str, float]]:
        """Seconds per span name, summed per request."""
        out: dict[Any, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for request, name, start, end in self.records:
            out[request][name] += end - start
        return out


def patch(owner: Any, attribute: str, name: str, log: SpanLog) -> Callable[[], None]:
    """Wrap ``owner.attribute`` in a span; returns a function undoing it.

    ``owner`` may be a module, a class or an instance.  An attribute that
    is already wrapped is left alone (and the undo does nothing).
    """
    current = getattr(owner, attribute)
    if getattr(current, "__wrapped_span__", None) is not None:
        return lambda: None
    own = vars(owner)
    had_own = attribute in own
    original = own.get(attribute)
    setattr(owner, attribute, log.wrap(name, current))

    def undo() -> None:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)

    return undo
