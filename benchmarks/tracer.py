"""Spans around the calls one layer of exploressl makes into another.

The tracer replaces module attributes that the calling module looks up by
name at call time (for example ``exploressl.engine.posterior``), so no
program file changes. Spans nest through a stack: a span's self time is its
duration minus the durations of the spans opened inside it, so the self
times of all spans add up to the duration of the outermost one. Durations
are differences of the tracer's clock, which may return any value that adds
and subtracts (measure.py uses one that also counts probe samples).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self, clock: Callable, zero):
        self.clock = clock
        self.self_time = defaultdict(lambda: zero)  # per span name
        self.calls: Counter = Counter()  # per patched "module.attribute"
        self.root = zero  # summed duration of outermost spans
        self._zero = zero
        self._open: list = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, key: Optional[str] = None,
             on_call: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call is a span called `name`. on_call(args,
        result) runs after the span closes, for counts and captures."""
        key = key or name
        opened = self._open
        clock, zero = self.clock, self._zero

        def traced(*args, **kwargs):
            opened.append(zero)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_time[name] += dt - opened.pop()
                self.calls[key] += 1
                if opened:
                    opened[-1] += dt
                else:
                    self.root += dt
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_call: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        key = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, key, on_call))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
