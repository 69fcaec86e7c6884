"""In-memory span tracer for the traced benchmark run.

The tracer rebinds module attributes: each traced function of quasifit is
replaced by a wrapper at every name it is bound under in any loaded quasifit
module, so a call is recorded whichever module makes it.  Nothing inside
`src/` changes.  A span is kept in memory as [name, parent index, start,
end] and all spans are written out once the run ends.  A layer's self time
is its span time minus the time of its child spans.

Hot helpers that run tens of thousands of times per operation (for example
`axiomatic.support_set` inside `l_convex_sets`) get a counting wrapper
instead: a span per call would make the trace larger and slower than the
work it describes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    # -- installing wrappers -----------------------------------------------

    def trace(self, module, attr: str, name: str, observe: Callable | None = None) -> None:
        """Record a span per call of `module.attr`, at every binding of it."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            rec = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(self, args, result)
            return result

        self._rebind(original, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of `module.attr`, at every binding of it, without spans."""
        original = getattr(module, attr)
        counts = self.counts
        key = name + "_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._rebind(original, wrapper)

    def _rebind(self, original, wrapper) -> None:
        wrapper.__wrapped__ = original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "quasifit" or mod_name.startswith("quasifit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, _parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return dict(total), dict(own)
