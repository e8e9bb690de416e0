"""In-memory span tracer that wraps public functions from outside the
program: nothing under ``src/`` changes, the traced run just replaces module
attributes and methods for its duration and puts them back afterwards."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional

NAME, START, END, PARENT, COUNTS = range(5)

# count(result, args, kwargs) -> {counter: value} or None, evaluated after
# the span's end time is taken so it does not inflate the span itself.
CountFn = Callable[[Any, tuple, dict], Optional[dict]]


class Tracer:
    """Spans are lists [name, start, end, parent index, counts]; index -1 is
    the root. All spans of one workload run share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        """Context manager for a span the caller opens itself; yields its
        index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1],
                           None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, count: Optional[CountFn] = None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][COUNTS] = count(result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "counts": counts})
                         + "\n")


@contextmanager
def patched(targets: list[tuple[Any, str, Callable]]):
    """Set ``owner.attr = replacement`` for each target; restore on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END])
                             for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def descendants(spans: list[list], root: int) -> list[int]:
    """Indices of every span under ``root`` (spans are appended in open
    order, so a subtree is a contiguous run after its root)."""
    out = []
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] not in inside:
            break
        inside.add(i)
        out.append(i)
    return out
