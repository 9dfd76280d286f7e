"""Span recorder for the traced run: wraps public functions from outside.

The benchmark never edits the program. In a traced block it replaces a
list of public functions and methods with thin wrappers that record one
span per call — name, layer, start, end and parent — into an in-memory
list, and restores the originals afterwards. Spans nest through a stack
(every traced call runs on the benchmark's one thread), so a span's
parent is the traced call that was open when it started, and its *self
time* is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Target:
    """One traced boundary: ``owner.attr`` recorded as span *name* in
    *layer*. ``on_result(args, kwargs, result, recorder)`` may bump
    counters from the call's arguments and return value."""

    owner: Any
    attr: str
    name: str
    layer: str
    on_result: Callable | None = None


@dataclass
class SpanRecorder:
    """Spans as ``[name, layer, start_ns, end_ns, parent_index, ok]``
    rows plus free-form counters set by result hooks."""

    clock: Callable[[], int] = time.perf_counter_ns
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, name: str, layer: str) -> list:
        span = [name, layer, self.clock(), 0,
                self._stack[-1] if self._stack else -1, True]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, ok: bool = True) -> None:
        span[3] = self.clock()
        span[5] = ok
        self._stack.pop()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self
        name, layer, hook = target.name, target.layer, target.on_result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name, layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                recorder.close(span, ok)
            if hook is not None:
                hook(args, kwargs, result, recorder)
            return result
        return traced

    # -- analysis -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus direct children's spans."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        return own

    def by_name(self) -> dict[str, dict]:
        """``name -> {layer, count, failed, total_ns, self_ns, durations}``."""
        own = self.self_ns()
        rows: dict[str, dict] = {}
        for span, self_time in zip(self.spans, own):
            row = rows.get(span[0])
            if row is None:
                row = rows[span[0]] = {"layer": span[1], "count": 0,
                                       "failed": 0, "total_ns": 0,
                                       "self_ns": 0, "durations": []}
            duration = span[3] - span[2]
            row["count"] += 1
            row["failed"] += 0 if span[5] else 1
            row["total_ns"] += duration
            row["self_ns"] += self_time
            row["durations"].append(duration)
        return rows

    def root_ns(self) -> int:
        """Total duration of the root spans (equals the sum of every
        span's self time)."""
        return sum(span[3] - span[2] for span in self.spans if span[4] < 0)

    def write_jsonl(self, path) -> int:
        """Write every span as gzipped JSON lines — a header naming the
        fields, then one array per span (its index is its id; parent
        -1 marks a root). Returns spans written."""
        with gzip.open(path, "wt", compresslevel=6) as out:
            out.write(json.dumps({"fields": ["name", "layer", "start_ns",
                                             "end_ns", "parent", "ok"]})
                      + "\n")
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
        return len(self.spans)


def layer_totals(rows: dict[str, dict]) -> dict[str, dict]:
    """``layer -> {count, failed, self_ns}`` from :meth:`SpanRecorder.
    by_name` rows."""
    layers: dict[str, dict] = {}
    for row in rows.values():
        agg = layers.setdefault(row["layer"], {"count": 0, "failed": 0,
                                               "self_ns": 0})
        agg["count"] += row["count"]
        agg["failed"] += row["failed"]
        agg["self_ns"] += row["self_ns"]
    return layers


def _aliases(fn: Callable) -> list[tuple[Any, str]]:
    """Every ``repro.*`` module global bound to the function *fn* — a
    module-level function is called through whichever module imported
    it by name, so each alias is patched."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if value is fn:
                found.append((module, attr))
    return found


class Patched:
    """Context manager installing a recorder's wrappers on *targets*
    and restoring every original on exit."""

    def __init__(self, recorder: SpanRecorder, targets: list[Target]):
        self.recorder = recorder
        self.targets = targets
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patched":
        for target in self.targets:
            raw = vars(target.owner).get(target.attr) \
                if isinstance(target.owner, type) else None
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self.recorder.wrap(raw.__func__, target))
                self._set(target.owner, target.attr, wrapped)
            elif isinstance(target.owner, type):
                self._set(target.owner, target.attr,
                          self.recorder.wrap(raw, target))
            else:
                fn = getattr(target.owner, target.attr)
                wrapped = self.recorder.wrap(fn, target)
                for module, attr in _aliases(fn):
                    self._set(module, attr, wrapped)
        return self

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
