"""In-memory spans and objective-call accounting for the traced benchmark run.

Spans are opened by the benchmark around each public flatmin call it makes;
nothing inside the package is patched. Objective callables are counted and
timed through wrappers that the benchmark installs with
``dataclasses.replace`` before handing the objective to the package.

A span opened with ``part_of`` re-measures work that an earlier call did out
of the tracer's sight (the replay of a run's trace-at-limit solves at its
logged iterates). Its time and objective calls are moved out of that earlier
span when self times are computed, so each piece of work is counted once.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

MODULES = ("objectives", "geometry", "flow", "optimizers", "oracle", "cli")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    remeasures: bool
    obj_calls: int = 0
    obj_s: float = 0.0

    @property
    def module(self) -> str:
        head = self.name.split(".", 1)[0]
        return head if head in MODULES else "bench"


class Tracer:
    """Collects spans and objective-call counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = ""
        self.spans: list[Span] = []
        self.calls: dict[str, list] = {}
        self._stack: list[Span] = []
        self._index: list[int] = []
        self.wrap_cost_s = self._calibrate() if enabled else 0.0

    @contextmanager
    def span(self, name: str, part_of: int | None = None):
        """Record one span; yields its index (None when disabled)."""
        if not self.enabled:
            yield None
            return
        parent = part_of if part_of is not None else (self._index[-1] if self._index else None)
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), 0.0, parent, self.run_id, part_of is not None)
        self.spans.append(sp)
        self._stack.append(sp)
        self._index.append(idx)
        try:
            yield idx
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._index.pop()

    def wrap_objective(self, obj):
        """Copy of ``obj`` whose callables are counted and timed (``obj`` itself when disabled)."""
        if not self.enabled:
            return obj
        changes = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                changes[f.name] = self.wrap_objective(value)
            elif callable(value):
                changes[f.name] = self._wrap(f.name, value)
        return dataclasses.replace(obj, **changes)

    def _wrap(self, name: str, fn):
        acc = self.calls.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            acc[0] += 1
            acc[1] += dt
            if stack:
                top = stack[-1]
                top.obj_calls += 1
                top.obj_s += dt
            return out

        return wrapped

    def _calibrate(self, n: int = 20_000, reps: int = 5) -> float:
        """Per-call cost of a wrapper beyond the wrapped call, subtracted from span durations."""

        def plain(x):
            return x

        wrapped = self._wrap("calibration", plain)
        diffs = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(n):
                plain(1)
            t1 = time.perf_counter()
            for _ in range(n):
                wrapped(1)
            t2 = time.perf_counter()
            diffs.append(((t2 - t1) - (t1 - t0)) / n)
        del self.calls["calibration"]
        return max(0.0, statistics.median(diffs))

    # ----- analysis -------------------------------------------------------

    def analyse(self) -> "SpanTree":
        return SpanTree(self.spans, self.wrap_cost_s)

    def dump(self, path: Path, extra: dict) -> None:
        data = {
            **extra,
            "wrap_cost_s": self.wrap_cost_s,
            "objective_calls": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.calls.items()},
            "spans": [dataclasses.asdict(s) for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))


class SpanTree:
    """Durations corrected for wrapper cost, and self time per span.

    A span's corrected duration is its wall time less the wrapper cost of the
    objective calls made inside it. Its self time is the corrected duration
    less that of its children and less the time inside objective callables;
    a re-measuring child's objective calls are also taken out of its parent's.
    """

    def __init__(self, spans: list[Span], wrap_cost_s: float):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(i)
        n = len(spans)
        self.inner_calls = [0] * n  # objective calls during the span's own interval
        self.sub_calls = [0] * n  # objective calls in the span and all its descendants
        self.sub_obj_s = [0.0] * n
        for i in reversed(range(n)):  # children always follow their parent
            s = spans[i]
            inner, sub, sub_s = s.obj_calls, s.obj_calls, s.obj_s
            for j in self.children.get(i, ()):
                if not spans[j].remeasures:
                    inner += self.inner_calls[j]
                sub += self.sub_calls[j]
                sub_s += self.sub_obj_s[j]
            self.inner_calls[i], self.sub_calls[i], self.sub_obj_s[i] = inner, sub, sub_s
        self.dur = [s.end - s.start - wrap_cost_s * self.inner_calls[i] for i, s in enumerate(spans)]
        self.own_calls = [s.obj_calls for s in spans]
        self.own_obj_s = [s.obj_s for s in spans]
        for i, s in enumerate(spans):
            if s.remeasures:
                self.own_calls[s.parent] -= self.sub_calls[i]
                self.own_obj_s[s.parent] -= self.sub_obj_s[i]

    def self_s(self, i: int) -> float:
        kids = sum(self.dur[j] for j in self.children.get(i, ()))
        return self.dur[i] - kids - self.own_obj_s[i]

    def indices(self, run_ids, name: str | None = None) -> list[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s.run_id in run_ids and (name is None or s.name == name)
        ]

    def module_self_s(self, run_ids) -> dict[str, float]:
        """Self time per module over the spans of ``run_ids``; callables count as objectives."""
        out = {m: 0.0 for m in (*MODULES, "bench")}
        for i in self.indices(run_ids):
            out[self.spans[i].module] += self.self_s(i)
            out["objectives"] += self.own_obj_s[i]
        return out

    def objective_calls(self, run_ids) -> int:
        return sum(self.own_calls[i] for i in self.indices(run_ids))
