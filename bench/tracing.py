"""In-memory spans around the calls the program makes into its modules.

``Tracer.install`` replaces every public bjjctrl function that a module's
namespace holds with a wrapper, under the name that module's code looks it
up by: ``bjjctrl.cli.propagate`` is the RK4 propagator as the CLI calls it,
``bjjctrl.optimal_control.maximize`` is the optimiser as ``minimum_time``
calls it.  Each call records one span (id, parent id, task id, lookup name,
defining module, function, start, end) plus the counts its result carries.
Nothing in the program changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

#: Counts read off a function's result at the span where the work happens.
_RESULT_COUNTS = {
    "propagate": lambda traj: {"rk4_steps": traj.times.size - 1},
    "maximize": lambda res: {"iterations": res.iterations},
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, task, name, module, function, start, end, counts)
        self.task = None
        self._stack = []
        self._patched = []

    def install(self, modules):
        for mod in modules:
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or not fn.__module__.startswith("bjjctrl.")
                ):
                    continue
                setattr(mod, name, self._wrap(f"{mod.__name__}.{name}", fn))
                self._patched.append((mod, name, fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _wrap(self, label, fn):
        module = fn.__module__.rpartition(".")[2]
        function = fn.__name__
        counts_of = _RESULT_COUNTS.get(function)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            counts = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counts_of is not None:
                    counts = counts_of(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (span_id, parent, self.task, label, module, function, start, end, counts)
                )

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Spans as JSON, times in seconds from the first span's start."""
        t0 = min((s[6] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, task, name, start - t0, end - t0, counts]
            for sid, parent, task, name, _mod, _fn, start, end, counts in sorted(self.spans)
        ]
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "task", "name", "start", "end", "counts"],
                       "spans": rows}, f, separators=(",", ":"))


def summarize(spans):
    """Per module self time, and per function call count, total time and counts.

    A span's self time is its duration minus the durations of its child
    spans; calls are sequential, so the children never overlap.
    """
    child_time = defaultdict(float)
    for _sid, parent, *_rest, start, end, _counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total_s = defaultdict(float)
    counts = defaultdict(int)
    for sid, _parent, _task, _name, module, function, start, end, span_counts in spans:
        self_s[module] += (end - start) - child_time[sid]
        key = f"{module}.{function}"
        calls[key] += 1
        total_s[key] += end - start
        for name, value in (span_counts or {}).items():
            counts[f"{module}.{name}"] += value
    return {"self_s": self_s, "calls": calls, "total_s": total_s, "counts": counts}
