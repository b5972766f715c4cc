"""Layer spans recorded from outside the laserplasma package.

`install` wraps every public function of the layer modules and rebinds the
wrapper in every ``laserplasma*`` namespace that holds the original: the
modules import each other with ``from .x import y``, so patching only the
defining module would miss most calls.  Spans are kept in memory as
``[name, start, end, parent, task, extra]`` lists and written out at the
end of a run.  Times come from ``time.perf_counter``, which on Linux reads
the system-wide monotonic clock, so spans recorded in a child process line
up with the parent's.
"""

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("potential", "perturbation", "oracle", "sweep", "cli")

# A value kept with the span: interior points of a single-grid solve, and
# the error estimate an oracle result reports for itself.
EXTRAS = {
    "oracle.solve_on_grid": lambda args, kwargs, result: (
        args[1] if len(args) > 1 else kwargs["grid"]).n_points,
    "oracle.solve_ground_state": lambda args, kwargs, result: result.error_estimate,
}

NAME, START, END, PARENT, TASK, EXTRA = range(6)


class Tracer:
    """In-memory span recorder; records only while a task is open."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.task, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span, end=None):
        span[END] = time.perf_counter() if end is None else end
        self._stack.pop()

    def begin_task(self, task_id):
        """Open the root span of a task; returns its index."""
        self.task = task_id
        self.open("task")
        return len(self.spans) - 1

    def end_task(self, index, start, end):
        span = self.spans[index]
        span[START] = start
        self.close(span, end)
        self.task = None

    def adopt(self, child_spans, parent_index):
        """Append spans recorded by a child process under one of ours."""
        parent = self.spans[parent_index]
        offset = len(self.spans)
        for name, start, end, child_parent, _, extra in child_spans:
            self.spans.append([name, start, end,
                               parent_index if child_parent < 0 else child_parent + offset,
                               parent[TASK], extra])

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[EXTRA] = extra(args, kwargs, result)
                return result
            finally:
                self.close(span)

        return wrapper


def install(tracer):
    """Wrap the public functions of every layer; returns a function that undoes it."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"laserplasma.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "laserplasma" and not mod_name.startswith("laserplasma."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


def summarize(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, i.e. the part of its interval no child span covers.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span[NAME], {"calls": 0, "incl": 0.0, "self": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["incl"] += duration
        entry["self"] += duration - child_time[index]
    return totals


def has_ancestor(spans, index, name):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def write(path, spans):
    """One JSON list per line: name, start and end in ns after the first span, parent, task, extra."""
    origin = min((span[START] for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, task, extra in spans:
            fh.write(json.dumps([name, round((start - origin) * 1e9), round((end - origin) * 1e9),
                                 parent, task, extra]) + "\n")
