"""Span recording around calls into gdbound's public functions.

The tracer wraps module attributes from outside the library: every
reference to a wrapped function held by a loaded gdbound module is
rebound to a wrapper, so calls made inside the package (for example
`macroauc.cv_select` calling `train_sgd`) are seen too.  A wrapper records
a span only while an op is open; outside an op it calls straight through,
so the benchmark's own output checks leave no spans.

Spans are kept in memory as tuples (name, start, end, parent, op_id) and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class BenchError(RuntimeError):
    """The benchmark itself cannot run as specified (not a program failure)."""


OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, op_id)
        self.counts = defaultdict(float)   # name -> total over recorded ops
        self.raised = defaultdict(int)     # (name, exception class) -> count
        self._stack: list[int] = []
        self._op_id = None
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def install(self, targets):
        """Wrap each (module, attribute, span name, count hook) target.

        A missing module attribute is a BenchError: a renamed layer must be
        noticed, never silently dropped from the trace.
        """
        for module_name, attr, span_name, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise BenchError(f"traced name {module_name}.{attr} is missing")
            wrapper = self._wrap(span_name, original, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("gdbound"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counts[key] += value
            return result
        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one op; wrapped calls inside it become its children."""
        self._op_id = op_id
        idx = self._open(OP)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = None

    # ------------------------------------------------------------ analysis

    def self_times(self):
        """{name: (total inclusive seconds, total self seconds, calls)}.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child_time[idx]
            row[2] += 1
        return {name: tuple(row) for name, row in out.items()}

    def as_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op_id": o}
                for n, s, e, p, o in self.spans]
