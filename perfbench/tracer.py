"""In-memory call tracer for the benchmark.

A :class:`Tracer` replaces a function under the name a calling module bound
it to (``edgestat.gm.canonical_form``, not ``edgestat.poly.canonical_form``),
so the program's own files stay untouched.  Every traced call records one
span: layer name, start and end (integer nanoseconds, so self times are
exact), the enclosing traced span, and optional attributes computed from the
arguments and result after the clock has stopped.

Spans stay in memory.  Worker processes forked by ``multiprocessing`` (the
G(m) enumerator's pool) inherit the wrappers; each worker drops the spans it
inherited and writes its own to ``spool_dir`` when it exits, and
:meth:`Tracer.collect_workers` merges them back.
"""

from __future__ import annotations

import functools
import glob
import json
import multiprocessing.util
import os
from time import perf_counter_ns

# Span fields, stored as a list per span.
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, spool_dir: str):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._spool_dir = spool_dir
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced
        version recording spans called ``name``.

        ``describe(args, kwargs, result)`` may return a dict of attributes.
        """
        original = _get(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack  # replaced in forked workers
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if describe is not None:
                span[ATTRS] = describe(args, kwargs, result)
            return result

        _set(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap(self) -> list[str]:
        """Put every original back; return the names that did not come back."""
        for owner, attr, original in reversed(self._patched):
            _set(owner, attr, original)
        missing = [attr for owner, attr, original in self._patched if _get(owner, attr) is not original]
        self._patched = []
        return missing

    # -- worker processes ---------------------------------------------------

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []
        multiprocessing.util.Finalize(self, self._spool, exitpriority=0)

    def _spool(self) -> None:
        path = os.path.join(self._spool_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def collect_workers(self) -> None:
        """Append the spans every exited worker wrote."""
        for path in sorted(glob.glob(os.path.join(self._spool_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                worker_spans = json.load(fh)
            os.remove(path)
            offset = len(self.spans)
            for span in worker_spans:
                if span[PARENT] >= 0:
                    span[PARENT] += offset
                self.spans.append(span)

    # -- summaries ------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
