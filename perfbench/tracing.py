"""In-memory spans recorded around calls into ``mdvalidate_ray`` modules.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (or -1); every span of one benchmark run shares the
tracer's ``run_id``.  A layer's self time is its span minus the time its
child spans cover.  Spans stay in memory and are written out once, at the
end of the run.

Spans come from wrapping public functions at the module boundary: the
attribute is replaced on every module that holds a reference to it (a
``from x import f`` binds its own name), and :meth:`Tracer.restore` puts
the originals back.  Only calls that execute in this process are seen;
work inside Ray workers is not.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, owners: list, attr: str, then=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr`` for
        each owner (a module or class holding the same callable).
        ``then`` post-processes the result inside the span, e.g. to
        execute a lazy Dataset where its cost belongs."""
        orig = getattr(owners[0], attr)

        def traced(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
                return then(out) if then is not None else out

        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back the originals of every wrap."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def totals(self, within: str | None = None) -> dict:
        """name -> {"calls", "total_s", "self_s"} over the finished
        spans; with ``within``, over those nested in a span of that
        name."""
        child_s = defaultdict(float)
        inside = []
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_s[parent] += end - start
            inside.append(within is None or parent >= 0 and (
                inside[parent] or self.spans[parent][0] == within))
        out: dict = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            if end is None or not inside[idx]:
                continue
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child_s[idx]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)
