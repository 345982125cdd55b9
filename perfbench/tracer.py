"""In-memory span tracer that times calls into a package from outside it.

``Tracer.install`` replaces module attributes of the traced package with
timing wrappers, including every name a module rebound with
``from ... import``; otherwise a call through such a name would bypass the
wrapper and its time would land in the caller.  Spans stay in memory until
the caller writes them out.

A span is ``[sid, name, start, end, parent, thread, counts]``.  Parent
stacks are per thread.  A span that starts on a thread with nothing open
(a worker of a thread pool) takes as parent the innermost span open on the
thread that created the tracer, which is the code that submitted the work.
"""

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._ids = itertools.count()
        self._stacks = {}
        self._home = threading.get_ident()
        self._patched = []

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(args, kwargs, result)`` may return a dict of counts that is
        stored on the span of a call that returned.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home, ())[-1:]
                parent = home[0] if home else None
            sid = next(self._ids)
            stack.append(sid)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._record(sid, name, start, self._clock(), parent, stack,
                             None)
                raise
            end = self._clock()
            counts = None if count is None else count(args, kwargs, result)
            self._record(sid, name, start, end, parent, stack, counts)
            return result

        return traced

    def _record(self, sid, name, start, end, parent, stack, counts):
        stack.pop()
        self.spans.append([sid, name, start, end, parent,
                           threading.get_ident(), counts])

    def install(self, package, targets):
        """Wrap each ``(module, function, count)`` of ``package``.

        ``module`` is relative to the package; every attribute of a loaded
        submodule that is the same function object is replaced too.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == package or n.startswith(package + "."))]
        for module_name, fn_name, count in targets:
            module = sys.modules[f"{package}.{module_name}"]
            original = getattr(module, fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id to its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children[sid]]
        covered = _union_length([(a, b) for a, b in clipped if b > a])
        out[sid] = (end - start) - covered
    return out
