"""Outside-in span tracing of mrcompress layers.

The tracer replaces public functions of the layer modules with wrappers at
the module attribute where each call site looks them up (for example
``cli.decompress_level`` or ``interp.entropy_encode``), so nothing under
``src/`` changes. A wrapper records one span per call: name, start, end,
parent span and iteration id, plus counts taken from the call's arguments
and return value. Spans are kept in memory and reduced to the per-layer
metrics after the run.

Parents follow the call stack of each thread. A span opened on a worker
thread with nothing open on that thread (``cli._level_map`` fans levels
out to a thread pool) takes the span open on the main thread as parent,
because the main thread is blocked waiting for exactly that work.

While ``enabled`` is false the wrappers call straight through, so the
benchmark's own checks can use the program without being traced.
"""

import functools
import inspect
import threading
import tracemalloc
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from time import perf_counter

Span = namedtuple("Span", "id name start end parent iteration op counts")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.iteration = None
        self.op = None
        self.spans = []
        self._lock = threading.Lock()
        self._main_stack = []
        self._local = threading.local()
        self._next_id = 0
        self._mem_users = 0

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _mem_enter(self):
        with self._lock:
            if self._mem_users == 0:
                tracemalloc.start()
            self._mem_users += 1
        tracemalloc.reset_peak()

    def _mem_exit(self):
        peak = tracemalloc.get_traced_memory()[1]
        with self._lock:
            self._mem_users -= 1
            if self._mem_users == 0:
                tracemalloc.stop()
        return peak / 1e6

    def _record(self, sid, name, t0, t1, parent, counts):
        span = Span(sid, name, t0, t1, parent, self.iteration, self.op, counts)
        with self._lock:
            self.spans.append(span)

    def call(self, name, fn, args, kwargs, count=None, mem=False):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = self._new_id()
        stack.append(sid)
        counts = {}
        if mem:
            self._mem_enter()
        t0 = perf_counter()
        try:
            ret = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            if mem:
                counts["peak_MB"] = self._mem_exit()
        if count is not None:
            counts.update(count(args, kwargs, ret))
        self._record(sid, name, t0, t1, parent, counts)
        return ret

    @contextmanager
    def op_span(self, op):
        """Root span around one benchmark op (a CLI command or library step)."""
        self.op = op
        traced = self.enabled
        if traced:
            sid = self._new_id()
            self._main_stack.append(sid)
            t0 = perf_counter()
        try:
            yield
        finally:
            if traced:
                t1 = perf_counter()
                self._main_stack.pop()
                self._record(sid, "op." + op, t0, t1, None, {})
            self.op = None

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, owner, attr, name, count=None, mem=False):
        """Replace ``owner.attr`` by a recording wrapper."""
        static = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, count, mem)

        # a classmethod fetched from its class is already bound to it
        setattr(owner, attr, staticmethod(wrapper) if isinstance(static, classmethod) else wrapper)


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans.

    Children running in parallel on worker threads overlap; their union is
    subtracted once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, edge), min(b, s.end)
            if b > a:
                covered += b - a
                edge = b
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans):
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = table[s.name]
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own[s.id]
    return dict(table)

