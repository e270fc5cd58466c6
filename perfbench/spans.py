"""Span tracing of the dfsmn package from outside it.

A `Tracer` replaces package functions with wrappers that record one span per
call: boundary name, parent span, the id of the request (utterance, training
run, model load) the call belongs to, start and end. Spans stay in memory
and are written out when the run ends; per-boundary totals are computed from
them afterwards, so a traced call costs two clock reads and a list append.

Each wrapper is installed at every module attribute that holds the original
function object, because that is where callers look it up: `network` calls
`L.dfsmn_layer_forward` through its alias of `layers`, while `model_io` and
`trainer` imported `build_network` by name. A boundary whose function no
longer exists is reported as absent instead of failing the run.

Times are integer nanoseconds, so self-time arithmetic is exact: over any
set of completed root spans, the self times of all spans add up to the
roots' total duration.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# fields of one span record (a list, for a cheap append)
NAME, PARENT, REQUEST, START, END, FLOPS, BYTES, COST_ERROR = range(8)


@dataclass
class Boundary:
    """One traced layer boundary: a display name and the functions behind it.

    `targets` are (module, attribute) pairs such as ("dfsmn.layers",
    "memory_block"). `cost`, when given, maps (args, kwargs, result) to
    (flops, bytes) for the work done in the boundary's own (self) time.
    """

    name: str
    targets: tuple
    cost: object = None


@dataclass
class Stats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    flops: int = 0
    bytes: int = 0
    cost_errors: int = 0


@dataclass
class Tracer:
    """Records spans for every call through an installed boundary."""

    clock: object = time.perf_counter_ns
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    request: str = ""
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def begin(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, self.request,
                self.clock(), 0, 0, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = self.clock()
        if self.spans[self._stack.pop()] is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def wrap(self, name: str, fn, cost=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # begin()/end() inlined: this runs on every traced call
            span = [name, stack[-1] if stack else -1, self.request, clock(), 0, 0, 0,
                    False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if cost is not None:
                try:
                    span[FLOPS], span[BYTES] = cost(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    span[COST_ERROR] = True
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, boundaries, package: str = "dfsmn") -> None:
        """Wrap every boundary at each module attribute that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for b in boundaries:
            found = False
            for mod_name, attr in b.targets:
                mod = sys.modules.get(mod_name)
                original = getattr(mod, attr, None) if mod is not None else None
                if original is None or not callable(original):
                    continue
                found = True
                wrapper = self.wrap(b.name, original, b.cost)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, key, original))
                            setattr(m, key, wrapper)
            if not found and b.name not in self.absent:
                self.absent.append(b.name)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def stats(self) -> dict:
        """Per-boundary totals; self time is a span's duration minus the
        durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out = {}
        for s, children in zip(self.spans, child_ns):
            st = out.setdefault(s[NAME], Stats())
            dur = s[END] - s[START]
            st.calls += 1
            st.busy_ns += dur
            st.self_ns += dur - children
            st.flops += s[FLOPS]
            st.bytes += s[BYTES]
            st.cost_errors += s[COST_ERROR]
        return out

    def root_ns(self) -> int:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def write_spans(self, path) -> None:
        """One line per span: id, parent, start_ns, end_ns, name, request."""
        with open(path, "w") as f:
            f.write("id\tparent\tstart_ns\tend_ns\tname\trequest\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i}\t{s[PARENT]}\t{s[START]}\t{s[END]}\t{s[NAME]}\t{s[REQUEST]}\n")
