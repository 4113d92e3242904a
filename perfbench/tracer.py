"""Outside-in span tracer: times functions of already imported modules by
replacing every module-level reference to them with a wrapper, without
touching their source.

Each thread keeps its own stack of open spans and its own tallies, so the
hot path takes no lock and no tally update is lost between threads.  A
span's self time is its wall time minus the wall time of the spans it
encloses on the same thread; its CPU time (``time.thread_time``) is
reduced the same way, so ``self_s - cpu_s`` is time the thread spent
waiting (for the interpreter lock, or on a pool).

A function wrapped as a *leaf* is meant for calls too frequent to time one
by one: everything it calls, traced or not, is only counted, and its time
stays with the outermost leaf on the stack.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

_wall = time.perf_counter
_cpu = time.thread_time


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "in_leaf")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # per open span: [child wall, child cpu]
        self.spans: dict[str, list] = {}    # name -> [calls, self wall, self cpu, wall]
        self.counts: Counter = Counter()
        self.in_leaf = False


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[dict, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def count(self, name: str, n: int = 1) -> None:
        """Add n to the calling thread's tally of name."""
        self._state().counts[name] += n

    def wrap(self, name: str, fn, leaf: bool = False, on_call=None):
        """Return fn timed as span name.

        on_call(tracer, args, kwargs) runs before every call, timed or
        only counted, and returns the (args, kwargs) to call fn with.
        """
        local, new_state = self._local, self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = new_state()
            if on_call is not None:
                args, kwargs = on_call(self, args, kwargs)
            try:
                rec = st.spans[name]
            except KeyError:
                rec = st.spans[name] = [0, 0.0, 0.0, 0.0]
            rec[0] += 1
            if st.in_leaf:
                return fn(*args, **kwargs)
            st.in_leaf = leaf
            stack = st.stack
            frame = [0.0, 0.0]
            stack.append(frame)
            w0 = _wall()
            c0 = _cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = _cpu()
                w1 = _wall()
                stack.pop()
                st.in_leaf = False
                wall = w1 - w0
                cpu = c1 - c0
                rec[1] += wall - frame[0]
                rec[2] += cpu - frame[1]
                rec[3] += wall
                if stack:
                    top = stack[-1]
                    top[0] += wall
                    top[1] += cpu

        return traced

    def patch(self, original, replacement, package: str) -> None:
        """Replace every reference to original held at module level by the
        package or any of its submodules.

        A re-export (``from .relay import cdf``) is a separate reference,
        so patching only the defining module would miss its callers.
        """
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            ns = vars(mod)
            for attr, value in list(ns.items()):
                if value is original:
                    ns[attr] = replacement
                    self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            ns[attr] = original
        self._patches.clear()

    def spans(self) -> dict[str, dict]:
        """Per span name, summed over threads: calls, self_s, cpu_s and
        wall_s, the wall time including enclosed spans."""
        out: dict[str, dict] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, self_wall, cpu, wall) in st.spans.items():
                rec = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "cpu_s": 0.0, "wall_s": 0.0})
                rec["calls"] += calls
                rec["self_s"] += self_wall
                rec["cpu_s"] += cpu
                rec["wall_s"] += wall
        return out

    def counts(self) -> dict[str, int]:
        total: Counter = Counter()
        with self._lock:
            states = list(self._states)
        for st in states:
            total.update(st.counts)
        return dict(total)
