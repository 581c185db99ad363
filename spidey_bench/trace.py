"""Spans and counters recorded from the benchmark's side of each call.

A span is (id, name, start, end, parent): the benchmark opens one around
every call it makes into a layer, and around the methods of the engine's
state pools it wraps from outside.  Spans stay in memory and are written
out once, when the run ends.  With tracing off, :class:`Tracer` keeps
nothing and its wrappers are never installed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, time.perf_counter() - self.t0, -1.0, parent))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, n, s, _e, p = self.spans[sid]
            self.spans[sid] = (sid, n, s, time.perf_counter() - self.t0, p)

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, obj, method: str, name: str, on_result=None) -> None:
        """Replace ``obj.method`` (an instance attribute) by a spanned call;
        ``on_result(args, result)`` may record counts from the call."""
        if not self.enabled:
            return
        inner = getattr(obj, method)

        def wrapped(*args, **kwargs):
            with self.span(name):
                out = inner(*args, **kwargs)
            self.count(name + ".calls")
            if on_result is not None:
                on_result(args, out)
            return out

        setattr(obj, method, wrapped)

    def total_s(self, name: str) -> float:
        """Summed duration of every span named ``name``."""
        return sum(e - s for _i, n, s, e, _p in self.spans if n == name)

    def write(self, path: str) -> None:
        if not self.enabled:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": [dict(id=i, name=n, start=s, end=e, parent=p)
                                 for i, n, s, e, p in self.spans],
                       "counts": self.counts}, f)


class PeakRss:
    """Peak resident set of this process while the context is open,
    sampled every 20 ms from /proc/self/statm (the process-lifetime
    ``ru_maxrss`` would include input generation and the oracles)."""

    def __init__(self):
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        with open("/proc/self/statm") as f:
            rss = int(f.read().split()[1]) * self._page
        self.peak_bytes = max(self.peak_bytes, rss)

    def _loop(self) -> None:
        while not self._stop.wait(0.02):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._stop.clear()
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def cpu_jiffies() -> tuple[int, int]:
    """(total, steal) jiffies over all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    return sum(vals), (vals[7] if len(vals) > 7 else 0)


def steal_pct(since: tuple[int, int]) -> float:
    total, steal = cpu_jiffies()
    return 100.0 * (steal - since[1]) / max(1, total - since[0])


def seconds_since_process_start() -> float:
    """Wall time since this process was created (from /proc/self/stat)."""
    with open("/proc/self/stat") as f:
        rest = f.read().rsplit(")", 1)[1].split()
    start_ticks = int(rest[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")
