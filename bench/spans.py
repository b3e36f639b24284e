"""In-memory span tracing around calls into qubofolio's modules.

A span has a name (``layer.function``), a start, an end, a parent span id
and the run id shared by every span of one benchmark run.  Spans are kept
in memory and written out once, when the run ends.  Public functions are
traced by replacing the module attribute with a wrapper while the tracer
is installed, so only calls that look the name up on the module at call
time are seen: the benchmark's own calls, and calls inside the same
module.  Names a module imported from another one (``from .qubo import
energy``) keep the original function and stay untraced.
"""
from __future__ import annotations

import functools
import inspect
import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# The one call whose resident-set growth is a per-layer metric; its spans
# carry it in ``attrs["rss_growth_mb"]``.
RSS_SPAN = "qubo.build_qubo"


class Tracer:
    """Records spans while installed; a no-op otherwise."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the block; yields its attrs dict (or a throwaway)."""
        if not self.active:
            yield {}
            return
        sid = len(self.spans)
        rec = Span(sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                   self.run_id, dict(attrs))
        self.spans.append(rec)
        self._stack.append(sid)
        rss0 = current_rss_mb() if name == RSS_SPAN else None
        rec.start = time.perf_counter()
        try:
            yield rec.attrs
        finally:
            rec.end = time.perf_counter()
            if rss0 is not None:
                rec.attrs["rss_growth_mb"] = current_rss_mb() - rss0
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- installation ---------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every public function of each ``{layer: module}`` entry."""
        if self.active:
            raise RuntimeError("tracer already installed")
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    self._patches.append((module, attr, fn, wrapper))
                    setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for module, attr, fn, _ in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()
        self.active = False

    @contextmanager
    def installed(self, modules: dict[str, object]):
        self.install(modules)
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": [asdict(s) for s in self.spans]}, fh)
            fh.write("\n")


def current_rss_mb() -> float:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


# --- self-time arithmetic ------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(s.start, s.end, children.get(s.id, []))
            for s in spans}


def layer_self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Layer -> (span count, summed self time in seconds)."""
    own = self_times(spans)
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, total = out.get(s.layer, (0, 0.0))
        out[s.layer] = (calls + 1, total + own[s.id])
    return out
