"""Tracing for the benchmark's traced run, kept outside the library.

:class:`Tracer` records timing spans around calls into each layer of
``repro``.  :func:`install` wraps the entry points listed in
:func:`targets` and turns on the library's own kernel profiler
(``repro.engine.profile.PROFILER``); :func:`uninstall` puts every
original attribute back and turns the profiler off, so untraced
repetitions in the same process run the unmodified code.

A span's *self time* is its duration minus the time covered by spans
opened inside it, so the self times of all categories sum to at most
the wall time of the outermost span.  A call into a span name that is
already open (one wrapped entry point of a category calling another of
the same category) is folded into the open span, not counted twice.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Per-category totals of span self time, inclusive time and calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_seconds: dict[str, float] = {}
        self.total_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.values: dict[str, float] = {}
        # Open frames: [name, start, seconds covered by child spans].
        self._stack: list[list] = []
        self._open: set[str] = set()

    def enter(self, name: str) -> bool:
        """Open a span; False (and no span) if ``name`` is already open."""
        if name in self._open:
            return False
        self._open.add(name)
        self._stack.append([name, self.clock(), 0.0])
        return True

    def exit(self) -> None:
        """Close the innermost open span and credit its times."""
        name, start, children = self._stack.pop()
        elapsed = self.clock() - start
        self._open.discard(name)
        self.self_seconds[name] = (
            self.self_seconds.get(name, 0.0) + elapsed - children
        )
        self.total_seconds[name] = self.total_seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def add_value(self, name: str, value: float) -> None:
        """Accumulate a measured quantity (bytes, say) under ``name``."""
        self.values[name] = self.values.get(name, 0) + value

    def snapshot(self) -> dict:
        """Copies of every accumulator, for differencing across phases."""
        return {
            "self": dict(self.self_seconds),
            "total": dict(self.total_seconds),
            "calls": dict(self.calls),
            "values": dict(self.values),
        }


def _wrap_callable(fn, tracer: Tracer, name: str, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enter(name):
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if measure is not None:
            tracer.add_value(name, measure(result))
        return result

    return wrapper


def _wrap_attribute(raw, tracer: Tracer, name: str, measure):
    """Wrap a raw class or module attribute, keeping a classmethod one."""
    if isinstance(raw, classmethod):
        return classmethod(_wrap_callable(raw.__func__, tracer, name, measure))
    return _wrap_callable(raw, tracer, name, measure)


ARMS = ("large_common", "large_set", "small_set")


def targets() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, measure)`` for every wrapped entry.

    Module-level functions are wrapped where the library calls them from
    (``small_set`` imports ``lazy_greedy`` by name; the executor imports
    ``dumps_state``/``loads_state`` by name), so the benchmark's own
    ``dumps_state`` call for ``state_bytes`` stays untraced.
    """
    import repro.core.small_set as small_set_module
    import repro.parallel.persistent as persistent_module
    from repro import EdgeStream, EstimateMaxCover
    from repro.core import LargeCommon, LargeSet, SmallSet
    from repro.coverage import SetSystem
    from repro.sketch.countsketch import CountSketch, F2HeavyHitter

    arm_classes = dict(zip(ARMS, (LargeCommon, LargeSet, SmallSet)))
    out = [
        (EdgeStream, "load_binary", "streams.load", None),
        (EstimateMaxCover, "__init__", "core.construct", None),
        (EstimateMaxCover, "merge", "parallel.merge", None),
        (CountSketch, "query", "sketch.cs_query", None),
        (F2HeavyHitter, "peek_heavy_hitters", "sketch.heavy_hitters", None),
        (SetSystem, "from_edges", "coverage.from_edges", None),
        (small_set_module, "lazy_greedy", "coverage.greedy", None),
        (persistent_module, "dumps_state", "serialize.dumps", len),
        (persistent_module, "loads_state", "serialize.loads", None),
    ]
    for arm, cls in arm_classes.items():
        # The planned hook is the path StreamRunner drives; the batch
        # hook is its fallback for chunks the plan declines.
        out.append((cls, "_ingest_planned", f"core.{arm}.ingest", None))
        out.append((cls, "_ingest_batch", f"core.{arm}.ingest", None))
        out.append((cls, "peek_estimate", f"core.{arm}.estimate", None))
    return out


_ABSENT = object()


def install(tracer: Tracer) -> list:
    """Wrap every target in ``tracer`` spans and start ``PROFILER``.

    Returns what :func:`uninstall` needs: each wrapped ``(owner,
    attribute)`` with the owner's own raw value, or ``_ABSENT`` where the
    attribute was inherited.
    """
    from repro.engine.profile import PROFILER

    saved = []
    try:
        for owner, attr, name, measure in targets():
            own = vars(owner).get(attr, _ABSENT)
            raw = own if own is not _ABSENT else _inherited(owner, attr)
            saved.append((owner, attr, own))
            setattr(owner, attr, _wrap_attribute(raw, tracer, name, measure))
    except BaseException:
        uninstall(saved)
        raise
    PROFILER.start()
    return saved


def _inherited(owner, attr):
    """The raw attribute ``owner`` inherits (descriptor not yet bound)."""
    for base in type.mro(owner)[1:]:
        if attr in vars(base):
            return vars(base)[attr]
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


def uninstall(saved: list) -> None:
    """Restore every attribute :func:`install` wrapped; stop and clear
    ``PROFILER``."""
    from repro.engine.profile import PROFILER

    PROFILER.stop()
    PROFILER.reset()
    for owner, attr, own in reversed(saved):
        if own is _ABSENT:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)
    saved.clear()
