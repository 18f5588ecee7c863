"""Span-recording shims around gssf's public functions.

The shims live in the benchmark, not in the library.  ``Tracer.install``
swaps each target function for a wrapper in every loaded ``gssf`` module
that holds a reference to it (``gssf.generators.attach_point`` and
``gssf.scenario.attach_point`` alike), and ``Tracer.uninstall`` puts the
originals back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # gssf submodule that defines the function
    name: str
    tag: Callable | None = None  # positional args -> span label
    size: Callable | None = None  # result -> bytes emitted


TARGETS = (
    Target("generators", "random_instance"),
    Target("submanifold", "attach_point"),
    Target("frames", "gram_schmidt"),
    Target("frames", "complete_basis"),
    Target("submanifold", "scalar_identity_check"),
    Target("ambient", "frame_sectional"),
    Target("inequalities", "ricci_bound"),
    Target("inequalities", "delta_bound"),
    Target("inequalities", "minimize_sectional_plane", tag=lambda args: f"n{args[0].n}"),
    Target("inequalities", "global_delta_bounds"),
    Target("scenario", "validate_scenario"),
    Target("scenario", "assemble"),
    Target("scenario", "run_checks"),
    Target("jsonutil", "dumps", size=lambda text: len(text.encode("utf-8"))),
    Target("cli", "main"),
)


@dataclass(frozen=True)
class Span:
    name: str
    tag: str | None
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    phase: int  # the benchmark pass the span belongs to
    error: str | None
    nbytes: int


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.phase = 0
        self.recording = False  # spans are kept only while this is set
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, Callable]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "gssf" or key.startswith("gssf.")]
        for target in TARGETS:
            original = getattr(importlib.import_module(f"gssf.{target.module}"), target.name)
            shim = self._shim(f"{target.module}.{target.name}", original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, shim)
                        self._swapped.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._swapped):
            setattr(mod, attr, original)
        self._swapped.clear()

    def _shim(self, name: str, fn: Callable, target: Target) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error, nbytes = None, 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if target.size is not None:
                    nbytes = target.size(result)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = target.tag(args) if target.tag else None
                spans[index] = Span(name, tag, start, end, parent, self.phase, error, nbytes)

        return shim

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    nbytes: int = 0
    errors: dict = field(default_factory=lambda: defaultdict(int))
    by_tag: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))  # tag -> [calls, busy_s]


def layer_stats(spans: list[Span], phase: int) -> dict[str, LayerStats]:
    """Per-function totals over the spans of one pass.

    Self time is a span's duration minus the durations of its direct
    children; the benchmark is single-threaded, so children never overlap.
    """
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.phase == phase and span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for index, span in enumerate(spans):
        if span.phase != phase:
            continue
        duration = span.end - span.start
        entry = stats[span.name]
        entry.calls += 1
        entry.busy_s += duration
        entry.self_s += duration - child_s[index]
        entry.nbytes += span.nbytes
        if span.error:
            entry.errors[span.error] += 1
        if span.tag:
            entry.by_tag[span.tag][0] += 1
            entry.by_tag[span.tag][1] += duration
    return stats
