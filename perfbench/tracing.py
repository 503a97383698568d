"""In-memory span tracing by wrapping layers' public methods.

Nothing under ``src/`` knows about this module: the tracer replaces
selected methods (on classes) and functions (on modules) with wrappers
that record one span per call -- name, layer, start, end, parent span,
and the load generator's current request id -- and restores the originals on
:meth:`Tracer.uninstall`. Spans stay in memory and are written out once,
at exit.

A layer's *self time* is its spans' durations minus the part covered by
their child spans; because the load generator is single-threaded, every instant
inside a top-level span belongs to exactly one innermost span, so the
self-time segments tile the traced time and per-request breakdowns add
up to the request's latency plus an explicitly reported remainder (time
in no span: sleeping, waiting in a batch window, bookkeeping).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Span record fields (lists, for cheap in-place end stamping).
ID, NAME, LAYER, START, END, PARENT, REQUEST, NOTE = range(8)


class Tracer:
    """Collects spans while installed; toggled between front-end calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.request_id = -1
        self.blocks: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []
        self._block_start: float | None = None

    @property
    def active(self) -> bool:
        return self._block_start is not None

    def add(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        note: Callable | None = None,
    ) -> None:
        """Register ``owner.attr``: a function defined directly on a class
        (a method) or on a module.

        ``note(args, result)`` may return a value stored with the span
        (e.g. the kind of a publish), evaluated after the call returns.
        """
        self._targets.append((owner, attr, name, layer, note))

    def install(self) -> None:
        if self.active:
            return
        for owner, attr, name, layer, note in self._targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, layer, note))
            self._patches.append((owner, attr, original))
        self._block_start = self.clock()

    def uninstall(self) -> None:
        if not self.active:
            return
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.blocks.append((self._block_start, self.clock()))
        self._block_start = None

    def _wrap(self, fn, name: str, layer: str, note):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            span = [len(spans), name, layer, clock(), 0.0,
                    stack[-1] if stack else -1, tracer.request_id, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path) -> None:
        """Write every span as one CSV line."""
        with open(path, "w") as sink:
            sink.write("id,name,layer,start,end,parent,request,note\n")
            for span in self.spans:
                sink.write(
                    f"{span[ID]},{span[NAME]},{span[LAYER]},{span[START]!r},"
                    f"{span[END]!r},{span[PARENT]},{span[REQUEST]},"
                    f"{'' if span[NOTE] is None else span[NOTE]}\n"
                )


@dataclass
class Timeline:
    """Self-time segments of every span, sorted and non-overlapping.

    ``time_in(layer, a, b)`` gives, per interval ``[a[i], b[i]]``, the
    time spent with an innermost span of ``layer`` open.
    """

    t0: np.ndarray
    t1: np.ndarray
    layer: np.ndarray
    layers: list[str]
    _cumulative: np.ndarray  # (n_segments + 1, n_layers): layer time before segment k

    @classmethod
    def from_spans(cls, spans: list[list]) -> "Timeline":
        layers = sorted({span[LAYER] for span in spans})
        index = {name: position for position, name in enumerate(layers)}
        children: dict[int, list[list]] = {}
        for span in spans:
            if span[PARENT] >= 0:
                children.setdefault(span[PARENT], []).append(span)
        t0: list[float] = []
        t1: list[float] = []
        owner: list[int] = []
        for span in spans:
            cursor = span[START]
            layer = index[span[LAYER]]
            for child in children.get(span[ID], ()):
                if child[START] > cursor:
                    t0.append(cursor)
                    t1.append(child[START])
                    owner.append(layer)
                cursor = max(cursor, child[END])
            if span[END] > cursor:
                t0.append(cursor)
                t1.append(span[END])
                owner.append(layer)
        order = np.argsort(np.asarray(t0), kind="stable")
        start = np.asarray(t0, dtype=np.float64)[order]
        stop = np.asarray(t1, dtype=np.float64)[order]
        segment_layer = np.asarray(owner, dtype=np.int64)[order]
        cumulative = np.zeros((start.shape[0] + 1, max(1, len(layers))))
        if start.shape[0]:
            per_segment = np.zeros((start.shape[0], len(layers)))
            per_segment[np.arange(start.shape[0]), segment_layer] = stop - start
            np.cumsum(per_segment, axis=0, out=cumulative[1:])
        return cls(start, stop, segment_layer, layers, cumulative)

    def _before(self, layer: int, t: np.ndarray) -> np.ndarray:
        """Time spent in ``layer`` strictly before each instant ``t``."""
        k = np.searchsorted(self.t0, t, side="right") - 1
        inside = k >= 0
        k_safe = np.where(inside, k, 0)
        partial = np.clip(np.minimum(t, self.t1[k_safe]) - self.t0[k_safe], 0.0, None)
        partial = np.where(inside & (self.layer[k_safe] == layer), partial, 0.0)
        return np.where(inside, self._cumulative[k_safe, layer], 0.0) + partial

    def time_in(self, layer: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if layer not in self.layers or self.t0.shape[0] == 0:
            return np.zeros(np.shape(a))
        position = self.layers.index(layer)
        return self._before(position, np.asarray(b)) - self._before(position, np.asarray(a))


def within_blocks(blocks: list[tuple[float, float]], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of intervals ``[a, b]`` lying wholly inside one traced block."""
    inside = np.zeros(np.shape(a), dtype=bool)
    for lo, hi in blocks:
        inside |= (a >= lo) & (b <= hi)
    return inside


def path_breakdown(
    latency: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    timeline: Timeline,
    layers: list[str],
    band: tuple[float, float] = (40.0, 60.0),
) -> dict[str, float]:
    """Per-layer time behind the median latency of one request path.

    Requests whose latency falls in the ``band`` percentiles around the
    median are averaged layer by layer; ``unaccounted`` is the median
    minus the layer sum, so the parts add up to the median exactly.
    Returns zeros when there are no requests.
    """
    result = {"e2e": 0.0, **{layer: 0.0 for layer in layers}, "unaccounted": 0.0}
    if latency.shape[0] == 0:
        return result
    median = float(np.median(latency))
    lo, hi = np.percentile(latency, band)
    chosen = (latency >= lo) & (latency <= hi)
    result["e2e"] = median
    for layer in layers:
        result[layer] = float(np.mean(timeline.time_in(layer, a[chosen], b[chosen])))
    result["unaccounted"] = median - sum(result[layer] for layer in layers)
    return result
