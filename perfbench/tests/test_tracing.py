import numpy as np
import pytest

from perfbench.tracing import Timeline, Tracer, path_breakdown, within_blocks


def _span(span_id, layer, start, end, parent=-1, request=0):
    return [span_id, f"{layer}.call", layer, start, end, parent, request, None]


# request 0: engine [0, 10] > wal [1, 4] > fsync-as-wal [2, 3]; core [5, 9] > packed [6, 7]
# request 1: engine [12, 15]
SPANS = [
    _span(0, "engine", 0.0, 10.0),
    _span(1, "wal", 1.0, 4.0, parent=0),
    _span(2, "wal", 2.0, 3.0, parent=1),
    _span(3, "core", 5.0, 9.0, parent=0),
    _span(4, "packed", 6.0, 7.0, parent=3),
    _span(5, "engine", 12.0, 15.0, request=1),
]


def test_self_time_per_layer_subtracts_children():
    timeline = Timeline.from_spans(SPANS)
    everything = (np.array([-1.0]), np.array([99.0]))
    totals = {layer: float(timeline.time_in(layer, *everything)[0]) for layer in timeline.layers}
    # engine: (10 - 3 - 4) + 3; wal: (3 - 1) + 1; core: 4 - 1; packed: 1.
    assert totals == {"core": 3.0, "engine": 6.0, "packed": 1.0, "wal": 3.0}
    assert sum(totals.values()) == pytest.approx(10.0 + 3.0)


def test_timeline_splits_an_interval_by_layer():
    timeline = Timeline.from_spans(SPANS)
    a, b = np.array([0.0, 1.5, 11.0]), np.array([10.0, 6.5, 16.0])
    assert timeline.time_in("engine", a, b).tolist() == pytest.approx([3.0, 1.0, 3.0])
    assert timeline.time_in("wal", a, b).tolist() == pytest.approx([3.0, 2.5, 0.0])
    assert timeline.time_in("core", a, b).tolist() == pytest.approx([3.0, 1.0, 0.0])
    assert timeline.time_in("packed", a, b).tolist() == pytest.approx([1.0, 0.5, 0.0])
    assert timeline.time_in("shm", a, b).tolist() == [0.0, 0.0, 0.0]


def test_path_breakdown_adds_up_to_the_median():
    timeline = Timeline.from_spans(SPANS)
    a, b = np.array([0.0, 11.0]), np.array([10.0, 16.0])
    parts = path_breakdown(b - a, a, b, timeline, ["engine", "wal", "core", "packed"],
                           band=(0.0, 100.0))
    layers = parts["engine"] + parts["wal"] + parts["core"] + parts["packed"]
    assert parts["e2e"] == pytest.approx(7.5)
    assert layers == pytest.approx(((3 + 3 + 3 + 1) + 3) / 2)
    assert layers + parts["unaccounted"] == pytest.approx(parts["e2e"])


def test_within_blocks():
    inside = within_blocks([(0.0, 5.0), (10.0, 20.0)], np.array([1.0, 4.0, 11.0]),
                           np.array([2.0, 11.0, 19.0]))
    assert inside.tolist() == [True, False, True]


class _Layer:
    def outer(self, tracer):
        tracer.clock.advance(1.0)
        return self.inner() + 1

    def inner(self):
        return 41


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_tracer_records_nested_spans_and_restores_methods():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    tracer.add(_Layer, "outer", "Layer.outer", "engine", note=lambda args, result: result)
    tracer.add(_Layer, "inner", "Layer.inner", "core")
    original = _Layer.__dict__["outer"]
    tracer.install()
    tracer.request_id = 9
    assert _Layer().outer(tracer) == 42
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    outer, inner = tracer.spans
    assert outer[1:4] == ["Layer.outer", "engine", 0.0] and outer[4] == 1.0
    assert inner[5] == 0 and inner[6] == 9 and outer[7] == 42
    assert tracer.blocks == [(0.0, 1.0)]
    _Layer().outer(tracer)
    assert len(tracer.spans) == 2
