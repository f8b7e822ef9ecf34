import itertools

import pytest

from bench import spans
from bench.spans import SpanRecorder


@pytest.fixture()
def ticking(monkeypatch):
    """Every clock read advances one second: 0, 1, 2, ..."""
    ticks = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))


def test_self_time_is_duration_minus_children(ticking):
    recorder = SpanRecorder("t")
    with recorder.span("run"):  # starts 0
        with recorder.span("setup"):  # 1..4
            with recorder.span("topology"):  # 2..3
                pass
        with recorder.span("simulate"):  # 5..6
            pass
    # run ends at 7
    totals = recorder.totals()
    assert totals["run"].busy_s == 7.0
    assert totals["setup"].busy_s == 3.0
    assert totals["setup"].self_s == 2.0
    assert totals["topology"].self_s == 1.0
    assert totals["run"].self_s == 7.0 - 3.0 - 1.0
    # Self times partition the root exactly.
    assert sum(t.self_s for t in totals.values()) == totals["run"].busy_s
    assert recorder.parents == [-1, 0, 1, 0]


def test_a_span_nested_in_its_own_name_is_busy_once(ticking):
    recorder = SpanRecorder("t")
    with recorder.span("metrics"):  # 0..5
        with recorder.span("metrics"):  # 1..2
            pass
        with recorder.span("metrics"):  # 3..4
            pass
    total = recorder.totals()["metrics"]
    assert total.calls == 3
    assert total.busy_s == 5.0
    assert total.self_s == 5.0


def test_patched_wraps_and_restores_the_very_objects():
    class Layer:
        def work(self, x):
            return x + 1

    original = vars(Layer)["work"]
    seen = []
    recorder = SpanRecorder("t")
    with recorder.patched([(Layer, "work", "layer.work", seen.append)]):
        assert vars(Layer)["work"] is not original
        assert Layer().work(1) == 2
    assert vars(Layer)["work"] is original
    assert recorder.names == ["layer.work"]
    assert seen == [2]


def test_patched_restores_when_the_body_raises():
    class Layer:
        def work(self):
            raise KeyError("boom")

    original = vars(Layer)["work"]
    recorder = SpanRecorder("t")
    with pytest.raises(KeyError):
        with recorder.patched([(Layer, "work", "layer.work")]):
            Layer().work()
    assert vars(Layer)["work"] is original
    assert recorder.totals()["layer.work"].calls == 1  # closed despite the raise


def test_spans_must_close_innermost_first():
    recorder = SpanRecorder("t")
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)
