"""Unit tests for tracing, interval tracking, and overlap math."""

from repro.sim import Engine, IntervalTracker, Tracer, merge_intervals, overlap_seconds, trace


def test_tracer_records_time_and_payload():
    eng = Engine()
    tracer = Tracer().attach(eng)

    def proc():
        yield eng.timeout(2.0)
        trace(eng, "gpu.kernel", "gpu0", duration=1.5)

    eng.process(proc())
    eng.run()
    assert len(tracer.records) == 1
    rec = tracer.records[0]
    assert rec.time == 2.0 and rec.category == "gpu.kernel" and rec.actor == "gpu0"
    assert rec.data == {"duration": 1.5}


def test_trace_noop_without_tracer():
    eng = Engine()
    trace(eng, "x", "y")  # must not raise


def test_tracer_category_filter():
    eng = Engine()
    tracer = Tracer(categories=["nic."]).attach(eng)
    trace(eng, "nic.send", "n0")
    trace(eng, "gpu.kernel", "g0")
    assert [r.category for r in tracer.records] == ["nic.send"]


def test_tracer_select():
    eng = Engine()
    tracer = Tracer().attach(eng)
    trace(eng, "nic.send", "n0", size=10)
    trace(eng, "nic.recv", "n1", size=10)
    trace(eng, "gpu.kernel", "g0")
    assert len(tracer.select(category="nic.")) == 2
    assert len(tracer.select(actor="n1")) == 1
    assert len(tracer.select(predicate=lambda r: r.data.get("size") == 10)) == 2


def test_tracer_disable():
    eng = Engine()
    tracer = Tracer().attach(eng)
    tracer.enabled = False
    trace(eng, "a", "b")
    assert tracer.records == []


def test_interval_tracker_busy_and_utilization():
    eng = Engine()
    tracker = IntervalTracker(eng, "gpu0")

    def proc():
        t = tracker.begin()
        yield eng.timeout(2.0)
        tracker.end(t)
        yield eng.timeout(2.0)
        t = tracker.begin()
        yield eng.timeout(1.0)
        tracker.end(t)

    eng.process(proc())
    eng.run()
    assert tracker.busy_seconds() == 3.0
    assert tracker.utilization() == 3.0 / 5.0
    assert tracker.busy_union() == [(0.0, 2.0), (4.0, 5.0)]


def test_interval_tracker_overlapping_spans_union():
    eng = Engine()
    tracker = IntervalTracker(eng, "link")

    def a():
        t = tracker.begin()
        yield eng.timeout(3.0)
        tracker.end(t)

    def b():
        yield eng.timeout(1.0)
        t = tracker.begin()
        yield eng.timeout(4.0)
        tracker.end(t)

    eng.process(a())
    eng.process(b())
    eng.run()
    assert tracker.busy_union() == [(0.0, 5.0)]
    assert tracker.busy_seconds() == 5.0


def test_interval_tracker_busy_seconds_follows_new_spans():
    # A repeated window is answered from the last call until a span is
    # added; every answer equals a fresh merge of the spans.
    eng = Engine()
    tracker = IntervalTracker(eng, "x")

    def fresh(t0, t1):
        return sum(max(0.0, min(b, t1) - max(a, t0))
                   for a, b in merge_intervals(tracker.spans))

    def proc():
        for gap, busy in ((0.0, 2.0), (1.0, 1.0), (0.5, 0.25)):
            yield eng.timeout(gap)
            t = tracker.begin()
            yield eng.timeout(busy)
            tracker.end(t)
            for t0, t1 in ((0.0, 10.0), (0.0, 10.0), (1.0, 3.5), (0.0, 10.0)):
                assert tracker.busy_seconds(t0, t1) == fresh(t0, t1)

    eng.process(proc())
    eng.run()
    assert tracker.busy_seconds(0.0, 10.0) == 3.25


def test_interval_tracker_windowed_busy():
    eng = Engine()
    tracker = IntervalTracker(eng, "x")

    def proc():
        t = tracker.begin()
        yield eng.timeout(10.0)
        tracker.end(t)

    eng.process(proc())
    eng.run()
    assert tracker.busy_seconds(t0=2.0, t1=5.0) == 3.0
    assert tracker.utilization(t0=2.0, t1=5.0) == 1.0
    assert tracker.utilization(t0=5.0, t1=5.0) == 0.0


def test_merge_intervals():
    assert merge_intervals([]) == []
    assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]
    assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]
    assert merge_intervals([(1, 3), (0, 2)]) == [(0, 3)]
    assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]
    assert merge_intervals([(0, 0), (1, 2)]) == [(1, 2)]  # empty span dropped


def test_overlap_seconds():
    a = [(0.0, 5.0)]
    b = [(3.0, 8.0)]
    assert overlap_seconds(a, b) == 2.0
    assert overlap_seconds(b, a) == 2.0
    assert overlap_seconds(a, []) == 0.0
    assert overlap_seconds([(0, 1), (4, 6)], [(0.5, 5.0)]) == 0.5 + 1.0


def test_chrome_trace_export():
    import json

    from repro.sim import to_chrome_trace

    eng = Engine()
    tracer = Tracer().attach(eng)
    trace(eng, "gpu.compute", "n0.gpu1", op="update", duration=2e-3)
    trace(eng, "net.send", "pe3", dst=5, size=1024)
    events = to_chrome_trace(tracer)
    assert len(events) == 2
    slice_ev, instant_ev = events
    assert slice_ev["ph"] == "X"
    assert slice_ev["dur"] == 2e-3 * 1e6
    assert slice_ev["name"] == "update"
    assert slice_ev["pid"] == "n0" and slice_ev["tid"] == "n0.gpu1"
    assert instant_ev["ph"] == "i"
    assert instant_ev["args"]["size"] == 1024
    json.dumps(events)  # must be serializable
