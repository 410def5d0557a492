"""Metrics registry: labelled series, cardinality cap, attachment contract."""

import pytest

from repro.obs import MetricsRegistry, size_bucket
from repro.obs.metrics import _OVERFLOW_KEY
from repro.sim import Engine


# ---------------------------------------------------------------------------
# Counters / gauges / histograms
# ---------------------------------------------------------------------------


def test_counter_accumulates_per_label_set():
    reg = MetricsRegistry()
    reg.inc("msgs", pe=0)
    reg.inc("msgs", pe=0)
    reg.inc("msgs", 3, pe=1)
    counter = reg.get("msgs")
    assert counter.value(pe=0) == 2
    assert counter.value(pe=1) == 3
    assert counter.total() == 5


def test_counter_label_order_is_irrelevant():
    reg = MetricsRegistry()
    reg.inc("x", pe=0, kind="a")
    reg.inc("x", kind="a", pe=0)
    assert reg.get("x").value(pe=0, kind="a") == 2


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("x", -1.0)


def test_gauge_tracks_value_and_max():
    reg = MetricsRegistry()
    reg.set("depth", 3, pe=0)
    reg.set("depth", 7, pe=0)
    reg.set("depth", 2, pe=0)
    gauge = reg.get("depth")
    assert gauge.value(pe=0) == 2
    assert gauge.max(pe=0) == 7
    assert gauge.value(pe=9) == 0.0  # unseen label set


def test_histogram_buckets_by_upper_edge():
    reg = MetricsRegistry()
    hist = reg.histogram("lat", buckets=[1.0, 10.0])
    hist.observe(0.5)
    hist.observe(5.0)
    hist.observe(100.0)
    cell = hist.series[()]
    assert cell["buckets"] == [1, 1, 1]  # <=1, <=10, +inf
    assert cell["count"] == 3
    assert cell["sum"] == pytest.approx(105.5)


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("bad", buckets=[10.0, 1.0])


def test_size_bucket_edges():
    assert size_bucket(0) == "64"
    assert size_bucket(64) == "64"
    assert size_bucket(65) == "256"
    assert size_bucket(4**15) == str(4**15)
    assert size_bucket(4**15 + 1) == "+inf"


def test_redeclare_with_different_kind_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(TypeError):
        reg.gauge("m")
    with pytest.raises(TypeError):
        reg.histogram("m")


# ---------------------------------------------------------------------------
# Label-cardinality cap (satellite: an unbounded label must not grow memory
# without bound)
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cardinality_cap_folds_into_overflow_series():
    reg = MetricsRegistry(max_series=4)
    for i in range(10):
        reg.inc("leaky", msg_id=i)  # a per-message id: the classic bug
    counter = reg.get("leaky")
    assert len(counter.series) == 5  # 4 real series + 1 overflow cell
    assert counter.dropped_series == 6
    assert counter.series[_OVERFLOW_KEY] == 6  # every folded sample counted
    assert counter.total() == 10  # nothing lost, only label detail


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cardinality_cap_existing_series_keep_updating():
    reg = MetricsRegistry(max_series=2)
    reg.inc("c", pe=0)
    reg.inc("c", pe=1)
    reg.inc("c", pe=2)  # overflows
    reg.inc("c", pe=0)  # existing series still addressable past the cap
    counter = reg.get("c")
    assert counter.value(pe=0) == 2
    assert counter.dropped_series == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_snapshot_reports_overflow():
    reg = MetricsRegistry(max_series=1)
    reg.inc("c", pe=0)
    reg.inc("c", pe=1)
    snap = reg.snapshot()["c"]
    assert snap["dropped_series"] == 1
    assert any(s["labels"] == {"_overflow": "true"} for s in snap["series"])


# ---------------------------------------------------------------------------
# Attachment (the shared Observer contract)
# ---------------------------------------------------------------------------


def test_attach_is_idempotent_and_migrates_engines():
    reg = MetricsRegistry()
    eng1, eng2 = Engine(), Engine()
    assert reg.attach(eng1) is reg
    reg.attach(eng1)  # same engine: no-op
    assert eng1.observers == (reg,)
    reg.attach(eng2)  # new engine: old reference cleared
    assert eng1.observers == () and eng1.hooks is None
    assert eng2.observers == (reg,) and reg.engine is eng2


def test_detach_clears_engine_reference():
    reg = MetricsRegistry()
    eng = Engine()
    reg.attach(eng)
    reg.detach()
    assert eng.observers == () and reg.engine is None
    reg.detach()  # no-op when unattached


def test_context_manager_detaches_on_exit():
    eng = Engine()
    with MetricsRegistry().attach(eng) as reg:
        assert eng.observers == (reg,)
    assert eng.observers == () and eng.hooks is None


def test_engine_counts_events_only_when_registry_attached():
    def proc(eng):
        yield eng.timeout(1.0)

    eng = Engine()
    eng.process(proc(eng))
    eng.run()
    assert eng.hooks is None  # zero-cost default: no registry, no counting

    eng2 = Engine()
    reg = MetricsRegistry().attach(eng2)
    eng2.process(proc(eng2))
    eng2.run()
    assert reg.get("sim.events.scheduled").total() > 0
    assert (reg.get("sim.events.executed").total()
            == reg.get("sim.events.scheduled").total())


# ---------------------------------------------------------------------------
# Queries and rendering
# ---------------------------------------------------------------------------


def test_scalar_totals_counters_only():
    reg = MetricsRegistry()
    reg.inc("a", 2, pe=0)
    reg.inc("a", 3, pe=1)
    reg.set("g", 9)
    reg.observe("h", 1.0)
    assert reg.scalar_totals() == {"a": 5}


def test_render_text_mentions_every_metric():
    reg = MetricsRegistry()
    reg.inc("counter.x", pe=0)
    reg.set("gauge.y", 4)
    reg.observe("hist.z", 2.0)
    text = reg.render_text()
    for name in ("counter.x", "gauge.y", "hist.z"):
        assert name in text
    assert "max 4" in text

def test_names_and_contains():
    reg = MetricsRegistry()
    reg.inc("b")
    reg.inc("a")
    assert reg.names() == ["a", "b"]
    assert "a" in reg and "zzz" not in reg


def test_overflow_warns_once_per_metric():
    reg = MetricsRegistry(max_series=2)
    reg.inc("leaky", k=0)
    reg.inc("leaky", k=1)
    with pytest.warns(RuntimeWarning, match="leaky.*folding"):
        reg.inc("leaky", k=2)  # first fold warns
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")  # a second warning would raise
        reg.inc("leaky", k=3)
        reg.inc("leaky", k=4)
    # A different metric gets its own single warning.
    reg.inc("other", k=0)
    reg.inc("other", k=1)
    with pytest.warns(RuntimeWarning, match="other"):
        reg.inc("other", k=2)


def test_overflow_total_surfaces_in_summaries():
    from repro.obs import OVERFLOW_METRIC

    reg = MetricsRegistry(max_series=1)
    reg.inc("clean")
    # No folding yet: the synthetic counter stays out of the way.
    assert OVERFLOW_METRIC not in reg.scalar_totals()
    assert OVERFLOW_METRIC not in reg.snapshot()
    with pytest.warns(RuntimeWarning):
        reg.inc("leaky", k=0)
        reg.inc("leaky", k=1)
        reg.inc("leaky", k=2)
    assert reg.overflow_total() == 2
    assert reg.scalar_totals()[OVERFLOW_METRIC] == 2.0
    snap = reg.snapshot()[OVERFLOW_METRIC]
    assert snap["kind"] == "counter"
    assert snap["series"] == [{"labels": {"metric": "leaky"}, "value": 2}]


# ---------------------------------------------------------------------------
# Label-key cache and per-event cell binding: same series as building the
# key from the labels on every sample
# ---------------------------------------------------------------------------


def _series(metric) -> dict:
    return dict(metric.series)


def test_key_cache_keeps_equal_hashing_values_apart():
    # pe=1, pe=True and pe=1.0 hash equal but render "1", "True", "1.0".
    reg = MetricsRegistry()
    for value in (True, 1, 1.0, True, 1):
        reg.inc("c", pe=value)
        reg.set("g", 5, pe=value)
        reg.observe("h", 100.0, pe=value)
    assert _series(reg.get("c")) == {
        (("pe", "True"),): 2.0, (("pe", "1"),): 2.0, (("pe", "1.0"),): 1.0}
    assert set(reg.get("g").series) == set(reg.get("c").series)
    assert reg.get("h").count(pe=True) == 2 and reg.get("h").count(pe=1.0) == 1


def test_key_cache_ignores_keyword_order():
    reg = MetricsRegistry()
    reg.inc("c", pe=0, kind="entry")
    reg.inc("c", kind="entry", pe=0)
    reg.inc("c", kind="entry", pe=0)
    reg.set("g", 3, kind="entry", pe=0)
    reg.set("g", 1, pe=0, kind="entry")
    key = (("kind", "entry"), ("pe", "0"))
    assert _series(reg.get("c")) == {key: 3.0}
    assert _series(reg.get("g")) == {key: {"value": 1, "max": 3}}
    assert reg.snapshot()["c"]["series"] == [
        {"labels": {"kind": "entry", "pe": "0"}, "value": 3.0}]


def test_key_cache_accepts_unhashable_label_values():
    reg = MetricsRegistry()
    reg.inc("c", route=[0, 1])
    reg.inc("c", route=[0, 1])
    assert _series(reg.get("c")) == {(("route", "[0, 1]"),): 2.0}


def test_overflow_counts_every_folded_sample_and_warns_once():
    reg = MetricsRegistry(max_series=2)
    reg.inc("c", pe=0)
    reg.inc("c", pe=1)
    with pytest.warns(RuntimeWarning) as caught:
        for pe in (2, 2, 3, 2):
            reg.inc("c", pe=pe)  # the same folded label set, again and again
        reg.inc("c", pe=0)       # a cached series still updates past the cap
    assert len(caught) == 1
    counter = reg.get("c")
    assert counter.dropped_series == 4
    assert _series(counter) == {
        (("pe", "0"),): 2.0, (("pe", "1"),): 1.0, _OVERFLOW_KEY: 4.0}
    assert reg.scalar_totals()["repro_metrics_overflow_total"] == 4.0


def test_event_counters_appear_with_the_first_event():
    reg = MetricsRegistry().attach(Engine())
    assert reg.names() == [] and reg.snapshot() == {}

    def proc(eng):
        yield eng.timeout(1.0)
        yield eng.timeout(1.0)

    eng = Engine()
    reg.attach(eng)
    eng.process(proc(eng))
    eng.run()
    executed = reg.get("sim.events.executed")
    assert executed.series == {(): float(eng.events_executed)}
    assert reg.get("sim.events.scheduled").series == {(): float(eng.events_executed)}
    reg.inc("sim.events.executed", 2)  # the helper adds to the bound cell
    assert executed.value() == eng.events_executed + 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_event_counter_folded_into_overflow_counts_every_event():
    reg = MetricsRegistry(max_series=1)
    reg.inc("sim.events.executed", 0, pe=0)  # the one series slot is taken
    eng = Engine()
    reg.attach(eng)

    def proc(eng):
        yield eng.timeout(1.0)

    eng.process(proc(eng))
    eng.run()
    counter = reg.get("sim.events.executed")
    assert counter.dropped_series == eng.events_executed
    assert counter.series[_OVERFLOW_KEY] == eng.events_executed
