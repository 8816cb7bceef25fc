"""Unit tests for the metrics registry."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, \
    WindowedSeries


def test_counter_increments_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("a.b")
    c.inc()
    c.inc(41)
    assert c.value == 42
    with pytest.raises(ObservabilityError, match="cannot decrease"):
        c.inc(-1)


def test_gauge_last_write_wins():
    g = MetricsRegistry().gauge("x")
    g.set(10)
    g.set(3)
    assert g.value == 3


def test_histogram_streaming_stats():
    h = Histogram("lat")
    for v in (2.0, 8.0, 5.0):
        h.observe(v)
    assert h.count == 3
    assert h.total == 15.0
    assert h.min == 2.0 and h.max == 8.0
    assert h.mean == 5.0
    assert Histogram("empty").mean == 0.0


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("n") is reg.counter("n")
    assert len(reg) == 1


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("n")
    with pytest.raises(ObservabilityError, match="already registered"):
        reg.gauge("n")


def test_snapshot_is_sorted_and_json_able():
    reg = MetricsRegistry()
    reg.gauge("z").set(1)
    reg.counter("a").inc(5)
    reg.histogram("m").observe(0.5)
    snap = reg.snapshot()
    assert list(snap) == ["a", "m", "z"]
    assert snap["a"] == {"kind": "counter", "value": 5}
    assert snap["m"]["count"] == 1
    json.dumps(snap)  # must not raise


def test_render_text_one_line_per_metric():
    reg = MetricsRegistry()
    reg.counter("a").inc(7)
    reg.histogram("h").observe(1.0)
    text = reg.render_text()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("a") and lines[0].rstrip().endswith("7")
    assert "n=1" in lines[1]


def test_dump_txt_and_json(tmp_path):
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    txt = reg.dump(tmp_path / "m.txt")
    assert "a" in txt.read_text()
    js = reg.dump(tmp_path / "m.json")
    assert json.loads(js.read_text())["a"]["value"] == 3


def test_dump_to_directory_rejected(tmp_path):
    with pytest.raises(ObservabilityError, match="directory"):
        MetricsRegistry().dump(tmp_path)


def test_contains_and_names():
    reg = MetricsRegistry()
    reg.counter("present")
    assert "present" in reg
    assert "absent" not in reg
    assert reg.names() == ["present"]


# -- histogram quantiles (bounded deterministic reservoir) ---------------------

def test_histogram_quantiles_nearest_rank():
    h = Histogram("lat")
    for v in range(1, 101):          # 1..100
        h.observe(float(v))
    assert h.quantile(0.5) == 50.0
    assert h.p50 == 50.0
    assert h.p95 == 95.0
    assert h.p99 == 99.0
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 100.0


def test_histogram_quantile_empty_and_bad_q():
    h = Histogram("empty")
    assert h.quantile(0.5) is None
    assert h.p95 is None
    h.observe(1.0)
    with pytest.raises(ObservabilityError, match="quantile"):
        h.quantile(1.5)
    with pytest.raises(ObservabilityError, match="quantile"):
        h.quantile(-0.1)


def test_histogram_reservoir_decimation_is_deterministic():
    a, b = Histogram("a"), Histogram("b")
    for v in range(5000):
        a.observe(float(v))
        b.observe(float(v))
    # decimation kept the reservoir bounded...
    assert len(a._reservoir) <= 512
    # ...and two identical streams yield identical quantiles
    for q in (0.5, 0.95, 0.99):
        assert a.quantile(q) == b.quantile(q)
    # quantiles stay representative of the full stream
    assert 2000 <= a.p50 <= 3000


def test_snapshot_includes_quantiles():
    reg = MetricsRegistry()
    reg.histogram("h").observe(2.0)
    entry = reg.snapshot()["h"]
    assert entry["p50"] == 2.0
    assert entry["p95"] == 2.0
    assert entry["p99"] == 2.0


def test_gauge_add_and_negative_delta():
    g = MetricsRegistry().gauge("q")
    g.set(10)
    g.add(5)
    g.add(-3)
    assert g.value == 12


# -- windowed series -----------------------------------------------------------

def test_series_records_into_fixed_windows():
    reg = MetricsRegistry()
    s = reg.series("drain", window=1.0)
    s.record(0.2, 10.0)
    s.record(0.9, 30.0)
    s.record(2.5, 7.0)
    assert s.count == 3 and s.total == 47.0
    w = s.windows()
    assert [x["index"] for x in w] == [0, 2]
    assert w[0] == {"index": 0, "t_start": 0.0, "t_end": 1.0,
                    "count": 2, "sum": 40.0, "min": 10.0, "max": 30.0}
    assert w[1]["count"] == 1 and w[1]["sum"] == 7.0


def test_series_capacity_evicts_oldest_windows():
    s = WindowedSeries("s", window=1.0, capacity=3)
    for t in range(6):
        s.record(float(t))
    assert [w["index"] for w in s.windows()] == [3, 4, 5]
    assert s.count == 6                   # lifetime totals survive eviction


def test_series_out_of_order_folds_or_drops():
    s = WindowedSeries("s", window=1.0, capacity=8)
    s.record(0.5, 1.0)
    s.record(2.5, 1.0)
    s.record(0.7, 5.0)                    # retained window: folds
    assert s.windows()[0]["sum"] == 6.0
    evicting = WindowedSeries("e", window=1.0, capacity=2)
    for t in (0.5, 1.5, 2.5):
        evicting.record(t)
    evicting.record(0.6)                  # window 0 evicted: dropped
    assert [w["index"] for w in evicting.windows()] == [1, 2]
    assert evicting.count == 4            # still counted in the totals


def test_series_get_or_create_and_mismatches():
    reg = MetricsRegistry()
    s = reg.series("x", window=1.0)
    assert reg.series("x", window=1.0) is s
    with pytest.raises(ObservabilityError, match="window"):
        reg.series("x", window=2.0)
    reg.counter("c")
    with pytest.raises(ObservabilityError, match="already registered"):
        reg.series("c")
    with pytest.raises(ObservabilityError):
        WindowedSeries("bad", window=0.0)
    with pytest.raises(ObservabilityError):
        WindowedSeries("bad", capacity=0)


def test_series_in_snapshot_and_render_text():
    reg = MetricsRegistry()
    reg.series("s").record(1.5, 2.0)
    snap = reg.snapshot()["s"]
    assert snap["kind"] == "series"
    assert snap["count"] == 1 and snap["sum"] == 2.0
    assert snap["windows"] == 1       # retained-window count, not the data
    assert "s" in reg.render_text()
    json.dumps(reg.snapshot())            # must stay JSON-able


def test_dump_series_jsonl(tmp_path):
    reg = MetricsRegistry()
    reg.series("a").record(0.5, 1.0)
    reg.series("a").record(3.5, 2.0)
    reg.series("b").record(1.5, 9.0)
    path = reg.dump_series(tmp_path / "series.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["series"] == "a" and lines[0]["index"] == 0
    assert lines[2]["series"] == "b" and lines[2]["sum"] == 9.0
    for line in lines:
        assert set(line) == {"series", "window", "index", "t_start",
                             "t_end", "count", "sum", "min", "max"}
