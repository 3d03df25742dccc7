"""Unit tests for repro.obs.metrics: Counter/Gauge/Histogram semantics."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    Registry,
)


class TestCounter:
    def test_unlabeled_inc(self):
        reg = Registry()
        c = reg.counter("a.b.frames").labels()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("a.b.frames") == 5

    def test_negative_increment_rejected(self):
        c = Registry().counter("x").labels()
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = Registry()
        c = reg.counter("net.link.frames", ("link",))
        c.labels(link="up").inc(3)
        c.labels(link="down").inc(7)
        assert reg.value("net.link.frames", link="up") == 3
        assert reg.value("net.link.frames", link="down") == 7
        assert list(c.export()["series"]) == ["down", "up"]

    def test_unlabeled_access_on_labeled_metric_raises(self):
        c = Registry().counter("m", ("x",))
        with pytest.raises(MetricError):
            c.labels()

    def test_wrong_label_names_raise(self):
        c = Registry().counter("m", ("x",))
        with pytest.raises(MetricError):
            c.labels(y=1)
        with pytest.raises(MetricError):
            c.labels(x=1, y=2)

    def test_same_name_same_instance(self):
        reg = Registry()
        assert reg.counter("m") is reg.counter("m")

    def test_type_clash_raises(self):
        reg = Registry()
        reg.counter("m")
        with pytest.raises(MetricError):
            reg.gauge("m")
        with pytest.raises(MetricError):
            reg.counter("m", ("other",))  # label-set clash too


class TestLabelCardinality:
    def test_overflow_folds_instead_of_growing(self):
        reg = Registry()
        c = Counter("m", ("k",), max_series=3)
        for i in range(10):
            c.labels(k=f"v{i}").inc()
        # 3 real series + the shared overflow series
        assert len(c.export()["series"]) == 4
        assert c.overflowed == 7
        overflow = c.labels_overflow()
        assert overflow.value == 7
        # existing series still addressable and isolated
        assert c.labels(k="v0").value == 1

    def test_overflow_series_reused(self):
        c = Counter("m", ("k",), max_series=1)
        c.labels(k="a").inc()
        s1 = c.labels(k="b")
        s2 = c.labels(k="c")
        assert s1 is s2


class TestGauge:
    def test_set_inc_dec(self):
        g = Registry().gauge("depth").labels()
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_labeled(self):
        reg = Registry()
        g = reg.gauge("q", ("name",))
        g.labels(name="a").set(2.5)
        assert reg.value("q", name="a") == 2.5


class TestHistogram:
    def test_observe_and_export(self):
        reg = Registry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.labels().observe(v)
        out = reg.value("lat")
        assert out["count"] == 5
        assert out["sum"] == pytest.approx(56.05)
        assert out["min"] == 0.05
        assert out["max"] == 50.0
        assert out["buckets"]["0.1"] == 1
        assert out["buckets"]["1.0"] == 2
        assert out["buckets"]["10.0"] == 1
        assert out["buckets"]["inf"] == 1

    def test_inf_bucket_appended(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.buckets[-1] == float("inf")

    def test_empty_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=())


class TestRegistryLifecycle:
    def _populated(self):
        reg = Registry()
        reg.counter("c", ("k",)).labels(k="x").inc(2)
        reg.gauge("g").labels().set(1.5)
        reg.histogram("h").labels().observe(0.2)
        return reg

    def test_export_shape_is_json_able(self):
        reg = self._populated()
        out = reg.export()
        # stable, sorted, round-trippable
        assert list(out) == ["c", "g", "h"]
        assert out["c"]["type"] == "counter"
        assert out["c"]["label_names"] == ["k"]
        assert out["c"]["series"] == {"x": 2}
        json.dumps(out)  # must not raise

    def test_snapshot_isolation(self):
        reg = self._populated()
        snap = reg.export()
        reg.counter("c", ("k",)).labels(k="x").inc(100)
        reg.gauge("g").labels().set(99)
        assert snap["c"]["series"]["x"] == 2
        assert snap["g"]["series"][""] == 1.5
        assert reg.export()["c"]["series"]["x"] == 102

    def test_value_unknown_returns_none(self):
        reg = self._populated()
        assert reg.value("nope") is None
        assert reg.value("c", k="unseen") is None
        assert reg.value("c", wrong="x") is None
