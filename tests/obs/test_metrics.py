"""Metrics registry unit tests: int discipline, quantiles, rendering."""

import pytest

from repro.obs.metrics import (
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    nearest_rank_index,
    parse_exposition,
    reset_global_registry,
)


class TestNearestRank:
    def test_pins_the_standard_definition(self):
        # ceil(q*n)-1, clamped: the biased int(q*n) gave 99 and 1 here.
        assert nearest_rank_index(0.99, 100) == 98
        assert nearest_rank_index(0.50, 2) == 0
        assert nearest_rank_index(1.0, 10) == 9
        assert nearest_rank_index(0.001, 10) == 0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            nearest_rank_index(0.5, 0)
        with pytest.raises(ValueError):
            nearest_rank_index(0.0, 5)
        with pytest.raises(ValueError):
            nearest_rank_index(1.5, 5)


class TestCounter:
    def test_int_only(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(TypeError):
            c.inc(1.5)
        with pytest.raises(TypeError):
            c.inc(True)
        with pytest.raises(TypeError):
            c.set(2.0)

    def test_set_overwrites(self):
        c = Counter("hits")
        c.set(41)
        assert c.value == 41


class TestGauges:
    def test_gauge_holds_any_numeric(self):
        g = Gauge("depth")
        g.inc(2.5)
        g.inc(-1)
        assert g.value == 1.5

    def test_callback_gauge_computes_on_read(self):
        box = {"v": 1}
        g = CallbackGauge("live", lambda: box["v"])
        assert g.value == 1
        box["v"] = 9
        assert g.value == 9


class TestHistogram:
    def test_quantiles_are_nearest_rank_exact(self):
        h = Histogram("lat", window=256)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.90) == 90.0
        assert h.quantile(0.99) == 99.0  # int(q*n) truncation said 100.0
        assert h.quantile(1.0) == 100.0

    def test_window_evicts_but_count_is_total(self):
        h = Histogram("lat", window=4)
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            h.observe(v)
        assert h.count == 5
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.25) == 2.0  # window is [2,3,4,100]

    def test_empty_default(self):
        assert Histogram("lat").quantile(0.5, default=-1.0) == -1.0


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", {"k": "x"}) is not reg.counter("a", {"k": "y"})

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.declare((("a", "gauge", None),))

    def test_render_format_and_order(self):
        reg = MetricsRegistry(prefix="repro_").declare((
            ("runs", "counter", None),
            ("ratio", "gauge", lambda _owner: 0.5),
            ("lat", "histogram", None),
        ))
        reg.inc("runs", 3)
        reg.counter("runs", {"engine": "batched"}).inc(2)
        reg.observe("lat", 1.0)  # histograms never render
        assert reg.render() == (
            "# TYPE repro_runs counter\n"
            "repro_runs 3\n"
            'repro_runs{engine="batched"} 2\n'
            "# TYPE repro_ratio gauge\n"
            "repro_ratio 0.500000\n"
        )

    def test_render_rejects_non_numeric_values(self):
        reg = MetricsRegistry().declare((("bad", "gauge", lambda _owner: "oops"),))
        with pytest.raises(TypeError):
            reg.render()

    def test_callback_gauge_replaces(self):
        reg = MetricsRegistry()
        reg.callback_gauge("live", lambda: 1)
        reg.callback_gauge("live", lambda: 2)
        assert reg.render() == "# TYPE live gauge\nlive 2\n"


class Owner:
    def __init__(self):
        self.hits = 0
        self.ratio = 0.25


ROWS = (
    ("requests_total", "counter", None),
    ("hits_total", "counter", lambda owner: owner.hits),
    ("inflight", "gauge", None),
    ("latency_ms", "histogram", None),
    ("ratio", "gauge", lambda owner: owner.ratio),
)


class TestDeclaredRows:
    def test_rows_render_in_declared_order_with_sources_read_late(self):
        owner = Owner()
        reg = MetricsRegistry(prefix="svc_").declare(ROWS, owner)
        reg.inc("requests_total", 2)
        reg.inc("inflight")
        reg.inc("inflight", -1)
        reg.observe("latency_ms", 4.0)
        owner.hits = 7
        assert reg.render() == (
            "# TYPE svc_requests_total counter\n"
            "svc_requests_total 2\n"
            "# TYPE svc_hits_total counter\n"
            "svc_hits_total 7\n"
            "# TYPE svc_inflight gauge\n"
            "svc_inflight 0\n"
            "# TYPE svc_ratio gauge\n"
            "svc_ratio 0.250000\n"
        )
        assert reg.value("hits_total") == 7
        assert reg.value("latency_ms") == 1
        assert reg.quantile("latency_ms", 0.5) == 4.0

    def test_undeclared_names_raise(self):
        reg = MetricsRegistry().declare(ROWS, Owner())
        for call in (
            lambda: reg.inc("request_total"),
            lambda: reg.inc("inflght", -1),
            lambda: reg.value("nope"),
            lambda: reg.observe("latency", 1.0),
        ):
            with pytest.raises(KeyError):
                call()

    def test_a_source_row_cannot_be_assigned(self):
        reg = MetricsRegistry().declare(ROWS, Owner())
        with pytest.raises(AttributeError):
            reg.inc("hits_total")

    def test_a_counter_source_must_read_an_int(self):
        owner = Owner()
        reg = MetricsRegistry().declare(ROWS, owner)
        owner.hits = 1.5
        with pytest.raises(TypeError):
            reg.render()

    def test_bad_declarations_are_errors(self):
        with pytest.raises(ValueError, match="unknown kind"):
            MetricsRegistry().declare((("a", "gague", None),))
        with pytest.raises(ValueError, match="already declared"):
            MetricsRegistry().declare((("a", "counter", None),) * 2)


class TestParseExposition:
    def test_reads_back_what_render_wrote(self):
        reg = MetricsRegistry(prefix="repro_")
        reg.counter("runs").inc(3)
        reg.counter("runs", {"tenant": "a b"}).inc(2)
        reg.callback_gauge("ratio", lambda: 0.5)
        assert parse_exposition(reg.render()) == {
            "repro_runs": ("counter", 3),
            'repro_runs{tenant="a b"}': ("counter", 2),
            "repro_ratio": ("gauge", 0.5),
        }

    def test_rows_keep_exposition_order_and_untyped_rows_are_kept(self):
        text = "# aggregated\nb 1\n# TYPE a gauge\na 2.500000\n\n"
        rows = parse_exposition(text)
        assert list(rows) == ["b", "a"]
        assert rows == {"b": ("untyped", 1), "a": ("gauge", 2.5)}

    def test_a_row_without_a_numeric_value_is_an_error(self):
        with pytest.raises(ValueError):
            parse_exposition("repro_runs lots\n")
        with pytest.raises(ValueError):
            parse_exposition("repro_runs\n")


class TestGlobalRegistry:
    def test_lazy_singleton_with_repro_prefix(self):
        reg = reset_global_registry()
        assert global_registry() is reg
        assert reg.prefix == "repro_"

    def test_reset_replaces(self):
        reg = reset_global_registry()
        reg.counter("x").inc()
        fresh = reset_global_registry()
        assert fresh is not reg
        assert global_registry().counter("x").value == 0
