"""Latency attribution: self-time exactness, percentiles, clock units."""

from repro.obs.attribution import (
    REPORT_STAGES,
    attribute_requests,
    attribute_trace,
    render_attribution,
)
from repro.obs.stages import STAGES, OTHER_STAGE, stage_of


def span(name, span_id, parent=0, ts=0.0, dur=1.0):
    return {
        "name": name,
        "ph": "X",
        "pid": 1,
        "tid": 1,
        "ts": ts,
        "dur": dur,
        "cat": "t",
        "args": {"span_id": span_id, "parent_id": parent},
    }


def doc(events, clock="wall"):
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": "t", "clock": clock},
    }


class TestStageTaxonomy:
    def test_solve_aliases_collapse(self):
        for name in ("batch.run", "solve.batch", "solve.inline", "worker.solve_batch"):
            assert stage_of(name) == "solve"

    def test_unknown_names_are_outside_taxonomy(self):
        assert stage_of("request:/map") is None
        assert stage_of("blossom.grow") is None

    def test_report_stages_is_taxonomy_plus_other(self):
        assert REPORT_STAGES == STAGES + (OTHER_STAGE,)


class TestSelfTime:
    def test_stage_sums_equal_request_total(self):
        events = [
            span("request:/map", 1, ts=0.0, dur=100.0),
            span("canonicalize", 2, parent=1, ts=10.0, dur=10.0),
            span("queue", 3, parent=1, ts=20.0, dur=40.0),
            span("solve.batch", 4, parent=3, ts=30.0, dur=20.0),
            span("render", 5, parent=1, ts=80.0, dur=5.0),
        ]
        (record,) = attribute_requests(doc(events))
        assert record["total"] == 100.0
        assert record["stages"] == {
            OTHER_STAGE: 45.0,  # request root self-time
            "canonicalize": 10.0,
            "queue": 20.0,
            "solve": 20.0,
            "render": 5.0,
        }
        assert sum(record["stages"].values()) == record["total"]

    def test_overlapping_siblings_use_interval_union(self):
        # Two children covering [10,50] and [30,70]: their union is 60,
        # so the parent's self-time is 40 — subtracting summed durations
        # (80) would under-attribute the parent by the 20 they overlap.
        events = [
            span("request:/map", 1, ts=0.0, dur=100.0),
            span("queue", 2, parent=1, ts=10.0, dur=40.0),
            span("render", 3, parent=1, ts=30.0, dur=40.0),
        ]
        (record,) = attribute_requests(doc(events))
        assert record["stages"] == {
            OTHER_STAGE: 40.0,
            "queue": 40.0,
            "render": 40.0,
        }

    def test_child_past_parent_end_does_not_go_negative(self):
        # The child's overlap with the parent window [90,100] is what
        # gets subtracted from the parent, so parent self-time is 90,
        # never negative.
        events = [
            span("request:/map", 1, ts=0.0, dur=100.0),
            span("queue", 2, parent=1, ts=90.0, dur=30.0),  # runs past parent
        ]
        (record,) = attribute_requests(doc(events))
        assert record["stages"][OTHER_STAGE] == 90.0

    def test_route_root_attributes_to_route_stage(self):
        events = [
            span("route", 1, ts=0.0, dur=10.0),
            span("forward", 2, parent=1, ts=2.0, dur=6.0),
        ]
        (record,) = attribute_requests(doc(events))
        assert record["stages"] == {"route": 4.0, "forward": 6.0}

    def test_orphan_spans_outside_roots_are_ignored(self):
        events = [
            span("request:/map", 1, ts=0.0, dur=10.0),
            span("solve_mapping", 9, parent=0, ts=0.0, dur=500.0),
        ]
        (record,) = attribute_requests(doc(events))
        assert record["total"] == 10.0

    def test_shard_root_under_stitched_forward_is_not_a_request_root(self):
        # In a stitched doc the shard's request:/map hangs under the
        # router's forward span, so only the route span roots a request.
        events = [
            span("route", 1, ts=0.0, dur=10.0),
            span("forward", 2, parent=1, ts=2.0, dur=6.0),
            span("request:/map", 1_000_001, parent=2, ts=2.0, dur=5.0),
        ]
        records = attribute_requests(doc(events))
        assert [r["name"] for r in records] == ["route"]


class TestAggregation:
    def _multi(self):
        events = []
        for i, total in enumerate((10.0, 20.0, 30.0, 40.0)):
            root_id = 10 * (i + 1)
            events.append(span("request:/map", root_id, ts=0.0, dur=total))
            events.append(
                span("queue", root_id + 1, parent=root_id, ts=1.0, dur=total / 2)
            )
        return doc(events)

    def test_nearest_rank_percentiles_pick_actual_requests(self):
        result = attribute_trace(self._multi())
        assert result["requests"] == 4
        assert result["p50"]["total_ms"] == 20_000.0  # rank 2 of 4, wall→ms
        assert result["p99"]["total_ms"] == 40_000.0  # rank 4 of 4

    def test_percentile_stages_sum_to_their_total(self):
        result = attribute_trace(self._multi())
        for point in ("p50", "p99", "mean"):
            stage_sum = sum(result[point]["stage_ms"].values())
            assert abs(stage_sum - result[point]["total_ms"]) < 1e-9

    def test_step_clock_reports_raw_units(self):
        result = attribute_trace(
            doc([span("request:/map", 1, dur=7.0)], clock="step")
        )
        assert result["unit"] == "step"
        assert result["p50"]["total_ms"] == 7.0  # unscaled

    def test_wall_clock_scales_seconds_to_ms(self):
        result = attribute_trace(doc([span("request:/map", 1, dur=0.25)]))
        assert result["unit"] == "ms"
        assert result["p50"]["total_ms"] == 250.0

    def test_empty_doc(self):
        result = attribute_trace(doc([]))
        assert result["requests"] == 0
        assert "mean" not in result


class TestRendering:
    def test_table_lists_present_stages_and_total(self):
        text = render_attribution(attribute_trace(self_doc()))
        assert "queue" in text and "total" in text
        assert "p50" in text and "p99" in text

    def test_empty_result_renders_notice(self):
        text = render_attribution(attribute_trace(doc([])))
        assert "no request roots" in text


def self_doc():
    return doc(
        [
            span("request:/map", 1, ts=0.0, dur=1.0),
            span("queue", 2, parent=1, ts=0.1, dur=0.5),
        ]
    )
