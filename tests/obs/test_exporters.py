"""Exporter round-trips: Chrome trace JSON validates against the
trace-event schema; Prometheus text re-parses to the same series."""

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Registry,
    Tracer,
    chrome_trace,
    parse_prometheus,
    registry_to_json,
    to_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.exporters import VIRTUAL_PID, WALL_PID


def _sample_registry() -> Registry:
    reg = Registry()
    reg.counter("requests_total", "Requests", labelnames=("backend",)) \
        .inc(7, backend="special")
    reg.counter("requests_total", labelnames=("backend",)).inc(3, backend="naive")
    reg.gauge("queue_depth", "Depth").set(4)
    h = reg.histogram("latency_seconds", "Latency", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.005, 0.05, 0.5):
        h.observe(v)
    return reg


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("plan", category="plan-cache") as args:
        args["hit"] = False
    tracer.add_span("batch#0", "batch", start_s=0.0, duration_s=2e-3,
                    args={"batch_size": 4})
    tracer.add_span("special kernel", "kernel", start_s=1e-3, duration_s=1e-3)
    return tracer


class TestChromeTrace:
    def test_document_validates(self):
        doc = chrome_trace(_sample_tracer(), _sample_registry())
        validate_chrome_trace(doc)

    def test_other_data_carries_only_producer_drops_and_metrics(self):
        assert set(chrome_trace(_sample_tracer())["otherData"]) == {
            "producer", "dropped_spans"}
        doc = chrome_trace(_sample_tracer(), _sample_registry())
        assert set(doc["otherData"]) == {
            "producer", "dropped_spans", "metrics"}

    def test_tracks_split_by_clock(self):
        doc = chrome_trace(_sample_tracer())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["cat"]: e["pid"] for e in events}
        assert pids["plan-cache"] == WALL_PID
        assert pids["batch"] == VIRTUAL_PID
        assert pids["kernel"] == VIRTUAL_PID

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace(_sample_tracer())
        kernel = [e for e in doc["traceEvents"]
                  if e.get("cat") == "kernel"][0]
        assert kernel["ts"] == pytest.approx(1e3)   # 1 ms -> 1000 us
        assert kernel["dur"] == pytest.approx(1e3)

    def test_args_survive(self):
        doc = chrome_trace(_sample_tracer())
        batch = [e for e in doc["traceEvents"] if e.get("cat") == "batch"][0]
        assert batch["args"]["batch_size"] == 4

    def test_write_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        written = write_chrome_trace(path, _sample_tracer(),
                                     registry=_sample_registry())
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded == written
        validate_chrome_trace(loaded)
        assert loaded["otherData"]["dropped_spans"] == 0

    def test_validator_rejects_malformed(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"no": "traceEvents"})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "ts": -1.0, "dur": 0.0,
                 "pid": 1, "tid": 0}]})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "??"}]})


class TestPrometheusRoundTrip:
    def test_counters_and_gauges_reparse_exactly(self):
        reg = _sample_registry()
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed[("requests_total", (("backend", "special"),))] == 7.0
        assert parsed[("requests_total", (("backend", "naive"),))] == 3.0
        assert parsed[("queue_depth", ())] == 4.0

    def test_histogram_expansion_reparses(self):
        parsed = parse_prometheus(to_prometheus(_sample_registry()))
        assert parsed[("latency_seconds_count", ())] == 4.0
        assert parsed[("latency_seconds_sum", ())] == pytest.approx(0.5555)
        assert parsed[("latency_seconds_bucket", (("le", "0.001"),))] == 1.0
        assert parsed[("latency_seconds_bucket", (("le", "+Inf"),))] == 4.0

    def test_full_round_trip_covers_every_series(self):
        reg = _sample_registry()
        text = to_prometheus(reg)
        parsed = parse_prometheus(text)
        # Every counter/gauge series appears verbatim.
        for metric in reg:
            if metric.type_name == "histogram":
                continue
            for labels, value in metric.series():
                key = (metric.name, tuple(sorted(labels.items())))
                assert parsed[key] == pytest.approx(float(value))

    def test_label_escaping_round_trips(self):
        reg = Registry()
        tricky = 'quote " backslash \\ newline \n end'
        reg.counter("c_total", labelnames=("k",)).inc(k=tricky)
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed[("c_total", (("k", tricky),))] == 1.0

    def test_help_and_type_lines_present(self):
        text = to_prometheus(_sample_registry())
        assert "# HELP requests_total Requests" in text
        assert "# TYPE requests_total counter" in text
        assert "# TYPE latency_seconds histogram" in text

    def test_inf_values_serialize(self):
        reg = Registry()
        reg.gauge("g").set(math.inf)
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed[("g", ())] == math.inf

    def test_parser_rejects_garbage(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus("metric_without_value\n")
        with pytest.raises(ObservabilityError):
            parse_prometheus('m{k="v"} not_a_number\n')

    @pytest.mark.parametrize("tricky", [
        'back\\slash',
        'double \\\\ backslash',
        'trailing backslash \\',
        'quote"inside',
        '"fully quoted"',
        'newline\nin the middle',
        'ends with newline\n',
        'all \\ of " them \n at once',
        '\\n literal-backslash-n (not a newline)',
    ], ids=["backslash", "double-backslash", "trailing-backslash", "quote",
            "quoted", "newline", "trailing-newline", "combined",
            "literal-backslash-n"])
    def test_special_label_values_round_trip(self, tricky):
        reg = Registry()
        reg.counter("c_total", labelnames=("k",)).inc(2, k=tricky)
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed[("c_total", (("k", tricky),))] == 2.0

    def test_escaped_values_stay_single_line(self):
        reg = Registry()
        reg.gauge("g", labelnames=("k",)).set(1, k="two\nlines \\ and \"q\"")
        text = to_prometheus(reg)
        series_lines = [l for l in text.splitlines() if l.startswith("g{")]
        assert len(series_lines) == 1

    def test_multi_series_histogram_expansion_reparses(self):
        reg = Registry()
        h = reg.histogram("latency_seconds", "Latency",
                          labelnames=("backend",), buckets=(0.01, 0.1))
        for v in (0.005, 0.05, 0.5):
            h.observe(v, backend="special")
        h.observe(0.05, backend='nai"ve\\')
        parsed = parse_prometheus(to_prometheus(reg))
        special = (("backend", "special"),)
        assert parsed[("latency_seconds_count", special)] == 3.0
        assert parsed[("latency_seconds_sum", special)] == pytest.approx(0.555)
        # Bucket lines interleave the le label with the series labels.
        assert parsed[("latency_seconds_bucket",
                       (("backend", "special"), ("le", "0.01")))] == 1.0
        assert parsed[("latency_seconds_bucket",
                       (("backend", "special"), ("le", "0.1")))] == 2.0
        assert parsed[("latency_seconds_bucket",
                       (("backend", "special"), ("le", "+Inf")))] == 3.0
        tricky = (("backend", 'nai"ve\\'),)
        assert parsed[("latency_seconds_count", tricky)] == 1.0
        assert parsed[("latency_seconds_bucket",
                       (("backend", 'nai"ve\\'), ("le", "+Inf")))] == 1.0


class TestRegistryJson:
    def test_versioned_document(self):
        doc = registry_to_json(_sample_registry())
        assert doc["version"] == 1
        names = [m["name"] for m in doc["metrics"]]
        assert names == ["requests_total", "queue_depth", "latency_seconds"]
        json.dumps(doc)  # serializable end to end
