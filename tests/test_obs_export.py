"""Tests for the exporters (repro.obs.export): Chrome trace JSON and
Prometheus text exposition.

The Chrome tests pin the trace-event fields Perfetto actually consumes
(ph/ts/pid/tid, metadata process names, instant scope); the Prometheus
tests pin the exposition contract -- counter ``_total`` suffix,
cumulative ``le`` buckets, phase labels -- that a scraper would parse.
"""

import json

import pytest

from repro.obs import REGISTRY, configure_tracing, counter, gauge, phase
from repro.obs import ledger
from repro.obs import trace as trace_mod
from repro.obs.export import (
    chrome_trace_document, chrome_trace_events, convert_trace_files,
    extract_registry_snapshot, render_prometheus, _prom_name, _prom_value,
)


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(ledger.RUN_ID_ENV, raising=False)
    REGISTRY.reset()
    configure_tracing(None)
    ledger.end_run()
    yield
    configure_tracing(None)
    ledger.end_run()
    REGISTRY.reset()


def _trace_file(tmp_path, name="t.jsonl", run_id="r-export-01"):
    path = tmp_path / name
    ledger.begin_run(run_id=run_id)
    configure_tracing(str(path))
    with phase("search"):
        with phase("expand"):
            pass
    trace_mod.instant("note", detail=7)
    configure_tracing(None)
    ledger.end_run()
    return path


class TestChromeExport:
    def test_document_shape(self, tmp_path):
        path = _trace_file(tmp_path)
        doc = convert_trace_files([path])
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        other = doc["otherData"]
        assert other["schema"] == "repro.trace.chrome/1"
        assert other["run_ids"] == ["r-export-01"]
        assert other["processes"] == 1
        assert other["corrupt_lines"] == 0
        assert other["inputs"] == [str(path)]
        # valid JSON end to end
        assert json.loads(json.dumps(doc)) == doc

    def test_events_are_relative_microseconds(self, tmp_path):
        path = _trace_file(tmp_path)
        doc = chrome_trace_document(ledger.stitch([path]))
        data = [ev for ev in doc["traceEvents"] if ev["ph"] != "M"]
        assert data[0]["ts"] == 0.0
        assert all(ev["ts"] >= 0 for ev in data)
        assert all(ev["ph"] in ("B", "E", "i") for ev in data)
        for ev in data:
            if ev["ph"] == "i":
                assert ev["s"] == "t"
        spans = [ev for ev in data if ev["ph"] in ("B", "E")]
        assert [ev["name"] for ev in spans] == [
            "search", "expand", "expand", "search"]

    def test_run_stamp_copied_into_args(self, tmp_path):
        path = _trace_file(tmp_path)
        doc = chrome_trace_document(ledger.stitch([path]))
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "B"]
        assert all(ev["args"]["run"] == "r-export-01" for ev in spans)

    def test_process_metadata_names_tracks(self, tmp_path):
        path = _trace_file(tmp_path)
        stitched = ledger.stitch([path])
        events = chrome_trace_events(stitched)
        meta = {ev["name"]: ev for ev in events if ev["ph"] == "M"}
        assert set(meta) == {"process_name", "process_sort_index"}
        assert meta["process_name"]["args"]["name"].startswith("driver")
        assert meta["process_sort_index"]["args"]["sort_index"] == 0

    def test_worker_tracks_sorted_after_driver(self):
        stitched = ledger.StitchedTrace(
            events=[], run_ids=(), corrupt_lines=0, roots=[],
            processes={
                10: {"role": "driver", "worker": None, "shard": None},
                20: {"role": "worker", "worker": 2, "shard": "0/2"},
            })
        events = chrome_trace_events(stitched)
        names = {ev["pid"]: ev["args"]["name"] for ev in events
                 if ev["name"] == "process_name"}
        sorts = {ev["pid"]: ev["args"]["sort_index"] for ev in events
                 if ev["name"] == "process_sort_index"}
        assert names[10] == "driver (pid 10)"
        assert names[20] == "shard 0/2 worker 2 (pid 20)"
        assert sorts[10] == 0 and sorts[20] == 3

    def test_convert_writes_output(self, tmp_path):
        path = _trace_file(tmp_path)
        out = tmp_path / "out.chrome.json"
        doc = convert_trace_files([path], out)
        assert json.loads(out.read_text()) == json.loads(json.dumps(doc))


class TestPrometheusNames:
    def test_sanitization(self):
        assert _prom_name("fo.eval.cache-hits") == "repro_fo_eval_cache_hits"
        assert _prom_name("9lives").startswith("repro_")

    def test_values(self):
        assert _prom_value(3.0) == "3"
        assert _prom_value(0.25) == "0.25"
        assert _prom_value(float("nan")) == "NaN"


class TestPrometheusRendering:
    def test_counters_gauges_histograms_phases(self):
        counter("fo.evals").inc(5)
        gauge("sweep.batches").set(2)
        h = REGISTRY.histogram("task.seconds", (0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        REGISTRY.phase_seconds["search"] = 1.25
        REGISTRY.phase_counts["search"] = 3
        text = render_prometheus(REGISTRY.snapshot())
        lines = text.splitlines()
        assert "repro_fo_evals_total 5" in lines
        assert "repro_sweep_batches 2" in lines
        # buckets are cumulative with inclusive upper bounds (le)
        assert 'repro_task_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_task_seconds_bucket{le="1"} 2' in lines
        assert 'repro_task_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_task_seconds_sum 5.55" in lines
        assert "repro_task_seconds_count 3" in lines
        assert 'repro_phase_seconds_total{phase="search"} 1.25' in lines
        assert 'repro_phase_runs_total{phase="search"} 3' in lines
        assert text.endswith("\n")

    def test_run_id_becomes_info_metric(self):
        ledger.begin_run(run_id="r-prom-01")
        counter("x").inc()
        text = render_prometheus(REGISTRY.snapshot())
        assert 'repro_run_info{run="r-prom-01"} 1' in text.splitlines()

    def test_no_run_no_info_metric(self):
        counter("x").inc()
        assert "repro_run_info" not in render_prometheus(
            REGISTRY.snapshot())


class TestExtractRegistrySnapshot:
    def _snapshot(self):
        counter("k").inc()
        return REGISTRY.snapshot()

    def test_bare_snapshot(self):
        snap = self._snapshot()
        assert extract_registry_snapshot(snap) is snap

    def test_metrics_json_wrapper(self):
        """Regression: the CLI wrapper shares the snapshot's schema tag
        at its own top level; the nested registry must win."""
        snap = self._snapshot()
        wrapper = {"schema": snap["schema"], "command": "verify",
                   "results": [], "registry": snap}
        assert extract_registry_snapshot(wrapper) is snap

    def test_shard_fragment_shape(self):
        snap = self._snapshot()
        fragment = {"schema": "repro.shard/1", "shard": [0, 2],
                    "metrics": snap}
        assert extract_registry_snapshot(fragment) is snap

    def test_v1_snapshot_accepted(self):
        snap = dict(self._snapshot())
        snap["schema"] = "repro.metrics/1"
        assert extract_registry_snapshot(snap) is snap

    def test_unknown_document_rejected(self):
        with pytest.raises(ValueError):
            extract_registry_snapshot({"schema": "something/9"})
