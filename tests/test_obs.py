"""Tests for the observability layer (repro.obs) and its CLI wiring."""

import io
import json
import logging

import numpy as np
import pytest

from repro.obs.logging import (
    JsonFormatter,
    bind_context,
    configure_logging,
    current_context,
    get_logger,
    log_mode,
    reset_logging,
    run_context,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.progress import ProgressHeartbeat
from repro.obs.tracing import (
    Tracer,
    configure_tracing,
    disable_tracing,
    get_tracer,
    span,
    trace_event,
    tracing_enabled,
)
from repro.stats.counters import JoinStats


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with the layer fully disabled."""
    reset_logging()
    disable_tracing()
    reset_registry()
    yield
    reset_logging()
    disable_tracing()
    reset_registry()


# ---------------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------------

class TestLogging:
    def test_silent_by_default(self, capsys):
        # NullHandler contract: an unconfigured library logger prints
        # nothing and does not warn about missing handlers.
        get_logger("core.ssj").warning("should not appear")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert log_mode() is None

    def test_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("core.ssj").name == "repro.core.ssj"
        # Parent chain reaches the "repro" root of the hierarchy.
        parent = get_logger("core.ssj").parent
        while parent is not None and parent.name != "repro":
            parent = parent.parent
        assert parent is get_logger()

    def test_json_lines_output(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        get_logger("test").info("hello", extra={"answer": 42})
        record = json.loads(stream.getvalue())
        assert record["event"] == "hello"
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"
        assert record["answer"] == 42
        assert isinstance(record["ts"], float)
        assert log_mode() == "json"

    def test_plain_output(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=False, stream=stream)
        get_logger("test").info("hello", extra={"answer": 42})
        line = stream.getvalue()
        assert "hello" in line and "answer=42" in line
        assert log_mode() == "plain"

    def test_level_filtering(self):
        stream = io.StringIO()
        configure_logging(level="warning", json_lines=True, stream=stream)
        get_logger("test").info("dropped")
        get_logger("test").warning("kept")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "kept"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="loud")

    def test_run_context_scoping(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        with run_context(run="r1", algorithm="csj"):
            assert current_context() == {"run": "r1", "algorithm": "csj"}
            with run_context(algorithm="ssj", eps=0.1):
                get_logger("t").info("inner")
            get_logger("t").info("outer")
        get_logger("t").info("outside")
        inner, outer, outside = [
            json.loads(ln) for ln in stream.getvalue().splitlines()
        ]
        assert inner["run"] == "r1" and inner["algorithm"] == "ssj"
        assert inner["eps"] == 0.1
        assert outer["algorithm"] == "csj" and "eps" not in outer
        assert "run" not in outside

    def test_explicit_extra_beats_context(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        with run_context(algorithm="csj"):
            get_logger("t").info("e", extra={"algorithm": "override"})
        assert json.loads(stream.getvalue())["algorithm"] == "override"

    def test_bind_context_is_permanent(self):
        token_before = current_context()
        bind_context(worker=3)
        try:
            assert current_context()["worker"] == 3
        finally:
            # Restore for other tests (bind_context has no unwind).
            import repro.obs.logging as obs_logging

            obs_logging._context.set(token_before)

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        configure_logging(level="info", json_lines=True, stream=stream)
        root = logging.getLogger("repro")
        tagged = [
            h for h in root.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(tagged) == 1

    def test_exception_serialised(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        try:
            raise ValueError("boom")
        except ValueError:
            get_logger("t").exception("failed")
        record = json.loads(stream.getvalue())
        assert "boom" in record["exception"]

    def test_non_json_values_stringified(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        get_logger("t").info("e", extra={"obj": object()})
        assert "object object" in json.loads(stream.getvalue())["obj"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("c_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_histogram_buckets(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)
        cumulative = dict(h.cumulative())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 2
        assert cumulative[float("inf")] == 3

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total")
        b = reg.counter("x_total")
        assert a is b
        assert len(reg) == 1
        assert "x_total" in reg
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_record_join_stats_matches(self):
        reg = MetricsRegistry()
        stats = JoinStats(
            links_emitted=12, groups_emitted=3, bytes_written=99,
            distance_computations=456, compute_time=1.5, write_time=0.5,
        )
        reg.record_join_stats(stats)
        snap = reg.snapshot()
        assert snap["repro_join_links_emitted_total"] == 12
        assert snap["repro_join_groups_emitted_total"] == 3
        assert snap["repro_join_bytes_written_total"] == 99
        assert snap["repro_join_distance_computations_total"] == 456
        assert snap["repro_join_compute_time_seconds_total"] == 1.5
        assert snap["repro_join_total_time_seconds_total"] == 2.0
        assert snap["repro_join_pairs_reported_total"] == 12

    def test_record_shard_work(self):
        reg = MetricsRegistry()
        work = {"distance_computations": 70, "mbr_checks": 9, "early_stops": 0}
        reg.record_shard_work(work)
        reg.record_shard_work(work)
        snap = reg.snapshot()
        assert snap["repro_shard_work_distance_computations_total"] == 140
        assert snap["repro_shard_work_mbr_checks_total"] == 18
        assert snap["repro_shard_work_early_stops_total"] == 0

    def test_record_budget(self):
        from repro.resilience.budget import Budget

        reg = MetricsRegistry()
        budget = Budget(deadline_seconds=30.0, max_output_bytes=1000)
        budget.start()
        reg.record_budget(budget)
        snap = reg.snapshot()
        assert snap["repro_budget_active"] == 1
        assert snap["repro_budget_deadline_seconds"] == 30.0
        assert snap["repro_budget_max_output_bytes"] == 1000

    def test_json_export_parses(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(3)
        reg.histogram("d_seconds", buckets=(1.0,)).observe(0.5)
        snap = json.loads(reg.to_json())
        assert snap["a_total"] == 3
        assert snap["d_seconds"]["count"] == 1
        assert snap["d_seconds"]["buckets"]["+Inf"] == 1

    def test_prometheus_export_format(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "things").inc(3)
        reg.gauge("b", "level").set(7)
        reg.histogram("d_seconds", "durations", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE a_total counter" in text
        assert "a_total 3" in text
        assert "# TYPE b gauge" in text
        assert 'd_seconds_bucket{le="1.0"} 1' in text
        assert 'd_seconds_bucket{le="+Inf"} 1' in text
        assert "d_seconds_count 1" in text

    def test_reset_registry_replaces_global(self):
        get_registry().counter("junk_total").inc()
        fresh = reset_registry()
        assert get_registry() is fresh
        assert "junk_total" not in fresh


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTracing:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        a = span("descend")
        b = span("emit")
        assert a is b  # one shared object: the disabled path allocates nothing
        with a:
            pass
        trace_event("nothing")  # no-op, no error

    def test_spans_written_as_json_lines(self):
        stream = io.StringIO()
        tracer = Tracer(stream)
        with tracer.span("descend", algorithm="csj"):
            with tracer.span("emit"):
                pass
        records = [json.loads(ln) for ln in stream.getvalue().splitlines()]
        assert len(records) == 2
        emit, descend = records  # children complete first
        assert emit["name"] == "emit"
        assert emit["path"] == "descend;emit"
        assert emit["depth"] == 1
        assert descend["name"] == "descend"
        assert descend["path"] == "descend"
        assert descend["algorithm"] == "csj"
        assert descend["dur"] >= emit["dur"]

    def test_events(self):
        stream = io.StringIO()
        tracer = Tracer(stream)
        with tracer.span("outer"):
            tracer.event("worker-spawn", worker=2)
        records = [json.loads(ln) for ln in stream.getvalue().splitlines()]
        event = records[0]
        assert event["event"] is True
        assert event["dur"] == 0.0
        assert event["path"] == "outer;worker-spawn"
        assert event["worker"] == 2

    def test_global_tracer_wiring(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = configure_tracing(str(path))
        assert get_tracer() is tracer and tracing_enabled()
        with span("descend", eps=0.1):
            pass
        disable_tracing()
        assert get_tracer() is None
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert records[0]["name"] == "descend"
        assert tracer.records == 1

    def test_join_emits_descend_span(self, tmp_path):
        from repro.api import similarity_join

        path = tmp_path / "t.jsonl"
        configure_tracing(str(path))
        pts = np.random.default_rng(0).random((150, 2))
        similarity_join(pts, 0.1, algorithm="csj")
        disable_tracing()
        names = {
            json.loads(ln)["name"] for ln in path.read_text().splitlines()
        }
        assert "descend" in names
        assert "emit" in names

    def test_checkpoint_span_recorded(self, tmp_path):
        from repro.resilience.checkpoint import CheckpointedJoin

        path = tmp_path / "t.jsonl"
        configure_tracing(str(path))
        pts = np.random.default_rng(0).random((150, 2))
        CheckpointedJoin(
            pts, 0.08, output_path=str(tmp_path / "out.txt"), cadence=8
        ).run()
        disable_tracing()
        names = [
            json.loads(ln)["name"] for ln in path.read_text().splitlines()
        ]
        assert "checkpoint" in names

    def test_index_build_spans(self, tmp_path):
        from repro.index.bulk import bulk_load
        from repro.index.rstar import RStarTree
        from repro.index.rtree import RTree

        path = tmp_path / "t.jsonl"
        configure_tracing(str(path))
        pts = np.random.default_rng(0).random((120, 2))
        tree = RStarTree(pts, max_entries=8)
        tree.delete(3)
        tree.compact()  # rebuilds by insertion: a second span
        bulk_load(pts, method="Hilbert", tree_class=RTree)
        disable_tracing()
        builds = [
            (r["index"], r["n"], r["method"])
            for r in map(json.loads, path.read_text().splitlines())
            if r["name"] == "index-build"
        ]
        assert builds == [
            ("rstar", 120, "insert"),
            ("rstar", 119, "insert"),
            ("rtree", 120, "hilbert"),
        ]

    def test_thread_local_stacks(self):
        import threading

        stream = io.StringIO()
        tracer = Tracer(stream)

        def worker():
            with tracer.span("b"):
                pass

        with tracer.span("a"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        records = {
            r["name"]: r
            for r in map(json.loads, stream.getvalue().splitlines())
        }
        # The other thread's span must not inherit this thread's stack.
        assert records["b"]["path"] == "b"
        assert records["a"]["path"] == "a"


# ---------------------------------------------------------------------------
# Progress heartbeat
# ---------------------------------------------------------------------------

class TestProgressHeartbeat:
    def test_beats_and_reads_live_stats(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        stats = JoinStats()
        import time as _time

        with run_context(run="hb-run"):
            with ProgressHeartbeat(stats, interval=0.01) as hb:
                for _ in range(5):
                    stats.links_emitted += 10
                    _time.sleep(0.015)
        assert hb.beats >= 1
        records = [json.loads(ln) for ln in stream.getvalue().splitlines()]
        beats = [r for r in records if r["event"] == "progress"]
        assert beats
        assert beats[-1]["links_emitted"] >= 10
        assert all("elapsed_seconds" in r for r in beats)
        # Threads don't inherit contextvars; the heartbeat must carry a
        # copy of the caller's run context anyway.
        assert all(r["run"] == "hb-run" for r in beats)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ProgressHeartbeat(JoinStats(), interval=0)

    def test_stop_is_idempotent(self):
        hb = ProgressHeartbeat(JoinStats(), interval=1.0).start()
        hb.stop()
        hb.stop()


# ---------------------------------------------------------------------------
# End-to-end CLI smoke: serial vs parallel, artifacts parseable
# ---------------------------------------------------------------------------

class TestCliSmoke:
    def _run(self, tmp_path, workers, capsys):
        from repro.cli import main

        tag = f"w{workers}"
        pts = tmp_path / "pts.txt"
        if not pts.exists():
            np.savetxt(pts, np.random.default_rng(7).random((250, 2)))
        metrics = tmp_path / f"{tag}.metrics.json"
        trace = tmp_path / f"{tag}.trace.jsonl"
        out = tmp_path / f"{tag}.out.txt"
        argv = [
            "join", "--input", str(pts), "--eps", "0.08",
            "--algorithm", "csj", "--output", str(out),
            "--log-json", "--trace", str(trace),
            "--metrics-out", str(metrics),
        ]
        if workers > 1:
            argv += ["--workers", str(workers)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        log_records = [json.loads(ln) for ln in err.splitlines() if ln.strip()]
        trace_records = [
            json.loads(ln) for ln in trace.read_text().splitlines()
        ]
        snapshot = json.loads(metrics.read_text())
        return out.read_bytes(), log_records, trace_records, snapshot

    def test_artifacts_parse_and_agree_across_worker_counts(
        self, tmp_path, capsys
    ):
        out1, logs1, trace1, snap1 = self._run(tmp_path, 1, capsys)
        out2, logs2, trace2, snap2 = self._run(tmp_path, 2, capsys)

        # Every artifact is non-empty and parsed already (json.loads above).
        assert logs1 and trace1 and snap1
        assert logs2 and trace2 and snap2

        # Output bytes are identical between worker counts.
        assert out1 == out2

        # The run summary matches the exported metrics, which match the
        # final JoinStats for every machine-independent counter.
        for logs, snap in ((logs1, snap1), (logs2, snap2)):
            summary = [r for r in logs if r["event"] == "run summary"]
            assert len(summary) == 1
            s = summary[0]
            for field in (
                "links_emitted", "groups_emitted", "bytes_written",
                "early_stops", "distance_computations",
            ):
                assert snap[f"repro_join_{field}_total"] == s[field], field

        # And the deterministic counters agree across worker counts.
        for name in (
            "repro_join_links_emitted_total",
            "repro_join_groups_emitted_total",
            "repro_join_bytes_written_total",
            "repro_join_distance_computations_total",
        ):
            assert snap1[name] == snap2[name], name

        # Parallel runs additionally report pool health.
        assert snap2["repro_pool_spawns_total"] >= 2

        # Trace files carry the expected phases.
        assert any(r["name"] == "descend" for r in trace1)
        assert any(r["name"] == "csj-merge" for r in trace2)
