"""Tests for `repro.telemetry`: registry, tracer, analyzer, wiring.

The acceptance gates live here: a faulted cluster serve with
``telemetry="trace"`` must export byte-identical JSONL across two runs
with the same seeds, and the critical-path analyzer's per-request span
sum must equal the event loop's reported latency for every completed
request.
"""

import gc
import hashlib
import json
import weakref

import pytest

import repro.serving.eventloop as eventloop
import repro.telemetry.spans as spans_module
from repro.benchsuite import get_benchmark
from repro.cluster import ClusterRouter, with_tenants
from repro.core import TrainingConfig, train_system
from repro.faults import FaultSchedule, FaultSpec
from repro.fleet import FleetRouter
from repro.machines import fleet_platforms
from repro.serving import (
    LatencyHistogram,
    ServingRequest,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    SLOConfig,
    key_universe,
    serve_trace,
    zipf_trace,
)
from repro.telemetry import (
    TELEMETRY_MODES,
    Counter,
    CriticalPathAnalyzer,
    Gauge,
    MetricsRegistry,
    Span,
    Telemetry,
    Tracer,
)
from repro.telemetry.spans import LEAF_KINDS, SPAN_KINDS

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)
KEYS = key_universe(list(BENCHMARKS), max_sizes=2)

FAULTS = FaultSchedule(
    specs=(
        FaultSpec(kind="straggler", at_s=0.0, duration_s=0.05, magnitude=4.0,
                  replica=0),
        FaultSpec(kind="error", at_s=0.0, duration_s=1.0, magnitude=0.10),
        FaultSpec(kind="crash", at_s=0.01, duration_s=0.005, replica=0),
    ),
    seed=7,
)

#: A small 2x2 cluster trace that takes every traced path: a crash with
#: failover, a straggler, an error window with retries, backoff and
#: exhausted retries, predict errors, hedges, speculation, steals and
#: timeouts.
PINNED_FAULTS = FaultSchedule(
    specs=(
        FaultSpec("straggler", at_s=0.0, duration_s=0.04, magnitude=6.0, replica=0),
        FaultSpec("error", at_s=0.005, duration_s=0.02, magnitude=0.3),
        FaultSpec("predict-error", at_s=0.0, duration_s=0.05, magnitude=0.05),
        FaultSpec("crash", at_s=0.012, duration_s=0.006, replica=1),
    ),
    seed=11,
)
PINNED = ServeOptions(
    arrival="poisson",
    rate_rps=3000.0,
    seed=1,
    telemetry="trace",
    faults=PINNED_FAULTS,
    max_retries=3,
    retry_backoff_s=0.002,
    slo=SLOConfig(target_s=0.004),
    timeout_factor=2.0,
    hedge_at=0.8,
    speculate_at=0.9,
    work_steal=True,
)

#: Line count and sha256 of the PINNED run's JSONL export.  They were
#: computed with the earlier tracer that built segment lists and sorted
#: its critical leaves, so they pin the export across tracer rewrites:
#: a tracer change must keep these bytes.
PINNED_EXPORT = (
    470,
    "fdd8bf8be426e487105abc1a3ef0b69e3c7950b597a65a12b90e8338b9f04773",
)

TRACED = ServeOptions(
    arrival="poisson",
    rate_rps=2000.0,
    seed=5,
    telemetry="trace",
    faults=FAULTS,
    max_retries=3,
    hedge_at=0.9,
)

#: Completions before TRACED's hedge trigger arms (the loop's constant
#: is 32; a 50-request trace needs an earlier trigger to hedge).
TRACED_MIN_COMPLETIONS = 8


@pytest.fixture(scope="module")
def system():
    return train_system(
        fleet_platforms(1)[0], BENCHMARKS, model_kind="knn", config=TRAIN
    )


def _service(system):
    return PartitioningService(system, ServiceConfig())


def _cluster():
    return ClusterRouter.build(
        2, 1, benchmarks=BENCHMARKS, model_kind="knn", training=TRAIN
    )


def _trace(n=50, seed=5):
    return zipf_trace(KEYS, n, skew=1.2, seed=seed)


def _line(record):
    """One record as its canonical JSONL export line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestRegistry:
    def test_counter_and_gauge_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.value += 1
        c.value += 2
        reg.gauge("a.g").set(1.5)
        assert reg.value("a.b") == 3
        assert reg.value("a.g") == 1.5
        assert isinstance(c, Counter) and isinstance(reg.get("a.g"), Gauge)

    def test_registration_is_idempotent_per_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_shape_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="registered as"):
            reg.gauge("x")

    def test_counter_int_arithmetic_survives_json(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        for _ in range(5):
            c.value += 1
        assert json.dumps(reg.snapshot()) == '{"n": 5}'

    def test_snapshot_sorted_and_histograms_summarized(self):
        reg = MetricsRegistry()
        reg.gauge("z").set(1.0)
        reg.counter("a").value += 1
        h = reg.histogram("m")
        assert isinstance(h, LatencyHistogram)
        h.record(1e-3)
        snap = reg.snapshot()
        assert list(snap) == ["a", "m", "z"]
        assert snap["m"]["count"] == 1
        assert "m" in reg and len(reg) == 3 and reg.names() == ("a", "m", "z")


class TestTelemetryFacade:
    def test_modes_constant(self):
        assert TELEMETRY_MODES == ("off", "metrics", "trace")

    def test_off_mode_means_no_object(self):
        assert Telemetry.from_mode("off") is None
        with pytest.raises(ValueError):
            Telemetry("off")
        with pytest.raises(ValueError):
            Telemetry("bogus")

    def test_metrics_mode_has_no_tracer(self):
        tel = Telemetry.from_mode("metrics")
        assert not tel.tracing and tel.tracer is None
        with pytest.raises(ValueError):
            tel.analyzer()

    def test_unknown_mode_rejected_by_options(self):
        with pytest.raises(ValueError, match="telemetry"):
            ServeOptions(telemetry="verbose")


class TestTracedServiceRun:
    @pytest.fixture(scope="class")
    def run(self, system):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                eventloop, "TRIGGER_MIN_COMPLETIONS", TRACED_MIN_COMPLETIONS
            )
            return serve_trace(_service(system), _trace(), TRACED)

    def test_span_sum_equals_latency_for_every_completed_request(self, run):
        analyzer = run.telemetry.analyzer()
        completed = analyzer.completed_ids()
        assert len(completed) == run.stats.completed > 0
        for tid in completed:
            analyzer.check(tid)

    def test_latencies_match_completion_records(self, system, monkeypatch):
        monkeypatch.setattr(
            eventloop, "TRIGGER_MIN_COMPLETIONS", TRACED_MIN_COMPLETIONS
        )
        latencies = {}
        result = serve_trace(
            _service(system), _trace(), TRACED,
            on_complete=lambda r: latencies.__setitem__(
                r.request.request_id, r.latency_s
            ),
        )
        analyzer = result.telemetry.analyzer()
        for tid in analyzer.completed_ids():
            root = analyzer.root(tid)
            assert root.duration_s == latencies[root.attrs["request_id"]]

    def test_every_span_kind_is_known(self, run):
        for span in run.telemetry.tracer.spans:
            assert span.kind in SPAN_KINDS
            if span.kind in LEAF_KINDS and span.kind != "backoff":
                assert span.parent_id is not None

    def test_faulted_run_traces_retries(self, run):
        names = {s.name for s in run.telemetry.tracer.spans}
        assert "retry" in names or run.stats.retries == 0
        assert run.stats.retries > 0

    def test_breakdown_covers_only_leaf_kinds(self, run):
        analyzer = run.telemetry.analyzer()
        tid = analyzer.completed_ids()[0]
        breakdown = analyzer.breakdown(tid)
        assert set(breakdown) == set(LEAF_KINDS)
        assert sum(breakdown.values()) == pytest.approx(
            analyzer.latency_s(tid), rel=1e-9
        )

    def test_slowest_decile_and_attribution(self, run):
        analyzer = run.telemetry.analyzer()
        slowest = analyzer.slowest(0.1)
        completed = analyzer.completed_ids()
        assert 1 <= len(slowest) <= len(completed)
        worst = max(completed, key=lambda t: analyzer.latency_s(t))
        assert analyzer.latency_s(slowest[0]) == analyzer.latency_s(worst)
        report = analyzer.attribution(slowest)
        assert report["requests"] == len(slowest)
        shares = [k["share"] for k in report["kinds"].values()]
        assert sum(shares) == pytest.approx(1.0)
        table = analyzer.table(slowest)
        assert "queue" in table and "total_ms" in table

    def test_folded_stacks_are_rooted_at_request(self, run):
        folded = run.telemetry.analyzer().folded()
        assert folded
        for path, seconds in folded.items():
            assert path.startswith("request")
            assert seconds >= 0.0

    def test_export_roundtrips_through_json(self, run, tmp_path):
        path = tmp_path / "trace.jsonl"
        run.telemetry.tracer.export(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["spans"] == len(run.telemetry.tracer.spans)
        parsed = [json.loads(line) for line in lines[1:]]
        spans = [p for p in parsed if p["type"] == "span"]
        events = [p for p in parsed if p["type"] == "event"]
        assert len(spans) == header["spans"]
        assert len(events) == header["events"]
        rebuilt = CriticalPathAnalyzer(
            run.telemetry.tracer.spans
        )
        for tid in rebuilt.completed_ids():
            rebuilt.check(tid)

    def test_metrics_registry_collected(self, run):
        reg = run.telemetry.registry
        assert reg.value("loop.arrivals") == run.stats.arrivals
        assert reg.value("loop.completed") == run.stats.completed
        assert reg.value("service.requests") > 0
        assert any(n.startswith("slo.tenant.") for n in reg.names())
        assert any(n.startswith("loop.replica.") for n in reg.names())

    # -- the span and event views over the tracer's columns --------------

    def test_len_builds_no_record(self, run, monkeypatch):
        tracer = run.telemetry.tracer
        built = []

        class CountingSpan(Span):
            __slots__ = ()

            def __init__(self, *args):
                built.append("span")
                super().__init__(*args)

        build_event = spans_module._build_event

        def counting_event(*args):
            built.append("event")
            return build_event(*args)

        monkeypatch.setattr(spans_module, "Span", CountingSpan)
        monkeypatch.setattr(spans_module, "_build_event", counting_event)
        assert len(tracer.spans) > 0 and len(tracer.events) > 0
        assert built == []
        assert isinstance(tracer.spans[-1], CountingSpan)
        assert tracer.events[0]["type"] == "event"
        assert built == ["span", "event"]

    def test_views_read_as_the_export(self, run):
        tracer = run.telemetry.tracer
        lines = tracer.export_lines()
        events, spans = tracer.events, tracer.spans
        event_lines = lines[1 : 1 + len(events)]
        span_lines = lines[1 + len(events) :]
        assert len(span_lines) == len(spans) > 10
        assert [_line(e) for e in events] == event_lines
        assert [_line(s.to_record()) for s in spans] == span_lines
        for view, expected, as_record in (
            (events, event_lines, lambda e: e),
            (spans, span_lines, lambda s: s.to_record()),
        ):
            for index in (0, 1, len(view) // 2, -2, -1, -len(view)):
                assert _line(as_record(view[index])) == expected[index]
            for cut in (slice(1, 4), slice(-3, None), slice(None, None, 7),
                        slice(None, None, -5), slice(5, 2)):
                assert [_line(as_record(r)) for r in view[cut]] == expected[cut]
            for index in (len(view), -len(view) - 1):
                with pytest.raises(IndexError):
                    view[index]

    def test_analyzer_builds_a_trace_only_when_read(self, run, monkeypatch):
        built = []

        class CountingSpan(Span):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(spans_module, "Span", CountingSpan)
        analyzer = run.telemetry.analyzer()
        ids = analyzer.trace_ids()
        assert built == [] and len(ids) == run.stats.admitted
        assert analyzer.root(ids[-1]).kind == "request"
        assert built == [ids[-1]]
        completed = analyzer.completed_ids()
        built.clear()
        analyzer.check(completed[0])
        assert set(built) == {completed[0]}

    def test_analyzer_reads_the_columns_as_the_spans(self, run):
        columns = run.telemetry.analyzer()
        spans = CriticalPathAnalyzer(list(run.telemetry.tracer.spans))
        assert columns.trace_ids() == spans.trace_ids()
        assert columns.completed_ids() == spans.completed_ids()
        for tid in columns.trace_ids():
            assert columns.root(tid) == spans.root(tid)
            assert columns.critical_spans(tid) == spans.critical_spans(tid)
        slowest = columns.slowest(0.2)
        assert slowest == spans.slowest(0.2)
        assert columns.attribution(slowest) == spans.attribution(slowest)
        assert columns.folded() == spans.folded()

    def test_views_are_read_only(self, run):
        tracer = run.telemetry.tracer
        with pytest.raises(AttributeError):
            tracer.spans = []
        with pytest.raises(TypeError):
            tracer.spans[0] = None
        assert not hasattr(tracer.events, "append")

    def test_finished_trace_is_freed_by_reference_counting(self, system):
        gc.disable()
        try:
            loop = serve_trace(
                _service(system), _trace(20),
                ServeOptions(arrival="poisson", rate_rps=2000.0, seed=5,
                             telemetry="trace"),
            )
            assert len(loop.telemetry.tracer.spans) > 0
            tracer = weakref.ref(loop.telemetry.tracer)
            views = loop.telemetry.tracer.spans, loop.telemetry.tracer.events
            del loop
            assert tracer() is None
            assert len(views[0]) > 0 and len(views[1]) > 0
        finally:
            gc.enable()


class TestByteIdenticalReplay:
    def test_faulted_cluster_serve_replays_byte_identical(self, monkeypatch):
        """The acceptance gate: same seeds -> same bytes, twice."""
        monkeypatch.setattr(eventloop, "TRIGGER_MIN_COMPLETIONS", 8)
        exports = []
        stats = []
        for _ in range(2):
            cluster = _cluster()
            trace = with_tenants(_trace(40), ("premium", "batch"))
            options = ServeOptions(
                arrival="poisson",
                rate_rps=2000.0,
                seed=5,
                telemetry="trace",
                faults=FAULTS,
                max_retries=3,
                slo=SLOConfig(target_s=0.5),
                speculate_at=0.9,
                work_steal=True,
            )
            result = serve_trace(cluster, trace, options)
            analyzer = result.telemetry.analyzer()
            for tid in analyzer.completed_ids():
                analyzer.check(tid)
            exports.append(result.telemetry.tracer.export_lines())
            stats.append(result.stats)
        assert stats[0].completed == stats[1].completed
        assert exports[0] == exports[1]
        assert len(exports[0]) > 40

    def test_faulted_cluster_export_keeps_its_pinned_bytes(self, monkeypatch):
        monkeypatch.setattr(eventloop, "TRIGGER_MIN_COMPLETIONS", 8)
        cluster = ClusterRouter.build(
            2, 2, benchmarks=BENCHMARKS, model_kind="knn", training=TRAIN
        )
        trace = with_tenants(_trace(60, seed=1), ("premium", "batch"))
        result = serve_trace(cluster, trace, PINNED)
        for shape in (
            "crashes", "failovers", "retries", "exec_errors", "predict_errors",
            "hedges", "speculations", "steals", "timeouts",
        ):
            assert getattr(result.stats, shape) > 0, shape
        tracer = result.telemetry.tracer
        names = {span.name for span in tracer.spans}
        assert names == {name for name, _kind in spans_module._SPAN_TYPES}
        lines = tracer.export_lines()
        digest = hashlib.sha256("\n".join(lines).encode() + b"\n").hexdigest()
        assert (len(lines), digest) == PINNED_EXPORT

    def test_cluster_network_spans_nest_under_placements(self):
        cluster = _cluster()
        result = serve_trace(
            cluster,
            with_tenants(_trace(40), ("premium", "batch")),
            ServeOptions(arrival="poisson", rate_rps=2000.0, seed=5,
                         telemetry="trace"),
        )
        tracer = result.telemetry.tracer
        by_id = {s.span_id: s for s in tracer.spans}
        nets = [s for s in tracer.spans if s.kind == "network"]
        assert any(s.duration_s > 0 for s in nets)
        for net in nets:
            assert by_id[net.parent_id].kind == "placement"
        assert result.stats.completed > 0


class TestMetricsMode:
    def test_event_run_shares_one_registry(self, system):
        result = serve_trace(
            _service(system), _trace(30),
            ServeOptions(arrival="poisson", rate_rps=2000.0, seed=5,
                         telemetry="metrics"),
        )
        tel = result.telemetry
        assert tel is not None and not tel.tracing
        assert result.stats.registry is tel.registry
        assert tel.registry.value("loop.completed") == result.stats.completed
        assert tel.registry.value("service.requests") > 0

    def test_sequential_metrics_publishes_backend(self, system):
        result = serve_trace(
            _service(system), _trace(8), ServeOptions(telemetry="metrics")
        )
        assert result.telemetry.registry.value("service.requests") == 8
        assert "service.cache.hit_rate" in result.telemetry.registry

    def test_fleet_publishes_replicas(self):
        fleet = FleetRouter(
            [PartitioningService(
                train_system(p, BENCHMARKS, model_kind="knn", config=TRAIN),
                ServiceConfig(),
            ) for p in fleet_platforms(2)],
            policy="least-loaded",
        )
        result = serve_trace(
            fleet, _trace(20),
            ServeOptions(arrival="poisson", rate_rps=2000.0, seed=5,
                         telemetry="metrics"),
        )
        reg = result.telemetry.registry
        assert reg.value("fleet.requests") == 20
        assert any(n.startswith("fleet.replica.") for n in reg.names())

    def test_cluster_publishes_tenants_and_pools(self):
        cluster = _cluster()
        result = serve_trace(
            cluster,
            with_tenants(_trace(20), ("premium", "batch")),
            ServeOptions(arrival="poisson", rate_rps=2000.0, seed=5,
                         telemetry="metrics"),
        )
        reg = result.telemetry.registry
        assert reg.value("cluster.served") == result.stats.completed
        assert "cluster.tenant.premium.share" in reg
        assert "cluster.pool.0.requests" in reg
        assert "cluster.pool.1.requests" in reg

    def test_off_mode_returns_no_telemetry(self, system):
        result = serve_trace(
            _service(system), _trace(10),
            ServeOptions(arrival="poisson", rate_rps=2000.0, seed=5),
        )
        assert result.telemetry is None
        assert result.stats.completed > 0


class TestTracerUnits:
    def test_manual_trace_tiles_exactly(self):
        tracer = Tracer()
        tracer.begin(0, 1.0, ServingRequest(request_id=0, program="vec_add", size=64))
        tid = tracer.enqueue(0, 1.0, replica=0)
        tracer.start(tid, 1.5, predict_end_s=1.6, net_start_s=2.0,
                     finish_s=2.25, outcome="ok")
        tracer.complete(0, 2.25, tid)
        analyzer = CriticalPathAnalyzer(tracer.spans)
        analyzer.check(0)
        breakdown = analyzer.breakdown(0)
        assert breakdown["queue"] == pytest.approx(0.5)
        assert breakdown["predict"] == pytest.approx(0.1)
        assert breakdown["execute"] == pytest.approx(0.4)
        assert breakdown["network"] == pytest.approx(0.25)

    def test_failed_trace_is_excluded_from_completed(self):
        tracer = Tracer()
        tracer.begin(3, 0.0, ServingRequest(request_id=3, program="vec_add", size=64))
        tid = tracer.enqueue(3, 0.0, replica=0)
        tracer.fail_attempt(tid, 0.5)
        tracer.fail(3, 0.5, reason="retries-exhausted")
        analyzer = CriticalPathAnalyzer(tracer.spans)
        assert analyzer.trace_ids() == (3,)
        assert analyzer.completed_ids() == ()
        assert analyzer.root(3).attrs["outcome"] == "retries-exhausted"

    def test_trace_records_are_slotted(self):
        tracer = Tracer()
        tracer.begin(0, 1.0, ServingRequest(request_id=0, program="vec_add", size=64))
        marker = tracer.enqueue(0, 1.0, replica=0)
        open_records = [tracer._open[0], marker]
        tracer.start(marker, 1.5, predict_end_s=1.6, net_start_s=2.0,
                     finish_s=2.25, outcome="ok")
        tracer.complete(0, 2.25, marker)
        assert tracer.spans and not tracer._open
        for record in [*open_records, *tracer.spans]:
            assert not hasattr(record, "__dict__"), type(record).__name__
        # Spans live in the tracer's columns: it stores no Span and no
        # attrs dict (down through the columns, their rows and what a
        # row holds; classes are not storage), and a leaf stores nothing.
        stored = list(vars(tracer).values())
        for _ in range(3):
            stored = [o for o in gc.get_referents(*stored) if not isinstance(o, type)]
            assert not any(isinstance(obj, (Span, dict)) for obj in stored)
        leaves = sum(span.kind in LEAF_KINDS for span in tracer.spans)
        assert leaves == 4
        assert tracer._span_columns[-1].count(None) == leaves

    def test_positional_span_exports_the_same_record(self):
        positional = Span(7, 3, 1, "queue", "queue", 0.5, 0.75, True, {"k": 1})
        keyword = Span(
            trace_id=7, span_id=3, parent_id=1, name="queue", kind="queue",
            start_s=0.5, end_s=0.75, critical=True, attrs={"k": 1},
        )
        expected = {
            "type": "span", "trace": 7, "span": 3, "parent": 1,
            "name": "queue", "kind": "queue", "start_s": 0.5, "end_s": 0.75,
            "critical": True, "attrs": {"k": 1},
        }
        assert positional.to_record() == keyword.to_record() == expected

    def test_events_are_sequenced(self):
        tracer = Tracer()
        tracer.event(0.5, "crash", replica=1)
        tracer.event(0.5, "recover", replica=1)
        assert [e["seq"] for e in tracer.events] == [1, 2]
