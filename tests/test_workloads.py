"""Tests for the workload diversity engine (repro.workloads)."""

import dataclasses

import pytest

from repro.benchsuite import get_benchmark
from repro.serving import ServingRequest, key_universe, zipf_trace
from repro.workloads import (
    WORKLOAD_FAMILIES,
    DriftEvent,
    WorkloadSpec,
    make_workload,
)


def _keys(programs=("vec_add", "mat_mul", "saxpy"), max_sizes=3):
    return key_universe(
        tuple(get_benchmark(n) for n in programs), max_sizes=max_sizes
    )


def _counts(requests):
    counts: dict[tuple[str, int], int] = {}
    for r in requests:
        counts[r.key] = counts.get(r.key, 0) + 1
    return counts


class TestSpecValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            WorkloadSpec(family="bursty")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_requests=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(skew=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(phases=0)
        with pytest.raises(ValueError):
            WorkloadSpec(burst_every=0)
        with pytest.raises(ValueError):
            WorkloadSpec(burst_share=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(period=1)
        with pytest.raises(ValueError):
            WorkloadSpec(skew_min=-0.1)
        with pytest.raises(ValueError):
            WorkloadSpec(skew_min=2.0, skew_max=1.0)

    @pytest.mark.parametrize("knob", ["skew", "skew_min", "skew_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_skews_rejected(self, knob, value):
        # Regression: a NaN skew passed construction and failed later,
        # inside numpy, with "Probabilities contain NaN".
        with pytest.raises(ValueError, match=f"{knob} must be"):
            WorkloadSpec(**{knob: value})

    def test_burst_and_rate_shape_knobs_rejected(self):
        # Regression: every burst/phase shape knob must be validated at
        # construction, not discovered as a bad array shape mid-trace.
        with pytest.raises(ValueError, match="burst_every"):
            WorkloadSpec(burst_every=-5)
        with pytest.raises(ValueError, match="burst_length"):
            WorkloadSpec(burst_length=0)
        with pytest.raises(ValueError, match="burst_length"):
            WorkloadSpec(burst_length=-1)
        with pytest.raises(ValueError, match="burst_share"):
            WorkloadSpec(burst_share=-0.1)
        with pytest.raises(ValueError, match="burst_rate"):
            WorkloadSpec(burst_rate=0.0)
        with pytest.raises(ValueError, match="burst_rate"):
            WorkloadSpec(burst_rate=-2.0)
        with pytest.raises(ValueError, match="period"):
            WorkloadSpec(period=-3)
        with pytest.raises(ValueError, match="phases"):
            WorkloadSpec(phases=-1)
        with pytest.raises(ValueError, match="rate_rps"):
            WorkloadSpec(rate_rps=0.0)
        # The boundary values stay constructible.
        WorkloadSpec(burst_every=1, burst_length=1, burst_share=0.0)
        WorkloadSpec(burst_share=1.0, period=2, phases=1)

    def test_drift_event_validation(self):
        with pytest.raises(ValueError):
            DriftEvent(at_request=-1, scale=0.5)
        with pytest.raises(ValueError):
            DriftEvent(at_request=0, scale=0.0)

    def test_drift_events_sorted_by_position(self):
        spec = WorkloadSpec(
            drift_events=(
                DriftEvent(at_request=90, scale=2.0),
                DriftEvent(at_request=10, scale=0.5),
            )
        )
        assert [e.at_request for e in spec.drift_events] == [10, 90]

    def test_families_constant_is_exhaustive(self):
        assert set(WORKLOAD_FAMILIES) == {
            "stationary",
            "phase-shift",
            "flash-crowd",
            "diurnal",
            "pipeline",
        }


class TestGenerators:
    def test_empty_key_universe_rejected(self):
        with pytest.raises(ValueError, match="key universe"):
            make_workload(WorkloadSpec(), ())

    def test_stationary_reproduces_zipf_trace(self):
        # Scaling baselines and replay runs keep their exact streams.
        keys = _keys()
        spec = WorkloadSpec(family="stationary", num_requests=64, skew=1.3, seed=9)
        workload = make_workload(spec, keys)
        assert workload.requests == zipf_trace(keys, 64, skew=1.3, seed=9)

    @pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
    def test_every_family_is_deterministic_with_sequential_ids(self, family):
        keys = _keys()
        spec = WorkloadSpec(family=family, num_requests=77, seed=4)
        a = make_workload(spec, keys)
        b = make_workload(spec, keys)
        assert a.requests == b.requests
        assert [r.request_id for r in a.requests] == list(range(77))
        if family == "pipeline":
            # Graph requests: every stage comes from the key universe.
            assert all(
                (node.program, node.size) in keys
                for r in a.requests
                for node in r.graph.nodes
            )
        else:
            assert all(r.key in keys for r in a.requests)

    def test_phase_shift_rotates_the_hot_set(self):
        keys = _keys(max_sizes=4)
        workload = make_workload(
            WorkloadSpec(family="phase-shift", num_requests=300, phases=3, seed=0),
            keys,
        )
        tops = [
            max(_counts(workload.requests[i : i + 100]).items(), key=lambda kv: kv[1])
            for i in (0, 100, 200)
        ]
        # At least one rotation changes which key dominates.
        assert len({key for key, _count in tops}) > 1

    def test_flash_crowd_burst_dominates_its_window(self):
        spec = WorkloadSpec(
            family="flash-crowd",
            num_requests=200,
            burst_every=50,
            burst_length=12,
            burst_share=0.9,
            seed=1,
        )
        workload = make_workload(spec, _keys())
        window = _counts(workload.requests[50:62])
        top_key, top_count = max(window.items(), key=lambda kv: kv[1])
        assert top_count >= 8  # ~90% of a 12-request burst
        # The burst key is a tail key, not the stationary head.
        base_head, _ = max(
            _counts(workload.requests[:50]).items(), key=lambda kv: kv[1]
        )
        assert top_key != base_head

    def test_diurnal_peak_concentrates_traffic(self):
        spec = WorkloadSpec(
            family="diurnal",
            num_requests=2000,
            period=200,
            skew_min=0.05,
            skew_max=3.0,
            seed=2,
        )
        workload = make_workload(spec, _keys(max_sizes=4))
        # Trough windows are the first/last quarter of each cycle;
        # peaks the middle.  Compare top-1 traffic share.
        trough, peak = [], []
        for i, r in enumerate(workload.requests):
            phase = (i % 200) / 200.0
            (peak if 0.25 <= phase < 0.75 else trough).append(r)
        trough_top = max(_counts(trough).values()) / len(trough)
        peak_top = max(_counts(peak).values()) / len(peak)
        assert peak_top > 2 * trough_top

    def test_pipeline_family_emits_graph_requests(self):
        from repro.graphs import STAGE_ROLES
        from repro.serving import GraphServingRequest
        from repro.workloads import stream_requests

        keys = _keys(
            programs=("stencil2d", "hotspot", "reduction", "mat_mul"),
            max_sizes=2,
        )
        spec = WorkloadSpec(family="pipeline", num_requests=50, seed=7)
        workload = make_workload(spec, keys)
        assert len(workload) == 50
        assert all(
            isinstance(r, GraphServingRequest) for r in workload.requests
        )
        # Streaming stays bit-identical to materializing.
        assert tuple(stream_requests(spec, keys)) == workload.requests
        # Chains follow the stage roles: stencil -> reduce -> gemm.
        for r in workload.requests:
            order = r.graph.topological_order()
            programs = [r.graph.node(n).program for n in order]
            assert programs[0] in STAGE_ROLES["stencil"]
            assert programs[1] in STAGE_ROLES["reduce"]
            assert programs[2] in STAGE_ROLES["gemm"]
            assert all(e.nbytes > 0 for e in r.graph.edges)

    def test_pipeline_family_without_role_programs_still_pipelines(self):
        # A universe with no stencil/reduce/gemm programs falls back to
        # consecutive-key chains rather than failing.
        keys = _keys(programs=("vec_add", "saxpy", "triad"), max_sizes=1)
        workload = make_workload(
            WorkloadSpec(family="pipeline", num_requests=10, seed=0), keys
        )
        assert len(workload) == 10
        assert all(len(r.graph.nodes) >= 2 for r in workload.requests)

    def test_items_interleaves_drift_events(self):
        keys = _keys()
        events = (
            DriftEvent(at_request=0, scale=0.5),
            DriftEvent(at_request=3, scale=2.0),
            DriftEvent(at_request=99, scale=0.9),
        )
        workload = make_workload(
            WorkloadSpec(num_requests=5, drift_events=events), keys
        )
        items = list(workload.items())
        assert isinstance(items[0], DriftEvent)
        assert isinstance(items[4], DriftEvent) and items[4].scale == 2.0
        assert isinstance(items[-1], DriftEvent)  # past-the-end event trails
        assert len(items) == 8


class TestZipfTraceEdgeCases:
    """Edge cases of the underlying Zipf primitive (satellite coverage)."""

    def test_near_zero_skew_is_roughly_uniform(self):
        keys = _keys(max_sizes=3)
        trace = zipf_trace(keys, 3000, skew=1e-6, seed=0)
        counts = _counts(trace)
        assert set(counts) == set(keys)  # every key drawn
        expected = 3000 / len(keys)
        assert max(counts.values()) < 1.5 * expected
        assert min(counts.values()) > 0.5 * expected

    def test_single_key_universe(self):
        keys = (("vec_add", 4096),)
        trace = zipf_trace(keys, 25, skew=2.0, seed=3)
        assert len(trace) == 25
        assert all(r.key == keys[0] for r in trace)
        assert [r.request_id for r in trace] == list(range(25))

    def test_deterministic_per_seed_and_distinct_across_seeds(self):
        keys = _keys()
        assert zipf_trace(keys, 40, seed=11) == zipf_trace(keys, 40, seed=11)
        traces = {zipf_trace(keys, 40, seed=s) for s in range(5)}
        assert len(traces) == 5  # different seeds shuffle differently

    def test_zero_requests_is_empty(self):
        assert zipf_trace(_keys(), 0) == ()


class TestServingRequest:
    def test_slotted_request_keeps_its_value_semantics(self):
        # A trace holds one request per arrival, so requests carry no
        # per-object dict.
        request = ServingRequest(request_id=7, program="vec_add", size=4096)
        assert not hasattr(request, "__dict__")
        tenanted = dataclasses.replace(request, tenant="gold")
        assert tenanted == ServingRequest(7, "vec_add", 4096, "gold")
        assert hash(tenanted) == hash(ServingRequest(7, "vec_add", 4096, "gold"))
        assert tenanted != request and tenanted.key == request.key
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.size = 1
