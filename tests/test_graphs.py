"""Tests for the task-graph layer (repro.graphs) and its integrations."""

import pytest

from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, train_system
from repro.energy import EnergyMeter
from repro.engine import SweepEngine
from repro.graphs import (
    GraphPlan,
    GraphPlanner,
    TaskEdge,
    TaskGraph,
    TaskNode,
    chain_universe,
    diamond_graph,
    edge_transfer,
    greedy_plan,
    handoff_nbytes,
    pipeline_chain,
)
from repro.graphs.compose import node_requests
from repro.machines import MC2
from repro.partitioning import Partitioning, partition_space
from repro.runtime import Runner
from repro.serving import (
    EventLoop,
    GraphServingRequest,
    PartitioningService,
    ServiceConfig,
    ServingRequest,
)

#: A transfer-heavy 3-stage chain; co-location beats per-task greed here.
CHAIN_STAGES = [("stencil2d", 256), ("reduction", 65536), ("mat_mul", 160)]


def _chain(scale_bytes=64.0):
    return pipeline_chain(CHAIN_STAGES, scale_bytes=scale_bytes)


def _engine(platform=MC2, noise_sigma=0.0, seed=0):
    return SweepEngine(Runner(platform, noise_sigma=noise_sigma, seed=seed))


def _planner(engine, step_percent=10):
    runner = engine.runner
    idle_w = EnergyMeter(runner.devices).platform_idle_w()
    return GraphPlanner(
        engine.measure, runner.devices, idle_w, step_percent=step_percent
    )


class TestGraphValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            TaskGraph(nodes=())

    def test_cycle_rejected(self):
        nodes = (
            TaskNode("a", "vec_add", 4096),
            TaskNode("b", "vec_add", 4096),
            TaskNode("c", "vec_add", 4096),
        )
        edges = (
            TaskEdge("a", "b", 64),
            TaskEdge("b", "c", 64),
            TaskEdge("c", "a", 64),
        )
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph(nodes=nodes, edges=edges)

    def test_two_node_cycle_rejected(self):
        nodes = (TaskNode("a", "vec_add", 64), TaskNode("b", "saxpy", 64))
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph(
                nodes=nodes,
                edges=(TaskEdge("a", "b", 1), TaskEdge("b", "a", 1)),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate task names"):
            TaskGraph(
                nodes=(TaskNode("a", "vec_add", 64), TaskNode("a", "saxpy", 64))
            )

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskGraph(
                nodes=(TaskNode("a", "vec_add", 64),),
                edges=(TaskEdge("a", "ghost", 1),),
            )

    def test_duplicate_edge_rejected(self):
        nodes = (TaskNode("a", "vec_add", 64), TaskNode("b", "saxpy", 64))
        with pytest.raises(ValueError, match="duplicate edge"):
            TaskGraph(
                nodes=nodes,
                edges=(TaskEdge("a", "b", 1), TaskEdge("a", "b", 2)),
            )

    def test_self_edge_and_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="self-edge"):
            TaskEdge("a", "a", 1)
        with pytest.raises(ValueError, match="negative bytes"):
            TaskEdge("a", "b", -1)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            TaskNode("", "vec_add", 64)
        with pytest.raises(ValueError):
            TaskNode("a", "", 64)
        with pytest.raises(ValueError):
            TaskNode("a", "vec_add", 0)

    def test_chain_builder_shape_checks(self):
        with pytest.raises(ValueError, match="at least one stage"):
            TaskGraph.chain([], 64)
        with pytest.raises(ValueError, match="handoff byte counts"):
            TaskGraph.chain([("vec_add", 64), ("saxpy", 64)], [1, 2])


class TestTopology:
    def test_topological_order_respects_edges_and_is_deterministic(self):
        graph = diamond_graph(
            ("stencil2d", 256),
            [("reduction", 65536), ("dot_product", 65536)],
            ("mat_mul", 160),
        )
        order = graph.topological_order()
        assert order == graph.topological_order()
        pos = {name: i for i, name in enumerate(order)}
        for edge in graph.edges:
            assert pos[edge.src] < pos[edge.dst]

    def test_diamond_join_waits_for_both_branches(self):
        graph = diamond_graph(
            ("stencil2d", 256),
            [("reduction", 65536), ("dot_product", 65536)],
            ("mat_mul", 160),
            scale_bytes=64.0,
        )
        assert {e.src for e in graph.in_edges("sink")} == {"b0", "b1"}
        engine = _engine()
        even = {n.name: Partitioning((34, 33, 33)) for n in graph.nodes}
        run = engine.measure_graph(graph, even, node_requests(graph))
        finishes = {s.node: s.finish_s for s in run.schedule}
        starts = {s.node: s.start_s for s in run.schedule}
        assert starts["sink"] >= max(finishes["b0"], finishes["b1"])
        assert run.median_s == finishes["sink"]

    def test_signature_label_distinguishes_graphs(self):
        a = _chain(scale_bytes=1.0)
        b = _chain(scale_bytes=2.0)  # same stages, different edge bytes
        assert a.signature_label != b.signature_label
        assert a.signature_label == _chain(scale_bytes=1.0).signature_label
        assert a.total_size == sum(size for _, size in CHAIN_STAGES)


class TestEdgePricing:
    def test_colocated_transfer_is_free(self):
        devices = Runner(MC2).devices
        p = Partitioning((40, 30, 30))
        seconds, joules = edge_transfer(devices, 1 << 20, p, p)
        assert seconds == 0.0 and joules == 0.0

    def test_zero_bytes_are_free(self):
        devices = Runner(MC2).devices
        a, b = Partitioning((100, 0, 0)), Partitioning((0, 100, 0))
        assert edge_transfer(devices, 0, a, b) == (0.0, 0.0)

    def test_host_resident_handoff_is_free(self):
        # Device 0 is the host-resident CPU on both machines: moving a
        # tensor within host memory prices to zero, like PCIe transfers.
        devices = Runner(MC2).devices
        p = Partitioning((100, 0, 0))
        assert edge_transfer(devices, 1 << 20, p, p) == (0.0, 0.0)

    def test_cross_gpu_handoff_costs_time_and_joules(self):
        devices = Runner(MC2).devices
        seconds, joules = edge_transfer(
            devices, 1 << 22, Partitioning((0, 100, 0)), Partitioning((0, 0, 100))
        )
        assert seconds > 0.0
        assert joules > 0.0
        # Must price like the single-kernel PCIe path: down + up.
        from repro.ocl import TransferDirection

        d2h = devices[1].cost_model.transfer_time_s(
            1 << 22, TransferDirection.DEVICE_TO_HOST
        )
        h2d = devices[2].cost_model.transfer_time_s(
            1 << 22, TransferDirection.HOST_TO_DEVICE
        )
        assert seconds == pytest.approx(d2h + h2d)

    def test_partial_overlap_prices_only_the_moved_share(self):
        devices = Runner(MC2).devices
        full_s, _ = edge_transfer(
            devices, 1 << 22, Partitioning((0, 100, 0)), Partitioning((0, 0, 100))
        )
        half_s, _ = edge_transfer(
            devices, 1 << 22, Partitioning((0, 100, 0)), Partitioning((0, 50, 50))
        )
        assert 0.0 < half_s < full_s


class TestBuilders:
    def test_handoff_bytes_are_output_sized(self):
        bench = get_benchmark("vec_add")
        size = bench.problem_sizes()[0]
        instance = bench.make_instance(size, seed=0)
        expected = sum(
            int(instance.arrays[n].nbytes) for n in instance.output_names
        )
        assert handoff_nbytes("vec_add", size) == max(expected, 4)

    def test_chain_universe_role_chains_are_distinct(self):
        keys = [
            ("stencil2d", 256),
            ("hotspot", 256),
            ("reduction", 65536),
            ("mat_mul", 160),
            ("atax", 256),
        ]
        graphs = chain_universe(keys, max_chains=4)
        assert len(graphs) >= 2
        assert len({g.signature for g in graphs}) == len(graphs)

    def test_chain_universe_fallback_for_roleless_keys(self):
        graphs = chain_universe([("vec_add", 4096), ("saxpy", 4096)])
        assert graphs
        assert all(len(g.nodes) >= 2 for g in graphs)

    def test_builder_argument_validation(self):
        with pytest.raises(ValueError, match="scale_bytes"):
            pipeline_chain(CHAIN_STAGES, scale_bytes=0.0)
        with pytest.raises(ValueError, match="at least one branch"):
            diamond_graph(("vec_add", 64), [], ("saxpy", 64))
        with pytest.raises(ValueError, match="max_chains"):
            chain_universe([("vec_add", 64)], max_chains=0)
        with pytest.raises(ValueError, match="empty key universe"):
            chain_universe([])


class TestSingleNodeEquivalence:
    """The refactor's safety property: one node == one kernel, bit for bit."""

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
    def test_engine_graph_path_matches_single_kernel(self, noise_sigma):
        bench = get_benchmark("mat_mul")
        graph = TaskGraph(nodes=(TaskNode("t0", "mat_mul", 160),))
        p = Partitioning((40, 30, 30))

        e_graph = _engine(noise_sigma=noise_sigma, seed=7)
        run = e_graph.measure_graph(
            graph, {"t0": p}, node_requests(graph), repetitions=3
        )

        e_kernel = _engine(noise_sigma=noise_sigma, seed=7)
        request = bench.request(bench.make_instance(160, seed=0))
        single = e_kernel.measure(request, p, repetitions=3)

        assert run.median_s == single.median_s
        assert run.energy_j == single.energy_j
        assert run.transfer_s == 0.0
        assert run.critical_path == ("t0",)

    def test_unmemoized_runner_path_matches_engine_path(self):
        graph = TaskGraph(nodes=(TaskNode("t0", "reduction", 65536),))
        p = Partitioning((60, 20, 20))
        run_engine = _engine(noise_sigma=0.01, seed=3).measure_graph(
            graph, {"t0": p}, node_requests(graph), repetitions=2
        )
        run_raw = Runner(MC2, noise_sigma=0.01, seed=3).run_graph(
            graph, {"t0": p}, node_requests(graph), repetitions=2
        )
        assert run_raw.median_s == run_engine.median_s
        assert run_raw.energy_j == run_engine.energy_j

    def test_graph_rerun_is_bit_identical(self):
        # Noise-free: re-measuring the same plan on the same engine is
        # exact.  Noisy runs re-sample per measurement (matching the
        # single-kernel path), so there determinism means fresh engines
        # with the same seed reproduce the same numbers.
        graph = _chain()
        plan = {n.name: Partitioning((34, 33, 33)) for n in graph.nodes}
        requests = node_requests(graph)
        engine = _engine()
        a = engine.measure_graph(graph, plan, requests)
        b = engine.measure_graph(graph, plan, requests)
        assert (a.median_s, a.energy_j) == (b.median_s, b.energy_j)
        noisy_a = _engine(noise_sigma=0.02, seed=11).measure_graph(
            graph, plan, requests
        )
        noisy_b = _engine(noise_sigma=0.02, seed=11).measure_graph(
            graph, plan, node_requests(graph)
        )
        assert (noisy_a.median_s, noisy_a.energy_j) == (
            noisy_b.median_s,
            noisy_b.energy_j,
        )


class TestComposition:
    def test_chain_serializes_and_prices_transfers(self):
        engine = _engine()
        graph = _chain()
        cpu, gpu = Partitioning((100, 0, 0)), Partitioning((0, 100, 0))
        run = engine.measure_graph(
            graph, {"t0": cpu, "t1": gpu, "t2": cpu}, node_requests(graph)
        )
        assert run.transfer_s > 0.0
        assert len(run.transfers) == 2
        order = [s.node for s in run.schedule]
        assert order == list(graph.topological_order())
        finishes = {s.node: s.finish_s for s in run.schedule}
        for edge in graph.edges:
            start = next(s.start_s for s in run.schedule if s.node == edge.dst)
            assert start >= finishes[edge.src]
        assert run.energy_j > 0.0
        assert run.critical_path == ("t0", "t1", "t2")

    def test_missing_plan_entry_raises(self):
        engine = _engine()
        graph = _chain()
        with pytest.raises(ValueError, match="plan misses task"):
            engine.measure_graph(
                graph, {"t0": Partitioning((100, 0, 0))}, node_requests(graph)
            )

    def test_graph_energy_includes_transfers_and_stalls(self):
        engine = _engine()
        graph = _chain()
        plan = {
            "t0": Partitioning((100, 0, 0)),
            "t1": Partitioning((0, 100, 0)),
            "t2": Partitioning((0, 0, 100)),
        }
        run = engine.measure_graph(graph, plan, node_requests(graph))
        node_j = sum(r.energy_j for r in run.node_runs.values())
        assert run.transfer_j > 0.0
        assert run.stall_j >= 0.0
        assert run.energy_j == pytest.approx(
            node_j + run.transfer_j + run.stall_j
        )


class TestPlanner:
    def test_cosearch_never_worse_and_strictly_beats_greedy_here(self):
        engine = _engine()
        graph = _chain()
        requests = node_requests(graph)
        planner = _planner(engine)
        greedy, _ = greedy_plan(
            graph, requests, engine.measure, planner.space
        )
        greedy_run = engine.measure_graph(graph, greedy, requests)
        plan, run = planner.search(graph, requests)
        assert run.median_s < greedy_run.median_s
        assert planner.stats.evaluated > 0
        assert planner.stats.pruned > 0
        assert planner.stats.improvements >= 1

    def test_cosearch_is_deterministic(self):
        runs = []
        for _ in range(2):
            engine = _engine()
            planner = _planner(engine)
            graph = _chain()
            plan, run = planner.search(graph, node_requests(graph))
            runs.append((plan, run.median_s, run.energy_j))
        assert runs[0] == runs[1]

    def test_plan_round_trip_and_lookup(self):
        plan = GraphPlan.from_dict(
            {"b": Partitioning((100, 0, 0)), "a": Partitioning((0, 100, 0))}
        )
        assert plan.as_dict()["a"] == Partitioning((0, 100, 0))
        assert plan.partitioning_for("b") == Partitioning((100, 0, 0))
        with pytest.raises(KeyError):
            plan.partitioning_for("ghost")
        assert plan.labels() == {"a": "0/100/0", "b": "100/0/0"}

    def test_greedy_shares_sweeps_across_same_key_nodes(self):
        engine = _engine()
        graph = TaskGraph.chain(
            [("vec_add", 4096), ("vec_add", 4096), ("vec_add", 4096)], 64
        )
        space = partition_space(3, 10)
        from repro.graphs.planner import PlannerStats

        stats = PlannerStats()
        greedy_plan(
            graph, node_requests(graph), engine.measure, space,
            stats=stats,
        )
        # Three nodes, one (program, size): one sweep, not three.
        assert stats.standalone_points == len(space)


def _tiny_service():
    system = train_system(
        MC2,
        tuple(get_benchmark(n) for n in ("vec_add", "mat_mul", "reduction")),
        config=TrainingConfig(repetitions=1, max_sizes=2),
    )
    return PartitioningService(system, ServiceConfig())


class _RunnerEngine:
    """Stands in for a service's sweep engine: every kernel and graph
    measurement runs unmemoized on the Runner, the reference path."""

    def __init__(self, runner):
        self.runner = runner

    def measure(self, request, partitioning, repetitions=1):
        return self.runner.run(
            request, partitioning, functional=False, repetitions=repetitions
        )

    def measure_graph(self, graph, plan, requests):
        return self.runner.run_graph(graph, plan, requests)


@pytest.fixture(scope="module")
def graph_service():
    return _tiny_service()


@pytest.fixture(scope="module")
def served_chain():
    return pipeline_chain(
        [("vec_add", 4096), ("reduction", 4096), ("mat_mul", 64)],
        scale_bytes=32.0,
    )


class TestGraphServing:
    def test_cold_miss_cosearches_then_hits(self, graph_service, served_chain):
        first = graph_service.submit_graph(
            GraphServingRequest(0, served_chain)
        )
        second = graph_service.submit_graph(
            GraphServingRequest(1, served_chain)
        )
        assert not first.cache_hit
        assert second.cache_hit
        assert graph_service.stats.graph_requests == 2
        assert graph_service.stats.graph_cosearches == 1
        assert second.plan == first.plan
        assert second.measured_s <= first.measured_s
        assert first.critical_path and first.run is not None
        assert first.energy_j > 0.0 and first.power_w > 0.0

    def test_graph_traffic_feeds_the_kernel_database(
        self, graph_service, served_chain
    ):
        db = graph_service.system.database
        for node in served_chain.nodes:
            record = db.record_for(MC2.name, node.program, node.size)
            assert record is not None
            labels = set(record.timings)
            plan_label = graph_service.submit_graph(
                GraphServingRequest(99, served_chain)
            ).plan.partitioning_for(node.name).label
            assert plan_label in labels

    def test_unmemoized_service_matches_memoized_bits(self, served_chain):
        responses = {}
        for runner_backed in (False, True):
            service = _tiny_service()
            if runner_backed:
                service.engine = _RunnerEngine(service.system.runner)
            r = service.submit_graph(GraphServingRequest(0, served_chain))
            responses[runner_backed] = (r.measured_s, r.energy_j, r.plan)
        assert responses[True] == responses[False]

    def test_eventloop_serves_mixed_kernel_and_graph_traffic(
        self, served_chain
    ):
        service = _tiny_service()
        loop = EventLoop(service)
        arrivals = [
            (0.0, ServingRequest(0, "vec_add", 4096)),
            (0.001, GraphServingRequest(1, served_chain)),
            (0.002, ServingRequest(2, "mat_mul", 64)),
            (0.003, GraphServingRequest(3, served_chain)),
        ]
        stats = loop.run(arrivals)
        assert stats.arrivals == 4
        assert stats.completed == 4
        assert stats.failed == 0
        assert service.stats.graph_requests == 2
        assert service.stats.requests == 4
