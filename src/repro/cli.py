"""Command-line interface: ``python -m repro <command>``.

Commands:
    list                      — the 23-program suite
    machines                  — the simulated platforms
    kernel  <program>         — emitted single- and multi-device OpenCL C
    run     <program>         — sweep the strategies for one launch
    train   <machine>         — training campaign → JSON database
    report  <db.json> [...]   — full experiment report from databases
    energy-sweep <program>    — makespan-vs-energy sweep: per-objective
                                winners and the Pareto front per size
    graph-sweep               — co-search scheduling × partitioning for
                                one task-graph chain vs the greedy
                                partition-each-task baseline
    fleet-train               — train + persist one model per fleet
                                machine into a model registry
    serve                     — serve one trace on one machine, a fleet
                                or a cluster of machine pools

``serve`` works out its backend from the flags: one
``PartitioningService`` on ``--machine`` by default, a ``FleetRouter``
over ``--machines N`` machines, or a ``ClusterRouter`` of ``--pools P``
pools of N/P machines each.  Every machine loads its ``--registry``
entry, else warm-starts (``--warm-start``), else trains.  Requests come
from the workload generator (every family, task-graph ``pipeline``
included) or from ``--trace PATH`` (``-`` is stdin), one
``<program> <size>`` per line.

The trace runs on the simulated-time event loop with one
``serve_trace`` call.  By default it is closed-loop (each request
arrives the instant the previous one resolved); ``--arrival
uniform|poisson`` makes it open-loop: requests arrive on their own
simulated clock at ``--arrival-rate`` and queue per replica.
``--slo-ms`` sets a latency target with violation tracking and
``--shed-policy deadline|priority`` enables admission control (see
docs/SERVING.md).  ``--objective energy|edp`` retargets the model, the
regression checks and the local search, and ``--power-cap WATTS``
serves under an average-power budget (see docs/ENERGY.md).  The report
is the metrics registry every layer publishes into: the banner, the
registry table and one wall-throughput line.  With ``--json`` stdout
carries the registry's JSON document alone, so it pipes, and every
other line goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from .benchsuite import all_benchmarks, get_benchmark
from .core import (
    PERSISTABLE_MODEL_KINDS,
    TrainingConfig,
    TrainingDatabase,
    generate_training_data,
    train_system,
)
from .machines import ALL_MACHINES, machine_by_name
from .partitioning import Partitioning
from .runtime import Runner, cpu_only, even_split, gpu_only, oracle_search
from .util.tables import format_table

__all__ = ["main"]


@contextmanager
def _exit_on_bad_value(prefix: str = ""):
    """Exit with a one-line message, not a traceback, when the block
    rejects a value the user gave (a ``ValueError``) or cannot open a
    path they named (an ``OSError``)."""
    try:
        yield
    except (OSError, ValueError) as error:
        raise SystemExit(f"{prefix}{error}") from error


def _check_model_kind(kind: str) -> None:
    """Reject an unknown ``--model`` before any training or report runs."""
    from .core.predictor import make_partitioning_model

    with _exit_on_bad_value("--model: "):
        make_partitioning_model(kind)


def _benchmark(name: str):
    """The suite program ``name``; an unknown name exits with the list."""
    try:
        return get_benchmark(name)
    except KeyError as error:
        raise SystemExit(error.args[0]) from error


def _training_config(args: argparse.Namespace, repetitions: int = 1):
    """The ``TrainingConfig`` of the ``--noise``/``--seed``/``--max-sizes`` flags."""
    with _exit_on_bad_value():
        return TrainingConfig(
            repetitions=repetitions,
            noise_sigma=args.noise,
            seed=args.seed,
            max_sizes=args.max_sizes,
        )


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        (b.name, b.suite.value, len(b.problem_sizes()), b.description)
        for b in all_benchmarks()
    ]
    print(format_table(["program", "suite", "#sizes", "description"], rows))
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    for m in ALL_MACHINES:
        print(f"{m.name}: {m.description}")
        for spec in m.device_specs:
            kind = spec.kind.value.upper()
            print(
                f"  [{kind}] {spec.name}: peak {spec.peak_gflops:.0f} GFLOP/s, "
                f"{spec.mem_bandwidth_gbs:.0f} GB/s"
                + (
                    f", PCIe {spec.pcie_bandwidth_gbs:.1f} GB/s"
                    if spec.pcie_bandwidth_gbs
                    else ", host-resident"
                )
            )
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    bench = _benchmark(args.program)
    compiled = bench.compiled()
    print("// ---- single-device ----")
    print(compiled.program.source)
    print("\n// ---- multi-device ----")
    print(compiled.program.md_source)
    print("\n" + compiled.program.host_plan)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    bench = _benchmark(args.program)
    platform = machine_by_name(args.machine)
    size = args.size if args.size is not None else bench.problem_sizes()[-1]
    with _exit_on_bad_value(f"--size {size}: "):
        request = bench.request(bench.make_instance(size, seed=args.seed))
    runner = Runner(platform)
    strategies = [
        ("cpu-only", cpu_only(platform)),
        ("gpu-only", gpu_only(platform)),
        ("even", even_split(platform)),
    ]
    if args.partitioning:
        with _exit_on_bad_value("--partitioning: "):
            custom = Partitioning.from_label(args.partitioning)
        if custom.num_devices != platform.num_devices:
            raise SystemExit(
                f"--partitioning: {platform.name} has {platform.num_devices} "
                f"devices, got {custom.num_devices} shares"
            )
        strategies.append(("custom", custom))
    rows = []
    for label, p in strategies:
        rows.append((label, p.label, runner.time_of(request, p) * 1e3))
    best, t_best = oracle_search(lambda p: runner.time_of(request, p))
    rows.append(("oracle", best.label, t_best * 1e3))
    print(
        format_table(
            ["strategy", "partitioning", "time (ms)"],
            rows,
            title=f"{bench.name} @ size {size} on {platform.name}",
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    platform = machine_by_name(args.machine)
    config = _training_config(args, repetitions=args.repetitions)
    db = generate_training_data(
        platform,
        all_benchmarks(),
        config,
        progress=print if args.verbose else None,
    )
    out = Path(args.output or f"training_{platform.name}.json")
    db.save(out)
    print(f"wrote {len(db)} records to {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import check_database, full_report

    _check_model_kind(args.model)
    merged = TrainingDatabase()
    for path in args.databases:
        with _exit_on_bad_value(f"{path}: "):
            records = TrainingDatabase.load(path)
        for record in records:
            merged.add(record)
    with _exit_on_bad_value():
        check_database(merged)
    print(full_report(merged, model_kind=args.model))
    return 0


def _benchmark_split(args: argparse.Namespace):
    """The (whole suite, training subset) pair behind ``--train-programs``."""
    benchmarks = all_benchmarks()
    train_benchmarks = benchmarks
    if args.train_programs is not None:
        if not 1 <= args.train_programs <= len(benchmarks):
            raise SystemExit(f"--train-programs must be in [1, {len(benchmarks)}]")
        train_benchmarks = benchmarks[: args.train_programs]
    return benchmarks, train_benchmarks


def _build_backend(args: argparse.Namespace, platforms, train_benchmarks, slo):
    """The backend ``--machines``/``--pools`` name over ``platforms``,
    plus its services and each one's model source, in flat replica order.

    No ``--machines`` is one :class:`PartitioningService` on
    ``--machine``; ``--machines N`` is a :class:`FleetRouter` over
    ``fleet_platforms(N)``; adding ``--pools P`` chunks the same N
    machines into a :class:`ClusterRouter` of P pools.  Each machine
    loads its ``--registry`` entry, else warm-starts from the most
    similar registered machine (``--warm-start``), else trains.
    """
    from .cluster import ClusterRouter, NetworkSpec
    from .energy import training_objective
    from .fleet import FleetRouter, ModelRegistry
    from .serving import PartitioningService, ServiceConfig

    registry = ModelRegistry(args.registry) if args.registry else None
    training = _training_config(args)
    with _exit_on_bad_value():
        serving = ServiceConfig(
            cache_capacity=args.cache_capacity,
            regression_threshold=args.threshold,
            instance_seed=args.seed,
            objective=args.objective,
            power_cap_w=args.power_cap,
        )
        network = NetworkSpec(
            bandwidth_gbs=args.net_bandwidth,
            latency_s=args.net_latency_us * 1e-6,
            link_watts=args.net_watts,
        )
    objective = training_objective(serving.objective)
    services, sources = [], []
    for platform in platforms:
        if registry is not None and registry.has(platform.name):
            # A model saved for another objective is refit here, which
            # fails on a database recorded without energy sweeps.
            with _exit_on_bad_value(f"--registry {platform.name}: "):
                system = registry.load(
                    platform,
                    noise_sigma=args.noise,
                    seed=args.seed,
                    objective=objective,
                )
            source = "registry"
        elif registry is not None and args.warm_start and registry.machines():
            donor = registry.most_similar(platform)
            system = registry.warm_start(
                platform,
                model_kind=args.model,
                noise_sigma=args.noise,
                seed=args.seed,
                donor=donor,
                objective=objective,
            )
            source = f"warm({donor})"
        else:
            system = train_system(
                platform,
                train_benchmarks,
                model_kind=args.model,
                config=training,
                objective=objective,
            )
            source = "trained"
        with _exit_on_bad_value():
            services.append(PartitioningService(system, serving))
        sources.append(source)
    if args.machines is None:
        return services[0], services, sources
    if args.pools is None:
        router = FleetRouter(services, policy=args.policy, registry=registry)
        return router, services, sources
    width = args.machines // args.pools
    pools = [
        FleetRouter(
            services[p * width : (p + 1) * width],
            policy=args.policy,
            registry=registry,
        )
        for p in range(args.pools)
    ]
    return ClusterRouter(pools, network=network, slo=slo), services, sources


def _parse_drift_events(args: argparse.Namespace, platforms):
    """``--drift AT:SCALE[:MACHINE[:DEVICE]]`` strings → DriftEvents.

    Each is checked against ``platforms`` before any training: a fleet
    rejects an unknown machine, and every target machine must have the
    device.  (On one machine an event for another machine is skipped
    with a warning when it fires.)
    """
    from .workloads import DriftEvent

    names = [p.name for p in platforms]
    events = []
    for value in args.drift:
        parts = value.split(":")
        if not 2 <= len(parts) <= 4:
            raise SystemExit(
                f"--drift {value!r}: want AT:SCALE[:MACHINE[:DEVICE]], "
                "e.g. 100:0.5:mc2:1"
            )
        with _exit_on_bad_value(f"--drift {value!r}: "):
            event = DriftEvent(
                at_request=int(parts[0]),
                scale=float(parts[1]),
                machine=parts[2] if len(parts) > 2 and parts[2] else None,
                device_index=int(parts[3]) if len(parts) > 3 else None,
            )
            targets = [p for p in platforms if event.machine in (None, p.name)]
            if not targets and args.machines is not None:
                raise ValueError(
                    f"unknown machine {event.machine!r}; the fleet has {names}"
                )
            device = event.device_index
            for p in targets:
                if device is not None and not 0 <= device < p.num_devices:
                    raise ValueError(
                        f"{p.name} has no device {device} ({p.num_devices} devices)"
                    )
        events.append(event)
    return tuple(events)


def _parse_fault_specs(values: list[str]):
    """``KIND:AT:DURATION[:MAGNITUDE[:REPLICA]]`` strings → FaultSpecs."""
    from .faults import FAULT_KINDS, FaultSpec

    specs = []
    for value in values:
        parts = value.split(":")
        if not 3 <= len(parts) <= 5:
            raise SystemExit(
                f"--faults {value!r}: want KIND:AT:DURATION[:MAGNITUDE[:REPLICA]], "
                "e.g. crash:0.5:0.2::0 or straggler:0.1:0.4:6"
            )
        if parts[0] not in FAULT_KINDS:
            raise SystemExit(
                f"--faults {value!r}: unknown kind {parts[0]!r}; "
                f"choose from {FAULT_KINDS}"
            )
        with _exit_on_bad_value(f"--faults {value!r}: "):
            specs.append(
                FaultSpec(
                    kind=parts[0],
                    at_s=float(parts[1]),
                    duration_s=float(parts[2]),
                    magnitude=(
                        float(parts[3]) if len(parts) > 3 and parts[3] else 1.0
                    ),
                    replica=int(parts[4]) if len(parts) > 4 and parts[4] else None,
                )
            )
    return tuple(specs)


def _parse_tenants(args: argparse.Namespace) -> tuple[str, ...]:
    """``--tenants A,B,...`` → tenant names (empty without the flag)."""
    if args.tenants is None:
        return ()
    tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
    if not tenants:
        raise SystemExit("--tenants: want a comma-separated tenant list")
    return tenants


def _workload_from_args(args: argparse.Namespace, keys, tenants, platforms):
    """Generate the synthetic trace the workload flags describe."""
    from dataclasses import replace

    from .cluster import with_tenants
    from .workloads import WorkloadSpec, make_workload

    drift_events = _parse_drift_events(args, platforms)
    with _exit_on_bad_value():
        spec = WorkloadSpec(
            family=args.workload,
            num_requests=args.requests,
            skew=args.skew,
            seed=args.seed,
            phases=args.phases,
            burst_every=args.burst_every,
            burst_length=args.burst_length,
            burst_share=args.burst_share,
            period=args.period,
            skew_min=args.skew_min,
            skew_max=args.skew_max,
            drift_events=drift_events,
            arrival=args.arrival or "sequential",
            rate_rps=args.arrival_rate,
        )
    workload = make_workload(spec, keys)
    if tenants:
        workload = replace(workload, requests=with_tenants(workload.requests, tenants))
    return workload


def _read_requests(path: str, known: set[str], tenants: tuple[str, ...]):
    """``<program> <size>`` lines from ``path`` (``-`` is stdin) →
    requests, read lazily; malformed lines are reported and skipped."""
    from contextlib import nullcontext

    from .serving import DEFAULT_TENANT, ServingRequest

    count = 0
    with nullcontext(sys.stdin) if path == "-" else open(path) as stream:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if (
                len(parts) != 2
                or parts[0] not in known
                or not parts[1].isdigit()
                or int(parts[1]) < 1
            ):
                print(f"!! malformed request {line!r} (want '<program> <size>')")
                continue
            tenant = tenants[count % len(tenants)] if tenants else DEFAULT_TENANT
            yield ServingRequest(count, parts[0], int(parts[1]), tenant)
            count += 1


def _parse_tenant_priorities(values: list[str]):
    """``TENANT:PRIO`` strings → the SLOConfig pair-tuple form."""
    pairs = []
    for value in values:
        tenant, sep, prio = value.partition(":")
        if not sep or not tenant or not prio.lstrip("-").isdigit():
            raise SystemExit(
                f"--tenant-priority {value!r}: want TENANT:PRIO, e.g. premium:2"
            )
        pairs.append((tenant, int(prio)))
    return tuple(pairs)


def _serve_options_from_args(args: argparse.Namespace):
    """The :class:`ServeOptions` behind the event-loop flags, which
    mean the same thing on one machine, a fleet or a cluster."""
    from .faults import FaultSchedule
    from .serving import ServeOptions, SLOConfig

    target_s = args.slo_ms / 1e3 if args.slo_ms is not None else None
    specs = _parse_fault_specs(args.faults)
    faults = None
    if specs:
        seed = args.fault_seed if args.fault_seed is not None else args.seed
        faults = FaultSchedule(specs=specs, seed=seed)
    priorities = _parse_tenant_priorities(args.tenant_priority)
    with _exit_on_bad_value():
        return ServeOptions(
            arrival=args.arrival or "sequential",
            telemetry="trace" if args.trace_out else args.telemetry,
            rate_rps=args.arrival_rate,
            seed=args.seed,
            slo=SLOConfig(target_s=target_s, tenant_priorities=priorities),
            shed_policy=args.shed_policy,
            faults=faults,
            timeout_factor=args.timeout_factor,
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff_ms / 1e3,
            retry_budget=args.retry_budget,
            hedge_at=args.hedge_at,
            failover=not args.no_failover,
            speculate_at=args.speculate_at,
            work_steal=args.work_steal,
            queue_discipline=args.queue_discipline,
        )


def _finish_telemetry(args, telemetry) -> None:
    """Report and export the run's telemetry (the loop collected every
    layer's metrics at the end of its run): the critical-path table and
    the JSONL trace when tracing, then the registry table (``--json``
    prints the registry after the run instead)."""
    if telemetry.tracing:
        analyzer = telemetry.analyzer()
        slowest = analyzer.slowest(0.1)
        if slowest:
            print(
                analyzer.table(
                    slowest,
                    title=f"Critical path, slowest decile "
                    f"({len(slowest)} requests)",
                )
            )
        if args.trace_out:
            telemetry.tracer.export(args.trace_out)
            print(
                f"trace: {len(telemetry.tracer.spans)} spans over "
                f"{len(analyzer.trace_ids())} requests -> {args.trace_out}"
            )
    if not args.json:
        _print_metrics_report(telemetry.registry)


def _print_metrics_report(registry) -> None:
    """The whole registry, one series per row."""
    snapshot = registry.snapshot()
    rows = []
    for name, value in snapshot.items():
        if isinstance(value, dict):
            rows.append(
                (
                    name,
                    f"n={value['count']} mean={value['mean_s'] * 1e3:.3f}ms "
                    f"p50={value['p50_s'] * 1e3:.3f}ms "
                    f"p99={value['p99_s'] * 1e3:.3f}ms",
                )
            )
        elif isinstance(value, float):
            rows.append((name, f"{value:.6g}"))
        else:
            rows.append((name, f"{value}"))
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"Metrics registry ({len(rows)} series)",
        )
    )


def _print_banner(
    args, num_benchmarks: int, num_train: int, workload, keys, services, sources
) -> None:
    """What is served where: the backend with its objective and power
    cap, each machine's model source, the trace, and (open-loop) the
    arrival process with its loop knobs."""
    from .serving import GraphServingRequest

    model = (
        f"model {args.model}, training set {num_train}/{num_benchmarks} programs, "
        f"objective {args.objective}"
        + (f", power cap {args.power_cap:g} W" if args.power_cap is not None else "")
    )
    if args.machines is None:
        print(f"one machine ({args.machine}); {model}")
    elif args.pools is None:
        print(f"fleet of {args.machines} machines (policy {args.policy}); {model}")
    else:
        print(
            f"cluster of {args.pools}x{args.machines // args.pools} machines "
            f"(policy {args.policy}, net {args.net_bandwidth:g} GB/s + "
            f"{args.net_latency_us:g} us); {model}"
        )
    print(
        "model sources: "
        + ", ".join(
            f"{service.system.platform.name} {source}"
            for service, source in zip(services, sources)
        )
    )
    if workload is None:
        source = "stdin" if args.trace == "-" else args.trace
        print(f"serving '<program> <size>' lines from {source}")
    else:
        tenants = len({r.tenant for r in workload.requests})
        pipelines = len(
            {r.program for r in workload.requests if isinstance(r, GraphServingRequest)}
        )
        print(
            f"serving {len(workload)} requests from {tenants} "
            f"tenant{'s' if tenants != 1 else ''} over {len(keys)} keys "
            f"({args.workload} workload"
            + (f", {pipelines} distinct pipelines" if pipelines else "")
            + f", skew {args.skew}, seed {args.seed}, "
            f"{len(workload.drift_events)} drift events)"
        )
    if args.arrival:
        print(
            f"event-driven: {args.arrival} arrivals at {args.arrival_rate:g} req/s "
            f"(shed policy {args.shed_policy}, queue {args.queue_discipline}"
            + (f", {len(args.faults)} fault windows" if args.faults else "")
            + (f", hedge at p{args.hedge_at * 100:g}" if args.hedge_at else "")
            + (
                f", speculate at p{args.speculate_at * 100:g}"
                if args.speculate_at
                else ""
            )
            + (", work-steal" if args.work_steal else "")
            + ")"
        )


def _drift_handler(args: argparse.Namespace, backend, workload):
    """Apply each drift event and announce the machines it hit and the
    requests served before it (events past the end of the trace fire
    after its last request)."""

    def on_drift(event) -> None:
        with _exit_on_bad_value():
            if args.machines is not None:
                hit = backend.apply_drift(event)
            elif event.machine in (None, args.machine):
                backend.system.runner.apply_drift(
                    event.scale, device_index=event.device_index
                )
                hit = (args.machine,)
            else:
                print(f"!! drift event targets {event.machine!r}, not {args.machine}")
                return
        where = (
            "all devices"
            if event.device_index is None
            else f"device {event.device_index}"
        )
        print(
            f"-- drift: {', '.join(hit)} ({where}) x{event.scale:g} "
            f"before request {min(event.at_request, len(workload))}"
        )

    return on_drift


def _served_printer(services):
    """One line per closed-loop response to a ``--trace`` request,
    naming the machine that served it when there are several."""
    names = [s.system.platform.name for s in services]

    def print_served(completed) -> None:
        r = completed.response
        if hasattr(r, "response"):  # a cluster answer wraps the service's
            r = r.response
        flags = ("hit" if r.cache_hit else "miss") + ("+adapted" if r.adapted else "")
        where = f" on {names[completed.replica_index]}" if len(names) > 1 else ""
        print(
            f"{r.request.program}@{r.request.size}: {r.partitioning.label} "
            f"{r.measured_s * 1e3:.3f} ms [{flags}]{where}"
        )

    return print_served


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve one trace on the backend ``--machines``/``--pools`` name.

    Under ``--json`` stdout carries the registry's JSON document alone;
    the banner, responses, drift notes, critical path, trace-export line
    and wall-throughput line go to stderr.
    """
    if not args.json:
        _serve(args)
        return 0
    stdout = sys.stdout
    with redirect_stdout(sys.stderr):
        registry = _serve(args)
    print(json.dumps(registry.snapshot(), indent=2, sort_keys=True), file=stdout)
    return 0


def _serve(args: argparse.Namespace):
    """Serve the trace and print its report; returns the metrics registry."""
    from .machines import fleet_platforms
    from .serving import key_universe, serve_trace

    # Every input is checked, and the trace built, before any training.
    options = _serve_options_from_args(args)
    tenants = _parse_tenants(args)
    benchmarks, train_benchmarks = _benchmark_split(args)
    if args.machines is None:
        platforms = (machine_by_name(args.machine),)
    else:
        platforms = fleet_platforms(args.machines)
    _check_model_kind(args.model)
    workload = keys = None
    if args.trace is None:
        keys = key_universe(benchmarks, max_sizes=args.max_sizes)
        workload = _workload_from_args(args, keys, tenants, platforms)
        items = workload.timed_items() if args.arrival else workload.items()
    else:
        if args.trace != "-":
            with _exit_on_bad_value(f"--trace {args.trace}: "):
                open(args.trace).close()  # unreadable: fail before training
        items = _read_requests(args.trace, {b.name for b in benchmarks}, tenants)
    backend, services, sources = _build_backend(
        args, platforms, train_benchmarks, options.slo
    )
    _print_banner(
        args, len(benchmarks), len(train_benchmarks), workload, keys, services, sources
    )
    t0 = time.perf_counter()
    # Closed-loop serving reads the next line only after the previous
    # request resolved, so each response prints as it is served.
    result = serve_trace(
        backend,
        items,
        options,
        on_complete=(
            _served_printer(services) if args.trace and not args.arrival else None
        ),
        drift_handler=_drift_handler(args, backend, workload),
    )
    wall_s = time.perf_counter() - t0
    _finish_telemetry(args, result.telemetry)
    completed = result.stats.completed
    print(
        f"throughput (wall): {completed} requests completed in {wall_s:.3f} s, "
        f"{completed / wall_s:.1f} req/s"
    )
    return result.telemetry.registry


def _cmd_fleet_train(args: argparse.Namespace) -> int:
    from .fleet import ModelRegistry
    from .machines import fleet_platforms

    if args.model not in PERSISTABLE_MODEL_KINDS:
        # Catch this before spending minutes on the first machine's
        # training campaign only to fail in save_model.
        raise SystemExit(
            f"--model {args.model!r} cannot be persisted; "
            f"choose from {', '.join(PERSISTABLE_MODEL_KINDS)}"
        )
    _benchmarks, train_benchmarks = _benchmark_split(args)
    config = _training_config(args)
    platforms = fleet_platforms(args.machines)
    registry = ModelRegistry(args.registry)
    rows = []
    for platform in platforms:
        system = train_system(
            platform, train_benchmarks, model_kind=args.model, config=config
        )
        path = registry.save(system)
        rows.append((platform.name, len(system.database), args.model, str(path)))
    print(
        format_table(
            ["machine", "records", "model", "path"],
            rows,
            title=f"Fleet training ({args.machines} machines)",
        )
    )
    return 0


def _cmd_energy_sweep(args: argparse.Namespace) -> int:
    from .energy import Objective, best_label, pareto_front
    from .engine import SweepEngine
    from .partitioning import partition_space

    bench = _benchmark(args.program)
    platforms = (
        [machine_by_name(args.machine)] if args.machine else list(ALL_MACHINES)
    )
    sizes = bench.problem_sizes()
    if args.size is not None:
        sizes = [args.size]
    elif args.max_sizes is not None:
        sizes = sizes[: args.max_sizes]
    for platform in platforms:
        engine = SweepEngine(Runner(platform))
        with _exit_on_bad_value("--step: "):
            space = partition_space(platform.num_devices, args.step)
        rows = []
        for size in sizes:
            with _exit_on_bad_value(f"--size {size}: "):
                request = bench.request(bench.make_instance(size, seed=args.seed))
            timings, energies = engine.sweep_with_energy(request, space)
            engine.reset()
            t_best = best_label(timings, energies, Objective.MAKESPAN)
            e_best = best_label(timings, energies, Objective.ENERGY)
            edp_best = best_label(timings, energies, Objective.EDP)
            front = pareto_front(timings, energies)
            rows.append(
                (
                    size,
                    f"{t_best} ({timings[t_best] * 1e3:.3f} ms)",
                    f"{e_best} ({energies[e_best]:.3f} J)",
                    edp_best,
                    f"{1.0 - energies[e_best] / energies[t_best]:.1%}",
                    f"{timings[e_best] / timings[t_best]:.2f}x",
                    len(front),
                )
            )
        print(
            format_table(
                [
                    "size",
                    Objective.MAKESPAN.value + "-best",
                    Objective.ENERGY.value + "-best",
                    "edp-best",
                    "energy saved",
                    "slowdown",
                    "pareto",
                ],
                rows,
                title=(
                    f"{bench.name} on {platform.name} "
                    f"({args.step}% grid, energy vs makespan)"
                ),
            )
        )
    return 0


def _parse_stages(value: str) -> list[tuple[str, int]]:
    """``prog@size,prog@size,...`` → pipeline stage list."""
    known = {b.name for b in all_benchmarks()}
    stages: list[tuple[str, int]] = []
    for part in value.split(","):
        part = part.strip()
        prog, sep, size = part.partition("@")
        if not sep or prog not in known or not size.isdigit() or int(size) < 1:
            raise SystemExit(
                f"--stages: bad stage {part!r} "
                "(want '<program>@<size>', e.g. stencil2d@256)"
            )
        stages.append((prog, int(size)))
    if len(stages) < 2:
        raise SystemExit("--stages: a pipeline needs at least 2 stages")
    return stages


def _cmd_graph_sweep(args: argparse.Namespace) -> int:
    from .energy import EnergyMeter
    from .engine import SweepEngine
    from .graphs import GraphPlanner, greedy_plan, node_requests, pipeline_chain

    platform = machine_by_name(args.machine)
    stages = _parse_stages(args.stages)
    with _exit_on_bad_value("--scale-bytes: "):
        graph = pipeline_chain(stages, scale_bytes=args.scale_bytes)
    with _exit_on_bad_value("--noise: "):
        runner = Runner(platform, noise_sigma=args.noise, seed=args.seed)
    engine = SweepEngine(runner)
    requests = node_requests(graph, seed=args.seed)
    idle_w = EnergyMeter(runner.devices).platform_idle_w()
    with _exit_on_bad_value("--step: "):
        planner = GraphPlanner(
            engine.measure, runner.devices, idle_w, step_percent=args.step
        )
    greedy, _ = greedy_plan(graph, requests, engine.measure, planner.space)
    greedy_run = engine.measure_graph(graph, greedy, requests)
    plan, run = planner.search(graph, requests)
    greedy_labels = greedy.labels()
    labels = plan.labels()
    rows = [
        (
            name,
            f"{graph.node(name).program}@{graph.node(name).size}",
            greedy_labels[name],
            labels[name],
            f"{sched.start_s * 1e3:.3f}",
            f"{sched.finish_s * 1e3:.3f}",
            "*" if name in run.critical_path else "",
        )
        for name, sched in ((s.node, s) for s in run.schedule)
    ]
    print(
        format_table(
            [
                "task",
                "stage",
                "greedy",
                "co-search",
                "start (ms)",
                "finish (ms)",
                "crit",
            ],
            rows,
            title=f"{graph.name} on {platform.name} ({args.step}% grid)",
        )
    )
    stats = planner.stats
    speedup = greedy_run.median_s / run.median_s if run.median_s > 0 else 1.0
    summary = [
        ("greedy makespan", f"{greedy_run.median_s * 1e3:.3f} ms"),
        ("co-searched makespan", f"{run.median_s * 1e3:.3f} ms"),
        ("speedup over greedy", f"{speedup:.2f}x"),
        ("transfer time", f"{run.transfer_s * 1e3:.3f} ms"),
        ("graph energy", f"{run.energy_j:.3f} J"),
        ("critical path", " > ".join(run.critical_path)),
        (
            "search effort",
            f"{stats.evaluated} compositions, {stats.pruned} pruned, "
            f"{stats.passes} passes, {stats.improvements} improvements",
        ),
    ]
    print(format_table(["metric", "value"], summary, title="Co-search summary"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Problem-size-sensitive task partitioning (PPoPP'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(fn=_cmd_list)
    sub.add_parser("machines", help="describe the simulated platforms").set_defaults(
        fn=_cmd_machines
    )

    p_kernel = sub.add_parser("kernel", help="print emitted OpenCL C for a program")
    p_kernel.add_argument("program")
    p_kernel.set_defaults(fn=_cmd_kernel)

    p_run = sub.add_parser("run", help="time one launch under several strategies")
    p_run.add_argument("program")
    p_run.add_argument(
        "--machine", default="mc2", choices=[m.name for m in ALL_MACHINES]
    )
    p_run.add_argument("--size", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--partitioning", default=None, help='extra candidate, e.g. "40/30/30"'
    )
    p_run.set_defaults(fn=_cmd_run)

    p_train = sub.add_parser("train", help="run the training campaign on a machine")
    p_train.add_argument("machine", choices=[m.name for m in ALL_MACHINES])
    p_train.add_argument("--output", default=None)
    p_train.add_argument("--repetitions", type=_positive_int, default=1)
    p_train.add_argument("--noise", type=float, default=0.0)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--max-sizes", type=_positive_int, default=None)
    p_train.add_argument("--verbose", action="store_true")
    p_train.set_defaults(fn=_cmd_train)

    p_report = sub.add_parser("report", help="full experiment report from databases")
    p_report.add_argument("databases", nargs="+")
    p_report.add_argument("--model", default="mlp")
    p_report.set_defaults(fn=_cmd_report)

    p_esweep = sub.add_parser(
        "energy-sweep",
        help="makespan-vs-energy sweep: per-objective winners + Pareto front",
    )
    p_esweep.add_argument("program")
    p_esweep.add_argument(
        "--machine",
        default=None,
        choices=[m.name for m in ALL_MACHINES],
        help="one platform (default: all)",
    )
    p_esweep.add_argument("--size", type=int, default=None)
    p_esweep.add_argument(
        "--max-sizes", type=_positive_int, default=None, help="cap the size ladder"
    )
    p_esweep.add_argument("--step", type=int, default=10)
    p_esweep.add_argument("--seed", type=int, default=0)
    p_esweep.set_defaults(fn=_cmd_energy_sweep)

    p_gsweep = sub.add_parser(
        "graph-sweep",
        help="co-search scheduling x partitioning for one task-graph chain",
    )
    p_gsweep.add_argument(
        "--stages",
        default="stencil2d@256,reduction@65536,mat_mul@160",
        metavar="P@S,P@S,...",
        help="pipeline stages as '<program>@<size>' (comma-separated)",
    )
    p_gsweep.add_argument(
        "--machine", default="mc2", choices=[m.name for m in ALL_MACHINES]
    )
    p_gsweep.add_argument(
        "--scale-bytes",
        type=float,
        default=32.0,
        help="multiplier on the producer-output handoff bytes per edge",
    )
    p_gsweep.add_argument("--step", type=int, default=10)
    p_gsweep.add_argument("--noise", type=float, default=0.0)
    p_gsweep.add_argument("--seed", type=int, default=0)
    p_gsweep.set_defaults(fn=_cmd_graph_sweep)

    _serve_parser(sub)

    p_ftrain = sub.add_parser(
        "fleet-train",
        help="train + persist one model per fleet machine",
    )
    p_ftrain.add_argument(
        "--machines",
        type=_positive_int,
        default=4,
        help="fleet size (machines generated by repro.machines.fleet_platforms)",
    )
    p_ftrain.add_argument("--registry", required=True, help="model registry directory")
    _model_flags(p_ftrain)
    p_ftrain.set_defaults(fn=_cmd_fleet_train)

    return parser


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _model_flags(p: argparse.ArgumentParser) -> None:
    """The model/training flags of ``serve`` and ``fleet-train``."""
    p.add_argument("--model", default="knn", help="prediction model kind")
    p.add_argument(
        "--train-programs",
        type=int,
        default=16,
        help="train on the first N suite programs (the rest arrive cold)",
    )
    p.add_argument(
        "--max-sizes",
        type=_positive_int,
        default=3,
        help="cap each program's size ladder (training and trace)",
    )
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


def _serve_parser(sub) -> None:
    """The ``serve`` command and its flag groups."""
    from .energy import Objective
    from .fleet import ROUTING_POLICIES
    from .serving import QUEUE_DISCIPLINES, SHED_POLICIES
    from .workloads import WORKLOAD_FAMILIES

    p = sub.add_parser(
        "serve",
        help="serve a trace on one machine, a fleet, or a cluster of pools",
    )
    p.set_defaults(fn=_cmd_serve)

    g = p.add_argument_group("backend")
    g.add_argument(
        "--machine",
        default="mc2",
        choices=[m.name for m in ALL_MACHINES],
        help="the machine served without --machines",
    )
    g.add_argument(
        "--machines",
        type=_positive_int,
        default=None,
        help="serve a fleet of N machines (repro.machines.fleet_platforms)",
    )
    g.add_argument(
        "--pools",
        type=_positive_int,
        default=None,
        help="split the --machines into P equal pools of a cluster",
    )
    g.add_argument(
        "--policy",
        default="least-loaded",
        choices=ROUTING_POLICIES,
        help="replica placement policy of a fleet (or of each pool)",
    )
    g.add_argument("--registry", default=None, help="load machines registered here")
    g.add_argument(
        "--warm-start",
        action="store_true",
        help="seed unregistered machines from the most similar registered one",
    )
    _model_flags(g)

    g = p.add_argument_group("service")
    g.add_argument("--cache-capacity", type=int, default=512)
    g.add_argument(
        "--threshold",
        type=float,
        default=0.3,
        help="relative regression slack before adaptation triggers",
    )
    g.add_argument(
        "--objective",
        default=Objective.MAKESPAN.value,
        choices=[o.value for o in Objective],
        help="what the model and the adaptation loop optimize",
    )
    g.add_argument(
        "--power-cap",
        type=float,
        default=None,
        metavar="WATTS",
        help="average-power budget per served launch (docs/ENERGY.md)",
    )

    g = p.add_argument_group("requests (the workload generator, or --trace)")
    g.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="serve '<program> <size>' lines from PATH ('-' is stdin) "
        "instead of a generated workload",
    )
    g.add_argument("--requests", type=int, default=200)
    g.add_argument("--skew", type=float, default=1.5)
    g.add_argument(
        "--workload",
        default="stationary",
        choices=WORKLOAD_FAMILIES,
        help="trace family (see docs/WORKLOADS.md)",
    )
    g.add_argument(
        "--phases",
        type=int,
        default=3,
        help="hot-set rotations (phase-shift family)",
    )
    g.add_argument(
        "--burst-every",
        type=int,
        default=50,
        help="requests between flash-crowd bursts",
    )
    g.add_argument("--burst-length", type=int, default=12, help="requests per burst")
    g.add_argument(
        "--burst-share",
        type=float,
        default=0.8,
        help="traffic share the burst key takes during a burst",
    )
    g.add_argument("--period", type=int, default=100, help="requests per diurnal cycle")
    g.add_argument("--skew-min", type=float, default=0.3, help="diurnal trough skew")
    g.add_argument("--skew-max", type=float, default=2.2, help="diurnal peak skew")
    g.add_argument(
        "--drift",
        action="append",
        default=[],
        metavar="AT:SCALE[:MACHINE[:DEVICE]]",
        help="platform drift event, e.g. 100:0.5:mc2:1 (repeatable)",
    )
    g.add_argument(
        "--tenants",
        default=None,
        metavar="A,B,...",
        help="tenant names assigned round-robin over the trace",
    )

    g = p.add_argument_group("event loop (docs/SERVING.md, docs/FAULTS.md)")
    g.add_argument(
        "--arrival",
        default=None,
        choices=("uniform", "poisson"),
        help="open-loop arrival process (default: closed-loop, each "
        "request arrives when the previous one resolved)",
    )
    g.add_argument(
        "--arrival-rate",
        type=float,
        default=200.0,
        metavar="RPS",
        help="mean arrival rate in requests per simulated second",
    )
    g.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        metavar="MS",
        help="end-to-end latency target; violations are tracked per tenant",
    )
    g.add_argument(
        "--shed-policy",
        default="none",
        choices=SHED_POLICIES,
        help="admission control under --slo-ms (deadline-aware shedding)",
    )
    g.add_argument(
        "--tenant-priority",
        action="append",
        default=[],
        metavar="TENANT:PRIO",
        help="one tenant's priority (repeatable; fair-share weight is "
        "1 + priority)",
    )
    g.add_argument(
        "--queue-discipline",
        default="fifo",
        choices=QUEUE_DISCIPLINES,
        help="per-replica queue order",
    )
    g.add_argument(
        "--faults",
        action="append",
        default=[],
        metavar="KIND:AT:DUR[:MAG[:REPLICA]]",
        help="inject one fault window (repeatable): kind crash|straggler|"
        "error|predict-error, start and duration in simulated seconds, "
        "magnitude a slowdown factor or error probability, replica index "
        "or empty for all (docs/FAULTS.md)",
    )
    g.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed of the fault schedule's error draws (default: --seed)",
    )
    g.add_argument(
        "--timeout-factor",
        type=float,
        default=None,
        metavar="X",
        help="fail a request once its age exceeds X times its SLO target",
    )
    g.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="extra service attempts after transient failures",
    )
    g.add_argument(
        "--retry-backoff-ms",
        type=float,
        default=1.0,
        metavar="MS",
        help="base retry backoff, doubling per retry",
    )
    g.add_argument(
        "--retry-budget",
        type=float,
        default=0.2,
        metavar="X",
        help="retry tokens earned per admitted request (caps retry traffic)",
    )
    g.add_argument(
        "--hedge-at",
        type=float,
        default=None,
        metavar="Q",
        help="fire a hedged duplicate once a request outlives the Q latency "
        "quantile of completions so far (e.g. 0.95)",
    )
    g.add_argument(
        "--no-failover",
        action="store_true",
        help="do not route around crashed replicas (availability baseline)",
    )
    g.add_argument(
        "--speculate-at",
        type=float,
        default=None,
        metavar="Q",
        help="speculatively re-execute on another replica (another pool on "
        "a cluster) once a request outlives the Q latency quantile (first "
        "completion wins)",
    )
    g.add_argument(
        "--work-steal",
        action="store_true",
        help="idle replicas steal queued work (cross-pool on a cluster)",
    )

    g = p.add_argument_group("network (cluster only)")
    g.add_argument(
        "--net-bandwidth",
        type=float,
        default=10.0,
        metavar="GB/S",
        help="interconnect bandwidth charged per cross-pool handoff",
    )
    g.add_argument(
        "--net-latency-us",
        type=float,
        default=50.0,
        metavar="US",
        help="fixed interconnect latency per cross-pool transfer",
    )
    g.add_argument(
        "--net-watts",
        type=float,
        default=8.0,
        metavar="W",
        help="link power while a handoff is in flight (joules metering)",
    )

    g = p.add_argument_group("telemetry (docs/OBSERVABILITY.md)")
    g.add_argument(
        "--telemetry",
        default="metrics",
        choices=("metrics", "trace"),
        help="metrics: every layer publishes into one registry, printed "
        "after the run; trace: also record per-request spans and the JSONL "
        "event log",
    )
    g.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the span/event JSONL trace here (implies --telemetry "
        "trace)",
    )
    g.add_argument(
        "--json",
        action="store_true",
        help="print the metrics registry as JSON instead of a table: stdout "
        "carries the JSON document alone, every other line goes to stderr",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.pools is not None:
        if args.machines is None:
            parser.error("serve --pools P needs --machines N (N machines in P pools)")
        if args.machines % args.pools:
            parser.error(
                f"serve --machines {args.machines} is not a multiple of "
                f"--pools {args.pools}"
            )
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
