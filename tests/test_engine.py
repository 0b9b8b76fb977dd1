"""Equivalence tests for the memoized sweep engine.

The engine's contract is strict: memoized measurements are
*bit-identical* to the unmemoized Runner path, times and energies, both
at ``noise_sigma=0`` and under noise (the engine samples the same
per-device noise streams in the same enqueue order, so with equal seeds
the two paths produce the same draws).
"""

import dataclasses
import hashlib
import statistics

import pytest

from repro.benchsuite import all_benchmarks, get_benchmark
from repro.core import TrainingConfig, generate_training_data
from repro.core.trainer import sweep_partitionings
from repro.engine import SweepEngine
from repro.machines import MC1, MC2
from repro.ocl.costmodel import DeviceCostModel
from repro.partitioning import Partitioning, partition_space, split_items
from repro.runtime import Runner
from repro.runtime.plan import replay

#: Every program of the suite; the exactness matrix runs each at its
#: smallest rung, on both machines, with and without noise.
PROGRAMS = sorted(b.name for b in all_benchmarks())

#: The iterated programs whose steps re-send state while more than one
#: device is active: halo rows (hotspot, srad, stencil2d, conv2d, spmv)
#: or refresh buffers (spmv, nbody, md, kmeans, backprop).
SYNC_PROGRAMS = "hotspot srad stencil2d conv2d spmv nbody md kmeans backprop".split()

#: sha256 over every record's full sweep (label, seconds and joules as
#: ``float.hex``) of a 23-program mc2 campaign, per training config.
#: Each pins every point of every sweep; the benchmark's train-campaign
#: fingerprint pins only each record's best label.  The first is the
#: noise-free campaign at two ladder sizes; the second drives noise and
#: a repeated measurement through every point of the coarser grid.
CAMPAIGN_DIGESTS = [
    (
        TrainingConfig(repetitions=1, seed=0, max_sizes=2),
        "1db9d897f36ef5566cb8b347bc6ee808ccaf5087d3ae20d7e7ca4f385216a90f",
    ),
    (
        TrainingConfig(
            step_percent=20, repetitions=2, noise_sigma=0.05, seed=0, max_sizes=1
        ),
        "74dcb0d0372ac9b71a4d125262b18f8b96df489b2fb3b0e750c643aaa72cb8d9",
    ),
]


def _raw_sweep(runner, request, space, repetitions=1):
    """The pre-engine trainer loop: one full simulation per point."""
    return {
        p.label: runner.time_of(request, p, repetitions=repetitions) for p in space
    }


def _smallest_request(program):
    bench = get_benchmark(program)
    return bench.request(bench.make_instance(bench.problem_sizes()[0], seed=0))


def _measure_matches_runner(program, machine, noise_sigma):
    """Engine vs unmemoized Runner, draw for draw, over a step-20 space.

    Twin runners with one seed take two single-repetition draws per
    point and must agree call by call; a second pair of twins measures
    each point with ``repetitions=2``, whose medians must be the
    ``statistics.median`` of those draws.  Returns the engine and its
    (seconds, joules) draws per label.
    """
    request = _smallest_request(program)
    runner = Runner(machine, noise_sigma=noise_sigma, seed=11)
    engine = SweepEngine(Runner(machine, noise_sigma=noise_sigma, seed=11))
    runner_x2 = Runner(machine, noise_sigma=noise_sigma, seed=11)
    engine_x2 = SweepEngine(Runner(machine, noise_sigma=noise_sigma, seed=11))
    samples = {}
    for p in partition_space(machine.num_devices, 20):
        where = (machine.name, p.label)
        seconds, joules = [], []
        for _ in range(2):
            raw = runner.run(request, p, functional=False)
            memoized = engine.measure(request, p)
            assert memoized.median_s == raw.median_s, where
            assert memoized.energy_j == raw.energy_j, where
            seconds.append(memoized.median_s)
            joules.append(memoized.energy_j)
        for run in (
            runner_x2.run(request, p, functional=False, repetitions=2),
            engine_x2.measure(request, p, repetitions=2),
        ):
            assert run.median_s == statistics.median(seconds), where
            assert run.energy_j == statistics.median(joules), where
        samples[p.label] = (tuple(seconds), tuple(joules))
    return engine, samples


@pytest.mark.parametrize("program", PROGRAMS)
def test_memoized_sweep_bit_identical_without_noise(program):
    for machine in (MC1, MC2):
        engine, _samples = _measure_matches_runner(program, machine, 0.0)
        assert engine.stats.tape_hits > 0


@pytest.mark.parametrize("program", PROGRAMS)
def test_memoized_sweep_matches_under_noise(program):
    """Same seed, same noise stream: the paths agree draw for draw."""
    for machine in (MC1, MC2):
        _engine, samples = _measure_matches_runner(program, machine, 0.3)
        # The sweep is genuinely noisy: repetitions draw different times.
        assert any(s[0] != s[1] for s, _joules in samples.values())


def test_sweep_prices_each_launch_shape_once(monkeypatch):
    """An iterated kernel's sweep costs one kernel_time per (device, items).

    hotspot launches 100 times per chunk; its seconds and its watts
    come from the same cost breakdown, priced once per item count.
    """
    request = _smallest_request("hotspot")
    calls = []
    kernel_time = DeviceCostModel.kernel_time

    def counting(self, analysis, items, scalar_args=None):
        calls.append((id(self), items))
        return kernel_time(self, analysis, items, scalar_args)

    monkeypatch.setattr(DeviceCostModel, "kernel_time", counting)
    engine = SweepEngine(Runner(MC2))
    timings, energies = engine.sweep_with_energy(
        request, partition_space(MC2.num_devices, 10)
    )

    assert len(timings) == len(energies) == 66
    assert calls
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize(
    "config, expected", CAMPAIGN_DIGESTS, ids=["noise-free", "noisy-repeated"]
)
def test_campaign_sweeps_match_pinned_digest(config, expected):
    """Every point of a 23-program campaign, seconds and joules, is pinned."""
    database = generate_training_data(MC2, all_benchmarks(), config)
    digest = hashlib.sha256()
    for record in database:
        digest.update(f"{record.program}@{record.size}\n".encode())
        for label in sorted(record.timings):
            seconds = record.timings[label].hex()
            joules = record.energies[label].hex()
            digest.update(f"{label} {seconds} {joules}\n".encode())
    assert len(database) == config.max_sizes * len(PROGRAMS)
    assert digest.hexdigest() == expected


def test_engine_works_across_machines():
    bench = get_benchmark("saxpy")
    instance = bench.make_instance(1 << 12, seed=0)
    request = bench.request(instance)
    for machine in (MC1, MC2):
        space = partition_space(machine.num_devices, 20)
        raw = _raw_sweep(Runner(machine), request, space)
        timings, _energies = SweepEngine(Runner(machine)).sweep_with_energy(
            request, space
        )
        assert timings == raw


def test_engine_records_session_stats_like_runner():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    space = partition_space(MC2.num_devices, 20)

    r_raw, r_mem = Runner(MC2), Runner(MC2)
    _raw_sweep(r_raw, request, space, repetitions=2)
    SweepEngine(r_mem).sweep_with_energy(request, space, repetitions=2)

    assert r_mem.stats.executions == r_raw.stats.executions
    assert r_mem.stats.simulated_s == pytest.approx(r_raw.stats.simulated_s)
    assert r_mem.stats.device_busy_s == pytest.approx(r_raw.stats.device_busy_s)


def test_repeated_measurements_hit_the_result_cache():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    engine = SweepEngine(Runner(MC2))
    p = Partitioning((70, 20, 10))

    first = engine.measure(request, p).median_s
    misses = engine.stats.tape_misses
    second = engine.measure(request, p).median_s
    assert second == first
    assert engine.stats.tape_misses == misses  # fully served from caches
    # Every composition still counts as an execution in the telemetry.
    assert engine.runner.stats.executions == 2


def test_price_is_noise_free_and_leaves_the_runner_untouched():
    """``price`` composes a noisy engine's tapes without the noise."""
    request = _smallest_request("mat_mul")
    p = Partitioning((40, 30, 30))
    engine = SweepEngine(Runner(MC2, noise_sigma=0.05, seed=3))
    twin = SweepEngine(Runner(MC2, noise_sigma=0.05, seed=3))
    session = dataclasses.asdict(engine.runner.stats)

    price = engine.price(request, p)
    engine.price(request, Partitioning((0, 50, 50)))
    # Nothing recorded, and no draw taken: the twin, which never
    # priced, measures the same samples.
    assert dataclasses.asdict(engine.runner.stats) == session
    runs = [engine.measure(request, p) for _ in range(3)]
    twin_runs = [twin.measure(request, p) for _ in range(3)]
    for run, twin_run in zip(runs, twin_runs):
        assert run.median_s == twin_run.median_s
        assert run.energy_j == twin_run.energy_j
    repeated = SweepEngine(Runner(MC2, noise_sigma=0.05, seed=3)).measure(
        request, p, 3
    )
    assert repeated.median_s == statistics.median(r.median_s for r in runs)
    assert repeated.energy_j == statistics.median(r.energy_j for r in runs)
    assert runs[0].result != price  # the measurement was noisy
    # The noise-free engine's measurement, bit for bit.
    assert price == SweepEngine(Runner(MC2)).measure(request, p).result
    # And it follows the runner's drift.
    engine.runner.apply_drift(0.5, device_index=1)
    reference = Runner(MC2)
    reference.apply_drift(0.5, device_index=1)
    drifted = engine.price(request, p)
    assert drifted == SweepEngine(reference).measure(request, p).result
    assert drifted.makespan_s > price.makespan_s


def test_measure_validates_arguments():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    engine = SweepEngine(Runner(MC2))
    with pytest.raises(ValueError):
        engine.measure(request, Partitioning((100, 0)), repetitions=1)
    with pytest.raises(ValueError):
        engine.measure(request, Partitioning((100, 0, 0)), repetitions=0)
    sweep = engine.sweep_with_energy
    with pytest.raises(ValueError, match="2 shares"):
        sweep(request, [Partitioning((100, 0, 0)), Partitioning((100, 0))])
    with pytest.raises(ValueError, match="repetitions"):
        sweep(request, [Partitioning((100, 0, 0))], repetitions=0)
    # Repetitions are checked before the space is read.
    with pytest.raises(ValueError, match="repetitions"):
        sweep(request, [], repetitions=0)


@pytest.mark.parametrize(
    "measure",
    [
        lambda runner, request, p: runner.run(request, p, functional=False),
        lambda runner, request, p: SweepEngine(runner).measure(request, p),
    ],
    ids=["Runner.run", "SweepEngine.measure"],
)
def test_negative_noise_duration_rejected_on_both_paths(measure):
    """A noise hook that returns a negative duration fails either path."""
    runner = Runner(MC2)
    for device in runner.devices:
        device.noise = lambda duration, label: -duration
    with pytest.raises(ValueError, match="negative duration"):
        measure(runner, _smallest_request("vec_add"), Partitioning((40, 30, 30)))


def test_sweep_after_drift_matches_a_fresh_engine():
    """A sweep on a drifted runner drops the pre-drift tapes and results."""
    request = _smallest_request("stencil2d")
    space = partition_space(MC2.num_devices, 10)
    runner = Runner(MC2)
    engine = SweepEngine(runner)
    before = engine.sweep_with_energy(request, space)
    runner.apply_drift(0.5, device_index=1)
    drifted = Runner(MC2)
    drifted.apply_drift(0.5, device_index=1)

    after = engine.sweep_with_energy(request, space)
    assert after == SweepEngine(drifted).sweep_with_energy(request, space)
    assert after != before


def test_noisy_sweep_matches_a_measure_loop():
    """A sweep draws, records and medians exactly as a per-point loop.

    Point by point, then repetition by repetition, then device by
    device: the noise streams are consumed in the same order.
    """
    request = _smallest_request("hotspot")
    space = partition_space(MC2.num_devices, 20)
    engine = SweepEngine(Runner(MC2, noise_sigma=0.3, seed=5))
    twin = SweepEngine(Runner(MC2, noise_sigma=0.3, seed=5))

    timings, energies = engine.sweep_with_energy(request, space, repetitions=2)
    runs = {p.label: twin.measure(request, p, repetitions=2) for p in space}
    assert timings == {label: run.median_s for label, run in runs.items()}
    assert energies == {label: run.energy_j for label, run in runs.items()}
    session = dataclasses.asdict(engine.runner.stats)
    assert session == dataclasses.asdict(twin.runner.stats)
    assert session["executions"] == 2 * len(space)


def test_reset_clears_caches_but_keeps_correctness():
    bench = get_benchmark("vec_add")
    request = bench.request(bench.make_instance(1 << 12, seed=0))
    engine = SweepEngine(Runner(MC2))
    p = Partitioning((50, 30, 20))
    before = engine.measure(request, p).median_s
    engine.reset()
    assert engine.measure(request, p).median_s == before


def test_trainer_sweep_uses_engine_and_matches_legacy_loop():
    """sweep_partitionings (now engine-backed) equals the raw loop."""
    bench = get_benchmark("stencil2d")
    instance = bench.make_instance(32, seed=0)
    space = partition_space(MC2.num_devices, 20)

    raw = _raw_sweep(Runner(MC2), bench.request(instance), space)
    swept = sweep_partitionings(Runner(MC2), bench, instance, space)
    assert swept == raw


class _ContentKeyOnly(dict):
    """A chunk memo that never keeps a tape: every lookup takes the content key."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("program", PROGRAMS)
def test_chunk_memo_matches_the_content_key_path(program):
    """Looking a tape up by its exact chunk first changes nothing.

    A full 66-point sweep returns the same seconds, joules and engine
    counters as an engine driven through the content key on every
    lookup, before and after drift (which keeps the request tables, so
    the chunk memo must go with the tapes), and a reset drops it.
    """
    bench = get_benchmark(program)
    sizes = bench.problem_sizes()
    space = partition_space(MC2.num_devices, 10)
    for size in (sizes[0], sizes[len(sizes) // 2]):
        request = bench.request(bench.make_instance(size, seed=0))
        engine = SweepEngine(Runner(MC2))
        reference = SweepEngine(Runner(MC2))
        reference._chunks = _ContentKeyOnly()
        swept = engine.sweep_with_energy(request, space)
        assert swept == reference.sweep_with_energy(request, space)
        assert engine.stats == reference.stats
        assert engine.stats.tape_hits > 0
        for twin in (engine, reference):
            twin.runner.apply_drift(0.5, device_index=1)
        drifted = engine.sweep_with_energy(request, space)
        assert drifted == reference.sweep_with_energy(request, space)
        assert drifted != swept
        assert engine.stats == reference.stats
        engine.reset()
        assert not engine._chunks


def _repeats_a_transfer(commands):
    """Whether a timeline sends one input more than once (a sync block)."""
    labels = [label for label, _seconds, _watts in commands if label[:4] == "h2d:"]
    return len(labels) > len(set(labels))


@pytest.mark.parametrize("program", PROGRAMS)
def test_tapes_are_the_schedulers_priced_plans(program, monkeypatch):
    """Every tape a sweep records is the scheduler's timeline for its chunk.

    Label, seconds and watts, command by command, against what the
    unmemoized scheduler prices and replays for the same chunk, at two
    rungs on both machines, single- and multi-device.  A fresh engine
    calls ``price_command`` exactly once per distinct (device, label,
    amount) command of those timelines, where the scheduler prices
    every command it replays.
    """
    import repro.engine.sweep as sweep
    import repro.runtime.scheduler as scheduler

    timelines, scheduler_priced, engine_priced = [], [], []
    device_index = {}

    def recording(calls, price_command):
        def price(device, command, analysis, scalar_args):
            label, _direction, amount = command
            calls.append((device_index[id(device)], label, amount))
            return price_command(device, command, analysis, scalar_args)

        return price

    def scheduler_replay(commands, noise=None):
        timelines.append(tuple(commands))
        return replay(commands, noise)

    monkeypatch.setattr(
        scheduler, "price_command", recording(scheduler_priced, sweep.price_command)
    )
    monkeypatch.setattr(
        sweep, "price_command", recording(engine_priced, sweep.price_command)
    )
    monkeypatch.setattr(scheduler, "replay", scheduler_replay)

    bench = get_benchmark(program)
    sizes = bench.problem_sizes()
    for machine in (MC1, MC2):
        space = partition_space(machine.num_devices, 10)
        for size in (sizes[0], sizes[len(sizes) // 2]):
            request = bench.request(bench.make_instance(size, seed=0))
            runner, engine = Runner(machine), SweepEngine(Runner(machine))
            for devices in (runner.devices, engine.runner.devices):
                device_index.update((id(d), i) for i, d in enumerate(devices))
            del scheduler_priced[:], engine_priced[:]
            engine.sweep_with_energy(request, space)
            meta = engine._lookup(request)
            for p in space:
                del timelines[:]
                runner.run(request, p, functional=False)
                ranges = split_items(request.total_items, p, request.granularity)
                active = [(i, off, cnt) for i, (off, cnt) in enumerate(ranges) if cnt]
                multi = len(active) > 1
                for (i, offset, count), timeline in zip(active, timelines, strict=True):
                    tape = engine._chunks[(meta, i, offset, count, multi)]
                    where = (machine.name, size, p.label, i)
                    assert tape.commands == timeline, where
            # Every recorded tape was checked: each belongs to some chunk.
            chunks = engine._chunks
            assert {id(t) for t in engine._tapes.values()} == {
                id(t) for t in chunks.values()
            }
            assert len(engine_priced) == len(set(engine_priced))
            assert set(engine_priced) == set(scheduler_priced)
            assert len(scheduler_priced) > len(engine_priced)
            assert not any(
                _repeats_a_transfer(tape.commands)
                for (_meta, _i, _off, _cnt, multi), tape in chunks.items()
                if not multi
            )
            synced = any(
                _repeats_a_transfer(tape.commands)
                for (_meta, _i, _off, _cnt, multi), tape in chunks.items()
                if multi
            )
            assert synced == (program in SYNC_PROGRAMS), (machine.name, size)
