"""Tests for the command-line interface."""

import io
import itertools
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "mc2", "--max-sizes", "0"],
            ["train", "mc2", "--max-sizes", "-1"],
            ["train", "mc2", "--repetitions", "0"],
            ["energy-sweep", "vec_add", "--max-sizes", "0"],
            ["serve", "--max-sizes", "0"],
            ["fleet-train", "--registry", "r", "--max-sizes", "-1"],
        ],
    )
    def test_non_positive_counts_are_parse_errors(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "must be >= 1" in capsys.readouterr().err


def _database(*records) -> str:
    """A database file holding one cpu-only-swept record per
    ``(machine, program)`` pair."""
    return json.dumps(
        {
            "schema_version": 1,
            "records": [
                {
                    "machine": machine,
                    "program": program,
                    "size": 4096,
                    "features": {},
                    "timings": {"100/0/0": 1.0},
                    "best_label": "100/0/0",
                }
                for machine, program in records
            ],
        }
    )


#: Malformed files the bad-input cases name, written into the test's cwd.
BAD_FILES = {
    "no-program.json": '{"schema_version": 1, "records": [{"machine": "mc2"}]}',
    "list.json": "[1, 2]",
    "empty.json": '{"schema_version": 1, "records": []}',
    "one-program.json": _database(("mc2", "vec_add")),
    "unknown-machine.json": _database(("mcX", "vec_add")),
    "cpu-only.json": _database(("mc2", "vec_add"), ("mc2", "mat_mul")),
}

#: Enough flags that a serve case which fails to stop early trains fast.
SMALL = ["--train-programs", "1", "--max-sizes", "1"]


class TestBadInput:
    """Input errors exit with a one-line message, not a traceback, and
    before anything is printed (for ``serve``: before the banner)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "mc2", "--noise", "nan"], "noise_sigma"),
            (["fleet-train", "--registry", "reg", "--noise", "nan"], "noise_sigma"),
            (["energy-sweep", "vec_add", "--step", "7"], "--step: "),
            (["graph-sweep", "--step", "7"], "--step: "),
            (
                ["run", "vec_add", "--partitioning", "abc"],
                "--partitioning: label 'abc' is not integer percentages "
                "in the a/b/c form",
            ),
            (["run", "vec_add", "--partitioning", "50/60/10"], "sum to 100"),
            (["run", "vec_add", "--partitioning", "50/50"], "has 3 devices"),
            (["run", "vec_add", "--size", "0"], "--size 0: "),
            (["energy-sweep", "vec_add", "--size", "0"], "--size 0: "),
            (["run", "nope"], "unknown benchmark 'nope'"),
            (["kernel", "nope"], "unknown benchmark 'nope'"),
            (["energy-sweep", "nope"], "unknown benchmark 'nope'"),
            (["serve", "--skew", "0", *SMALL], "skew"),
            (["report", "missing.json"], "missing.json"),
            (["report", "no-program.json"], "record 0 has no field 'program'"),
            (["report", "list.json"], "list.json: the top level is a JSON list"),
            (["report", "empty.json", "--model", "bogus"], "unknown model kind"),
            (
                ["report", "one-program.json"],
                "machine 'mc2' has records for 1 program(s)",
            ),
            (["report", "unknown-machine.json"], "unknown machine 'mcX'"),
            (
                ["report", "cpu-only.json"],
                "record vec_add@4096 lacks the gpu-only point 0/100/0",
            ),
            (["serve", "--model", "bogus", *SMALL], "--model: unknown model kind"),
            (["serve", "--trace", "missing.txt", *SMALL], "--trace missing.txt: "),
            (["graph-sweep", "--scale-bytes", "-1"], "--scale-bytes: "),
            (["serve", "--drift", "2:0.5:mc2:7", *SMALL], "mc2 has no device 7"),
            (
                ["serve", "--machines", "2", "--drift", "2:0.5:nosuch", *SMALL],
                "unknown machine 'nosuch'",
            ),
        ],
        ids=[
            "train-noise",
            "fleet-train-noise",
            "energy-sweep-step",
            "graph-sweep-step",
            "run-partitioning-label",
            "run-partitioning-sum",
            "run-partitioning-devices",
            "run-size",
            "energy-sweep-size",
            "run-program",
            "kernel-program",
            "energy-sweep-program",
            "serve-skew",
            "report-missing-file",
            "report-record-field",
            "report-top-level",
            "report-model",
            "report-one-program",
            "report-machine",
            "report-baseline",
            "serve-model",
            "serve-trace-file",
            "graph-sweep-scale-bytes",
            "serve-drift-device",
            "serve-drift-machine",
        ],
    )
    def test_exits_with_one_line(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        text = exit_info.value.code
        assert isinstance(text, str) and "\n" not in text
        assert message in text
        assert capsys.readouterr().out == ""


class TestListAndMachines:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vec_add" in out and "mvt" in out
        assert out.count("\n") >= 24

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "mc1" in out and "mc2" in out
        assert "host-resident" in out
        assert "PCIe" in out


class TestKernel:
    def test_kernel_emission(self, capsys):
        assert main(["kernel", "saxpy"]) == 0
        out = capsys.readouterr().out
        assert "__kernel void saxpy" in out
        assert "__chunk_offset" in out
        assert "clEnqueueNDRangeKernel" in out

    def test_unknown_program(self):
        with pytest.raises(SystemExit, match="unknown benchmark 'nope'"):
            main(["kernel", "nope"])


class TestRun:
    def test_run_default_machine(self, capsys):
        assert main(["run", "vec_add", "--size", "65536"]) == 0
        out = capsys.readouterr().out
        assert "cpu-only" in out and "gpu-only" in out and "oracle" in out

    def test_run_with_custom_partitioning(self, capsys):
        assert main(
            ["run", "triad", "--machine", "mc1", "--size", "16384",
             "--partitioning", "40/30/30"]
        ) == 0
        out = capsys.readouterr().out
        assert "40/30/30" in out


#: The smallest training campaign the serving tests need.
TINY = ["--train-programs", "2", "--max-sizes", "1", "--model", "knn"]


def _model_sources(out: str) -> dict[str, str]:
    """Each machine's model source, as the ``serve`` banner names it."""
    prefix = "model sources: "
    line = next(line for line in out.splitlines() if line.startswith(prefix))
    return dict(pair.split(" ") for pair in line[len(prefix) :].split(", "))


class TestServe:
    #: Each backend's flags and one series only that backend publishes.
    BACKENDS = {
        "service": ([], "service.requests"),
        "fleet": (["--machines", "2"], "fleet.replica.mc1-r0.routed"),
        "cluster": (["--machines", "2", "--pools", "2"], "cluster.pool.0.requests"),
    }

    @pytest.mark.parametrize(
        "backend, arrival, family",
        itertools.product(
            ["service", "fleet", "cluster"],
            ["closed", "poisson"],
            ["stationary", "pipeline"],
        ),
    )
    def test_backend_arrival_family(self, backend, arrival, family, capsys):
        flags, series = self.BACKENDS[backend]
        argv = ["serve", *TINY, "--requests", "8", "--workload", family, *flags]
        if arrival == "poisson":
            argv += ["--arrival", "poisson"]
        assert main([*argv, "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert (
            payload["loop.completed"] + payload["loop.shed"] + payload["loop.failed"]
            == 8
        )
        assert series in payload
        completed = payload["loop.completed"]
        assert captured.err.splitlines()[-1].startswith(
            f"throughput (wall): {completed} requests completed in "
        )

    def test_json_stdout_is_the_registry_alone(self, capsys):
        # Piped to ``python -m json.tool``, stdout must parse whole: the
        # banner and the wall-throughput line go to stderr.
        argv = "serve --requests 5 --train-programs 1 --max-sizes 1 --json".split()
        assert main(argv) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["service.requests"] == 5
        assert captured.err.startswith("one machine (mc2); ")
        assert captured.err.splitlines()[-1].startswith(
            "throughput (wall): 5 requests completed in "
        )

    @pytest.mark.parametrize(
        "backend, machines", [("service", 1), ("fleet", 2), ("cluster", 2)]
    )
    def test_json_holds_the_runner_engine_and_tenant_series(
        self, backend, machines, capsys
    ):
        flags, _series = self.BACKENDS[backend]
        argv = ["serve", *TINY, "--requests", "8", "--tenants", "gold,silver"]
        assert main([*argv, *flags, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)

        def series(suffix):
            return [v for name, v in payload.items() if name.endswith(suffix)]

        executions = series("service.runner.executions")
        assert len(executions) == machines
        # Every completed request was measured once; the rest are probes.
        assert sum(executions) >= payload["loop.completed"] == 8
        assert len(series("service.engine.tape_hit_rate")) == machines
        assert sum(series("service.engine.compositions")) > 0
        utilization = series(".utilization")  # service.runner.device.<i>.*
        assert len(utilization) >= 3 and all(0.0 <= u <= 1.0 for u in utilization)
        assert series(".weight") == ([1, 1] if backend == "cluster" else [])
        # Each number is published once: no replica-level repeat of the
        # service's cache hit rate, no detector repeat of its drift flags.
        assert series(".cache_hit_rate") == series(".drift.flags") == []

    def test_pools_need_machines_in_equal_pools(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--pools", "2"])
        assert "--pools P needs --machines N" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["serve", "--machines", "3", "--pools", "2"])
        assert "not a multiple of --pools 2" in capsys.readouterr().err

    def test_cluster_serves_from_a_fleet_registry(self, tmp_path, capsys):
        registry = str(tmp_path / "registry")
        train = ["fleet-train", "--registry", registry, "--machines", "4", *TINY]
        assert main(train) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--machines", "4", "--pools", "2", "--registry", registry,
             "--requests", "8", *TINY]
        ) == 0
        sources = _model_sources(capsys.readouterr().out)
        assert sources == {
            "mc1-r0": "registry",
            "mc2-r1": "registry",
            "mc1+-r2": "registry",
            "mc2+-r3": "registry",
        }

    def test_priority_shedding_spares_the_priority_tenant(self, capsys):
        assert main(
            ["serve", *TINY, "--requests", "40", "--arrival", "poisson",
             "--arrival-rate", "5000", "--slo-ms", "0.5",
             "--shed-policy", "priority", "--tenants", "gold,silver",
             "--tenant-priority", "gold:2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo.tenant.gold.shed"] == 0
        assert payload["slo.tenant.silver.shed"] >= 1

    def test_serve_reads_stdin_on_a_fleet(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("vec_add 4096\nvec_add 4096\n"))
        assert main(["serve", "--trace", "-", "--machines", "2", *TINY]) == 0
        out = capsys.readouterr().out
        assert "lines from stdin" in out
        assert out.count("vec_add@4096") == 2 and " on mc" in out
        assert "fleet.replica.mc1-r0.routed" in out


class TestServing:
    def test_replay_reports_summary(self, capsys):
        assert main(
            ["serve", "--machine", "mc2", "--requests", "25",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Metrics registry (" in out
        for series in ("service.requests", "service.cache.hit_rate", "loop.clock_s"):
            assert series in out
        assert "throughput (wall): 25 requests completed in " in out

    def test_serve_from_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "# comment line\n"
            "vec_add 4096\n"
            "vec_add 4096\n"
            "not_a_program 7\n"
            "vec_add 0\n"
        )
        assert main(
            ["serve", "--trace", str(trace), "--machine", "mc2",
             "--train-programs", "3", "--max-sizes", "1", "--model", "knn",
             "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.err.count("vec_add@4096") == 2
        assert "[miss" in captured.err and "[hit" in captured.err
        assert captured.err.count("malformed request") == 2  # unknown program, size 0
        assert json.loads(captured.out)["service.requests"] == 2

    def test_replay_rejects_bad_train_programs(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "1", "--train-programs", "0"])

    def test_replay_with_energy_objective_reports_energy(self, capsys):
        assert main(
            ["serve", "--machine", "mc2", "--requests", "20",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn",
             "--objective", "energy", "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert "objective energy" in captured.err.splitlines()[0]
        payload = json.loads(captured.out)
        assert payload["service.energy_j"] > 0
        assert payload["loop.execute_time_s"] > 0

    def test_replay_with_power_cap_reports_cap_row(self, capsys):
        assert main(
            ["serve", "--machine", "mc2", "--requests", "15",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn",
             "--power-cap", "160", "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert "power cap 160 W" in captured.err.splitlines()[0]
        payload = json.loads(captured.out)
        assert "service.power_capped" in payload
        assert "service.power_cap_violations" in payload

    def test_replay_rejects_cap_below_idle_floor(self):
        with pytest.raises(SystemExit, match="idle floor"):
            main(
                ["serve", "--machine", "mc2", "--requests", "5",
                 "--train-programs", "2", "--max-sizes", "1", "--model", "knn",
                 "--power-cap", "1"]
            )

    def test_objective_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "1", "--objective", "speed"])

    @pytest.mark.parametrize(
        "flags, knob",
        [
            (
                ["--retry-backoff-ms", "nan", "--faults", "error:0:10:0.5"],
                "retry_backoff_s",
            ),
            (["--faults", "crash:nan:0.001::0"], "at_s"),
            (["--retry-budget", "nan"], "retry_budget"),
            (
                ["--machines", "4", "--pools", "2", "--net-latency-us", "nan"],
                "latency_s",
            ),
            (["--threshold", "nan"], "regression_threshold"),
            (["--noise", "nan"], "noise_sigma"),
        ],
    )
    def test_non_finite_numbers_exit_before_serving(self, flags, knob):
        # NaN passes an ``x < 0`` check; unchecked, it fails mid-trace
        # in a latency histogram, switches retries off, or keeps every
        # request in its home pool.
        with pytest.raises(SystemExit, match=knob):
            main(["serve", "--requests", "20", *TINY, "--arrival", "poisson", *flags])


class TestGraphCommands:
    @pytest.mark.parametrize("sigma", ["-0.1", "nan"])
    def test_graph_sweep_rejects_bad_noise(self, sigma):
        # Regression: graph-sweep builds its Runner directly, and a
        # negative or NaN sigma silently ran noise-free.
        with pytest.raises(SystemExit, match="noise_sigma"):
            main(["graph-sweep", "--noise", sigma])

    def test_graph_sweep_reports_cosearch_summary(self, capsys):
        assert main(["graph-sweep", "--step", "20", "--scale-bytes", "64"]) == 0
        out = capsys.readouterr().out
        assert "Co-search summary" in out
        assert "greedy makespan" in out
        assert "speedup over greedy" in out
        assert "critical path" in out
        # Every stage appears in the per-task schedule table.
        for stage in ("stencil2d@256", "reduction@65536", "mat_mul@160"):
            assert stage in out

    def test_graph_sweep_rejects_malformed_stages(self):
        with pytest.raises(SystemExit, match="--stages"):
            main(["graph-sweep", "--stages", "mat_mul@big,vec_add@4096"])
        with pytest.raises(SystemExit, match="at least 2"):
            main(["graph-sweep", "--stages", "mat_mul@160"])

    def test_graph_serve_reports_summary(self, capsys):
        assert main(
            ["serve", "--workload", "pipeline", "--machine", "mc2",
             "--requests", "6", "--train-programs", "4", "--max-sizes", "1",
             "--model", "knn", "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert "distinct pipelines" in captured.err
        payload = json.loads(captured.out)
        assert payload["service.graph_requests"] == 6
        assert "service.graph_cosearches" in payload
        assert "service.cache.hit_rate" in payload


class TestEnergySweep:
    def test_energy_sweep_reports_pareto(self, capsys):
        assert main(
            ["energy-sweep", "black_scholes", "--machine", "mc2",
             "--max-sizes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "black_scholes on mc2" in out
        assert "makespan-best" in out
        assert "energy-best" in out
        assert "pareto" in out

    def test_energy_sweep_covers_both_machines_by_default(self, capsys):
        assert main(["energy-sweep", "vec_add", "--size", "4096"]) == 0
        out = capsys.readouterr().out
        assert "vec_add on mc1" in out
        assert "vec_add on mc2" in out


class TestFleet:
    def test_fleet_serve_reports_summary(self, capsys):
        assert main(
            ["serve", "--machines", "2", "--requests", "15",
             "--train-programs", "2", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Metrics registry (" in out
        for series in (
            "fleet.replica.mc1-r0.routed",
            "fleet.replica.mc2-r1.routed",
            "fleet.throughput_rps",
            "fleet.replica.mc1-r0.service.runner.device.0.utilization",
        ):
            assert series in out

    def test_fleet_serve_policy_choices(self):
        with pytest.raises(SystemExit):
            main(["serve", "--machines", "2", "--policy", "round-robin"])

    def test_fleet_serve_energy_policy_reports_power(self, capsys):
        assert main(
            ["serve", "--machines", "2", "--requests", "12",
             "--train-programs", "2", "--max-sizes", "1", "--model", "knn",
             "--policy", "energy", "--objective", "energy", "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert "policy energy" in captured.err
        payload = json.loads(captured.out)
        assert payload["fleet.energy_j"] > 0 and payload["fleet.avg_power_w"] > 0
        assert payload["fleet.replica.mc1-r0.service.energy_j"] >= 0

    def test_fleet_train_rejects_unpersistable_model_up_front(self, tmp_path):
        # Must fail before any training campaign runs, not in save_model.
        with pytest.raises(SystemExit, match="persist"):
            main(["fleet-train", "--registry", str(tmp_path / "r"),
                  "--model", "forest", "--machines", "1"])
        assert not (tmp_path / "r").exists()

    def test_fleet_train_then_serve_from_registry(self, tmp_path, capsys):
        registry = tmp_path / "registry"
        assert main(
            ["fleet-train", "--registry", str(registry), "--machines", "2",
             "--train-programs", "2", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fleet training" in out
        assert (registry / "mc1-r0" / "model.json").is_file()
        assert (registry / "mc1-r0" / "database.json").is_file()
        assert (registry / "mc2-r1" / "meta.json").is_file()

        # A third, unregistered machine warm-starts from the registry.
        assert main(
            ["serve", "--registry", str(registry), "--machines", "3",
             "--warm-start", "--requests", "10", "--train-programs", "2",
             "--max-sizes", "1", "--model", "knn", "--policy", "predicted"]
        ) == 0
        sources = _model_sources(capsys.readouterr().out)
        # Two replicas loaded, and the third was warm-started.
        assert sources["mc1-r0"] == sources["mc2-r1"] == "registry"
        assert sources["mc1+-r2"].startswith("warm(")

    @pytest.mark.parametrize(
        "flags, trained_on",
        [
            (["--objective", "energy"], "energy"),
            (
                ["--objective", "energy-capped-makespan", "--power-cap", "1000"],
                "makespan",
            ),
        ],
    )
    def test_warm_start_trains_on_the_serving_objective(
        self, flags, trained_on, tmp_path
    ):
        # Regression: a warm-started machine always fitted a makespan
        # model, while a machine the CLI trains fitted the serving
        # objective's training objective.  Machines loaded from the
        # registry served the makespan model they were saved with.
        from repro.benchsuite import all_benchmarks
        from repro.cli import _build_backend
        from repro.machines import fleet_platforms
        from repro.serving import SLOConfig

        registry = str(tmp_path / "registry")
        small = ["--train-programs", "3", "--max-sizes", "1", "--model", "knn"]
        assert main(
            ["fleet-train", "--registry", registry, "--machines", "2", *small]
        ) == 0
        args = build_parser().parse_args(
            ["serve", "--machines", "3", "--registry", registry, "--warm-start",
             *small, *flags]
        )
        _router, services, sources = _build_backend(
            args, fleet_platforms(3), all_benchmarks()[:3], SLOConfig()
        )
        assert sources == ["registry", "registry", sources[2]]
        assert sources[2].startswith("warm(")
        for service in services:
            assert service.system.predictor.objective.value == trained_on


    def test_registry_without_energy_sweeps_exits_with_one_line(
        self, tmp_path, capsys
    ):
        # A registered makespan model is refit for an energy objective;
        # a database saved without energy sweeps cannot be, and the
        # serve exits naming the machine instead of a traceback.
        registry = tmp_path / "registry"
        small = ["--train-programs", "2", "--max-sizes", "1", "--model", "knn"]
        assert main(
            ["fleet-train", "--registry", str(registry), "--machines", "1", *small]
        ) == 0
        database = registry / "mc1-r0" / "database.json"
        doc = json.loads(database.read_text())
        for record in doc["records"]:
            del record["energies"]
        database.write_text(json.dumps(doc))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["serve", "--machines", "1", "--registry", str(registry),
                 "--objective", "energy", "--requests", "5", *small]
            )
        text = exit_info.value.code
        assert isinstance(text, str) and "\n" not in text
        assert text.startswith("--registry mc1-r0: ")
        assert "needs energy" in text
        assert capsys.readouterr().out == ""


class TestTelemetryCommands:
    def test_serve_trace_out_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "requests.txt"
        trace.write_text("vec_add 4096\nmat_mul 64\nvec_add 4096\n")
        out_path = tmp_path / "spans.jsonl"
        assert main(
            ["serve", "--trace", str(trace), *TINY,
             "--arrival", "poisson", "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "trace:" in out
        lines = out_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header" and header["completed"] == 3
        assert all(json.loads(line) for line in lines[1:])

    def test_fleet_serve_trace_out(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.jsonl"
        assert main(
            ["serve", "--machines", "2", "--requests", "12",
             *TINY, "--arrival", "poisson",
             "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        header = json.loads(out_path.read_text().splitlines()[0])
        assert header["completed"] + header["failed"] <= 12
        assert header["spans"] > 0

    def test_cluster_serve_trace_out(self, tmp_path, capsys):
        out_path = tmp_path / "cluster.jsonl"
        assert main(
            ["serve", "--machines", "2", "--pools", "2",
             "--requests", "12", *TINY, "--arrival", "poisson",
             "--tenants", "gold,silver", "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        assert records[0]["type"] == "header"
        kinds = {r["kind"] for r in records if r["type"] == "span"}
        assert "request" in kinds and "execute" in kinds

    def test_closed_loop_replay_traces_and_injects_faults(self, tmp_path, capsys):
        # No --arrival: the closed-loop trace runs on the event loop, so
        # tracing and fault injection need no open-loop process.
        out_path = tmp_path / "closed.jsonl"
        assert main(
            ["serve", "--requests", "12", *TINY,
             "--faults", "crash:0.0005:0.001::0",
             "--trace-out", str(out_path), "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["loop.faults.crashes"] >= 1
        assert "Critical path" in captured.err
        header = json.loads(out_path.read_text().splitlines()[0])
        assert header["completed"] + header["failed"] == 12

    def test_replay_telemetry_metrics_reports_series_count(self, capsys):
        assert main(
            ["serve", "--requests", "10", *TINY,
             "--arrival", "poisson", "--telemetry", "metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "Metrics registry (" in out and " series)" in out

    def test_trace_export_command(self, tmp_path, capsys):
        out_path = tmp_path / "export.jsonl"
        assert main(
            ["serve", "--requests", "15", *TINY, "--arrival", "poisson",
             "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert json.loads(out_path.read_text().splitlines()[0])["completed"] == 15

    def test_metrics_report_command(self, capsys):
        assert main(
            ["serve", "--requests", "10", *TINY, "--telemetry", "metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "Metrics registry" in out
        assert "service.requests" in out
        assert "service.cache.hit_rate" in out

    def test_telemetry_mode_choices_validated(self, capsys):
        # The registry is the report, so serve always collects it.
        for mode in ("loud", "off"):
            with pytest.raises(SystemExit):
                main(["serve", "--requests", "1", "--telemetry", mode])
            assert "invalid choice" in capsys.readouterr().err


class TestTrainAndReport:
    def test_train_then_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # Training on the full suite is slow; patch the suite down.
        import repro.cli as cli
        from repro.benchsuite import get_benchmark

        small = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul", "hotspot"))
        monkeypatch.setattr(cli, "all_benchmarks", lambda: small)

        out_path = tmp_path / "db.json"
        assert main(
            ["train", "mc2", "--output", str(out_path), "--max-sizes", "2"]
        ) == 0
        txt = capsys.readouterr().out
        assert "wrote 6 records" in txt
        doc = json.loads(out_path.read_text())
        assert len(doc["records"]) == 6

        assert main(["report", str(out_path), "--model", "knn"]) == 0
        report = capsys.readouterr().out
        assert "REPRODUCTION REPORT" in report
        assert "Figure 1 [mc2]" in report
        assert "Size sensitivity" in report
