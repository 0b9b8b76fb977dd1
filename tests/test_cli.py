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
        with pytest.raises(KeyError):
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


def _registry_json(out: str) -> dict:
    """The ``--json`` registry, printed last after the summary tables."""
    return json.loads(out[out.rindex("\n{\n") :])


class TestServe:
    BACKENDS = {
        "service": ([], "Serving summary"),
        "fleet": (["--machines", "2"], "Fleet summary"),
        "cluster": (["--machines", "2", "--pools", "2"], "Cluster pools"),
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
        flags, summary = self.BACKENDS[backend]
        argv = ["serve", *TINY, "--requests", "8", "--workload", family, *flags]
        if arrival == "poisson":
            argv += ["--arrival", "poisson"]
        assert main([*argv, "--telemetry", "metrics", "--json"]) == 0
        out = capsys.readouterr().out
        payload = _registry_json(out)
        assert (
            payload["loop.completed"] + payload["loop.shed"] + payload["loop.failed"]
            == 8
        )
        assert summary in out

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
        out = capsys.readouterr().out
        rows = [
            line.split()
            for line in out.splitlines()
            if line.startswith(("pool 0", "pool 1"))
        ]
        # "pool", index, two machines, then each machine's model source.
        assert [row[4:6] for row in rows] == [["registry", "registry"]] * 2

    def test_priority_shedding_spares_the_priority_tenant(self, capsys):
        assert main(
            ["serve", *TINY, "--requests", "40", "--arrival", "poisson",
             "--arrival-rate", "5000", "--slo-ms", "0.5",
             "--shed-policy", "priority", "--tenants", "gold,silver",
             "--tenant-priority", "gold:2", "--json"]
        ) == 0
        payload = _registry_json(capsys.readouterr().out)
        assert payload["slo.tenant.gold.shed"] == 0
        assert payload["slo.tenant.silver.shed"] >= 1

    def test_serve_reads_stdin_on_a_fleet(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("vec_add 4096\nvec_add 4096\n"))
        assert main(["serve", "--trace", "-", "--machines", "2", *TINY]) == 0
        out = capsys.readouterr().out
        assert "lines from stdin" in out
        assert out.count("vec_add@4096") == 2 and " on mc" in out
        assert "Fleet summary" in out


class TestServing:
    def test_replay_reports_summary(self, capsys):
        assert main(
            ["serve", "--machine", "mc2", "--requests", "25",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Serving summary" in out
        assert "cache hit rate" in out
        assert "refits" in out
        assert "throughput (simulated)" in out

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
             "--train-programs", "3", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("vec_add@4096") == 2
        assert "[miss" in out and "[hit" in out
        assert out.count("malformed request") == 2  # unknown program, size 0
        assert "Serving summary" in out

    def test_replay_rejects_bad_train_programs(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "1", "--train-programs", "0"])

    def test_replay_with_energy_objective_reports_energy(self, capsys):
        assert main(
            ["serve", "--machine", "mc2", "--requests", "20",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn",
             "--objective", "energy"]
        ) == 0
        out = capsys.readouterr().out
        assert "objective" in out and "energy" in out
        assert "served energy" in out
        assert "avg power (served)" in out

    def test_replay_with_power_cap_reports_cap_row(self, capsys):
        assert main(
            ["serve", "--machine", "mc2", "--requests", "15",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn",
             "--power-cap", "160"]
        ) == 0
        out = capsys.readouterr().out
        assert "power cap" in out
        assert "violations" in out

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


class TestGraphCommands:
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
             "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Serving summary" in out
        assert "graph requests" in out
        assert "distinct pipelines" in out
        assert "cache hit rate" in out
        assert "co-searches" in out


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
        assert "Fleet summary" in out
        assert "Fleet totals" in out
        assert "mc1-r0" in out and "mc2-r1" in out
        assert "fleet throughput (simulated)" in out
        assert "device util" in out

    def test_fleet_serve_policy_choices(self):
        with pytest.raises(SystemExit):
            main(["serve", "--machines", "2", "--policy", "round-robin"])

    def test_fleet_serve_energy_policy_reports_power(self, capsys):
        assert main(
            ["serve", "--machines", "2", "--requests", "12",
             "--train-programs", "2", "--max-sizes", "1", "--model", "knn",
             "--policy", "energy", "--objective", "energy"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy energy" in out
        assert "energy (J)" in out and "power (W)" in out
        assert "fleet energy" in out and "fleet avg power" in out

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
        out = capsys.readouterr().out
        assert out.count("registry") >= 2  # two replicas loaded
        assert "warm(" in out  # the third was warm-started


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
             "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Latency summary" in out and "crashes" in out
        assert "Critical path" in out
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

    def test_telemetry_mode_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["serve", "--requests", "1", "--telemetry", "loud"])


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
