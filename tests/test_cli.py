"""End-to-end tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading

import pytest

from repro.cli import build_parser, main
from repro.models import Task
from repro.serialization import tasks_to_csv, tasks_to_json


@pytest.fixture
def task_csv(tmp_path):
    path = os.path.join(tmp_path, "tasks.csv")
    with open(path, "w") as handle:
        tasks_to_csv(
            [
                Task(0.0, 40.0, 8000.0, "a"),
                Task(0.0, 70.0, 15000.0, "b"),
            ],
            handle,
        )
    return path


@pytest.fixture
def agreeable_json(tmp_path):
    path = os.path.join(tmp_path, "tasks.json")
    with open(path, "w") as handle:
        handle.write(
            tasks_to_json(
                [
                    Task(0.0, 30.0, 5000.0, "a"),
                    Task(10.0, 60.0, 5000.0, "b"),
                    Task(200.0, 260.0, 5000.0, "c"),
                ]
            )
        )
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "nope"])


class TestSolve:
    def test_demo(self, capsys):
        assert main(["solve", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "Section 4" in out
        assert "MEM" in out
        assert "energy report" in out

    def test_csv_input(self, capsys, task_csv):
        assert main(["solve", "--tasks", task_csv]) == 0
        out = capsys.readouterr().out
        assert "memory sleep Delta" in out

    def test_agreeable_json_input(self, capsys, agreeable_json):
        assert main(["solve", "--tasks", agreeable_json]) == 0
        out = capsys.readouterr().out
        assert "Section 5" in out
        assert "block(s)" in out

    def test_overhead_scheme_selected(self, capsys):
        assert main(["solve", "--demo", "--xi-m", "40"]) == 0
        out = capsys.readouterr().out
        assert "Section 7" in out

    def test_missing_tasks_errors(self):
        with pytest.raises(SystemExit, match="--tasks"):
            main(["solve"])


class TestSimulate:
    @pytest.mark.parametrize("policy", ["sdem-on", "mbkp", "mbkps", "avr", "race"])
    def test_synthetic_trace_all_policies(self, capsys, policy):
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    policy,
                    "--n",
                    "10",
                    "--seed",
                    "4",
                    "--x",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert policy in out
        assert "total" in out

    def test_dspstone_trace(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dspstone",
                    "fft",
                    "--u",
                    "4",
                    "--n",
                    "12",
                    "--policy",
                    "sdem-on",
                ]
            )
            == 0
        )
        assert "fft" not in capsys.readouterr().err

    def test_gantt_flag(self, capsys):
        assert (
            main(
                ["simulate", "--n", "5", "--gantt", "--width", "40", "--seed", "2"]
            )
            == 0
        )
        assert "MEM" in capsys.readouterr().out


class TestExhibits:
    def test_fig7a_reduced(self, capsys, tmp_path, monkeypatch):
        out_dir = os.path.join(tmp_path, "results")
        assert (
            main(["fig7a", "--seeds", "1", "--n", "15", "--out", out_dir]) == 0
        )
        assert os.path.exists(os.path.join(out_dir, "fig7a.csv"))
        assert "improvement" in capsys.readouterr().out

    def test_fig6_reduced(self, capsys, tmp_path):
        out_dir = os.path.join(tmp_path, "results")
        assert main(["fig6", "--seeds", "1", "--n", "16", "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "fig6_fft.csv"))
        assert os.path.exists(os.path.join(out_dir, "fig6_matmul.txt"))

    def test_tables(self, capsys):
        assert main(["tables", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out and "Table 4" in out

    def test_fig6_with_workers_and_cache_matches_default(self, capsys, tmp_path):
        plain_dir = os.path.join(tmp_path, "plain")
        engine_dir = os.path.join(tmp_path, "engine")
        assert (
            main(["fig6", "--seeds", "1", "--n", "16", "--out", plain_dir, "--no-cache"])
            == 0
        )
        assert (
            main(
                [
                    "fig6", "--seeds", "1", "--n", "16", "--out", engine_dir,
                    "--workers", "2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        for name in ("fig6_fft.csv", "fig6_matmul.csv"):
            with open(os.path.join(plain_dir, name), "rb") as a, open(
                os.path.join(engine_dir, name), "rb"
            ) as b:
                assert a.read() == b.read()
        # The default cache landed inside the out directory.
        assert os.path.isdir(os.path.join(engine_dir, ".cache"))
        assert not os.path.exists(os.path.join(plain_dir, ".cache"))


class TestBenchAndCache:
    def test_bench_quick_writes_report(self, capsys, tmp_path):
        report_path = os.path.join(tmp_path, "BENCH_experiments.json")
        cache_dir = os.path.join(tmp_path, "cache")
        assert (
            main(
                [
                    "bench", "--quick", "--workers", "2",
                    "--out", report_path, "--cache-dir", cache_dir,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serial cold" in out and "warm cache" in out
        import json as json_module

        with open(report_path, encoding="utf-8") as handle:
            trajectory = json_module.load(handle)["trajectory"]
        assert len(trajectory) == 1
        report = trajectory[-1]
        assert report["rows_identical"] is True
        assert set(report["modes"]) == {"serial_cold", "parallel_cold", "warm_cache"}
        assert report["modes"]["warm_cache"]["cached_units"] == report["slice"]["units"]
        assert "generated_at" in report

    def test_bench_appends_trajectory_instead_of_clobbering(
        self, capsys, tmp_path
    ):
        import json as json_module

        report_path = os.path.join(tmp_path, "BENCH_experiments.json")
        # Seed with the legacy single-report layout: the next run must
        # migrate it into the trajectory, not overwrite it.
        legacy = {"slice": {"benchmark": "fft"}, "rows_identical": True}
        with open(report_path, "w", encoding="utf-8") as handle:
            json_module.dump(legacy, handle)
        args = [
            "bench", "--quick",
            "--out", report_path,
            "--cache-dir", os.path.join(tmp_path, "cache"),
        ]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        with open(report_path, encoding="utf-8") as handle:
            trajectory = json_module.load(handle)["trajectory"]
        assert len(trajectory) == 3
        assert trajectory[0] == legacy
        assert all("generated_at" in entry for entry in trajectory[1:])

    def test_service_bench_marks_saturated_passes(self):
        from repro.experiments.bench import (
            render_bench_service_table,
            run_bench_service,
        )

        for rate, saturated in ((200.0, False), (100_000.0, True)):
            report = run_bench_service(worker_counts=[1], n=120, rate_jobs_s=rate)
            for label in ("cold", "warm"):
                row = report["points"][0][label]
                assert row["done"] == 120
                assert row["saturated"] is saturated, (rate, label, row)
            assert ("saturated\n" in render_bench_service_table(report)) is saturated

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = os.path.join(tmp_path, "cache")
        report_path = os.path.join(tmp_path, "bench.json")
        assert (
            main(
                [
                    "bench", "--quick",
                    "--out", report_path, "--cache-dir", cache_dir,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "entries" in stats_out
        assert main(["cache", "clear", "--dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", cache_dir]) == 0
        assert "entries:    0" in capsys.readouterr().out


class TestGlobalFlags:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_json_errors_wraps_command_failures(self, capsys):
        assert main(["solve", "--json-errors"]) == 2  # no --tasks and no --demo
        envelope = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert envelope["error"]["code"] == "CLI_ERROR"
        assert "--tasks" in envelope["error"]["message"]

    def test_json_errors_wraps_parse_failures(self, capsys):
        assert main(["--json-errors", "frobnicate"]) == 2
        envelope = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert envelope["error"]["code"] == "CLI_ERROR"

    def test_without_flag_systemexit_propagates(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_only_solving_commands_read_the_solve_environment(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_SOLVER_EPSILON", "not-a-number")
        assert main(["check", "--list-rules"]) == 0
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        with pytest.raises(SystemExit, match="epsilon must be a number"):
            main(["solve", "--demo"])
        # Flags are still checked on every command.
        with pytest.raises(SystemExit, match="epsilon only applies"):
            main(["submit", "--epsilon", "0.1"])


@contextlib.contextmanager
def background_server(**service_kwargs):
    """A real TCP solve server on an ephemeral port, in a side thread."""
    import asyncio

    from repro.service.server import SolveService

    started = threading.Event()
    state = {}

    def serve():
        async def runner():
            service = SolveService(**service_kwargs)
            server = await service.serve_tcp("127.0.0.1", 0)
            state["port"] = server.sockets[0].getsockname()[1]
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            started.set()
            await state["stop"].wait()
            server.close()
            await server.wait_closed()
            await service.drain()

        asyncio.run(runner())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10.0), "server thread failed to start"
    try:
        yield state["port"]
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(10.0)


class TestServiceCli:
    def test_submit_demo_local(self, capsys):
        assert main(["submit", "--demo", "--local", "--n", "24", "--clients", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict:         OK" in out

    def test_submit_single_request_to_running_server(self, capsys, task_csv):
        with background_server() as port:
            code = main(
                ["submit", "--host", "127.0.0.1", "--port", str(port),
                 "--tasks", task_csv]
            )
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is True
        assert response["result"]["scheme"] == "common-release-overhead"

    def test_serve_stats_prints_metrics_page(self, capsys):
        with background_server() as port:
            assert (
                main(["serve", "--stats", "--host", "127.0.0.1",
                      "--port", str(port)])
                == 0
            )
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert "repro_queue_depth" in out
