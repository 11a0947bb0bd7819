"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``solve``
    Solve one offline SDEM instance (tasks from CSV/JSON or ``--demo``)
    with the appropriate optimal scheme, print the solution, an ASCII
    Gantt chart and the energy report.

``simulate``
    Replay a trace (file or generated) under an online policy
    (``sdem-on``, ``mbkp``, ``mbkps``, ``avr``, ``race``) and print the
    priced result.

``fig6`` / ``fig7a`` / ``fig7b`` / ``tables``
    Regenerate the paper's exhibits; write CSV (and ASCII charts) into
    ``--out``.  The figure sweeps accept ``--workers N`` (0 = every core)
    to fan work units across processes and cache results on disk under
    ``<out>/.cache`` (``--cache-dir`` overrides, ``--no-cache`` disables);
    outputs are bit-identical for every setting.

``bench``
    Time the engine (serial cold vs parallel cold vs warm cache) on a
    Fig. 6 FFT slice and write ``BENCH_experiments.json``; see
    docs/PERFORMANCE.md for how to read the table.

``cache``
    ``stats`` / ``clear`` for the on-disk experiment result cache.

``serve`` / ``submit``
    Run the async batched solve service (see docs/SERVICE.md) and drive
    it: ``serve`` listens on TCP (JSON-lines protocol, ``--stats`` prints
    a metrics snapshot from a running server instead), ``submit`` sends a
    task file or the concurrent ``--demo`` workload.

All platform knobs (``--alpha-m``, ``--xi-m``, ``--cores``, ...) default
to the paper's Table 4 stars.  Global flags: ``--version`` prints the
library version; ``--json-errors`` turns any CLI failure into a one-line
JSON diagnostic on stderr using the service's error envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis import energy_report, render_gantt, schedule_summary
from repro.baselines import AvrPolicy, RaceToIdlePolicy, mbkp, mbkps
from repro.core import (
    SdemOnlinePolicy,
    solve_agreeable,
    solve_agreeable_fptas,
    solve_common_release,
    solve_common_release_fptas,
    solve_common_release_with_overhead,
)
from repro.core import fptas
from repro.core.solve_config import SolveConfig, using
from repro.energy import account
from repro.experiments import (
    ResultCache,
    default_cache_root,
    run_fig6,
    run_fig7a,
    run_fig7b,
    table1_rows,
    table3_rows,
    table4_rows,
    write_csv,
)
from repro.experiments.bench import (
    BENCH_SLICES,
    check_serial_regression,
    load_trajectory,
    render_bench_huge_n_table,
    render_bench_service_table,
    render_bench_streaming_table,
    render_bench_table,
    run_bench,
    run_bench_huge_n,
    run_bench_service,
    run_bench_streaming,
    write_bench_json,
)
from repro.experiments.runner import render_ascii_chart
from repro.models import Task, TaskSet, paper_platform
from repro.serialization import tasks_from_csv, tasks_from_json
from repro.sim import simulate
from repro.workloads import dspstone_trace, synthetic_tasks
from repro import __version__

__all__ = ["main", "build_parser"]


def _platform_from(args: argparse.Namespace):
    return paper_platform(
        num_cores=args.cores,
        alpha=args.alpha,
        alpha_m=args.alpha_m,
        xi=args.xi,
        xi_m=args.xi_m,
    )


def _add_platform_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=8, help="core count (default 8)")
    parser.add_argument(
        "--alpha", type=float, default=310.0, help="core static power mW (default 310)"
    )
    parser.add_argument(
        "--alpha-m", type=float, default=4000.0, dest="alpha_m",
        help="memory static power mW (default 4000 = 4 W)",
    )
    parser.add_argument(
        "--xi", type=float, default=0.0, help="core break-even ms (default 0)"
    )
    parser.add_argument(
        "--xi-m", type=float, default=0.0, dest="xi_m",
        help="memory break-even ms (default 0)",
    )


def _load_tasks(args: argparse.Namespace) -> List[Task]:
    if args.demo:
        return [
            Task(0.0, 40.0, 8000.0, "sensor-fusion"),
            Task(0.0, 70.0, 15000.0, "video-encode"),
            Task(0.0, 100.0, 4000.0, "telemetry"),
        ]
    if not args.tasks:
        raise SystemExit("provide --tasks FILE (CSV or JSON) or --demo")
    with open(args.tasks) as handle:
        text = handle.read()
    if args.tasks.endswith(".json"):
        return tasks_from_json(text)
    import io

    return tasks_from_csv(io.StringIO(text))


def _cmd_solve(args: argparse.Namespace) -> int:
    platform = _platform_from(args)
    tasks = TaskSet(_load_tasks(args))
    horizon = (tasks.earliest_release, tasks.latest_deadline)

    overheads = platform.memory.xi_m > 0.0 or platform.core.xi > 0.0
    use_fptas = fptas.get_solver_tier() == "fptas"
    epsilon = fptas.get_solver_epsilon()
    if tasks.has_common_release():
        if use_fptas:
            solution = solve_common_release_fptas(tasks, platform)
            scheme = f"fptas tier (eps={epsilon:g}, common release)"
        elif overheads:
            solution = solve_common_release_with_overhead(tasks, platform)
            scheme = "Section 7 (overhead-aware common release)"
        else:
            solution = solve_common_release(tasks, platform)
            scheme = "Section 4 (common release)"
        schedule = solution.schedule()
        print(f"scheme: {scheme}")
        print(f"memory sleep Delta = {solution.delta:.3f} ms; "
              f"predicted energy {solution.predicted_energy / 1000.0:.3f} mJ")
    elif tasks.is_agreeable():
        if use_fptas:
            solution = solve_agreeable_fptas(
                tasks, platform, include_transition_overhead=overheads
            )
            scheme = f"fptas tier (eps={epsilon:g}, agreeable)"
        else:
            solution = solve_agreeable(
                tasks, platform, include_transition_overhead=overheads
            )
            scheme = "Section 5 (agreeable DP)"
        schedule = solution.schedule()
        print(f"scheme: {scheme}, {solution.num_blocks} block(s)")
        print(f"predicted energy {solution.predicted_energy / 1000.0:.3f} mJ")
    else:
        raise SystemExit(
            "offline optimal schemes need common-release or agreeable tasks; "
            "use `simulate --policy sdem-on` for general traces"
        )

    breakdown = account(schedule, platform, horizon=horizon)
    print()
    print(render_gantt(schedule, horizon=horizon, width=args.width))
    print()
    print(schedule_summary(schedule))
    print()
    print(energy_report(breakdown, label="accountant (BREAK_EVEN sleeps)"))
    return 0


_POLICIES = {
    "sdem-on": lambda platform: SdemOnlinePolicy(platform),
    "mbkp": lambda platform: mbkp(platform),
    "mbkps": lambda platform: mbkps(platform),
    "avr": lambda platform: AvrPolicy(platform),
    "race": lambda platform: RaceToIdlePolicy(platform),
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    platform = _platform_from(args)
    if args.tasks or args.demo:
        trace = _load_tasks(args)
    elif args.dspstone:
        trace = dspstone_trace(
            args.dspstone,
            utilization_factor=args.u,
            n=args.n,
            seed=args.seed,
            streams=args.cores,
        )
    else:
        trace = synthetic_tasks(
            n=args.n, max_interarrival=args.x, seed=args.seed
        )
    policy = _POLICIES[args.policy](platform)
    result = simulate(policy, trace, platform)
    print(
        f"policy {args.policy}: {len(trace)} tasks, "
        f"peak concurrency {result.peak_concurrency}"
    )
    print(energy_report(result.breakdown, label=args.policy))
    if args.gantt:
        print()
        print(render_gantt(result.schedule, horizon=result.horizon, width=args.width))
    return 0


def _resolve_workers_flag(workers: int):
    """CLI convention: 0 = every core, N >= 1 = pool size."""
    if workers < 0:
        raise SystemExit(
            f"--workers must be >= 0 (0 = every core), got {workers}"
        )
    return None if workers == 0 else workers


def _engine_options(args: argparse.Namespace):
    """``(max_workers, cache)`` from the shared sweep flags."""
    workers = _resolve_workers_flag(args.workers)
    if args.no_cache:
        return workers, None
    root = args.cache_dir or default_cache_root(args.out)
    return workers, ResultCache(root)


def _cmd_fig6(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    workers, cache = _engine_options(args)
    for bench in ("fft", "matmul"):
        series = run_fig6(
            bench,
            seeds=args.seeds,
            instances=args.n,
            max_workers=workers,
            cache=cache,
        )
        write_csv(series, os.path.join(args.out, f"fig6_{bench}.csv"))
        chart = render_ascii_chart(
            f"Fig 6 ({bench}): energy saving vs MBKP (%)",
            [
                (
                    p.label,
                    {
                        "SDEM-ON mem": p.sdem_memory_saving,
                        "MBKPS mem": p.mbkps_memory_saving,
                        "SDEM-ON sys": p.sdem_system_saving,
                        "MBKPS sys": p.mbkps_system_saving,
                    },
                )
                for p in series.points
            ],
        )
        print(chart)
        with open(os.path.join(args.out, f"fig6_{bench}.txt"), "w") as handle:
            handle.write(chart)
    print(f"CSV + ASCII written to {args.out}/")
    return 0


def _cmd_fig7(args: argparse.Namespace, which: str) -> int:
    os.makedirs(args.out, exist_ok=True)
    workers, cache = _engine_options(args)
    runner = run_fig7a if which == "a" else run_fig7b
    series = runner(
        seeds=args.seeds,
        trace_length=args.n,
        max_workers=workers,
        cache=cache,
    )
    write_csv(series, os.path.join(args.out, f"fig7{which}.csv"))
    for p in series.points:
        print(
            f"{p.label:<36s} SDEM-ON {p.sdem_system_saving:7.2f}%  "
            f"MBKPS {p.mbkps_system_saving:7.2f}%  "
            f"improvement {p.sdem_vs_mbkps_improvement:6.2f}%"
        )
    print(f"mean SDEM-ON improvement over MBKPS: {series.mean_improvement():.2f}%")
    print(f"CSV written to {args.out}/fig7{which}.csv")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    print("Table 1 (solvers, measured):")
    for row in table1_rows(n=args.n):
        print(
            f"  Sec {row['section']:<4s} {row['task_model']:<20s} "
            f"{row['solution']:<44s} {row['measured_ms']} ms "
            f"({row['solver_calls']} solver call(s))"
        )
    print("\nTable 3 (overhead regimes):")
    for row in table3_rows():
        print(
            f"  {row['case']:<22s} Delta = {row['delta_ms']} ms "
            f"({row['expected']})"
        )
    print("\nTable 4 (parameter grid):")
    for row in table4_rows():
        print(
            f"  point {row['point']}: x={row['x_ms']} ms, "
            f"alpha_m={row['alpha_m_w']} W, xi_m={row['xi_m_ms']} ms"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cache_root = args.cache_dir or default_cache_root(
        os.path.dirname(args.out) or "."
    )
    if args.bench_slice == "huge-n":
        # An fptas config narrows the ε sweep to its ε; the slice always
        # runs both tiers (the crossover needs the exact leg).
        epsilons = None
        if fptas.get_solver_tier() == "fptas":
            epsilons = [fptas.get_solver_epsilon()]
        report = run_bench_huge_n(quick=args.quick, epsilons=epsilons)
        print(render_bench_huge_n_table(report))
    elif args.bench_slice == "streaming":
        report = run_bench_streaming(quick=args.quick)
        print(render_bench_streaming_table(report))
    elif args.bench_slice == "service":
        report = run_bench_service(quick=args.quick)
        print(render_bench_service_table(report))
    else:
        report = run_bench(
            benchmark=args.benchmark,
            seeds=args.seeds,
            workers=_resolve_workers_flag(args.workers),
            cache_root=cache_root,
            quick=args.quick,
            bench_slice=args.bench_slice,
        )
        print(render_bench_table(report))
    # Gate against the history *before* appending this run to it.
    failure = None
    if args.gate_regression:
        failure = check_serial_regression(report, load_trajectory(args.out))
    write_bench_json(report, args.out)
    print(f"report written to {args.out}")
    if failure is not None:
        print(f"bench regression gate: {failure}", file=sys.stderr)
        return 1
    if args.gate_regression:
        print("bench regression gate: ok (or no comparable prior entry)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.replay import ArrivalSpec, find_max_sustainable_rate, run_replay

    platform = _platform_from(args)
    if args.mode == "trace":
        if not args.tasks:
            raise SystemExit("trace mode needs --tasks FILE (CSV or JSON)")
        with open(args.tasks) as handle:
            text = handle.read()
        if args.tasks.endswith(".json"):
            trace = tasks_from_json(text)
        else:
            import io

            trace = tasks_from_csv(io.StringIO(text))
        spec = ArrivalSpec(mode="trace", n=len(trace), trace_tasks=tuple(trace))
    else:
        spec = ArrivalSpec(
            mode=args.mode,
            n=args.jobs,
            rate_jobs_s=args.rate,
            seed=args.seed,
            burst_factor=args.burst_factor,
            mean_dwell_ms=args.dwell_ms,
        )

    if args.ramp:
        try:
            rates = [float(r) for r in args.ramp.split(",") if r.strip()]
        except ValueError as exc:
            raise SystemExit(f"--ramp wants comma-separated rates: {exc}")
        if not rates:
            raise SystemExit("--ramp wants at least one rate")
        best, points = find_max_sustainable_rate(
            spec,
            platform,
            rates_jobs_s=rates,
            slo_p99_ms=args.slo_p99,
            max_backlog=args.max_backlog,
        )
        best_text = f"{best:g} jobs/s" if best is not None else "none"
        print(f"max sustainable rate at P99 <= {args.slo_p99:g} ms: {best_text}")
        for point in points:
            print(
                f"  {point.rate_jobs_s:>8.1f} jobs/s: "
                f"wall p99 {point.p99_wall_ms:.3f} ms, shed {point.shed}, "
                f"miss {point.deadline_miss} -> "
                f"{'sustainable' if point.sustainable else 'over SLO'}"
            )
        if args.out:
            payload = {
                "slo_p99_ms": args.slo_p99,
                "max_sustainable_rate_jobs_s": best,
                "ramp": [point.to_wire() for point in points],
            }
            with open(args.out, "w", encoding="utf-8") as handle:
                json_module.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"report written to {args.out}")
        return 0

    report = run_replay(
        spec,
        platform,
        sink=args.sink,
        max_backlog=args.max_backlog,
        host=args.host,
        port=args.port,
        clients=args.clients,
        lane=args.lane,
        scheme=args.scheme,
        time_scale=args.time_scale,
        timeout_ms=args.timeout_ms,
        max_attempts=args.max_attempts,
    )
    print(report.render())
    if args.out:
        payload = report.to_wire(include_records=args.records)
        with open(args.out, "w", encoding="utf-8") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0 if report.counts.get("error", 0) == 0 else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir or default_cache_root())
    if args.cache_command == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.stats:
        from repro.service.client import ServiceClient

        async def fetch():
            async with ServiceClient(args.host, args.port) as client:
                return await client.metrics()

        response = asyncio.run(fetch())
        print(response["result"]["text"], end="")
        return 0

    from repro.service.server import SolveService, run_server

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_root())
    service = SolveService(
        capacity=args.capacity,
        shed_threshold=args.shed_threshold,
        max_batch=args.max_batch,
        shards=args.shards,
        cache=cache,
    )
    if args.stdio:
        asyncio.run(service.serve_stdio())
    else:
        asyncio.run(run_server(service, args.host, args.port))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient, run_demo

    if args.demo:
        host = None if args.local else args.host
        report = asyncio.run(
            run_demo(
                host,
                args.port,
                n=args.n,
                clients=args.clients,
                capacity=args.capacity,
                shards=args.shards,
                verify=not args.no_verify,
            )
        )
        print(report.render())
        return 0 if report.ok else 1

    tasks = _load_tasks(args)
    wire = {
        "kind": "solve",
        "scheme": args.scheme,
        "lane": args.lane,
        "tasks": [
            {
                "name": t.name,
                "release": t.release,
                "deadline": t.deadline,
                "workload": t.workload,
            }
            for t in tasks
        ],
    }
    if args.numeric is not None:
        wire["numeric"] = args.numeric
    if args.solver is not None:
        wire["solver"] = args.solver
    if args.epsilon is not None:
        wire["epsilon"] = args.epsilon
    if args.timeout_ms is not None:
        wire["timeout_ms"] = args.timeout_ms

    async def send():
        async with ServiceClient(args.host, args.port) as client:
            return await client.request(wire)

    response = asyncio.run(send())
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_check(args: argparse.Namespace) -> int:
    # Lazy import: the lint pass is cold-path tooling and must not tax
    # `repro solve` startup.
    from repro.lint import baseline as lint_baseline
    from repro.lint import runner as lint_runner

    if args.list_rules:
        from repro.lint.engine import rule_catalogue

        for entry in rule_catalogue():
            print(
                f"{entry['id']}  {entry['family']:<12} "
                f"[{entry['severity']}] {entry['description']}"
            )
        return 0

    try:
        report = lint_runner.run_check(
            args.paths or None,
            rules=args.rules.split(",") if args.rules else None,
            baseline_path=args.baseline,
            update_baseline=args.write_baseline,
        )
    except (ValueError, lint_baseline.BaselineError) as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(lint_runner.render_json(report))
    else:
        print(lint_runner.render_text(report))
    return report.exit_code


def _add_numeric_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--numeric", choices=["scalar", "numpy", "jit"], default=None,
        help="numeric backend for the solver hot paths "
        "(default: $REPRO_NUMERIC, else numpy when importable; 'jit' uses "
        "the compiled kernels and degrades to numpy/scalar with a warning "
        "when no compiler backend is available)",
    )


def _add_solver_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--solver", choices=list(fptas.SOLVER_TIERS), default=None,
        help="solver tier: 'exact' (the paper's DPs, default) or 'fptas' "
        "(the (1+eps)-approximate huge-n tier; see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None,
        help="fptas energy tolerance eps in (0, 2] "
        f"(default {fptas.DEFAULT_EPSILON:g}; needs --solver fptas)",
    )


def _solves_here(args: argparse.Namespace) -> bool:
    """Whether the command solves in this process.  Lint, cache upkeep,
    ``serve --stats`` and a plain ``submit`` (the server solves) do not,
    so they neither resolve the environment's config nor load kernels."""
    if args.func in (_cmd_check, _cmd_cache):
        return False
    if args.func is _cmd_serve:
        return not args.stats
    if args.func is _cmd_submit:
        return args.demo  # the demo verifies against local solves
    return True


def _solve_config(args: argparse.Namespace) -> Optional[SolveConfig]:
    """The config the command solves under (the flags beat the env), or
    ``None`` for a command that does not solve; the flags are checked
    either way."""
    try:
        backend, tier, epsilon = SolveConfig.validate(
            getattr(args, "numeric", None),
            getattr(args, "solver", None),
            getattr(args, "epsilon", None),
        )
        if not _solves_here(args):
            return None
        return SolveConfig.from_env(
            os.environ, backend=backend, tier=tier, epsilon=epsilon
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    _add_numeric_arg(parser)
    _add_solver_arg(parser)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep (1 = in-process, 0 = every core)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", dest="no_cache",
        help="skip the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", dest="cache_dir", default=None,
        help="result cache directory (default <out>/.cache, "
        "or $REPRO_CACHE_DIR)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDEM reproduction: solve, simulate, regenerate exhibits",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--json-errors", action="store_true", dest="json_errors",
        help="emit CLI failures as a one-line JSON error envelope on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one offline instance")
    p_solve.add_argument("--tasks", help="tasks file (.csv or .json)")
    p_solve.add_argument("--demo", action="store_true", help="use built-in demo tasks")
    p_solve.add_argument("--width", type=int, default=72, help="gantt width")
    _add_platform_args(p_solve)
    _add_numeric_arg(p_solve)
    _add_solver_arg(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="replay a trace under a policy")
    p_sim.add_argument("--policy", choices=sorted(_POLICIES), default="sdem-on")
    p_sim.add_argument("--tasks", help="trace file (.csv or .json)")
    p_sim.add_argument("--demo", action="store_true")
    p_sim.add_argument("--dspstone", choices=["fft", "matmul"], help="generate a DSPstone trace")
    p_sim.add_argument("--u", type=float, default=4.0, help="DSPstone utilization factor U")
    p_sim.add_argument("--x", type=float, default=400.0, help="synthetic max inter-arrival ms")
    p_sim.add_argument("--n", type=int, default=50, help="generated trace length")
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--gantt", action="store_true", help="print a gantt chart")
    p_sim.add_argument("--width", type=int, default=72)
    _add_platform_args(p_sim)
    _add_numeric_arg(p_sim)
    _add_solver_arg(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p6 = sub.add_parser("fig6", help="regenerate Figure 6 (both benchmarks)")
    p6.add_argument("--seeds", type=int, default=10)
    p6.add_argument("--n", type=int, default=64, help="instances per trace")
    p6.add_argument("--out", default="benchmarks/results")
    _add_engine_args(p6)
    p6.set_defaults(func=_cmd_fig6)

    for which in ("a", "b"):
        p7 = sub.add_parser(f"fig7{which}", help=f"regenerate Figure 7{which}")
        p7.add_argument("--seeds", type=int, default=10)
        p7.add_argument("--n", type=int, default=50, help="tasks per trace")
        p7.add_argument("--out", default="benchmarks/results")
        _add_engine_args(p7)
        p7.set_defaults(func=lambda a, w=which: _cmd_fig7(a, w))

    p_tab = sub.add_parser("tables", help="regenerate Tables 1, 3 and 4")
    p_tab.add_argument("--n", type=int, default=12, help="instance size for Table 1")
    _add_solver_arg(p_tab)
    p_tab.set_defaults(func=_cmd_tables)

    p_bench = sub.add_parser(
        "bench", help="time the engine: serial vs parallel vs warm cache"
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="small CI smoke slice instead of the full Fig 6 sweep",
    )
    p_bench.add_argument(
        "--benchmark", choices=["fft", "matmul"], default="fft"
    )
    p_bench.add_argument(
        "--slice", choices=list(BENCH_SLICES), default="fft",
        dest="bench_slice",
        help="workload slice: the Fig 6 DSPstone sweep (fft), the Fig 7 "
        "sporadic sweep (synthetic), the exact-vs-fptas crossover "
        "sweep (huge-n), the open-loop replay slice (streaming), or "
        "the sharded-service scaling slice (service)",
    )
    p_bench.add_argument(
        "--seeds", type=int, default=None, help="seeds per point (default 5; 2 with --quick)"
    )
    p_bench.add_argument(
        "--workers", type=int, default=0,
        help="parallel-mode worker processes (0 = every core)",
    )
    p_bench.add_argument(
        "--out", default="BENCH_experiments.json", help="report path"
    )
    p_bench.add_argument(
        "--cache-dir", dest="cache_dir", default=None,
        help="result cache directory for the warm run",
    )
    p_bench.add_argument(
        "--gate-regression", action="store_true",
        help="exit 1 when serial cold regresses >25%% vs the most recent "
        "trajectory entry for the same backend and slice (skipped when "
        "no comparable entry exists)",
    )
    _add_numeric_arg(p_bench)
    _add_solver_arg(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_replay = sub.add_parser(
        "replay",
        help="stream an open-loop arrival process through a replay sink",
    )
    p_replay.add_argument(
        "--mode", choices=["poisson", "mmpp", "trace"], default="poisson",
        help="arrival process (default poisson; trace replays --tasks)",
    )
    p_replay.add_argument(
        "--jobs", type=int, default=2000, help="job count (default 2000)"
    )
    p_replay.add_argument(
        "--rate", type=float, default=80.0,
        help="offered rate in jobs/s (default 80)",
    )
    p_replay.add_argument("--seed", type=int, default=1)
    p_replay.add_argument(
        "--burst-factor", type=float, default=8.0, dest="burst_factor",
        help="mmpp burst-state rate multiplier (default 8)",
    )
    p_replay.add_argument(
        "--dwell-ms", type=float, default=2000.0, dest="dwell_ms",
        help="mmpp mean state dwell time in ms (default 2000)",
    )
    p_replay.add_argument("--tasks", help="trace file for --mode trace")
    p_replay.add_argument(
        "--sink", choices=["inproc", "service"], default="inproc",
        help="in-process SDEM-ON fast-forward (default) or a running "
        "solve server",
    )
    p_replay.add_argument(
        "--max-backlog", type=int, default=64, dest="max_backlog",
        help="in-process admission cap: shed arrivals beyond this backlog",
    )
    p_replay.add_argument("--host", default="127.0.0.1")
    p_replay.add_argument("--port", type=int, default=7070)
    p_replay.add_argument(
        "--clients", type=int, default=4,
        help="service-sink connection pool size",
    )
    p_replay.add_argument(
        "--lane", choices=["interactive", "sweep"], default="interactive"
    )
    p_replay.add_argument("--scheme", default="auto")
    p_replay.add_argument(
        "--time-scale", type=float, default=1.0, dest="time_scale",
        help="service-sink fast-forward factor: virtual ms per wall ms "
        "(default 1 = real time)",
    )
    p_replay.add_argument(
        "--timeout-ms", type=float, default=10_000.0, dest="timeout_ms",
        help="per-request wall-clock timeout (service sink)",
    )
    p_replay.add_argument(
        "--max-attempts", type=int, default=3, dest="max_attempts",
        help="sends per job before a shed becomes terminal (service sink)",
    )
    p_replay.add_argument(
        "--ramp", default=None,
        help="comma-separated offered rates: run the SLO ramp instead of "
        "one replay and report the max sustainable rate",
    )
    p_replay.add_argument(
        "--slo-p99", type=float, default=50.0, dest="slo_p99",
        help="wall P99 SLO in ms for --ramp (default 50)",
    )
    p_replay.add_argument("--out", default=None, help="write a JSON report")
    p_replay.add_argument(
        "--records", action="store_true",
        help="include the canonical per-job table in the JSON report",
    )
    _add_platform_args(p_replay)
    _add_numeric_arg(p_replay)
    _add_solver_arg(p_replay)
    p_replay.set_defaults(func=_cmd_replay)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the experiment result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry count, total size, session hit/miss"),
        ("clear", "delete every cache entry"),
    ):
        p_cc = cache_sub.add_parser(name, help=help_text)
        p_cc.add_argument(
            "--dir", default=None,
            help="cache directory (default $REPRO_CACHE_DIR or ./.cache)",
        )
        p_cc.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="run the async batched solve service (docs/SERVICE.md)",
        description="Each shard dispatches on idle, with at most 2 pops "
        "outstanding; timing.queue_ms is admission to executor hand-off.",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7070, help="0 = ephemeral")
    p_serve.add_argument(
        "--capacity", type=int, default=256, help="admission queue bound"
    )
    p_serve.add_argument(
        "--shed-threshold", type=float, default=0.8, dest="shed_threshold",
        help="queue fill fraction where sweep-lane shedding starts",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=32, dest="max_batch",
        help="most requests one pop takes as a micro-batch",
    )
    p_serve.add_argument(
        "--shards", type=int, default=0,
        help="worker-pool shards (0 = in-process solve thread; N>0 routes by "
        "platform fingerprint to N pinned worker processes)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true", dest="no_cache",
        help="disable the on-disk result cache",
    )
    p_serve.add_argument(
        "--cache-dir", dest="cache_dir", default=None,
        help="result cache directory (default $REPRO_CACHE_DIR or ./.cache)",
    )
    p_serve.add_argument(
        "--stdio", action="store_true",
        help="serve JSON-lines over stdin/stdout instead of TCP",
    )
    p_serve.add_argument(
        "--stats", action="store_true",
        help="print a metrics snapshot from a running server and exit",
    )
    _add_numeric_arg(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit solve requests to a running service"
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7070)
    p_submit.add_argument("--tasks", help="tasks file (.csv or .json)")
    p_submit.add_argument("--demo", action="store_true",
                          help="drive the N-concurrent-client demo workload")
    p_submit.add_argument(
        "--local", action="store_true",
        help="with --demo: start a private in-process server on an ephemeral port",
    )
    p_submit.add_argument("--n", type=int, default=200,
                          help="demo request count")
    p_submit.add_argument("--clients", type=int, default=8,
                          help="demo concurrent client connections")
    p_submit.add_argument("--capacity", type=int, default=512,
                          help="demo local-server queue bound (and audit threshold)")
    p_submit.add_argument("--shards", type=int, default=0,
                          help="demo local-server worker-pool shards "
                          "(0 = inline tier)")
    p_submit.add_argument(
        "--no-verify", action="store_true", dest="no_verify",
        help="demo: skip the byte-identity check against direct solver calls",
    )
    p_submit.add_argument(
        "--scheme", choices=["auto", "common-release", "common-release-overhead",
                             "agreeable", "sdem-on", "mbkp", "mbkps", "avr", "race"],
        default="auto",
    )
    p_submit.add_argument("--lane", choices=["interactive", "sweep"],
                          default="interactive")
    p_submit.add_argument("--timeout-ms", type=float, default=None,
                          dest="timeout_ms")
    _add_numeric_arg(p_submit)
    _add_solver_arg(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_check = sub.add_parser(
        "check",
        help="run the project's static invariant checks (docs/STATIC_ANALYSIS.md)",
    )
    p_check.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: src/repro and tests)",
    )
    p_check.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (json is the CI artifact schema)",
    )
    p_check.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids or families (e.g. DET001,concurrency)",
    )
    p_check.add_argument(
        "--baseline", default=None,
        help="baseline file (default <root>/.repro-lint-baseline.json)",
    )
    p_check.add_argument(
        "--write-baseline", action="store_true", dest="write_baseline",
        help="accept the current findings as the new baseline",
    )
    p_check.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="print the rule catalogue and exit",
    )
    p_check.set_defaults(func=_cmd_check)

    # Aliased subcommands share parser objects; dedup by id while keeping
    # registration order so --help and error text stay deterministic.
    unique_parsers = list({id(p): p for p in sub.choices.values()}.values())
    for sub_parser in unique_parsers:
        sub_parser.add_argument(
            "--json-errors", action="store_true", dest="json_errors",
            help=argparse.SUPPRESS,
        )

    return parser


def _emit_json_error(code: str, message: str) -> None:
    """The one-line diagnostic of ``--json-errors``: the same error
    envelope the service wire protocol uses."""
    from repro.service.protocol import error_envelope

    print(json.dumps({"error": error_envelope(code, message)}), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Scanned, not parsed: the flag must shape diagnostics even when
    # parsing itself is what fails.
    json_errors = "--json-errors" in argv
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        config = _solve_config(args)
        if config is None:
            return args.func(args)
        with using(config):
            return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if not json_errors or code in (0, None):
            raise
        message = code if isinstance(code, str) else f"exit status {code}"
        _emit_json_error("CLI_ERROR", message)
        return code if isinstance(code, int) else 2
    except (KeyboardInterrupt, BrokenPipeError):
        raise
    except Exception as exc:
        if not json_errors:
            raise
        _emit_json_error("INTERNAL", f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
