"""perfbench: the repository benchmark, driven from outside the program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep|agreeable|serve \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics declared in BENCHMARK.json;
``--trace 1`` runs the workload again with its layers wrapped and reports
the per-layer metrics (layers a workload never reaches read 0).  Human
readable notes go to stdout first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark imports ``repro`` from the checkout's ``src`` directory and
keeps everything it writes (result and kernel caches, server state) in a
scratch directory under ``.perfbench/`` that it removes on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "agreeable", "serve")
#: Fresh interpreters (or server spawns) per set-up measurement.
SETUP_REPS = 5


class Context:
    """What a workload needs: its arguments, environment and a note sink."""

    def __init__(self, args: argparse.Namespace, work: str):
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = work
        self.env = measure.repro_env(ROOT, work)
        self.pid = os.getpid()
        self.setup_reps = SETUP_REPS

    def note(self, text: str) -> None:
        print(f"  {text}", flush=True)


def _load_workload(name: str):
    if name == "sweep":
        import wl_sweep as module
    elif name == "agreeable":
        import wl_agreeable as module
    else:
        import wl_serve as module
    return module


def _pin_environment(env: Dict[str, str]) -> None:
    """Give this process the same program environment as its children."""
    for key in ("REPRO_CACHE_DIR", "REPRO_KERNEL_CACHE"):
        os.environ[key] = env[key]
    for key in ("REPRO_NUMERIC", "REPRO_SOLVER_TIER", "REPRO_SOLVER_EPSILON"):
        os.environ.pop(key, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = measure.declared_metrics(bench, bool(args.trace))

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        ctx = Context(args, work)
        _pin_environment(ctx.env)
        module = _load_workload(args.workload)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}", flush=True)
        outcome = (module.run_traced if args.trace else module.run_e2e)(ctx)
        values = dict(outcome["metrics"])
        if args.trace:
            # Every traced run reports every layer; a layer this workload
            # never reaches did no work in it.
            missing = set(module.LAYERS) - set(values)
            if missing:
                raise RuntimeError(f"workload did not report layers {sorted(missing)}")
            for name in declared:
                values.setdefault(name, 0.0)
        else:
            values["ok_frac"] = 1.0 - outcome["failed"] / max(1, outcome["attempted"])
        metrics = {
            name: {"value": value, "unit": declared.get(name, "?")}
            for name, value in values.items()
        }
        problems = measure.check_metrics(metrics, declared)
        if problems:
            raise RuntimeError("output self-check failed: " + "; ".join(problems))
        print("  stamp " + json.dumps(measure.stamp(args.seed, getattr(module, "SHARDS", 0)),
                                      sort_keys=True))
        for name in declared:
            print(f"  {name:32s} {metrics[name]['value']:.6g} {declared[name]}")
        print(measure.result_line(outcome["correct"], max(1, outcome["attempted"]),
                                  outcome["failed"], metrics), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
