"""collatzkit benchmark: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from src/.
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, and
the spans go to .perfbench/ in the checkout. The exit status is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sweep-dense", "sweep-sparse", "explore", "cli")
END_TO_END_UNITS = {
    "setup_s": "s",
    "starts_per_s_w1": "1/s",
    "starts_per_s_w2": "1/s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "verifier.table_build_s": "s",
    "verifier.chunk_ms": "ms",
    "verifier.escalation_chunk_ms": "ms",
    "verifier.scalar_chunk_ms": "ms",
    "verifier.pool_overhead_s": "s",
    "verifier.scaling_eff_w2": "ratio",
    "verifier.merge_ms": "ms",
    "verifier.starts": "count",
    "residue.build_ms": "ms",
    "residue.scc_ms": "ms",
    "residue.serialize_ms": "ms",
    "residue.edge_query_ms": "ms",
    "residue.vertices": "count",
    "residue.edges": "count",
    "dynamics.classify_ms": "ms",
    "dynamics.stopping_time_ms": "ms",
    "dynamics.col_steps": "count",
    "cycles.find_cycle_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_collatzkit_ms": "ms",
    "trace.overhead_pct": "%",
}


def host_speed_ms() -> float:
    """Best of 3 timings of a fixed pure-Python loop: a yardstick for
    host speed drift between runs, recorded with the machine facts."""
    from oracle import walk

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for x in range(1, 3000):
            walk(x)
        best = min(best, time.perf_counter() - t0)
    return 1000 * best


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        # Under forkserver or spawn, pool workers rebuild the table.
        "start_method": multiprocessing.get_context().get_start_method(),
        "loadavg_before": os.getloadavg(),
        "host_speed_ms_before": host_speed_ms(),
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import Run, import_package, run_workload

    facts = machine_facts()
    run = Run(args.workload, args.seed, args.seconds, Tracer(args.workload, bool(args.trace)))
    metrics = run_workload(run)
    units = END_TO_END_UNITS
    if args.trace:
        from probes import layer_metrics

        metrics = layer_metrics(run, import_package())
        units = PER_LAYER_UNITS
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        run.tracer.write(trace_path)
        run.details["trace_file"] = str(trace_path.relative_to(ROOT))
    facts["loadavg_after"] = os.getloadavg()
    facts["host_speed_ms_after"] = host_speed_ms()

    print("machine " + json.dumps(facts))
    print("details " + json.dumps({"workload": args.workload, "seed": args.seed, **run.details}))
    print(f"fail_ratio {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted})")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and the memo table
    are per workload; prints each workload's lines, then a summary."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": status == 0 and len(done) == len(WORKLOAD_NAMES) and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{w}.{k}": v for w, r in results.items() if r for k, v in r["metrics"].items()},
    }))
    return status or (0 if len(done) == len(WORKLOAD_NAMES) else 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "collatzkit" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'collatzkit'}; run from the root of a checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
