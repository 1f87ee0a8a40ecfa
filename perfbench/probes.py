"""Per-layer metrics for the traced run.

Each layer is isolated by a choice of public call, not by tracing
inside the program, and every probe runs in every traced run whatever
the workload, so each per-layer metric means the same on every
workload. The residue, dynamics and cycles probes are the explore
stream itself: the explore workload's own passes, or one extra pass.
"""

from __future__ import annotations

import random
import statistics
import time

import inputs
import oracle
from spans import Tracer, span_cost_s
from workloads import (
    Run, build_table, check_explore, child_floats, explore_pass, fresh_setup, run_child, sweep_config,
)

TABLE_SAMPLES = 3
CHUNK_SAMPLES = 5
SLOW_SAMPLES = 3
CLI_SAMPLES = 5
MERGE_SAMPLES = 200
POOL_CHUNKS = 16

# Self-time span names summed into each layer metric, per explore pass.
EXPLORE_LAYERS = {
    "residue.build_ms": ("residue.build_graph",),
    "residue.scc_ms": ("residue.strongly_connected_components",),
    "residue.serialize_ms": ("residue.to_json", "residue.from_json", "residue.to_dot"),
    "residue.edge_query_ms": ("residue.out_degree", "residue.edge_witness"),
    "dynamics.classify_ms": ("dynamics.classify_trajectory",),
    "dynamics.stopping_time_ms": ("dynamics.total_stopping_time",),
    "cycles.find_cycle_ms": ("cycles.find_cycle",),
}


def _timed_sweep(run: Run, ck, name: str, lo: int, hi: int, workers: int, cutoff: int = 1) -> float:
    report, dt = run.op(name, ck.verify_range, sweep_config(ck, lo, hi, workers, cutoff), latency=False)
    if report is None:
        return float("nan")
    run.judge(oracle.check_sweep(report.payload(), [[lo, hi]]))
    return dt


def verifier_layers(run: Run, ck) -> dict[str, float]:
    """Probe sweeps sit at fixed starts, as the sparse windows do, so
    their cost does not depend on the seed."""
    build_table(ck)
    out = {"verifier.table_build_s": statistics.median(fresh_setup(True)[1] for _ in range(TABLE_SAMPLES))}

    lo = 10**7
    out["verifier.chunk_ms"] = 1000 * statistics.median(
        _timed_sweep(run, ck, "probe.chunk", lo, lo + inputs.CHUNK - 1, 1) for _ in range(CHUNK_SAMPLES)
    )
    lo = 2**61 + random.Random(61).randrange(1 << 40)
    out["verifier.escalation_chunk_ms"] = 1000 * statistics.median(
        _timed_sweep(run, ck, "probe.escalation_chunk", lo, lo + inputs.CHUNK - 1, 1, cutoff=lo)
        for _ in range(SLOW_SAMPLES)
    )
    lo = 2**62 + 1 + random.Random(62).randrange(1 << 40)
    out["verifier.scalar_chunk_ms"] = 1000 * statistics.median(
        _timed_sweep(run, ck, "probe.scalar_chunk", lo, lo + inputs.SCALAR_WINDOW - 1, 1, cutoff=lo)
        for _ in range(SLOW_SAMPLES)
    )

    lo = 10**7
    hi = lo + POOL_CHUNKS * inputs.CHUNK - 1
    walls: dict[int, list[float]] = {1: [], 2: []}
    for i in range(SLOW_SAMPLES):
        for w in inputs.worker_order(run.seed, i):
            walls[w].append(_timed_sweep(run, ck, f"probe.pool.w{w}", lo, hi, w))
    w1, w2 = statistics.median(walls[1]), statistics.median(walls[2])
    out["verifier.pool_overhead_s"] = w2 - w1 / 2
    out["verifier.scaling_eff_w2"] = w1 / (2 * w2)

    reports = [
        ck.verify_range(sweep_config(ck, lo, lo + 63, 1, cutoff=lo))
        for lo, _hi in inputs.sparse_windows()
    ]

    def fold():
        merged = reports[0]
        for r in reports[1:]:
            merged = ck.merge_reports(merged, r)
        return merged

    folds = [run.op("probe.merge_fold", fold, latency=False)[1] for _ in range(MERGE_SAMPLES)]
    out["verifier.merge_ms"] = 1000 * statistics.median(f for f in folds if f is not None)
    return out


def explore_layers(run: Run, ck) -> dict[str, float]:
    """Self time per explore pass in each layer's calls. The explore
    workload reuses its own spans; others run one pass here."""
    if run.workload == "explore":
        tracer, passes = run.tracer, len(run.pass_walls)
    else:
        probe = Run("explore", run.seed, 0, Tracer("explore", True))
        results, _ = explore_pass(probe, ck, inputs.explore_stream(run.seed))
        check_explore(probe, results)
        run.attempted += probe.attempted
        run.failed += probe.failed
        tracer, passes = probe.tracer, 1
    self_s = tracer.self_times()
    return {
        metric: 1000 * sum(self_s.get(n, 0.0) for n in names) / passes
        for metric, names in EXPLORE_LAYERS.items()
    }


def cli_layers(run: Run) -> dict[str, float]:
    def interpreter_s():
        t0 = time.perf_counter()
        proc = run_child(["-c", "pass"])
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr)
        return dt

    timed_import = "import time\nt0 = time.perf_counter()\nimport {0}\nprint(time.perf_counter() - t0)"
    return {
        "cli.interpreter_ms": 1000 * statistics.median(interpreter_s() for _ in range(CLI_SAMPLES)),
        "cli.import_numpy_ms": 1000 * statistics.median(
            child_floats(timed_import.format("numpy"))[0] for _ in range(CLI_SAMPLES)
        ),
        "cli.import_collatzkit_ms": 1000 * statistics.median(
            child_floats(timed_import.format("collatzkit"))[0] for _ in range(CLI_SAMPLES)
        ),
    }


def layer_metrics(run: Run, ck) -> dict[str, float]:
    """Every per-layer metric, after the workload ran with tracing on."""
    traced_s = sum(run.pass_walls)
    spans = len(run.tracer.records)
    overhead_pct = 100 * spans * span_cost_s() / traced_s
    run.details["self_ms_per_pass"] = {
        name: round(1000 * s / len(run.pass_walls), 3) for name, s in sorted(run.tracer.self_times().items())
    }
    run.tracer.workload = "probes"
    out = {}
    out.update(verifier_layers(run, ck))
    out.update(explore_layers(run, ck))
    out.update(cli_layers(run))
    for name in ("verifier.starts", "residue.vertices", "residue.edges", "dynamics.col_steps"):
        out[name] = run.counts.get(name, 0)
    out["trace.overhead_pct"] = overhead_pct
    return out
