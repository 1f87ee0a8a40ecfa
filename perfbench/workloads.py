"""The four workloads, each a closed loop from one process.

A workload repeats one pass over its seeded inputs until the run's
seconds are used up, timing every call into the package. Outputs are
checked after each pass, outside the timed region.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import oracle
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is sampled at least this many times and for at least this long.
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0
CHILD_TIMEOUT_S = 120
CLI_ENTRY = "from collatzkit.cli import main; main()"

# The tail is a fixed percentile per workload, so that a faster commit,
# which fits more samples into a run, is compared at the same rank. Each
# is the highest of p75/p80/p90/p95/p99 with at least ten samples beyond it
# in a 25 s run at this commit, even when the run fits one pass fewer,
# except sweep-dense, which makes only about ten calls; its p75 is the
# median 1-worker sweep.
TAIL_PERCENTILE = {"sweep-dense": 75, "sweep-sparse": 75, "explore": 95, "cli": 80}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )


def child_floats(code: str) -> list[float]:
    """Run code in a fresh interpreter; it prints its timings last."""
    proc = run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()}")
    return [float(v) for v in proc.stdout.split()]


SETUP_CODE = """
import time
t0 = time.perf_counter()
import collatzkit as ck
t1 = time.perf_counter()
if {table}:
    ck.verify_range(ck.VerifyConfig({hi}, {hi}, worker_count=1))
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def fresh_setup(table: bool) -> tuple[float, float]:
    """(import seconds, table build seconds) in a fresh interpreter."""
    imp, build = child_floats(SETUP_CODE.format(table=table, hi=inputs.TABLE_HI))
    return imp, build


def setup_seconds(table: bool) -> float:
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_SAMPLES or time.perf_counter() - start < SETUP_SECONDS:
        samples.append(sum(fresh_setup(table)))
    return statistics.median(samples)


def import_package():
    import collatzkit

    return collatzkit


def sweep_config(ck, lo: int, hi: int, workers: int, cutoff: int = 1):
    """A VerifyConfig for an in-process sweep. The verifier keeps one
    memo table per process, sized min(2^20, range_hi + 1): a sweep
    ending below 2^20 - 1 would evict the full table, and the next
    timed sweep would rebuild it inside its timed region."""
    if hi < inputs.TABLE_HI:
        raise ValueError(f"in-process sweep to {hi} would evict the 2^20-entry table")
    return ck.VerifyConfig(lo, hi, assume_verified_below=cutoff, worker_count=workers)


def build_table(ck) -> None:
    ck.verify_range(sweep_config(ck, inputs.TABLE_HI, inputs.TABLE_HI, 1))


def percentile(xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100
    f = math.floor(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


class Run:
    """Operations, failures and latencies of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer: Tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies_s: list[float] = []
        self.pass_walls: list[float] = []
        self.counts: dict[str, int] = {}
        self.details: dict = {}

    def op(self, name: str, fn, *args, latency: bool = True):
        """Time one call. Returns (result, seconds), or (None, None) when
        the call raises; a raising call counts as failed."""
        self.attempted += 1
        with self.tracer.span(name):
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception:  # a failing call is counted and the run goes on
                self.failed += 1
                print(f"{name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                return None, None
            dt = time.perf_counter() - t0
        if latency:
            self.latencies_s.append(dt)
        return result, dt

    def judge(self, errors: list[str]) -> None:
        """Count each wrong output of an operation already attempted."""
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        self.failed += len(errors)

    def check(self, errors: list[str]) -> None:
        """A check on the run as a whole counts as one operation."""
        self.attempted += 1
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        self.failed += bool(errors)

    def repeat(self, do_pass, check_pass) -> None:
        """Run passes until the seconds are used up: another pass starts
        only while at least half of a mean pass still fits."""
        start = time.perf_counter()
        i = 0
        while True:
            t0 = time.perf_counter()
            with self.tracer.span("pass"):
                data = do_pass(i)
            self.pass_walls.append(time.perf_counter() - t0)
            check_pass(i, data)
            i += 1
            left = self.seconds - (time.perf_counter() - start)
            if left < 0.5 * statistics.fmean(self.pass_walls):
                break

    def latency_metrics(self) -> dict[str, float]:
        p = TAIL_PERCENTILE[self.workload]
        n = len(self.latencies_s)
        self.details["latency_tail"] = {
            "percentile": p, "n": n, "beyond": math.floor(n * (100 - p) / 100),
        }
        return {
            "latency_p50_ms": percentile(self.latencies_s, 50) * 1000,
            "latency_tail_ms": percentile(self.latencies_s, p) * 1000,
        }


# ---------------------------------------------------------------------------
# sweep-dense: verify_range over [1, 10^7] at 1 and then 2 workers


def sweep_dense(run: Run, ck) -> dict[str, float]:
    lo, hi = inputs.DENSE_RANGE
    rates: dict[int, list[float]] = {1: [], 2: []}

    def do_pass(i):
        reports = {}
        for w in inputs.worker_order(run.seed, i):
            report, dt = run.op(f"verifier.verify_range.w{w}", ck.verify_range, sweep_config(ck, lo, hi, w))
            if report is not None:
                reports[w] = report
                rates[w].append((hi - lo + 1) / dt)
        return reports

    def check_pass(_i, reports):
        payloads = {w: r.payload() for w, r in reports.items()}
        for p in payloads.values():
            run.judge(oracle.check_dense(p))
        if len(payloads) == 2:
            run.check(oracle.check_identical(payloads[1], payloads[2], "w1 vs w2"))

    run.repeat(do_pass, check_pass)
    run.counts["verifier.starts"] = 2 * (hi - lo + 1)
    return {
        "starts_per_s_w1": statistics.median(rates[1]),
        "starts_per_s_w2": statistics.median(rates[2]),
    }


# ---------------------------------------------------------------------------
# sweep-sparse: seeded windows from 2^32 to 2^66, merged


def sweep_sparse(run: Run, ck) -> dict[str, float]:
    windows = inputs.sparse_windows()
    starts = sum(hi - lo + 1 for lo, hi in windows)
    # Seconds per (worker count, window) and merge seconds per pass. The
    # rate is taken from per-window medians, so a burst of host load
    # that slows one window in one pass does not move it.
    call_s: dict[tuple[int, tuple[int, int]], list[float]] = {}
    merge_s: dict[int, list[float]] = {1: [], 2: []}

    def do_pass(i):
        out = {}
        for w in inputs.worker_order(run.seed, i):
            done, merged, merging = [], None, 0.0
            for window in inputs.window_order(run.seed, i):
                lo, hi = window
                rep, dt = run.op(
                    f"verifier.verify_range.w{w}", ck.verify_range, sweep_config(ck, lo, hi, w, cutoff=lo)
                )
                if rep is None:
                    continue
                call_s.setdefault((w, window), []).append(dt)
                done.append((window, rep))
                if merged is None:
                    merged = rep
                    continue
                merged, dt = run.op("verifier.merge_reports", ck.merge_reports, merged, rep, latency=False)
                merging += dt or 0.0
            merge_s[w].append(merging)
            out[w] = (done, merged)
        return out

    def check_pass(_i, out):
        for done, merged in out.values():
            for (lo, hi), rep in done:
                p = rep.payload()
                run.judge(oracle.check_sweep(p, [[lo, hi]]) + oracle.check_records_walk(p))
            if merged is not None:
                p = merged.payload()
                run.judge(oracle.check_sweep(p, [list(w) for w in windows]) + oracle.check_records_walk(p))
        if len(out) == 2 and out[1][1] is not None and out[2][1] is not None:
            run.check(oracle.check_identical(out[1][1].payload(), out[2][1].payload(), "merged w1 vs w2"))

    run.repeat(do_pass, check_pass)

    def rate(w: int) -> float:
        per_window = sum(statistics.median(call_s[(w, win)]) for win in windows)
        return starts / (per_window + statistics.median(merge_s[w]))

    win_lo, a, b = inputs.oracle_window(run.seed)
    try:
        sub = ck.verify_range(sweep_config(ck, a, b, 1, cutoff=win_lo)).payload()
        run.check(oracle.check_oracle(sub, a, b))
    except Exception as exc:  # counted as a failed check
        run.check([f"oracle sub-window [{a}, {b}]: {exc!r}"])
    run.counts["verifier.starts"] = 2 * starts
    return {"starts_per_s_w1": rate(1), "starts_per_s_w2": rate(2)}


# ---------------------------------------------------------------------------
# explore: a seeded stream of orbit and residue queries


def explore_pass(run: Run, ck, stream: list[tuple]) -> tuple[list, dict[int, float]]:
    """One pass of the query stream: (results, seconds in the orbit
    queries of each start)."""
    results, orbit_s = [], {}
    for group in stream:
        if group[0] == "orbit":
            x = group[1]
            std, t1 = run.op("dynamics.classify_trajectory", ck.classify_trajectory, x)
            star, t2 = run.op("dynamics.classify_trajectory", ck.classify_trajectory, x, ck.MapVariant.STAR)
            tst, t3 = run.op("dynamics.total_stopping_time", ck.total_stopping_time, x)
            loop, t4 = run.op("cycles.find_cycle", ck.find_cycle, x)
            if None not in (t1, t2, t3, t4):
                orbit_s[x] = t1 + t2 + t3 + t4
                results.append(("orbit", x, std, star, tst, loop))
            continue
        _, m, residues, picks = group
        g, _ = run.op("residue.build_graph", ck.build_graph, m)
        if g is None:
            continue
        sccs, _ = run.op("residue.strongly_connected_components", ck.strongly_connected_components, g)
        text, _ = run.op("residue.to_json", ck.to_json, g)
        back, _ = run.op("residue.from_json", ck.from_json, text) if text else (None, None)
        dot, _ = run.op("residue.to_dot", ck.to_dot, g)
        degrees = [(r, run.op("residue.out_degree", ck.out_degree, g, r)[0]) for r in residues]
        edges = [g.edges[int(p * len(g.edges))] for p in picks]
        witnesses = [(e, run.op("residue.edge_witness", ck.edge_witness, g, e)[0]) for e in edges]
        results.append(("residue", m, g, sccs, back, dot, degrees, witnesses))
    return results, orbit_s


def check_explore(run: Run, results: list) -> dict[str, int]:
    """Check one pass's results; returns its exact work counts."""
    counts = {"residue.vertices": 0, "residue.edges": 0, "dynamics.col_steps": 0}
    for r in results:
        if r[0] == "orbit":
            _, x, std, star, tst, loop = r
            run.judge(oracle.check_orbit(x, std, star, tst, loop))
            counts["dynamics.col_steps"] += sum(
                getattr(rec.outcome, "steps", 0) for rec in (std, star)
            ) + (tst or 0)
            continue
        _, m, g, sccs, back, dot, degrees, witnesses = r
        errors = oracle.check_graph(m, g, sccs, back, dot)
        for res, got in degrees:
            errors += oracle.check_out_degree(m, res, got)
        for e, x in witnesses:
            errors += oracle.check_witness(m, (e.src, e.dst, e.label.value), x)
        run.judge(errors)
        counts["residue.vertices"] += m
        counts["residue.edges"] += len(g.edges)
    return counts


def explore(run: Run, ck) -> dict[str, float]:
    stream = inputs.explore_stream(run.seed)
    orbit_s: dict[int, list[float]] = {}

    def do_pass(_i):
        results, seconds = explore_pass(run, ck, stream)
        for x, s in seconds.items():
            orbit_s.setdefault(x, []).append(s)
        return results

    def check_pass(_i, results):
        run.counts.update(check_explore(run, results))

    run.repeat(do_pass, check_pass)
    # Per-start medians, for the same reason as on sweep-sparse.
    rate = len(orbit_s) / sum(statistics.median(s) for s in orbit_s.values())
    # One process: the workload never has a second worker, so its
    # 2-worker rate is its 1-worker rate.
    return {"starts_per_s_w1": rate, "starts_per_s_w2": rate}


# ---------------------------------------------------------------------------
# cli: fresh interpreters, one command at a time


def cli_command(argv: list[str]) -> subprocess.CompletedProcess:
    return run_child(["-c", CLI_ENTRY, *argv])


def cli(run: Run, _ck) -> dict[str, float]:
    commands = inputs.cli_commands(run.seed)
    verify_latency: dict[str, list[float]] = {"w1": [], "w2": []}

    def do_pass(_i):
        out = []
        for argv in commands:
            proc, dt = run.op(f"cli.{argv[0]}", cli_command, argv)
            out.append((argv, proc))
            if proc is not None and argv[0] == "verify":
                verify_latency["w1" if "--workers" in argv else "w2"].append(dt)
        return out

    def check_pass(_i, out):
        for argv, proc in out:
            if proc is not None:
                run.judge(oracle.check_cli(argv, proc.returncode, proc.stdout))

    # Warm-up: the first run of each command writes bytecode caches.
    for argv in commands:
        proc, _ = run.op(f"cli.{argv[0]}", cli_command, argv, latency=False)
        if proc is not None:
            run.judge(oracle.check_cli(argv, proc.returncode, proc.stdout))
    run.repeat(do_pass, check_pass)

    m = int(commands[3][2])
    run.counts.update({
        "verifier.starts": 2 * 10**6,
        "residue.vertices": m,
        "residue.edges": len(oracle.reference_edges(m)),
        "dynamics.col_steps": oracle.walk(int(commands[0][1]))[0],
    })
    return {
        # Default worker count is os.cpu_count().
        "starts_per_s_w1": 10**6 / statistics.median(verify_latency["w1"]),
        "starts_per_s_w2": 10**6 / statistics.median(verify_latency["w2"]),
    }


WORKLOADS = {
    "sweep-dense": (sweep_dense, True),
    "sweep-sparse": (sweep_sparse, True),
    "explore": (explore, False),
    "cli": (cli, False),
}


def run_workload(run: Run) -> dict[str, float]:
    """Set up, run the workload's passes, and return its end-to-end metrics."""
    body, needs_table = WORKLOADS[run.workload]
    setup_s = setup_seconds(needs_table)
    ck = None
    if run.workload != "cli":
        ck = import_package()
        if needs_table:
            build_table(ck)
    metrics = {"setup_s": setup_s, **body(run, ck)}
    metrics["wall_s"] = statistics.median(run.pass_walls)
    metrics.update(run.latency_metrics())
    metrics["peak_rss_mb"] = peak_rss_mb()
    run.details["pass_walls_s"] = [round(t, 4) for t in run.pass_walls]
    return metrics
