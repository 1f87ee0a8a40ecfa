"""Tests for the benchmark itself: seeded inputs and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import collatzkit as ck  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import run as bench_run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import percentile, sweep_config  # noqa: E402

GENERATORS = [
    inputs.oracle_window, inputs.explore_moduli,
    inputs.orbit_starts, inputs.explore_stream, inputs.cli_commands,
]


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
def test_same_seed_same_inputs(gen):
    assert gen(5) == gen(5)
    assert gen(5) != gen(6)


def test_pass_orders_are_seeded():
    orders = [inputs.worker_order(3, i) for i in range(32)]
    assert orders == [inputs.worker_order(3, i) for i in range(32)]
    assert {(1, 2), (2, 1)} == set(orders)
    assert inputs.window_order(3, 1) == inputs.window_order(3, 1)
    assert inputs.window_order(3, 1) != inputs.window_order(4, 1)
    assert sorted(inputs.window_order(3, 1)) == sorted(inputs.sparse_windows())


def test_sparse_windows_hit_each_path():
    for lo, hi in inputs.sparse_windows():
        assert hi >= inputs.TABLE_HI
        if hi < 2**62:
            assert hi - lo + 1 >= 2 * inputs.CHUNK
        else:
            assert lo > 2**62
    _, a, b = inputs.oracle_window(9)
    assert b - a + 1 == inputs.ORACLE_WINDOW


def test_explore_moduli_cover_powers_and_parities():
    ms = inputs.explore_moduli(4)
    assert 2**13 in ms and 3**7 in ms
    assert {m % 2 for m in ms} == {0, 1}
    bits = [x.bit_length() for x in inputs.orbit_starts(4)]
    assert min(bits) >= 8 and max(bits) <= 2048


def test_sweep_config_refuses_to_evict_the_table():
    with pytest.raises(ValueError):
        sweep_config(ck, 1, 1000, 1)
    assert sweep_config(ck, 1, inputs.TABLE_HI, 1).range_hi == inputs.TABLE_HI


def test_percentile_matches_statistics():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    qs = statistics.quantiles(xs, n=4, method="inclusive")
    assert [percentile(xs, p) for p in (25, 50, 75)] == pytest.approx(qs)


def test_self_time_subtracts_children():
    tr = Tracer("t", True)
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (inner,) = [r for r in tr.records if r[2] == "inner"]
    (outer,) = [r for r in tr.records if r[2] == "outer"]
    assert inner[1] == outer[0]
    st = tr.self_times()
    assert st["outer"] == pytest.approx((outer[4] - outer[3]) - (inner[4] - inner[3]))


def _dense_payload():
    return {
        "segments": [list(inputs.DENSE_RANGE)],
        "verified_count": inputs.DENSE_RANGE[1],
        "unresolved": [],
        "cycles_found": [],
        **copy.deepcopy(oracle.DENSE_RECORDS),
    }


@pytest.mark.parametrize("corrupt", [
    lambda p: p.update(verified_count=p["verified_count"] - 1),
    lambda p: p.update(unresolved=[27]),
    lambda p: p.update(cycles_found=[[1, 4, 2, 1]]),
    lambda p: p["max_total_stopping_time"].update(value=684),
    lambda p: p["max_excursion"].update(argmax=6631676),
])
def test_dense_check_rejects_corrupt_report(corrupt):
    good = _dense_payload()
    assert oracle.check_dense(good) == []
    bad = _dense_payload()
    corrupt(bad)
    assert oracle.check_dense(bad)
    assert oracle.check_identical(good, bad, "w1 vs w2")


def test_sparse_checks_reject_corrupt_report():
    lo = 2**40 + 12345
    hi = lo + 127
    payload = ck.verify_range(sweep_config(ck, lo, hi, 1, cutoff=lo)).payload()
    assert oracle.check_sweep(payload, [[lo, hi]]) == []
    assert oracle.check_records_walk(payload) == []
    assert oracle.check_oracle(payload, lo, hi) == []

    bad = copy.deepcopy(payload)
    bad["max_excursion"]["argmax"] += 1
    assert oracle.check_records_walk(bad)
    assert oracle.check_oracle(bad, lo, hi)

    bad = copy.deepcopy(payload)
    bad["max_total_stopping_time"]["value"] += 1
    assert oracle.check_records_walk(bad)

    bad = copy.deepcopy(payload)
    bad["verified_count"] -= 1
    bad["unresolved"] = [lo]
    assert oracle.check_sweep(bad, [[lo, hi]])
    assert oracle.check_oracle(bad, lo, hi)


@pytest.mark.parametrize("m", [12, 27])
def test_graph_check_rejects_corrupt_graph(m):
    g = ck.build_graph(m)
    sccs = ck.strongly_connected_components(g)
    back = ck.from_json(ck.to_json(g))
    dot = ck.to_dot(g)
    assert oracle.check_graph(m, g, sccs, back, dot) == []

    dropped = ck.TransitionGraph(m, g.edges[:-1])
    assert oracle.check_graph(m, dropped, sccs, back, dot)
    merged = [sorted(sccs[0] + sccs[1])] + sccs[2:]
    assert oracle.check_graph(m, g, merged, back, dot)
    assert oracle.check_graph(m, g, sccs, dropped, dot)
    assert oracle.check_graph(m, g, sccs, back, dot.replace("Halve", "Triple", 1))


def test_edge_query_checks_reject_wrong_answers():
    m = 12
    g = ck.build_graph(m)
    assert oracle.check_out_degree(m, 3, ck.out_degree(g, 3)) == []
    assert oracle.check_out_degree(m, 3, ck.out_degree(g, 3) + 1)
    e = g.edges[5]
    x = ck.edge_witness(g, e)
    edge = (e.src, e.dst, e.label.value)
    assert oracle.check_witness(m, edge, x) == []
    assert oracle.check_witness(m, edge, x + 2 * m)  # realises the edge, not minimal
    assert oracle.check_witness(m, edge, x + 1)


def test_orbit_check_rejects_disagreement():
    x = 27
    std = ck.classify_trajectory(x)
    star = ck.classify_trajectory(x, ck.MapVariant.STAR)
    tst = ck.total_stopping_time(x)
    loop = ck.find_cycle(x)
    assert oracle.check_orbit(x, std, star, tst, loop) == []
    assert oracle.check_orbit(x, std, star, tst + 1, loop)
    assert oracle.check_orbit(x, std, star, tst, None)
    assert oracle.check_orbit(x, std, ck.classify_trajectory(31, ck.MapVariant.STAR), tst, loop)


def test_cli_check_is_exact():
    traj = "start 27\noutcome reaches-one\nsteps 111\nmax-excursion 9232\n"
    assert oracle.expected_stdout(["traj", "27"]) == traj
    assert oracle.check_cli(["traj", "27"], 0, traj) == []
    assert oracle.check_cli(["traj", "27"], 0, traj.replace("111", "112"))
    assert oracle.check_cli(["traj", "27"], 1, traj)
    assert oracle.expected_stdout(["preimage", "4"]) == "1 8\n"

    argv = ["verify", "--from", "1", "--to", "1000000"]
    good = {
        "range": [1, 1000000], "verified_count": 1000000, "unresolved": [], "cycles_found": [],
        **copy.deepcopy(oracle.MILLION_RECORDS), "wall_time": 512.0, "throughput": 1.9e6,
    }
    assert oracle.check_cli(argv, 0, json.dumps(good)) == []
    bad = copy.deepcopy(good)
    bad["max_excursion"]["value"] -= 1
    assert oracle.check_cli(argv, 0, json.dumps(bad))
    assert oracle.check_cli(argv, 0, "not json")


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER_UNITS


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
