"""Acceptance suite: one test per criterion, named and numbered.

Each test prints a PASS line on success (visible with -s or on
failure); the pytest -v listing itself is the pass/fail record.
"""

import random
import time

import pytest

from collatzkit import (
    BranchLabel,
    MapVariant,
    VerifyConfig,
    VerifyReport,
    build_graph,
    classify_trajectory,
    col,
    col_star,
    iterate_k,
    loop_power,
    merge_reports,
    out_degree,
    strongly_connected_components,
    to_dot,
    validate_loop,
    verify_range,
)

MOD10_EDGES = {
    (0, 0, "Halve"), (0, 5, "Halve"),
    (2, 1, "Halve"), (2, 6, "Halve"),
    (4, 2, "Halve"), (4, 7, "Halve"),
    (6, 3, "Halve"), (6, 8, "Halve"),
    (8, 4, "Halve"), (8, 9, "Halve"),
    (1, 4, "Triple"), (3, 0, "Triple"),
    (5, 6, "Triple"), (7, 2, "Triple"),
    (9, 8, "Triple"),
}


def memoized_records(lo, hi):
    """Exhaustive single-threaded oracle: records over [lo, hi]."""
    steps = {1: 0}
    peaks = {1: 1}
    best_steps = None
    best_peak = None
    for x in range(lo, hi + 1):
        path = []
        c = x
        while c not in steps:
            path.append(c)
            c = c // 2 if c % 2 == 0 else 3 * c + 1
        s = steps[c]
        p = peaks[c]
        for v in reversed(path):
            s += 1
            p = max(p, v)
            steps[v] = s
            peaks[v] = p
        if best_steps is None or steps[x] > best_steps[0]:
            best_steps = (steps[x], x)
        if best_peak is None or peaks[x] > best_peak[0]:
            best_peak = (peaks[x], x)
    return best_steps, best_peak


def test_criterion_1_figure_reproduction():
    t0 = time.perf_counter()
    graph = build_graph(10)
    got = {(e.src, e.dst, e.label.value) for e in graph.edges}
    assert got == MOD10_EDGES
    assert len(graph.edges) == 15
    dot = to_dot(graph)
    for src, dst, _branch in MOD10_EDGES:
        assert dot.count(f"  {src} -> {dst} ") == 1
    assert sum(1 for line in dot.splitlines() if "->" in line) == 15
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: mod-10 graph reproduces all 15 edges ({elapsed:.3f}s)")


def test_criterion_2_odd_class_step_law():
    t0 = time.perf_counter()
    edges = {(e.src, e.dst, e.label) for e in build_graph(10).edges}
    violations = 0
    for x in range(1, 10**5 + 1):
        y = col(x)
        label = BranchLabel.TRIPLE if x % 2 == 1 else BranchLabel.HALVE
        if (x % 10, y % 10, label) not in edges:
            violations += 1
        if x % 2 == 1:
            k = (x % 10 - 1) // 2
            if y % 10 != (6 * k + 4) % 10:
                violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"CRITERION 2 PASS: 10^5 steps all follow mod-10 edges ({elapsed:.2f}s)")


def test_criterion_3_degree_law():
    graph10 = build_graph(10)
    for r in range(10):
        assert out_degree(graph10, r) == (1 if r % 2 == 1 else 2)
    for m in range(2, 101, 2):
        graph = build_graph(m)
        for r in range(m):
            assert out_degree(graph, r) == (1 if r % 2 == 1 else 2)
    print("CRITERION 3 PASS: out-degree law holds for all even moduli up to 100")


def test_criterion_4_preimage_equivalence():
    from collatzkit import preimage

    t0 = time.perf_counter()
    limit = 10**4
    mismatches = 0
    for x in range(1, limit + 1):
        pre = preimage(x)
        for y in pre:
            if col(y) != x:
                mismatches += 1
    for y in range(1, limit + 1):
        x = col(y)
        if x <= limit and y not in preimage(x):
            mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"CRITERION 4 PASS: preimage equals the map's inverse up to 10^4 ({elapsed:.2f}s)")


def test_criterion_5_closed_loop_suite():
    loop = validate_loop((1, 4, 2, 1))
    assert loop.values == (1, 4, 2, 1)
    for m in range(1, 21):
        powered = loop_power(loop, m)
        assert validate_loop(powered.values) == powered
        assert powered.period == 3 * m
    for m in range(1, 101):
        assert iterate_k(1, 3 * m, MapVariant.STANDARD) == 1
    print("CRITERION 5 PASS: loop validation, powers to m=20, and lap identity to m=100")


def _cutoff_sweep(workers):
    first = verify_range(VerifyConfig(1, 10**6, worker_count=workers))
    second = verify_range(
        VerifyConfig(10**6 + 1, 10**7, assume_verified_below=10**6 + 1, worker_count=workers)
    )
    return merge_reports(first, second)


@pytest.mark.pool
def test_criterion_6_convergence_sweep_to_ten_million():
    t0 = time.perf_counter()
    merged = _cutoff_sweep(None)  # default worker count
    elapsed = time.perf_counter() - t0
    assert merged.range == (1, 10**7)
    assert merged.verified_count == 10**7
    assert merged.unresolved == ()
    assert merged.cycles_found == ()
    assert elapsed <= 60.0

    small_naive = verify_range(VerifyConfig(1, 10**5))
    small_cutoff = merge_reports(
        verify_range(VerifyConfig(1, 50_000)),
        verify_range(VerifyConfig(50_001, 10**5, assume_verified_below=50_001)),
    )
    assert small_cutoff.payload() == small_naive.payload()
    assert small_naive.unresolved == ()

    payloads = {}
    csvs = {}
    for workers in (1, 2, 8):
        report = _cutoff_sweep(workers)
        payloads[workers] = report.payload()
        csvs[workers] = report.to_csv()
    assert payloads[1] == payloads[2] == payloads[8]
    assert csvs[1] == csvs[2] == csvs[8]
    print(
        f"CRITERION 6 PASS: 10^7 verified in {elapsed:.1f}s with cutoff; "
        f"deterministic across 1/2/8 workers"
    )


def test_criterion_7_record_statistics_consistency():
    report100 = verify_range(VerifyConfig(1, 100))
    classify_peak = max(
        ((classify_trajectory(x).max_excursion, x) for x in range(2, 101)),
        key=lambda t: (t[0], -t[1]),
    )
    assert (report100.max_excursion.value, report100.max_excursion.argmax) == classify_peak
    assert report100.max_excursion.value == 9232
    assert report100.max_excursion.argmax == 27

    oracle_steps_100, _ = memoized_records(1, 100)
    assert report100.max_total_stopping_time.argmax == oracle_steps_100[1]
    assert report100.max_total_stopping_time.value == oracle_steps_100[0]

    oracle_steps_1m, _ = memoized_records(1, 10**6)
    report1m = verify_range(VerifyConfig(1, 10**6))
    assert report1m.max_total_stopping_time.argmax == oracle_steps_1m[1]
    assert report1m.max_total_stopping_time.value == oracle_steps_1m[0]
    print(
        "CRITERION 7 PASS: records agree with the exhaustive oracle "
        f"(10^6 record {oracle_steps_1m})"
    )


def test_criterion_8_single_scc():
    graph = build_graph(10)
    sccs = strongly_connected_components(graph)
    assert sccs == [list(range(10))]

    # brute-force reachability oracle
    reach = [[False] * 10 for _ in range(10)]
    for v in range(10):
        reach[v][v] = True
    for e in graph.edges:
        reach[e.src][e.dst] = True
    for k in range(10):
        for i in range(10):
            if reach[i][k]:
                for j in range(10):
                    if reach[k][j]:
                        reach[i][j] = True
    assert all(reach[i][j] and reach[j][i] for i in range(10) for j in range(10))
    print("CRITERION 8 PASS: mod-10 graph is one strongly connected component")


def test_criterion_9_variant_agreement():
    from collatzkit import EntersCycle, ReachesOne

    rng = random.Random(1009)
    for _ in range(1000):
        x = rng.randrange(1, 10**6 + 1)
        std = [x]
        c = x
        while c != 1:
            c = col(c)
            std.append(c)
        star = [x]
        c = x
        for _step in range(len(std) - 1):
            c = col_star(c)
            star.append(c)
        assert star == std

        record = classify_trajectory(x, MapVariant.STAR)
        if x == 1:
            assert record.outcome.loop.values == (1, 1)
        else:
            assert record.outcome == ReachesOne(len(std) - 1)

    # the fixed-point loop shows up when classifying 1 itself
    at_one = classify_trajectory(1, MapVariant.STAR)
    assert isinstance(at_one.outcome, EntersCycle)
    assert at_one.outcome.loop.values == (1, 1)
    assert at_one.outcome.loop.minimum == 1
    assert at_one.outcome.tail_length == 0
    print("CRITERION 9 PASS: Standard and Star agree up to the first 1 on 1000 samples")
