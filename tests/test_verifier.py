import concurrent.futures
import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collatzkit
import collatzkit.verifier as verifier_mod
from collatzkit import (
    DEFAULT_STEP_BUDGET,
    ConfigError,
    RecordStat,
    VerifyConfig,
    VerifyReport,
    merge_reports,
    verify_range,
)


def plain_walk(x, budget=DEFAULT_STEP_BUDGET):
    """(steps, peak) of the orbit of x down to 1 in plain col-steps, or
    None when that takes more than budget steps. The per-start oracle of
    these tests: it shares no code with the package's walkers."""
    c, p, r = x, x, 0
    while c != 1:
        if r == budget:
            return None
        c = c // 2 if c % 2 == 0 else 3 * c + 1
        p = max(p, c)
        r += 1
    return r, p


def oracle_sweep(lo, hi):
    """Single-threaded dict-memoized sweep: exact totals and records."""
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
        sx, px = steps[x], peaks[x]
        if best_steps is None or sx > best_steps[0]:
            best_steps = (sx, x)
        if best_peak is None or px > best_peak[0]:
            best_peak = (px, x)
    return best_steps, best_peak


def test_single_value_range():
    report = verify_range(VerifyConfig(1, 1))
    assert report.verified_count == 1
    assert report.unresolved == ()
    assert report.max_total_stopping_time == RecordStat(0, 1)
    assert report.max_excursion == RecordStat(1, 1)
    assert report.range == (1, 1)


def test_first_hundred():
    report = verify_range(VerifyConfig(1, 100))
    assert report.verified_count == 100
    assert report.unresolved == ()
    assert report.cycles_found == ()
    assert report.max_total_stopping_time == RecordStat(118, 97)
    assert report.max_excursion == RecordStat(9232, 27)


def test_records_match_memoized_oracle():
    best_steps, best_peak = oracle_sweep(1, 5000)
    report = verify_range(VerifyConfig(1, 5000))
    assert (report.max_total_stopping_time.value, report.max_total_stopping_time.argmax) == best_steps
    assert (report.max_excursion.value, report.max_excursion.argmax) == best_peak
    assert report.verified_count == 5000


def reference_sweep(lo, hi, budget, cutoff):
    """Plain per-start walks of at most budget steps: a start is certified
    if it reaches 1 or drops below cutoff, and records come only from
    starts that reach 1. Returns (verified, unresolved, steps, peak)."""
    verified, unresolved, steps, peaks = 0, [], [], []
    for x in range(lo, hi + 1):
        c, p, r, crossed = x, x, 0, False
        while c != 1 and r < budget:
            c = c // 2 if c % 2 == 0 else 3 * c + 1
            p = max(p, c)
            r += 1
            crossed = crossed or c < cutoff
        if c == 1:
            steps.append((r, x))
            peaks.append((p, x))
        if c == 1 or crossed:
            verified += 1
        else:
            unresolved.append(x)
    steps_rec = max(steps, key=lambda t: (t[0], -t[1]), default=None)
    peak_rec = max(peaks, key=lambda t: (t[0], -t[1]), default=None)
    return verified, unresolved, steps_rec, peak_rec


@contextlib.contextmanager
def tasks_of(size):
    """Within the block, the driver cuts every pooled range into tasks of
    size starts; None leaves its own rule."""
    with pytest.MonkeyPatch.context() as patch:
        if size is not None:
            patch.setattr(verifier_mod, "_task_size", lambda n, workers: size)
        yield


@contextlib.contextmanager
def table_of(entries):
    """Within the block, the driver builds tables of at most entries
    entries; None leaves its own limit."""
    with pytest.MonkeyPatch.context() as patch:
        if entries is not None:
            patch.setattr(verifier_mod, "_TABLE", entries)
        yield


def count_pooled(patch):
    """The worker count of each pooled sweep from now on, in order."""
    pooled, real = [], verifier_mod._sweep_pooled

    def sweep_pooled(workers, *rest):
        pooled.append(workers)
        return real(workers, *rest)

    patch.setattr(verifier_mod, "_sweep_pooled", sweep_pooled)
    return pooled


def test_oracle_against_naive_prefix():
    # the memoized oracle itself, checked against direct iteration
    assert oracle_sweep(1, 300) == classified_records(1, 300)


@pytest.mark.pool
def test_task_size_independence(monkeypatch):
    # Past its 1000-entry table, [1, 5000] reaches the pool at every task
    # size, the first task reading the table and the rest walking.
    cfg = VerifyConfig(1, 5000, worker_count=2)
    with table_of(1000):
        reference = verify_range(replace(cfg, worker_count=1)).payload()
        pooled = count_pooled(monkeypatch)
        for size in (1, 137, 700, 4999):
            with tasks_of(size):
                assert verify_range(cfg).payload() == reference, size
    assert pooled == [2] * 4


@pytest.mark.pool
def test_worker_count_independence(monkeypatch):
    # Past its 4096-entry table, [1, 300000] is five tasks of 2^16 starts
    # at two workers and at four.
    cfg = VerifyConfig(1, 300_000, worker_count=1)
    with table_of(4096):
        reference = verify_range(cfg).payload()
        pooled = count_pooled(monkeypatch)
        for workers in (2, 4):
            assert verify_range(replace(cfg, worker_count=workers)).payload() == reference
    assert pooled == [2, 4]


def test_table_size_independence():
    reference = verify_range(VerifyConfig(1, 3000)).payload()
    for entries in (2, 64, 4096):
        with table_of(entries):
            got = verify_range(VerifyConfig(1, 3000)).payload()
        assert got == reference
    # at a small budget too, with and without a cutoff
    assert plain_walk(4649)[0] == 134
    for cutoff in (1, 1000):
        payloads = []
        for entries in (64, 4096, 1 << 20):
            with table_of(entries):
                cfg = VerifyConfig(1000, 5000, 40, assume_verified_below=cutoff)
                payloads.append(verify_range(cfg).payload())
        assert payloads[0] == payloads[1] == payloads[2]
        assert 4649 in payloads[0]["unresolved"]


def test_table_holds_the_range_up_to_its_limit():
    # A sweep's table holds [0, range_hi], cut at _TABLE entries: 2^20
    # unless patched, so `verify --to 1000000` builds 10^6 + 1.
    budget = DEFAULT_STEP_BUDGET
    verify_range(VerifyConfig(1, 1000, worker_count=1))
    assert verifier_mod._cache_slot[0] == (1001, budget)
    with table_of(4096):
        verify_range(VerifyConfig(1, 10**4, worker_count=1))
    assert verifier_mod._cache_slot[0] == (4096, budget)
    verify_range(VerifyConfig((1 << 21) + 1, (1 << 21) + 1, worker_count=1))
    assert verifier_mod._cache_slot[0] == (1 << 20, budget)


def test_cutoff_equivalence_with_naive_run():
    # ascending blocks, each assuming everything below it is certified
    naive = verify_range(VerifyConfig(1, 100_000))
    merged = VerifyReport.empty()
    for lo, hi in ((1, 25_000), (25_001, 50_000), (50_001, 100_000)):
        merged = merge_reports(
            merged, verify_range(VerifyConfig(lo, hi, assume_verified_below=lo))
        )
    assert merged.payload() == naive.payload()


def test_budget_starvation_is_data():
    with table_of(2):
        report = verify_range(VerifyConfig(27, 27, step_budget=5))
    assert report.verified_count == 0
    assert report.unresolved == (27,)
    assert report.max_total_stopping_time is None
    assert report.max_excursion is None


@pytest.mark.pool
def test_report_count_invariant():
    for cfg, entries in (
        (VerifyConfig(1, 500), None),
        (VerifyConfig(90, 410, worker_count=2), 64),
        (VerifyConfig(2, 600, step_budget=8), 2),
        (VerifyConfig(50, 60, step_budget=4, assume_verified_below=50), 2),
    ):
        with table_of(entries), tasks_of(100):
            report = verify_range(cfg)
        size = cfg.range_hi - cfg.range_lo + 1
        assert report.verified_count + len(report.unresolved) == size
        assert list(report.unresolved) == sorted(report.unresolved)
        for stat in (report.max_total_stopping_time, report.max_excursion):
            if stat is not None:
                assert cfg.range_lo <= stat.argmax <= cfg.range_hi


def test_cutoff_certifies_without_exact_resolution():
    # 52 drops below 52 immediately but cannot reach the 2-entry table
    # within 4 steps, so certification comes from the cutoff alone.
    cfg = VerifyConfig(52, 52, step_budget=4, assume_verified_below=52)
    with table_of(2):
        report = verify_range(cfg)
    assert report.verified_count == 1
    assert report.unresolved == ()
    assert report.max_total_stopping_time is None
    assert report.max_excursion is None
    # without the cutoff the same budget leaves it unresolved
    with table_of(2):
        bare = verify_range(VerifyConfig(52, 52, step_budget=4))
    assert bare.unresolved == (52,)


@pytest.mark.pool
def test_small_budget_chunking_stable():
    # At budget 8 many starts stay unresolved: a sweep in one thread walks
    # its range as one stream whatever the task size, and a pooled sweep
    # folds its tasks' reports as they finish, with and without a cutoff
    # that certifies some of them.
    for lo, cutoff in ((1, 1), (300, 300)):
        base = VerifyConfig(lo, 600, step_budget=8, assume_verified_below=cutoff)
        with table_of(2):
            reference = verify_range(base)
            for size in (7, 100):
                for workers in (None, 1, 2):
                    with tasks_of(size):
                        got = verify_range(replace(base, worker_count=workers))
                    assert got.payload() == reference.payload(), (lo, size, workers)
        assert reference.unresolved != ()


def classified_records(lo, hi):
    """(value, argmax) records of steps and peak from per-start plain
    walks, ties to the smaller start."""
    recs = [(plain_walk(x), x) for x in range(lo, hi + 1)]
    steps = max(((w[0], x) for w, x in recs), key=lambda t: (t[0], -t[1]))
    peak = max(((w[1], x) for w, x in recs), key=lambda t: (t[0], -t[1]))
    return steps, peak


def report_records(report):
    steps, peak = report.max_total_stopping_time, report.max_excursion
    return (steps.value, steps.argmax), (peak.value, peak.argmax)


def test_values_beyond_int64_are_exact():
    # odd start just below 2^62: the very first triple step leaves int64,
    # so its peak goes to exact, in a range ending at it and in one
    # crossing 2^62
    x0 = (1 << 62) - 1
    for lo in (x0 - 4, x0):
        report = verify_range(VerifyConfig(lo, lo + 4))
        assert report.verified_count == 5
        assert report_records(report) == classified_records(lo, lo + 4)
        assert report.max_excursion.value > (1 << 63) - 1


def test_range_beyond_vector_path():
    # starts that do not fit int64 walk an exact prefix and join the lane
    # kernel; 2^64 is its own peak; a task holds starts on both sides of
    # 2^63; every start of the last window is above _BLOCK_LIMIT and
    # begins in the wide walk. The orbits of 45487026724 and 45487026725
    # meet at step 3 and pass 8,528,817,511, so both have its peak past
    # int64 and the same total: the record goes to the smaller start,
    # within one task and across two.
    for lo, hi, size in (
        ((1 << 70) + 1, (1 << 70) + 3, 1 << 16),
        (1 << 64, 1 << 64, 1),
        ((1 << 63) - 40, (1 << 63) + 40, 37),
        ((1 << 56) + 1, (1 << 56) + 4096, 1 << 16),
        (45487026724, 45487026725, 2),
        (45487026724, 45487026725, 1),
    ):
        with tasks_of(size):
            report = verify_range(VerifyConfig(lo, hi))
        assert report.verified_count == hi - lo + 1
        assert report_records(report) == classified_records(lo, hi)


@pytest.mark.pool
def test_forced_escalation_paths_agree(monkeypatch):
    # the default limits against patched (_BLOCK_LIMIT, _WIDE_LIMIT)
    # pairs that send small lanes through the wide walk and, below the
    # small wide limits, through exact walks inside it and exact prefixes,
    # at the default budget and at small budgets with and without a
    # cutoff. A patched _BLOCK_LIMIT stays at or above the table size. The
    # path record 8,528,817,511 peaks past 2^63 and then descends.
    # The record's windows run in tasks of 37 starts.
    record = VerifyConfig(8528817447, 8528817575)
    for cfg, entries in (
        (VerifyConfig(1, 3000), None),
        (VerifyConfig(1, 3000), 64),
        (VerifyConfig(1000, 5000, step_budget=40, assume_verified_below=1000), 64),
        (VerifyConfig(1000, 5000, step_budget=40), 4096),
        (VerifyConfig(1, 3000, step_budget=25), 2),
        (replace(record, worker_count=1), 4096),
        (replace(record, worker_count=2), 4096),
    ):
        size = 37 if cfg.range_lo == record.range_lo else None
        with table_of(entries), tasks_of(size):
            base = verify_range(cfg).payload()
        for block, wide in ((1 << 13, verifier_mod._WIDE_LIMIT), (1 << 13, 1 << 16), (5000, 1 << 20)):
            with monkeypatch.context() as patch, table_of(entries), tasks_of(size):
                verifier_mod._cache_slot = None
                patch.setattr(verifier_mod, "_BLOCK_LIMIT", block)
                patch.setattr(verifier_mod, "_WIDE_LIMIT", wide)
                assert verify_range(cfg).payload() == base, (cfg, entries, block, wide)
        verifier_mod._cache_slot = None
    with table_of(4096):
        report = verify_range(record)
    assert report.max_excursion == RecordStat(18_144_594_937_356_598_024, 8_528_817_511)
    assert report_records(report) == classified_records(record.range_lo, record.range_hi)


def test_block_tables_are_exact():
    # The lane tables are dynamics._blocks(k) as int64 columns; each row
    # must match a plain walk of its residue. Every col-step value of a
    # k-step block from x = 2^k·a + r is m·a + e; the table's peak term
    # must dominate every (m, e) pair, so that it is the block's peak for
    # every a, and no value may leave int64 for x up to the block limit,
    # or in a wide lane's limbs below the wide limit.
    limit = verifier_mod._BLOCK_LIMIT
    h = (verifier_mod._WIDE_LIMIT >> 32) - 1  # the largest high limb below it
    for k in range(1, verifier_mod.K + 1):
        mult, off, steps, peak_m, peak_e = (t.tolist() for t in verifier_mod._block_table(k))
        for r in range(1 << k):
            m, e, n = 1 << k, r, 0
            values = [(m, e)]
            for _ in range(k):
                if e % 2:
                    m, e, n = 3 * m, 3 * e + 1, n + 1
                    values.append((m, e))
                m, e, n = m // 2, e // 2, n + 1
                values.append((m, e))
            assert (mult[r], off[r], steps[r]) == (m, e, n)
            assert (peak_m[r], peak_e[r]) in values
            assert all(vm <= peak_m[r] and ve <= peak_e[r] for vm, ve in values)
            a = (limit - r) >> k  # the largest a with 2^k·a + r <= limit
            assert peak_m[r] * a + peak_e[r] <= 2**63 - 1
            # A wide lane h·2^32 + l below the wide limit: the low products
            # carry into the high ones, which stay within int64.
            a_h, a_l = h >> k, (1 << 32) - 1
            for m, e in ((mult[r], off[r]), (peak_m[r], peak_e[r])):
                assert m * a_l + e <= 2**63 - 1
                assert m * a_h + ((m * a_l + e) >> 32) <= 2**63 - 1


def test_block_peak_record_inside_a_block():
    # The record of [1, 30000] is 26623, whose peak 106358020 lies inside
    # a block for both table sizes; the kernel must still report it.
    best_steps, best_peak = oracle_sweep(1, 30_000)
    assert best_peak == (106_358_020, 26_623)
    for entries in (256, 4096):
        k = min(verifier_mod.K, entries.bit_length() - 2)
        c, values, ends = 26_623, [], set()
        while c >= entries:
            for _ in range(k):
                if c % 2:
                    values.append(3 * c + 1)
                    c = (3 * c + 1) // 2
                else:
                    c //= 2
                values.append(c)
            ends.add(c)
        assert best_peak[0] in values and best_peak[0] not in ends
        with table_of(entries):
            report = verify_range(VerifyConfig(1, 30_000))
        assert report.max_excursion == RecordStat(*best_peak)
        assert report.max_total_stopping_time == RecordStat(*best_steps)


def test_table_matches_per_start_walks():
    # the first block [2, 2^12) and the doubling blocks after it
    for budget in (40, DEFAULT_STEP_BUDGET):
        steps, peak = verifier_mod._build_cache(5000, budget)
        for x in range(1, 5000):
            assert (steps[x], peak[x]) == (plain_walk(x, budget) or (-1, -1))


def test_capped_table_matches_per_start_walks(monkeypatch):
    # Table blocks and tasks are walked in slices of at most _SLICE
    # lanes; small caps cut every doubling block and task into many.
    monkeypatch.setattr(verifier_mod, "_task_size", lambda n, workers: 2500)
    monkeypatch.setattr(verifier_mod, "_TABLE", 4096)
    cfg = VerifyConfig(1000, 9000)
    base = verify_range(cfg).payload()
    for cap in (37, 1000):
        monkeypatch.setattr(verifier_mod, "_SLICE", cap)
        for budget in (40, DEFAULT_STEP_BUDGET):
            steps, peak = verifier_mod._build_cache(5000, budget)
            for x in range(1, 5000):
                assert (steps[x], peak[x]) == (plain_walk(x, budget) or (-1, -1))
        assert verify_range(cfg).payload() == base


def test_threads_sweep_at_once():
    # Each thread walks in its own workspace, so sweeps running at once
    # in one process, more threads than cores and switching often,
    # through the int64 lanes and the wide ones, give the payloads of
    # serial runs.
    configs = (
        VerifyConfig(10**7, 10**7 + 4 * 2**16 - 1, worker_count=1),
        VerifyConfig(2**60, 2**60 + 2**16 - 1, worker_count=1),
    ) * 2
    serial = [verify_range(cfg).payload() for cfg in configs]
    results = [None] * len(configs)

    def sweep(i):
        results[i] = [verify_range(configs[i]).payload() for _ in range(2)]

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[p] * 2 for p in serial]



@pytest.mark.pool
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_sweeps_keep_their_table_while_another_thread_replaces_it():
    # A sweep walks the table it obtained, and replacing the table waits
    # for a multi-worker sweep, whose pool holds it; so a thread that
    # keeps sweeping with another budget and table size meanwhile changes
    # neither its own payloads nor those of sweeps at 1 and 2 workers.
    # The 4096-entry table limit holds for both threads, and other lies
    # inside it.
    cfg = VerifyConfig(10**6, 10**6 + 4 * 4096 - 1, step_budget=150)
    other = VerifyConfig(1, 3000, step_budget=20, worker_count=1)
    stop, others = threading.Event(), []

    def loop():
        while not stop.is_set():
            others.append(verify_range(other).payload())

    with table_of(4096):
        serial, other_serial = verify_range(replace(cfg, worker_count=1)).payload(), verify_range(other).payload()
        thread = threading.Thread(target=loop)
        thread.start()
        try:
            with tasks_of(4096):
                payloads = [verify_range(replace(cfg, worker_count=w)).payload() for w in (1, 2, 1, 2)]
        finally:
            stop.set()
            thread.join(timeout=120)
    assert not thread.is_alive() and others
    assert payloads == [serial] * 4
    assert others == [other_serial] * len(others)

WARM_SWEEPS = """
import resource
import sys

usage = lambda: resource.getrusage(resource.RUSAGE_SELF)


def peak_mb():
    # ru_maxrss carries the parent's peak over fork and exec, so where
    # /proc has it, read this process's own high-water mark instead.
    try:
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("VmHWM")) / 1024
    except OSError:
        return usage().ru_maxrss / (2**20 if sys.platform == "darwin" else 1024)


import collatzkit.verifier
from collatzkit import VerifyConfig, verify_range

before = peak_mb()
verify_range(VerifyConfig((1 << 20) - 1, (1 << 20) - 1, worker_count=1))
print(peak_mb() - before)
lo = 1155474331410394239  # the 2^60 window of perfbench's sweep-sparse
wide = VerifyConfig(lo, lo + 2 * 2**16 - 1, assume_verified_below=lo, worker_count=1)
dense = VerifyConfig(1, 2 * 10**6, worker_count=1)
for cfg in (dense, dense, wide, wide):
    faults = usage().ru_minflt
    verify_range(cfg)
    print(usage().ru_minflt - faults)
"""


def test_sweeps_do_not_depend_on_the_allocator():
    # Warm sweeps reuse their thread's lane buffers, so they take no
    # page faults whatever the C allocator's mmap threshold happens to
    # be, the first sweep after the table build included, and a sweep
    # far past the table, whose peaks past int64 go to the workspace's
    # limb rows; and the build, walked in slices, adds little more than
    # the 16 MB table itself.
    pytest.importorskip("resource")
    package_root = Path(collatzkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", WARM_SWEEPS], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    growth_mb, *faults = map(float, proc.stdout.split())
    assert growth_mb <= 32
    assert len(faults) == 4 and max(faults) < 2000, faults


def walked_peak(i, peak, limbs, exact):
    """Lane i's peak: in exact from 2^95 on, else in the limb rows where
    their high limb is at least 2^31, else in peak."""
    if i in exact:
        return exact[i]
    if limbs is not None and limbs[0][i] >= 1 << 31:
        return int(limbs[0][i]) << 32 | int(limbs[1][i])
    return int(peak[i])


def check_walk_lanes(lo, hi, stop, budget):
    """The lane contract, apart from blocks and lane bookkeeping: a lane
    lands below stop, on the value x reaches after exactly its steps,
    with the largest value of that walk as its peak (in the limb rows
    when it is past int64, in exact when it is past them); a landing of
    -1 means more than budget steps to 1."""
    landing, steps, peak, limbs, exact = verifier_mod._walk_lanes(lo, hi, stop, budget)
    assert set(exact) <= set(range(hi - lo + 1))
    for i, x in enumerate(range(lo, hi + 1)):
        if landing[i] == -1:
            assert plain_walk(x, budget) is None
            continue
        c = p = x
        for _ in range(steps[i]):
            c = c // 2 if c % 2 == 0 else 3 * c + 1
            p = max(p, c)
        assert c == landing[i] < stop and steps[i] <= budget
        assert (i in exact) == (p >= 2**95)
        assert p == walked_peak(i, peak, limbs, exact)


def test_walk_lanes_matches_plain_walk(monkeypatch):
    # The windows straddle each stop, so lanes retire in round 0; small
    # budgets run out inside a block and inside an exact walk; the 2^60
    # and 2^63 windows start wide and peak past int64; the windows at the
    # wide limit start on both sides of it, and the lanes below it rise
    # past it in the wide walk; starts past 2^95 do not fit two limbs.
    windows = (
        (1, 300),
        (4000, 4200),
        ((1 << 20) - 100, (1 << 20) + 100),
        ((1 << 60) + 1, (1 << 60) + 100),
        ((1 << 63) - 50, (1 << 63) + 50),
        (8528817447, 8528817575),
        ((1 << 84) - 40, (1 << 84) + 20),
        ((1 << 83) - 20, (1 << 83) + 20),
        ((1 << 95) + 1, (1 << 95) + 20),
    )
    for stop in (64, 4096, 1 << 20):
        for budget in (1, 40, 300, DEFAULT_STEP_BUDGET):
            for lo, hi in windows:
                check_walk_lanes(lo, hi, stop, budget)
    # Small limits send lanes of small starts wide and, past the wide
    # limit, into exact walks whose peaks still fit int64 and must reach
    # the lane's peak; starts from the wide limit on walk an exact prefix.
    for block, wide in ((1 << 13, 1 << 16), (5000, 1 << 20)):
        with monkeypatch.context() as patch:
            patch.setattr(verifier_mod, "_BLOCK_LIMIT", block)
            patch.setattr(verifier_mod, "_WIDE_LIMIT", wide)
            for budget in (40, DEFAULT_STEP_BUDGET):
                for lo, hi in ((1, 3000), ((1 << 20) - 100, (1 << 20) + 100), (8528817447, 8528817575)):
                    check_walk_lanes(lo, hi, 4096, budget)


def test_canon_is_the_smallest_residue_with_the_same_block():
    # Over Z/2^12Z only 1,535 of the 4,096 residues have distinct block
    # maps; each residue's representative is the smallest of its class.
    for k in range(1, verifier_mod.K + 1):
        classes = {}
        for j, row in enumerate(zip(*(c.tolist() for c in verifier_mod._block_table(k)[:3]))):
            classes.setdefault(row, []).append(j)
        canon = verifier_mod._canon(k).tolist()
        assert len(canon) == 1 << k
        for members in classes.values():
            assert all(canon[j] == min(members) for j in members)
    assert len(set(canon)) == 1535


def test_representatives_are_listed_in_closed_form():
    # The lanes that walk are those that _reps maps to themselves, for
    # every block size, place mod 2^k (aligned or not, below and past the
    # block limit, up to the wide limit), slice size and floor.
    rng = random.Random(27)
    back, wide = verifier_mod._BLOCK_LIMIT + 1, verifier_mod._WIDE_LIMIT
    verifier_mod._workspace(2**16)
    for k in (1, 2, 5, 12):
        for n in (1, 2**k - 1, 2**k, 2**k + 1, rng.randrange(1, 3 * 2**k), rng.randrange(1, 2**16), 2**16):
            for base in (2**21, back - 2**17, back, wide - 2**17, rng.randrange(2**20, 2**60)):
                for lo in (base - base % 2**k, base + rng.randrange(1, 2**k) - base % 2**k, base + 1):
                    for floor in (0, rng.randrange(n + 1), n):
                        reps = verifier_mod._reps(lo, n, floor, k, np.empty(n, dtype=np.int64))
                        expected = np.flatnonzero(reps == np.arange(n))
                        got = verifier_mod._rep_offsets(lo, n, floor, k, np.full(2**17, -1, dtype=np.int64))
                        assert np.array_equal(got, expected), (k, lo, n, floor)


def test_first_block_peak_record_lies_in_the_last_block():
    # A start's first-block peak grows with its block, so a slice from
    # stop on takes the largest, the smallest start among ties, from its
    # last 2^k starts alone: the same as from all of them, in int64,
    # across the block limit, in limbs and past int64, and as a plain
    # walk of each start's first block finds it.
    rng = random.Random(27)
    back, wide = verifier_mod._BLOCK_LIMIT + 1, verifier_mod._WIDE_LIMIT
    for stop in (64, 1 << 20):
        k = min(verifier_mod.K, stop.bit_length() - 2)
        for n in (1, 2**k - 1, 2**k, 2**k + 1, rng.randrange(1, 5000), 2**16):
            for lo in (stop, 2**40 + rng.randrange(2**20), back - n // 2, 2**62 + 3, wide - n - rng.randrange(9)):
                hi = lo + n - 1
                verifier_mod._workspace(n)
                tail = verifier_mod._first_peaks(lo, hi, stop, k)
                assert tail == verifier_mod._first_peaks(lo, hi, stop, k, np.zeros(n, dtype=bool)), (lo, n)
                best = None
                for x in range(max(lo, hi + 1 - 2**k), hi + 1):
                    c = p = x
                    for _ in range(k):  # k steps of T, each through its col-steps
                        c = (3 * c + 1 if c % 2 else c) // 2
                        p = max(p, 2 * c)
                    best = max(best or (p, -x), (p, -x))
                assert tail == (best[0], -best[1]), (lo, n)


def unwalked_peak_pair(x0, stop):
    """The first starts x < y of one class in one 2^12-aligned block,
    from x0's block on, where y is not walked, and its first-block peak
    is its whole peak down to stop and larger than x's: so y's peak is
    neither x's first-block peak nor the peak of x's walk after it."""
    mult, off, _, peak_m, peak_e = (c.tolist() for c in verifier_mod._block_table(12))
    canon = verifier_mod._canon(12).tolist()
    a = x0 >> 12
    while True:
        for j, i in enumerate(canon):
            first, rival = peak_m[j] * a + peak_e[j], peak_m[i] * a + peak_e[i]
            if i != j and first > rival:
                c = p = mult[i] * a + off[i]
                while c >= stop:
                    c = c // 2 if c % 2 == 0 else 3 * c + 1
                    p = max(p, c)
                if first > p:
                    return (a << 12) + i, (a << 12) + j, first
        a += 1


def test_walk_lanes_sieve_matches_plain_walk(monkeypatch):
    # Slices past stop, and at or below the block limit or wholly
    # between it and the wide limit, walk only one start of each class
    # in a 2^k-aligned block. Windows from one below a block boundary,
    # cut into slices of 37 that start mid-block, put representatives
    # before lo; budgets 1, 13 and 24 end inside or just after the first
    # 12-step block. The windows past 2^56 are sieved in limbs, and from
    # 2^60 on their first-block peaks pass int64. 45487026724 and
    # 45487026725 share their block (their orbits meet at step 3) and
    # peak past int64, so the limb rows must reach the start that is not
    # walked.
    assert verifier_mod._canon(12)[45487026725 % 4096] == 45487026724 % 4096
    monkeypatch.setattr(verifier_mod, "_SLICE", 37)
    for stop in (4096, 1 << 20):
        for lo in ((1 << 20) + 4095, 5 * 2**40 + 4095, 2**56 + 4095, 2**60 + 4095, 2**63 + 4095):
            for budget in (1, 13, 24, 300, DEFAULT_STEP_BUDGET):
                for s in range(lo, lo + 300, 37):
                    check_walk_lanes(s, s + 36, stop, budget)
                check_walk_lanes(lo, lo + 300, stop, budget)
        for budget in (1, 13, DEFAULT_STEP_BUDGET):
            check_walk_lanes(45487026724, 45487026725, stop, budget)
            check_walk_lanes(45487026725, 45487026725, stop, budget)
        # Slices that straddle _BLOCK_LIMIT + 1 are sieved in int64 and
        # in limbs at once, and those that straddle _WIDE_LIMIT are not;
        # those that start at the one or end just below the other are
        # sieved in limbs alone.
        back, wide = verifier_mod._BLOCK_LIMIT + 1, verifier_mod._WIDE_LIMIT
        for budget in (13, DEFAULT_STEP_BUDGET):
            for s in (back - 36, back - 18, back, wide - 37, wide - 18):
                check_walk_lanes(s, s + 36, stop, budget)
        # The start that is not walked has the larger first-block peak,
        # which is its peak: below int64 past 2^56, past it from 2^62.
        for x0 in (2**56, 2**62):
            x, y, first = unwalked_peak_pair(x0, stop)
            assert (first > 2**63 - 1) == (x0 == 2**62)
            for budget in (13, DEFAULT_STEP_BUDGET):
                check_walk_lanes(x, y, stop, budget)
                check_walk_lanes(x - 5, y + 5, stop, budget)
    # Small limits send small starts through the wide sieve, whose lanes
    # rise past the wide limit into exact walks.
    for block, wide in ((1 << 13, 1 << 16), (5000, 1 << 20)):
        with monkeypatch.context() as patch:
            patch.setattr(verifier_mod, "_BLOCK_LIMIT", block)
            patch.setattr(verifier_mod, "_WIDE_LIMIT", wide)
            for budget in (1, 13, 40, DEFAULT_STEP_BUDGET):
                for s in range(3 * 4096 - 1, 3 * 4096 + 300, 37):
                    check_walk_lanes(s, s + 36, 4096, budget)
                check_walk_lanes(block - 18, block + 18, 4096, budget)
    # the same through a sweep
    lo = 45487026724 - 549  # 2^12 - 1 mod 2^12
    with table_of(4096):
        report = verify_range(VerifyConfig(lo, lo + 4200, worker_count=1))
    assert report_records(report) == classified_records(lo, lo + 4200)



def test_walk_lanes_at_stops_off_powers_of_two():
    # Every other stop is a power of two. Past 3001 and 5000, 2^k-aligned
    # blocks hold starts on both sides of stop; a representative below
    # stop retires at once, so it stands for no start above it. Windows
    # and slices of 37 straddle stop, with lo on both sides of it.
    for stop in (3001, 5000):
        for budget in (1, 13, DEFAULT_STEP_BUDGET):
            for s in range(stop - 185, stop + 185, 37):
                check_walk_lanes(s, s + 36, stop, budget)
            check_walk_lanes(stop - 1000, stop + 1000, stop, budget)
    # the same through a table of 3001 entries, in a sweep across its edge
    with table_of(3001):
        report = verify_range(VerifyConfig(2000, 9000, worker_count=1))
    assert report_records(report) == classified_records(2000, 9000)


def test_straddling_slices_walk_only_representatives(monkeypatch):
    # A slice across _BLOCK_LIMIT + 1 takes its first block in int64 and
    # in limbs, and one across a stop off a power of two takes it from
    # stop on; after that, no block is taken on more lanes than the
    # slice has representatives, those below lo or stop standing for
    # themselves alone.
    lanes = {"_advance": [], "_advance_wide": []}
    for name, sizes in lanes.items():
        real = getattr(verifier_mod, name)

        def advance(table, k, x, *rest, real=real, sizes=sizes):
            sizes.append(x.size)
            real(table, k, x, *rest)

        monkeypatch.setattr(verifier_mod, name, advance)
    back = verifier_mod._BLOCK_LIMIT + 1
    for lo, hi, stop in ((back - 2048, back + 2047, 1 << 20), (2900, 2900 + 32767, 3001)):
        k = min(verifier_mod.K, stop.bit_length() - 2)
        canon, floor = verifier_mod._canon(k).tolist(), max(lo, stop)
        reps = {y if (y := x - x % 2**k + canon[x % 2**k]) >= floor else x for x in range(lo, hi + 1)}
        for sizes in lanes.values():
            sizes.clear()
        check_walk_lanes(lo, hi, stop, DEFAULT_STEP_BUDGET)
        assert lanes["_advance"] and (hi >= back) == bool(lanes["_advance_wide"])
        assert max(lanes["_advance"][1:] + lanes["_advance_wide"][1:], default=0) <= len(reps)


def test_limb_lanes_take_no_rounds_of_their_own(monkeypatch):
    # The 2^56 and 2^60 windows of perfbench's sweep-sparse, walked in
    # slices as a sweep cuts them: limb lanes take their blocks in the
    # rounds of the int64 lanes, so no more blocks are taken in limbs
    # than in int64, counting those on at least one lane.
    calls = {"_advance": 0, "_advance_wide": 0}
    for name in calls:
        real = getattr(verifier_mod, name)

        def advance(table, k, x, *rest, real=real, name=name):
            calls[name] += x.size > 0
            real(table, k, x, *rest)

        monkeypatch.setattr(verifier_mod, name, advance)
    for lo in (72064064662809063, 1155474331410394239):
        calls.update(dict.fromkeys(calls, 0))
        for s in range(lo, lo + 2 * 2**16, verifier_mod._SLICE):
            verifier_mod._walk_lanes(s, min(s + verifier_mod._SLICE, lo + 2 * 2**16) - 1, 1 << 20, DEFAULT_STEP_BUDGET)
        assert calls["_advance_wide"] <= calls["_advance"], (lo, calls)


def in_new_thread(walk):
    """Run walk in a new thread, whose workspace its first walk makes,
    and raise what it raised."""
    failed = []

    def run():
        try:
            walk()
        except BaseException as e:
            failed.append(e)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive()
    if failed:
        raise failed[0]


def test_hand_overs_fit_a_workspace_of_one_slice(monkeypatch):
    # A thread's workspace holds max(n, _SLICE) lanes, so at _SLICE = 37
    # a new thread's rows hold one slice and no more. Lanes handed from
    # one set to the other fit them only if the set they join first drops
    # its parked lanes, and at _PIECE = 4 the positions of both are found
    # into workspace rows, which must be distinct. Small limits send
    # lanes back and forth across the block limit and, past the wide
    # limit, into exact walks.
    monkeypatch.setattr(verifier_mod, "_SLICE", 37)
    monkeypatch.setattr(verifier_mod, "_PIECE", 4)

    def walk():
        for stop in (64, 4096):
            for budget in (13, 40, DEFAULT_STEP_BUDGET):
                for lo in (*range(1, 3000, 37), *range(8528817447, 8528817447 + 3000, 37)):
                    check_walk_lanes(lo, lo + 36, stop, budget)
        assert verifier_mod._local.size == 37

    for block, wide in ((1 << 13, 1 << 16), (5000, 1 << 20)):
        with monkeypatch.context() as patch:
            patch.setattr(verifier_mod, "_BLOCK_LIMIT", block)
            patch.setattr(verifier_mod, "_WIDE_LIMIT", wide)
            in_new_thread(walk)


def test_peaks_past_int64_stay_in_limbs():
    # The 2^60 and 2^63 windows of perfbench's sweep-sparse, walked in
    # slices as a sweep cuts them: their peaks past int64 all fit the
    # limb rows, so exact stays empty.
    for lo, size in ((1155474331410394239, 2 * 2**16), (9255382125081044196, 2**12)):
        for s in range(lo, lo + size, verifier_mod._SLICE):
            hi = min(s + verifier_mod._SLICE, lo + size) - 1
            landing, _, _, limbs, exact = verifier_mod._walk_lanes(s, hi, 1 << 20, DEFAULT_STEP_BUDGET)
            assert exact == {} and limbs is not None and (landing >= 0).all()
            assert (limbs[0] >= 1 << 31).any()
    # The first two lanes pass the block limit again after a wide walk
    # whose peak passed int64, and return from the second one with others
    # whose peaks pass it: the rows keep each lane's larger peak.
    check_walk_lanes(72057594037967702, 72057594037967738, 1 << 20, DEFAULT_STEP_BUDGET)


def test_streamed_slices_match_per_start_walks(monkeypatch):
    # At _SLICE = 37 a batch holds the representatives of one slice of 37
    # starts or a few. The windows mix int64 and limb lanes (from 2^56
    # and 2^63), limb and exact ones (across 2^84) and peaks past the
    # limbs (past 2^95). At budgets 1, 13 and 40
    # representatives stay unresolved and spread to their members, in
    # every slice far from the table and in some near it.
    monkeypatch.setattr(verifier_mod, "_SLICE", 37)
    monkeypatch.setattr(verifier_mod, "_TABLE", 4096)
    windows = (
        (3 * 4096 - 50, 3 * 4096 + 250),
        (2**56 + 1, 2**56 + 300),
        (2**63 - 150, 2**63 + 150),
        (2**84 - 40, 2**84 + 40),
        (2**95 + 1, 2**95 + 150),
    )
    for budget in (1, 13, 40, DEFAULT_STEP_BUDGET):
        for lo, hi in windows:
            for cutoff in (1, lo):
                verified, unresolved, steps, peak = reference_sweep(lo, hi, budget, cutoff)
                cfg = VerifyConfig(lo, hi, budget, cutoff, worker_count=1)
                report = verify_range(cfg)
                assert (report.verified_count, list(report.unresolved)) == (verified, unresolved), cfg
                assert report.max_total_stopping_time == (RecordStat(*steps) if steps else None), cfg
                assert report.max_excursion == (RecordStat(*peak) if peak else None), cfg


def test_consecutive_slices_share_their_rounds(monkeypatch):
    # The representatives of two 2^16-start slices from 2^21 walk in one
    # batch, so after the two first blocks the sweep takes no more int64
    # blocks than the longer of its slices walked alone.
    cfg = VerifyConfig(1 << 21, (1 << 21) + 2**17 - 1, worker_count=1)
    reference = verify_range(cfg).payload()  # and the table
    calls, real = [], verifier_mod._advance

    def advance(table, k, cur, *rest):
        calls.append(cur.size)
        real(table, k, cur, *rest)

    monkeypatch.setattr(verifier_mod, "_advance", advance)
    alone = []
    for lo in (cfg.range_lo, cfg.range_lo + 2**16):
        calls.clear()
        verifier_mod._walk_lanes(lo, lo + 2**16 - 1, 1 << 20, DEFAULT_STEP_BUDGET)
        alone.append(len(calls) - 1)
    calls.clear()
    assert verify_range(cfg).payload() == reference
    assert len(calls) - 2 <= max(alone) < sum(alone), (calls, alone)


def test_each_walked_slice_is_sieved_once(monkeypatch):
    # Four 2^16-start slices from 2^21: the third slice's representatives
    # do not fit the batch of the first two, so it is listed only once
    # that batch has walked, and no slice is listed twice.
    cfg = VerifyConfig(1 << 21, (1 << 21) + 4 * 2**16 - 1, worker_count=1)
    reference = verify_range(cfg).payload()  # and the table
    calls, real = [], verifier_mod._rep_offsets

    def rep_offsets(lo, n, *rest):
        calls.append((lo, n))
        return real(lo, n, *rest)

    monkeypatch.setattr(verifier_mod, "_rep_offsets", rep_offsets)
    assert verify_range(cfg).payload() == reference
    assert calls == [(cfg.range_lo + i * 2**16, 2**16) for i in range(4)], calls


def test_in_process_slices_come_from_the_range(monkeypatch):
    # _task_size cuts only pool tasks: a sweep in one thread cuts its
    # range into 2^16-start slices from the table's end, one list each.
    cfg = VerifyConfig(1 << 21, (1 << 21) + 4 * 2**16 - 1, worker_count=1)
    reference = verify_range(cfg).payload()
    calls, real = [], verifier_mod._rep_offsets

    def rep_offsets(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(verifier_mod, "_rep_offsets", rep_offsets)
    with tasks_of(1000):
        assert verify_range(cfg).payload() == reference
    assert len(calls) == 4, len(calls)


def test_table_build_maps_each_sieved_slice_once(monkeypatch):
    # The 2^20 table is built in 30 slices, each from its own stop on and
    # so sieved: each lists its representatives once, and maps its starts
    # to them once, for the spread of the lanes' results.
    calls = {"_reps": [], "_rep_offsets": []}
    for name, seen in calls.items():
        real = getattr(verifier_mod, name)

        def count(lo, n, *rest, real=real, seen=seen):
            seen.append((lo, n))
            return real(lo, n, *rest)

        monkeypatch.setattr(verifier_mod, name, count)
    verifier_mod._build_cache(1 << 20, DEFAULT_STEP_BUDGET)
    slices = [(s, min(s + 2**16, 2 * n) - s) for n in (2**i for i in range(1, 20)) for s in range(n, 2 * n, 2**16)]
    assert len(slices) == 30
    assert calls["_reps"] == calls["_rep_offsets"] == slices, calls


class FirstBatchWalked(Exception):
    pass


def test_in_process_sweep_keeps_no_state_per_chunk(monkeypatch):
    # 2^34 starts from 2^40 are 2^18 slices; the sweep cuts them as it
    # walks them, so up to its first batch it allocates nothing per slice.
    lo = 1 << 40
    verify_range(VerifyConfig(lo, lo + 2**16 - 1, worker_count=1))  # the table, and this thread's workspace
    real = verifier_mod._walks

    def walks(*args):
        next(real(*args))
        raise FirstBatchWalked

    monkeypatch.setattr(verifier_mod, "_walks", walks)
    tracemalloc.start()
    try:
        with pytest.raises(FirstBatchWalked):
            verify_range(VerifyConfig(lo, lo + 2**34 - 1, worker_count=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_sweeps_inside_the_table_read_it_and_start_no_pool():
    # A range below the table's size takes every answer from the table,
    # in this thread, whatever the worker count. At budget 40 it holds
    # starts that do not reach 1, which the cutoff may still certify.
    for cfg, entries, size in (
        (VerifyConfig(1, 20_000, worker_count=2), 1 << 15, 1000),
        (VerifyConfig(1000, 9000, 40, 1000, worker_count=2), 1 << 14, 700),
    ):
        verifier_mod._drop_pool()
        with table_of(entries), tasks_of(size):
            inside = verify_range(cfg).payload()
        assert verifier_mod._pool is None
        with table_of(64):
            assert inside == verify_range(replace(cfg, worker_count=1)).payload()


@pytest.mark.pool
def test_payload_hash_grid():
    # Payload hashes that every change to the kernel keeps: first 16 hex
    # digits of sha256 over the sorted-key JSON payload. Small budgets
    # with and without a cutoff, windows at 2^61, past 2^62 and past
    # int64, the path record 8,528,817,511, and the dense sweep; with a
    # task size, the pool's cut at the default worker count; with a table
    # limit, a table that ends inside the range.
    grid = (
        (VerifyConfig(1000, 5000, 40, 1000), 64, 137, "d64152976b066303"),
        (VerifyConfig(1000, 5000, 40), 4096, 137, "9d698c28950a57fc"),
        (VerifyConfig(1, 3000, 25), 64, 137, "69047d72e9e0a41a"),
        (VerifyConfig(1 << 61, (1 << 61) + 4095), None, None, "c73bd2b17e83a115"),
        (VerifyConfig((1 << 62) + 1, (1 << 62) + 4096), None, None, "a19ec917d6abf0f6"),
        (VerifyConfig((1 << 70) + 1, (1 << 70) + 3), None, None, "84301d4cce293ca0"),
        (VerifyConfig(8528817447, 8528817575), None, 37, "cbc18b665f0d9825"),
        (VerifyConfig(1, 10**7, worker_count=2), None, None, "a761c96312adb8e5"),
    )
    for cfg, entries, size, expected in grid:
        with table_of(entries), tasks_of(size):
            payload = json.dumps(verify_range(cfg).payload(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest()[:16] == expected, cfg


@pytest.mark.pool
def test_payload_hash_pins_past_block_limit():
    # Hashes taken before lanes past _BLOCK_LIMIT moved to two limbs, by
    # the same rule as the grid: starts past 2^84 and 2^95, at 1 and 2
    # workers, the latter in a pool's tasks of 37 starts, and windows
    # 3000 wide with the cutoff at lo, whose orbits cross the block limit,
    # at budgets 40 and 300; and, taken before those windows were sieved,
    # at the default budget.
    def digest(cfg):
        payload = json.dumps(verify_range(cfg).payload(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    for workers in (1, 2):
        with tasks_of(37):
            assert digest(VerifyConfig(2**100, 2**100 + 50, worker_count=workers)) == "555f7dab04dd210d"
            assert digest(VerifyConfig(2**90 + 1, 2**90 + 300, worker_count=workers)) == "1cd19d8019213387"
    for lo, pins in (
        (72064064662809063, ("18461db1fd1882d5", "8c9854754920154c", "10a53577e2bd278d")),
        (1155474331410394239, ("982c0a9f4b3489ea", "a71fe7af8e071f6e", "3eb510d6e5adca7a")),
        (9255382125081044196, ("03d90e6dfd64a949", "a3aba6c6e916137b", "cb8af18ee76a1cb7")),
        (73966824236731369637, ("09e5e4564b380f97", "94845fe7196ba8d2", "d696e2837bc9d6fb")),
    ):
        for budget, expected in zip((40, 300, DEFAULT_STEP_BUDGET), pins):
            cfg = VerifyConfig(lo, lo + 3000, budget, assume_verified_below=lo, worker_count=1)
            assert digest(cfg) == expected, cfg


LAZY_IMPORT = """
import sys

import collatzkit
from collatzkit.cli import dispatch

for argv in (
    ["traj", "27"],
    ["preimage", "16"],
    ["cycle", "1"],
    ["graph", "--modulus", "10"],
    ["graph", "--modulus", "10", "--format", "json"],
):
    assert dispatch(argv) == 0, argv
assert "numpy" not in sys.modules
assert collatzkit.verify_range is collatzkit.verifier.verify_range
assert "numpy" in sys.modules
# only a sweep of more than one task at more than one worker needs a pool
collatzkit.verifier._task_size = lambda n, workers: 1000
collatzkit.verifier._TABLE = 64
collatzkit.verify_range(collatzkit.VerifyConfig(1, 5000, worker_count=1))
assert "concurrent.futures.process" not in sys.modules
"""


def test_import_leaves_numpy_out():
    package_root = Path(collatzkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


FORKSERVER_SWEEP = """
import json
import multiprocessing
import os

import collatzkit.verifier as verifier
from collatzkit import VerifyConfig, verify_range

verifier._task_size = eval("lambda n, workers: 4096", {})  # as in INTERRUPTED_SUBMITS
cfg = VerifyConfig(1 << 20, (1 << 20) + 4 * 4096 - 1, worker_count=2)
for method in ("fork", "forkserver"):
    multiprocessing.set_start_method(method, force=True)
    payload = verify_range(cfg).payload()
    pool, pids = verifier._pool[-1], set()
    while len(pids) < 2:
        pids |= {f.result() for f in [pool.submit(os.getpid) for _ in range(16)]}
    print(json.dumps(payload))
    print(json.dumps(sorted(pids)))
"""


def pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.pool
@pytest.mark.skipif(
    not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
    reason="needs the fork and forkserver start methods",
)
def test_forkserver_workers_get_the_table():
    # workers started by forkserver share no memory with the parent, so
    # they sweep with the table handed to them at start-up. A new start
    # method gets a new pool, and no worker outlives the interpreter:
    # concurrent.futures' exit hook stops the pool still cached.
    package_root = Path(collatzkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", FORKSERVER_SWEEP],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    fork, fork_pids, forkserver, forkserver_pids = map(json.loads, proc.stdout.splitlines())
    assert forkserver == fork
    assert fork["verified_count"] == 4 * 4096
    assert len(fork_pids) == len(forkserver_pids) == 2
    assert not set(fork_pids) & set(forkserver_pids)
    assert not [pid for pid in fork_pids + forkserver_pids if pid_exists(pid)]


POOL_TASK = 4096  # starts per task, and table entries, in the pool tests' sweeps
POOL_SWEEP = VerifyConfig(1, 4 * POOL_TASK, worker_count=2)


@pytest.fixture
def pool_tasks():
    """Tasks of POOL_TASK starts past a table of POOL_TASK entries for
    the test's pooled sweeps, kept through a monkeypatch.undo()."""
    with table_of(POOL_TASK), tasks_of(POOL_TASK):
        yield


def pool_pids(workers=2):
    """Pids of the workers of the verifier's pool, each reported by the
    worker itself: os.getpid is submitted until every worker answered."""
    pool, pids = verifier_mod._pool[-1], set()
    while len(pids) < workers:
        pids |= {f.result(timeout=60) for f in [pool.submit(os.getpid) for _ in range(16)]}
    return pids


@pytest.mark.pool
@pytest.mark.usefixtures("pool_tasks")
def test_pool_is_kept_per_table_and_worker_count():
    # Sweeps with the same table and worker count reuse the pool; a new
    # table, a cleared memo slot or another worker count each start a
    # new one, so patched module globals reach freshly forked workers.
    reference = verify_range(POOL_SWEEP).payload()
    first = pool_pids()
    assert verify_range(POOL_SWEEP).payload() == reference
    assert pool_pids() == first
    seen = set(first)

    def new_pool(cfg, workers=2):
        assert verify_range(cfg).payload() == reference
        pids = pool_pids(workers)
        assert not pids & seen, cfg
        seen.update(pids)
        return pids

    with table_of(2048):
        new_pool(POOL_SWEEP)
    new_pool(replace(POOL_SWEEP, step_budget=500))
    verifier_mod._cache_slot = None
    new_pool(replace(POOL_SWEEP, step_budget=500))
    three = new_pool(replace(POOL_SWEEP, step_budget=500, worker_count=3), 3)
    # a 1-worker sweep runs in the parent and leaves the pool alone
    assert verify_range(replace(POOL_SWEEP, step_budget=500, worker_count=1)).payload() == reference
    assert pool_pids(3) == three
    new_pool(replace(POOL_SWEEP, step_budget=500))


SLOW_POOL_SWEEP = replace(POOL_SWEEP, range_hi=1 << 21)  # ~0.5 s at 2 workers


def submitting(pool, monkeypatch, first):
    """Futures the pool's submit makes from now on; first() runs just
    before the first one is submitted."""
    futures = []

    def submit(*args):
        if not futures:
            first()
        futures.append(ProcessPoolExecutor.submit(pool, *args))
        return futures[-1]

    monkeypatch.setattr(pool, "submit", submit)
    return futures


@pytest.mark.pool
@pytest.mark.usefixtures("pool_tasks")
def test_pool_recovers_from_a_killed_worker(monkeypatch):
    reference = verify_range(replace(POOL_SWEEP, worker_count=1)).payload()
    verify_range(POOL_SWEEP)
    victim = min(pool_pids())
    os.kill(victim, signal.SIGKILL)
    # the pool reaps its workers only once it has marked itself broken
    deadline = time.monotonic() + 60
    while pid_exists(victim) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert verify_range(POOL_SWEEP).payload() == reference
    assert victim not in pool_pids()
    # a worker killed during a sweep fails that sweep, not the next one
    verify_range(SLOW_POOL_SWEEP)
    victim = min(pool_pids())
    submitting(verifier_mod._pool[-1], monkeypatch, lambda: os.kill(victim, signal.SIGKILL))
    with pytest.raises(BrokenProcessPool):
        verify_range(SLOW_POOL_SWEEP)
    monkeypatch.undo()
    assert verify_range(POOL_SWEEP).payload() == reference
    assert victim not in pool_pids()


@pytest.mark.pool
@pytest.mark.usefixtures("pool_tasks")
def test_interrupted_sweep_cancels_its_queued_jobs(monkeypatch):
    reference = verify_range(SLOW_POOL_SWEEP).payload()
    pool = verifier_mod._pool[-1]
    done_at_interrupt = set()

    def interrupt(*_):
        done_at_interrupt.update(f for f in futures if f.done())
        raise KeyboardInterrupt

    futures = submitting(pool, monkeypatch, lambda: signal.setitimer(signal.ITIMER_REAL, 0.1))
    handler = signal.signal(signal.SIGALRM, interrupt)
    # Python-level gc callbacks, such as the one hypothesis installs, are set
    # aside meanwhile: a KeyboardInterrupt raised by a handler that runs
    # inside one is swallowed as unraisable, and the sweep would finish.
    callbacks, gc.callbacks[:] = gc.callbacks[:], []
    try:
        with pytest.raises(KeyboardInterrupt):
            verify_range(SLOW_POOL_SWEEP)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        gc.callbacks[:] = callbacks
        signal.signal(signal.SIGALRM, handler)
    # Count once the jobs already handed out have finished, as the pool
    # may not yet have read a finished job's result at the interrupt.
    # Only those jobs may have run on: one in each worker and a call
    # queue of one more than the workers; the rest were never submitted.
    ran_on = [f for f in futures if f not in done_at_interrupt and not f.cancelled()]
    assert not wait(ran_on, timeout=60).not_done
    assert len(ran_on) <= 5, len(ran_on)
    assert len(futures) < SLOW_POOL_SWEEP.range_hi // POOL_TASK
    monkeypatch.undo()
    # The interrupted sweep dropped its pool, whose manager thread may
    # have died; the next sweep starts a new one.
    assert verify_range(SLOW_POOL_SWEEP).payload() == reference
    assert verifier_mod._pool[-1] is not pool


@pytest.mark.pool
@pytest.mark.usefixtures("pool_tasks")
def test_pooled_sweep_keeps_no_future_per_task(monkeypatch):
    # SLOW_POOL_SWEEP's 512 tasks enter the pool as its window of
    # 2·workers + 1 tasks has room, and the sweep lets go of each task's
    # future once it has folded its report; the pool's manager thread
    # may still hold the last one for a moment.
    reference = verify_range(SLOW_POOL_SWEEP).payload()
    pool, futures, alive = verifier_mod._pool[-1], [], []

    def submit(*args):
        future = ProcessPoolExecutor.submit(pool, *args)
        futures.append(weakref.ref(future))
        alive.append(sum(f() is not None for f in futures))
        return future

    monkeypatch.setattr(pool, "submit", submit)
    assert verify_range(SLOW_POOL_SWEEP).payload() == reference
    assert len(alive) == SLOW_POOL_SWEEP.range_hi // POOL_TASK
    assert max(alive) <= 2 * SLOW_POOL_SWEEP.worker_count + 2, max(alive)


@pytest.mark.pool
def test_task_reports_merge_as_a_binary_counter(monkeypatch):
    # At budget 40 nearly every start of [1, 2^17] is unresolved, and 32
    # tasks of 4096 starts each bring theirs. Merging only reports of as
    # many tasks passes each unresolved start through about log2(32)
    # merges, where a running merge would pass it through about 16.
    monkeypatch.setattr(verifier_mod, "_TABLE", 4096)
    cfg = VerifyConfig(1, 1 << 17, 40, worker_count=2)
    with tasks_of(1 << 16):
        reference = verify_range(cfg).payload()
    merged, real = [], verifier_mod.merge_reports

    def merge_reports(*reports):
        merged.append(sum(len(r.unresolved) for r in reports))
        return real(*reports)

    monkeypatch.setattr(verifier_mod, "merge_reports", merge_reports)
    with tasks_of(POOL_TASK):
        assert verify_range(cfg).payload() == reference
    unresolved, tasks = len(reference["unresolved"]), cfg.range_hi // POOL_TASK
    assert unresolved > cfg.range_hi // 2
    assert sum(merged) <= unresolved * ((tasks - 1).bit_length() + 2), (sum(merged), unresolved)


def run_in_own_session(script, timeout=120):
    """(returncode, stdout, stderr) of script, run by this interpreter on
    the tested package in a session of its own, which is killed, workers
    and all, and fails the test if the script runs past timeout."""
    package_root = Path(collatzkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(f"the script hung for {timeout} s: {err}")
    return proc.returncode, out, err


INTERRUPTED_SUBMITS = """
import sys

import collatzkit.verifier as verifier
from collatzkit import VerifyConfig, verify_range

# Globals of its own keep the patch from tying the module, and so its
# pool, to this script's: the script exits with a live pool, as callers do.
verifier._task_size = eval("lambda n, workers: 4096", {})
verifier._TABLE = 4096
cfg = VerifyConfig(1, 1 << 21, worker_count=2)
reference = verify_range(cfg).payload()
for count in range(1, 9):
    pool, ids = verifier._pool[-1], []
    put = pool._work_ids.put

    def interrupting_put(work_id, *args, **kwargs):
        put(work_id, *args, **kwargs)  # queued, and not yet counted by submit
        ids.append(work_id)
        if len(ids) == count:
            raise KeyboardInterrupt

    pool._work_ids.put = interrupting_put
    try:
        verify_range(cfg)
        sys.exit(f"submit {count} was not interrupted")
    except KeyboardInterrupt:
        pass
    del pool._work_ids.put
    if verify_range(cfg).payload() != reference or verifier._pool[-1] is pool:
        sys.exit(f"the sweep after an interrupt in submit {count} went wrong")
print("ok")
"""


@pytest.mark.pool
def test_interrupt_inside_submit_drops_the_pool():
    # An interrupt can cut ProcessPoolExecutor.submit after it queued a
    # work id and before it counted it, so a kept pool would hand that id
    # to the next job as well. At each of the first eight submits, the
    # interrupted sweep drops its pool and the next sweep gets the
    # reference payload.
    returncode, out, err = run_in_own_session(INTERRUPTED_SUBMITS)
    assert returncode == 0 and out.split() == ["ok"], err
    assert "Traceback" not in err, err


INTERRUPTED_WAITS = """
import queue
import sys

import collatzkit.verifier as verifier
from collatzkit import VerifyConfig, verify_range


class InterruptingQueue(queue.SimpleQueue):
    interrupt_at, gets = 0, 0

    def get(self, *args, **kwargs):
        self.gets += 1
        if self.gets == self.interrupt_at:
            raise KeyboardInterrupt
        return super().get(*args, **kwargs)


verifier._task_size = eval("lambda n, workers: 4096", {})  # as in INTERRUPTED_SUBMITS
verifier._TABLE = 4096
cfg = VerifyConfig(1, 1 << 21, worker_count=2)
reference, real = verify_range(cfg).payload(), queue.SimpleQueue
for count in range(1, 9):
    InterruptingQueue.interrupt_at, queue.SimpleQueue = count, InterruptingQueue
    try:
        verify_range(cfg)
        sys.exit(f"wait {count} was not interrupted")
    except KeyboardInterrupt:
        pass
    finally:
        queue.SimpleQueue = real
    if verifier._pool is not None:
        sys.exit(f"the sweep interrupted in wait {count} kept its pool")
    if verify_range(cfg).payload() != reference:
        sys.exit(f"the sweep after an interrupt in wait {count} went wrong")
print("ok")
"""


@pytest.mark.pool
def test_interrupted_wait_for_a_finished_task_drops_the_pool():
    # A pooled sweep waits for its next finished task in a queue's get.
    # An interrupt there, at each of the first eight waits, drops the
    # pool, and the next sweep gets the reference payload.
    returncode, out, err = run_in_own_session(INTERRUPTED_WAITS)
    assert returncode == 0 and out.split() == ["ok"], err
    assert "Traceback" not in err, err


POOL_AT_EXIT = """
import collatzkit.verifier as verifier
from collatzkit import VerifyConfig, verify_range

verifier._task_size = lambda n, workers: 4096
verifier._TABLE = 4096
verify_range(VerifyConfig(1, 1 << 16, worker_count=2))
print("ok")
"""


@pytest.mark.pool
def test_pool_left_at_exit_is_dropped_quietly():
    # The patch, a lambda of the script's, ties the verifier module to
    # the script's globals, so module teardown would free the kept pool
    # only after multiprocessing's own; the exit hook drops it before.
    returncode, out, err = run_in_own_session(POOL_AT_EXIT)
    assert returncode == 0 and out.split() == ["ok"], err
    assert "Traceback" not in err and "Exception ignored" not in err, err


ORPHANED_POOL = """
import os
import sys

import collatzkit.verifier as verifier
from collatzkit import VerifyConfig, verify_range

verifier._task_size = eval("lambda n, workers: 4096", {})  # as in INTERRUPTED_SUBMITS
verifier._TABLE = 4096
verify_range(VerifyConfig(1, 4 * 4096, worker_count=2))
pool, pids = verifier._pool[-1], set()
while len(pids) < 2:
    pids |= {f.result() for f in [pool.submit(os.getpid) for _ in range(16)]}
print(*sorted(pids), flush=True)
sys.stdin.read()  # until killed
"""


def running(pid):
    """Whether pid runs: a zombie, which only waits to be reaped, does
    not. Without /proc, whether it exists."""
    if not os.path.exists("/proc/self/stat"):
        return pid_exists(pid)
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.pool
def test_workers_exit_when_their_parent_is_killed():
    # A pool's workers wait on its call queue, whose write end each of
    # them holds, so a parent killed by SIGKILL leaves them nothing to
    # read; they watch their parent and exit once it is gone. The script
    # runs in a session of its own, which is killed, workers and all,
    # when the test ends.
    package_root = Path(collatzkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHANED_POOL], env=env, text=True, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        assert select.select([proc.stdout], [], [], 120)[0], "no pool within 120 s"
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 2 and all(map(running, pids)), pids
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if running(pid)]
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()


@pytest.mark.pool
@pytest.mark.usefixtures("pool_tasks")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_its_own_pool():
    # a process forked from one with a pool inherits neither its threads
    # nor its workers, so it forgets the pool and must start its own
    reference = verify_range(POOL_SWEEP).payload()
    parent = pool_pids()
    child = os.fork()
    if child == 0:  # leaves only through os._exit, and stops its own pool first
        code = 1
        try:
            try:
                code = int(verify_range(POOL_SWEEP).payload() != reference or bool(pool_pids() & parent))
            finally:
                verifier_mod._drop_pool()
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(child, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    assert done[0] == child and os.waitstatus_to_exitcode(done[1]) == 0
    assert pool_pids() == parent



@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_child_forked_while_the_lock_is_held_sweeps():
    # a thread may fork while another holds the verifier's lock, which
    # would never be released in the child; the child gets a new one
    with verifier_mod._lock:
        child = os.fork()
        if child == 0:
            code = 1
            try:
                code = int(verify_range(VerifyConfig(1, 100, worker_count=1)).verified_count != 100)
            finally:
                os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(child, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    assert done[0] == child and os.waitstatus_to_exitcode(done[1]) == 0

class InlineExecutor:
    """A stand-in for ProcessPoolExecutor that runs each task in the
    calling thread as it is submitted, on the parent's table: a pooled
    sweep's tasks, window and fold, with no worker to start."""

    _broken, _processes = False, None

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


@st.composite
def sweep_cases(draw):
    """(table entries, config) of a sweep."""
    size = draw(st.integers(1, 1500))
    # small tables, or full-length blocks from tables of 2^13 to 2^15 entries
    entries = draw(st.integers(2, 4096) | st.integers(1 << 13, 1 << 15))
    if draw(st.booleans()):  # the table ends below range_lo
        lo = draw(st.integers(entries, max(50_000, 4 * entries)))
    else:  # it holds range_lo, and often ends inside the range
        lo = draw(st.integers(max(1, entries - size - 100), entries - 1))
    return entries, VerifyConfig(
        lo,
        lo + size - 1,
        draw(st.one_of(st.integers(1, 120), st.just(DEFAULT_STEP_BUDGET))),
        draw(st.integers(1, lo)),
        worker_count=draw(st.sampled_from((1, 2))),
    )


@settings(max_examples=150, deadline=None)
@given(case=sweep_cases(), tasks=st.integers(1, 16), other_table=st.integers(2, 4096), inline=st.integers(0, 9))
def test_verifier_contract_property(case, tasks, other_table, inline):
    # The case is swept in 1 to 16 tasks, in one, and on another table.
    # Past its table, a sweep of more than one task at two workers reaches
    # the pool: a real one when inline is 0, and otherwise, as each new
    # table starts a new pool, an InlineExecutor.
    entries, cfg = case
    lo, hi, budget = cfg.range_lo, cfg.range_hi, cfg.step_budget
    size = hi - lo + 1
    task = -(-size // tasks)

    def reaches_pool(entries):
        return cfg.worker_count == 2 and hi >= entries and -(-size // task) > 1

    with pytest.MonkeyPatch.context() as patch:
        if inline:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
            verifier_mod._drop_pool()
        pooled = count_pooled(patch)
        try:
            with tasks_of(task):
                with table_of(entries):
                    report = verify_range(cfg)
                with table_of(other_table):
                    other = verify_range(cfg)
            with table_of(entries), tasks_of(size):
                single = verify_range(cfg)
        finally:
            if inline:
                verifier_mod._drop_pool()
    assert len(pooled) == reaches_pool(entries) + reaches_pool(other_table)
    payload = report.payload()
    assert other.payload() == single.payload() == payload
    assert report.verified_count + len(report.unresolved) == size
    if report.max_total_stopping_time is not None:
        rec = report.max_total_stopping_time
        assert rec.value == plain_walk(rec.argmax)[0]
    if report.max_excursion is not None:
        rec = report.max_excursion
        assert rec.value == plain_walk(rec.argmax)[1]
    for x in report.unresolved:
        assert plain_walk(x, budget) is None
    verified, unresolved, steps_rec, peak_rec = reference_sweep(lo, hi, budget, cfg.assume_verified_below)
    assert report.verified_count == verified
    assert list(report.unresolved) == unresolved
    assert report.max_total_stopping_time == (RecordStat(*steps_rec) if steps_rec else None)
    assert report.max_excursion == (RecordStat(*peak_rec) if peak_rec else None)


def test_merge_reproduces_single_run():
    whole = verify_range(VerifyConfig(1, 100))
    merged = merge_reports(verify_range(VerifyConfig(1, 50)), verify_range(VerifyConfig(51, 100)))
    assert merged.payload() == whole.payload()
    assert merged.range == (1, 100)
    assert merged.segments == ((1, 100),)


def test_merge_identity_and_commutativity():
    a = verify_range(VerifyConfig(1, 50))
    b = verify_range(VerifyConfig(51, 80))
    assert merge_reports(a, VerifyReport.empty()) == a
    assert merge_reports(VerifyReport.empty(), a) == a
    assert merge_reports(a, b) == merge_reports(b, a)
    assert merge_reports(a) == a
    assert merge_reports() == VerifyReport.empty()
    assert isinstance(merge_reports().wall_time, float)


def test_merge_random_splits():
    rng = random.Random(31)
    whole = verify_range(VerifyConfig(1, 1000)).payload()
    for _ in range(5):
        cuts = sorted(rng.sample(range(2, 1000), 3))
        bounds = [1] + cuts + [1001]
        parts = [verify_range(VerifyConfig(lo, hi - 1)) for lo, hi in zip(bounds, bounds[1:])]
        rng.shuffle(parts)
        merged = VerifyReport.empty()
        for part in parts:
            merged = merge_reports(merged, part)
        assert merged.payload() == whole
        assert merge_reports(*parts) == merged


def test_merge_associative_payload():
    a = verify_range(VerifyConfig(1, 30))
    b = verify_range(VerifyConfig(31, 60))
    c = verify_range(VerifyConfig(61, 90))
    left = merge_reports(merge_reports(a, b), c)
    right = merge_reports(a, merge_reports(b, c))
    assert left.payload() == right.payload()


def test_merge_rejects_overlap():
    a = verify_range(VerifyConfig(1, 50))
    with pytest.raises(ValueError):
        merge_reports(a, verify_range(VerifyConfig(50, 60)))
    with pytest.raises(ValueError):
        merge_reports(a, verify_range(VerifyConfig(10, 20)))


def test_merge_keeps_gap_segments():
    a = verify_range(VerifyConfig(1, 50))
    b = verify_range(VerifyConfig(61, 100))
    gapped = merge_reports(a, b)
    assert gapped.segments == ((1, 50), (61, 100))
    assert gapped.range == (1, 100)
    assert gapped.covered_count == 90
    assert gapped.verified_count == 90


def test_empty_report():
    empty = VerifyReport.empty()
    assert empty.range is None
    assert empty.covered_count == 0
    assert empty.verified_count == 0


def test_tie_break_smaller_argmax():
    # equal values from both sides must keep the smaller argmax
    a = VerifyReport(((1, 10),), 10, (), (), RecordStat(7, 9), RecordStat(16, 3), 1.0)
    b = VerifyReport(((11, 20),), 10, (), (), RecordStat(7, 12), RecordStat(16, 18), 1.0)
    merged = merge_reports(a, b)
    assert merged.max_total_stopping_time == RecordStat(7, 9)
    assert merged.max_excursion == RecordStat(16, 3)
    flipped = merge_reports(b, a)
    assert flipped.max_total_stopping_time == RecordStat(7, 9)


def test_config_errors_name_fields():
    cases = [
        (VerifyConfig(0, 5), "range_lo"),
        (VerifyConfig(5, 4), "range_hi"),
        (VerifyConfig(1, 5, step_budget=0), "step_budget"),
        (VerifyConfig(5, 9, assume_verified_below=6), "assume_verified_below"),
        (VerifyConfig(5, 9, assume_verified_below=0), "assume_verified_below"),
        (VerifyConfig(1, 5, worker_count=0), "worker_count"),
        (VerifyConfig(True, 5), "range_lo"),
    ]
    for config, fragment in cases:
        with pytest.raises(ConfigError) as info:
            verify_range(config)
        assert fragment in str(info.value)


def test_config_fields_after_the_cutoff_are_keyword_only():
    # A call that passed a fifth field by position, once chunk_size, now
    # fails rather than setting worker_count; the table size is no field.
    assert [f.name for f in fields(VerifyConfig)] == [
        "range_lo", "range_hi", "step_budget", "assume_verified_below", "worker_count",
    ]
    with pytest.raises(TypeError):
        VerifyConfig(1, 5, 40, 1, 137)
    with pytest.raises(TypeError):
        VerifyConfig(1, 5, dense_cache_entries=64)


def test_default_worker_count_is_the_cpus_this_process_may_run_on(monkeypatch):
    # Bound to one CPU of two, a default sweep of two tasks past its
    # table runs in this thread; with no affinity to read, the CPU count
    # stands.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(verifier_mod, "_TABLE", 4096)
    pooled = count_pooled(monkeypatch)
    cfg = VerifyConfig(1, 140_000)
    assert cfg.resolved_worker_count == 1
    assert verify_range(cfg).verified_count == 140_000 and pooled == []
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cfg.resolved_worker_count == 2
    assert replace(cfg, worker_count=3).resolved_worker_count == 3


def test_json_fields_and_milliseconds():
    report = verify_range(VerifyConfig(1, 100))
    data = json.loads(report.to_json())
    assert set(data) == {
        "range", "verified_count", "unresolved", "cycles_found",
        "max_total_stopping_time", "max_excursion", "wall_time", "throughput",
    }
    assert data["range"] == [1, 100]
    assert data["verified_count"] == 100
    assert data["max_excursion"] == {"value": 9232, "argmax": 27}
    assert data["wall_time"] == pytest.approx(report.wall_time * 1000.0)
    assert data["throughput"] == pytest.approx(report.throughput)
    assert report.throughput == report.covered_count / report.wall_time


def test_csv_shape():
    report = verify_range(VerifyConfig(1, 100))
    assert report.to_csv() == (
        "statistic,value,argmax\n"
        "max_total_stopping_time,118,97\n"
        "max_excursion,9232,27\n"
    )
    with table_of(2):
        starved = verify_range(VerifyConfig(27, 27, step_budget=5))
    assert starved.to_csv() == (
        "statistic,value,argmax\n"
        "max_total_stopping_time,,\n"
        "max_excursion,,\n"
    )


def test_no_cycles_reported_at_desk_scale():
    assert verify_range(VerifyConfig(1, 10_000)).cycles_found == ()
    with table_of(2):
        assert verify_range(VerifyConfig(1, 400, step_budget=6)).cycles_found == ()
