import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

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
    classify_trajectory,
    merge_reports,
    total_stopping_time,
    verify_range,
)


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


def test_oracle_against_naive_prefix():
    # the memoized oracle itself, checked against direct iteration
    best_steps, best_peak = oracle_sweep(1, 300)
    direct_steps = max(
        ((total_stopping_time(x), x) for x in range(1, 301)),
        key=lambda t: (t[0], -t[1]),
    )
    assert best_steps == direct_steps
    peaks = []
    for x in range(1, 301):
        c, p = x, x
        while c != 1:
            c = c // 2 if c % 2 == 0 else 3 * c + 1
            p = max(p, c)
        peaks.append((p, x))
    assert best_peak == max(peaks, key=lambda t: (t[0], -t[1]))


def test_chunk_size_independence():
    reference = verify_range(VerifyConfig(1, 5000, chunk_size=5000)).payload()
    for chunk in (1, 137, 700, 4999):
        assert verify_range(VerifyConfig(1, 5000, chunk_size=chunk)).payload() == reference


def test_worker_count_independence():
    reference = verify_range(VerifyConfig(1, 30_000, worker_count=1)).payload()
    for workers in (2, 4):
        got = verify_range(VerifyConfig(1, 30_000, worker_count=workers)).payload()
        assert got == reference


def test_dense_cache_threshold_independence():
    reference = verify_range(VerifyConfig(1, 3000)).payload()
    for entries in (2, 64, 4096):
        got = verify_range(VerifyConfig(1, 3000, dense_cache_entries=entries)).payload()
        assert got == reference


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
    report = verify_range(VerifyConfig(27, 27, step_budget=5, dense_cache_entries=2))
    assert report.verified_count == 0
    assert report.unresolved == (27,)
    assert report.max_total_stopping_time is None
    assert report.max_excursion is None


def test_report_count_invariant():
    for cfg in (
        VerifyConfig(1, 500),
        VerifyConfig(90, 410, chunk_size=100),
        VerifyConfig(2, 600, step_budget=8, dense_cache_entries=2),
        VerifyConfig(50, 60, step_budget=4, assume_verified_below=50, dense_cache_entries=2),
    ):
        report = verify_range(cfg)
        size = cfg.range_hi - cfg.range_lo + 1
        assert report.verified_count + len(report.unresolved) == size
        assert list(report.unresolved) == sorted(report.unresolved)
        for stat in (report.max_total_stopping_time, report.max_excursion):
            if stat is not None:
                assert cfg.range_lo <= stat.argmax <= cfg.range_hi


def test_cutoff_certifies_without_exact_resolution():
    # 52 drops below 52 immediately but cannot reach the 2-entry cache
    # within 4 steps, so certification comes from the cutoff alone.
    cfg = VerifyConfig(52, 52, step_budget=4, assume_verified_below=52, dense_cache_entries=2)
    report = verify_range(cfg)
    assert report.verified_count == 1
    assert report.unresolved == ()
    assert report.max_total_stopping_time is None
    assert report.max_excursion is None
    # without the cutoff the same budget leaves it unresolved
    bare = verify_range(VerifyConfig(52, 52, step_budget=4, dense_cache_entries=2))
    assert bare.unresolved == (52,)


def test_small_budget_chunking_stable():
    reference = verify_range(VerifyConfig(1, 600, step_budget=8, dense_cache_entries=2))
    for chunk in (7, 100):
        got = verify_range(
            VerifyConfig(1, 600, step_budget=8, dense_cache_entries=2, chunk_size=chunk)
        )
        assert got.payload() == reference.payload()
    assert reference.unresolved != ()


def test_values_beyond_int64_are_exact():
    # odd start just below 2^62: the very first triple step leaves int64
    x0 = (1 << 62) - 1
    report = verify_range(VerifyConfig(x0, x0 + 4))
    assert report.verified_count == 5
    recs = {x: classify_trajectory(x) for x in range(x0, x0 + 5)}
    expected_peak = max(
        ((r.max_excursion, x) for x, r in recs.items()), key=lambda t: (t[0], -t[1])
    )
    assert (report.max_excursion.value, report.max_excursion.argmax) == expected_peak
    assert report.max_excursion.value > (1 << 63) - 1
    expected_steps = max(
        ((r.outcome.steps, x) for x, r in recs.items()), key=lambda t: (t[0], -t[1])
    )
    assert (report.max_total_stopping_time.value, report.max_total_stopping_time.argmax) == expected_steps


def test_range_beyond_vector_path():
    y0 = (1 << 70) + 1
    report = verify_range(VerifyConfig(y0, y0 + 2))
    assert report.verified_count == 3
    recs = {x: classify_trajectory(x) for x in range(y0, y0 + 3)}
    expected_steps = max(
        ((r.outcome.steps, x) for x, r in recs.items()), key=lambda t: (t[0], -t[1])
    )
    expected_peak = max(
        ((r.max_excursion, x) for x, r in recs.items()), key=lambda t: (t[0], -t[1])
    )
    assert (report.max_total_stopping_time.value, report.max_total_stopping_time.argmax) == expected_steps
    assert (report.max_excursion.value, report.max_excursion.argmax) == expected_peak


def test_forced_escalation_paths_agree(monkeypatch):
    # vector, forced escalation, and forced all-exact runs, at the default
    # budget and at small budgets with and without a cutoff
    for cfg in (
        VerifyConfig(1, 3000, dense_cache_entries=64),
        VerifyConfig(1000, 5000, step_budget=40, assume_verified_below=1000, dense_cache_entries=64),
        VerifyConfig(1000, 5000, step_budget=40, dense_cache_entries=4096),
        VerifyConfig(1, 3000, step_budget=25, dense_cache_entries=2),
    ):
        base = verify_range(cfg).payload()
        with monkeypatch.context() as patch:
            verifier_mod._cache_slot = None
            patch.setattr(verifier_mod, "_VALUE_LIMIT", 10)
            assert verify_range(cfg).payload() == base

            verifier_mod._cache_slot = None
            patch.setattr(verifier_mod, "_RANGE_LIMIT", 0)
            assert verify_range(cfg).payload() == base
        verifier_mod._cache_slot = None


FORKSERVER_SWEEP = """
import json
import multiprocessing

from collatzkit import VerifyConfig, verify_range

cfg = VerifyConfig(1 << 20, (1 << 20) + 4 * 4096 - 1, chunk_size=4096, worker_count=2)
for method in ("fork", "forkserver"):
    multiprocessing.set_start_method(method, force=True)
    print(json.dumps(verify_range(cfg).payload()))
"""


@pytest.mark.skipif(
    not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
    reason="needs the fork and forkserver start methods",
)
def test_forkserver_workers_get_the_table():
    # workers started by forkserver share no memory with the parent, so
    # they sweep with the table handed to them at start-up
    package_root = Path(collatzkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", FORKSERVER_SWEEP],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    fork, forkserver = proc.stdout.splitlines()
    assert json.loads(forkserver) == json.loads(fork)
    assert json.loads(fork)["verified_count"] == 4 * 4096


@st.composite
def sweep_cases(draw):
    lo = draw(st.integers(1, 50_000))
    size = draw(st.integers(1, 1500))
    # a chunk count, not a chunk size: 1-start chunks cost ~0.5 ms each
    chunks = draw(st.integers(1, 16))
    return {
        "range_lo": lo,
        "range_hi": lo + size - 1,
        "step_budget": draw(st.one_of(st.integers(1, 120), st.just(DEFAULT_STEP_BUDGET))),
        "assume_verified_below": draw(st.integers(1, lo)),
        "dense_cache_entries": draw(st.integers(2, 4096)),
        "chunk_size": -(-size // chunks),
        "worker_count": 1,
    }


@settings(max_examples=150, deadline=None)
@given(case=sweep_cases(), other_table=st.integers(2, 4096))
def test_verifier_contract_property(case, other_table):
    size = case["range_hi"] - case["range_lo"] + 1
    budget = case["step_budget"]
    report = verify_range(VerifyConfig(**case))
    payload = report.payload()
    assert report.verified_count + len(report.unresolved) == size
    assert verify_range(VerifyConfig(**{**case, "chunk_size": size})).payload() == payload
    if report.max_total_stopping_time is not None:
        rec = report.max_total_stopping_time
        assert rec.value == total_stopping_time(rec.argmax)
    if report.max_excursion is not None:
        rec = report.max_excursion
        # the orbit of 1 classifies as the 1-4-2-1 loop; the sweep stops at 1
        expected = 1 if rec.argmax == 1 else classify_trajectory(rec.argmax).max_excursion
        assert rec.value == expected
    for x in report.unresolved:
        steps = total_stopping_time(x)
        assert steps is None or steps > budget
    if budget == DEFAULT_STEP_BUDGET:
        other = VerifyConfig(**{**case, "dense_cache_entries": other_table})
        assert verify_range(other).payload() == payload


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
        (VerifyConfig(1, 5, chunk_size=0), "chunk_size"),
        (VerifyConfig(1, 5, worker_count=0), "worker_count"),
        (VerifyConfig(1, 5, dense_cache_entries=1), "dense_cache_entries"),
        (VerifyConfig(1, 5, dense_cache_entries=2**32 + 1), "dense_cache_entries"),
    ]
    for config, fragment in cases:
        with pytest.raises(ConfigError) as info:
            verify_range(config)
        assert fragment in str(info.value)


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
    starved = verify_range(VerifyConfig(27, 27, step_budget=5, dense_cache_entries=2))
    assert starved.to_csv() == (
        "statistic,value,argmax\n"
        "max_total_stopping_time,,\n"
        "max_excursion,,\n"
    )


def test_no_cycles_reported_at_desk_scale():
    assert verify_range(VerifyConfig(1, 10_000)).cycles_found == ()
    assert verify_range(VerifyConfig(1, 400, step_budget=6, dense_cache_entries=2)).cycles_found == ()
