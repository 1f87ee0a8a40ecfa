"""Bulk convergence verification over integer ranges.

The sweep rests on a dense memo table over a prefix [0, cache_len)
holding the exact total stopping time and orbit peak of every entry
that reaches 1 within the step budget, which counts total col-steps as
total_stopping_time does; -1 marks the rest. One rule resolves table
entries and sweep starts alike: walk the start until its orbit drops
below the table, then add the entry it landed on. The table is built
by that rule in blocks of doubling size from [2, 4), each against the
part already built.

One lane kernel does every vectorized walk. Each round it moves a lane
by the affine block map of k steps of T (x/2, or (3x+1)/2 on odd x) for
its residue mod 2^k, the parity-vector form of Terras (1976), with k up
to K = 12; the map, with each block's step count and exact peak, is
dynamics._block_levels, held here as int64 columns. k is cut to the table's
size so that no block passes through 1. Lanes too large for int64 blocks
take the same blocks in two int64 limbs, as fixed-width multi-word
verifiers do (Oliveira e Silva 2010; Barina 2021). Values too large for
the limbs, and starts among them, walk in the package's one exact
big-integer walker, dynamics._descend, until they fit again, so
correctness never depends on fixed-width integers being enough. A
multi-worker sweep hands its chunks to one worker pool per process,
kept across sweeps; its workers receive the table once, when they
start. The pool belongs to the table's memo slot: replacing the table
shuts it down, and so does a sweep with another worker count or start
method, before the new pool starts. Each chunk's report is merged by
merge_reports, which makes reports independent of chunk size and
worker count.

An optional cutoff (assume_verified_below) certifies every start whose
orbit drops strictly below already-verified territory within budget;
an exact walk decides this for each start the table does not resolve.
Record statistics still come only from exactly resolved trajectories, so
the cutoff changes what is certified, never what is measured.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .cycles import ClosedLoop
from .dynamics import DEFAULT_STEP_BUDGET, DomainError, EntersCycle, MapVariant
from .dynamics import _as_int, _block_levels, _brent_walk, _descend

DENSE_CACHE_ENTRIES = 1 << 20
# Larger tables are refused so that every table peak fits in int64: the
# first start whose orbit peak exceeds 2^63 - 1 is 8,528,817,511 (a known
# path record), above 2^32, and the default 2^20 table peaks at
# 90,239,155,648.
_MAX_CACHE_ENTRIES = 1 << 32

# Longest block in the lane kernel, in steps of T. Every value of a
# k-step block from x is below 2·(3/2)^k·(x + 1), so int64 lanes up to
# the block limit (about 2^55) stay within int64. Larger lanes are held
# in two limbs, h·2^32 + l, whose block products stay within int64 below
# the wide limit (h < 2^52); values from there on walk exactly.
K = 12
_BLOCK_LIMIT = 2 ** (62 + K) // 3**K - 1
_WIDE_LIMIT = 1 << 84
_LOW = (1 << 32) - 1  # low limb mask
_PARKED = -(2**62)  # r of a parked lane: negative for longer than any walk

_TRIVIAL_LOOP = (1, 4, 2, 1)


class ConfigError(DomainError):
    """A VerifyConfig field is out of range; the message names it."""


@dataclass(frozen=True)
class VerifyConfig:
    range_lo: int
    range_hi: int
    step_budget: int = DEFAULT_STEP_BUDGET
    assume_verified_below: int = 1
    chunk_size: int = 1 << 16
    worker_count: int | None = None
    dense_cache_entries: int = DENSE_CACHE_ENTRIES

    def validated(self) -> "VerifyConfig":
        """A copy holding plain ints, or ConfigError naming the first bad field."""

        def field(name: str, lo: int = 1, hi: int | None = None) -> int:
            return _as_int(getattr(self, name), name, lo, hi, ConfigError)

        lo = field("range_lo")
        return replace(
            self,
            range_lo=lo,
            range_hi=field("range_hi", lo),
            step_budget=field("step_budget"),
            # The cutoff may only reference already-certified territory.
            assume_verified_below=field("assume_verified_below", 1, lo),
            chunk_size=field("chunk_size"),
            worker_count=None if self.worker_count is None else field("worker_count"),
            dense_cache_entries=field("dense_cache_entries", 2, _MAX_CACHE_ENTRIES),
        )

    @property
    def resolved_worker_count(self) -> int:
        if self.worker_count is not None:
            return self.worker_count
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RecordStat:
    value: int
    argmax: int


@dataclass(frozen=True)
class VerifyReport:
    """Aggregate result of one or more merged range sweeps.

    segments lists the exact disjoint subranges covered, ascending and
    coalesced, so counts stay exact even when merged ranges leave gaps;
    range spans from the first segment's lo to the last segment's hi.
    wall_time is in seconds; to_json reports it in milliseconds.
    """

    segments: tuple[tuple[int, int], ...]
    verified_count: int
    unresolved: tuple[int, ...]
    cycles_found: tuple[ClosedLoop, ...]
    max_total_stopping_time: RecordStat | None
    max_excursion: RecordStat | None
    wall_time: float

    @classmethod
    def empty(cls) -> "VerifyReport":
        return cls((), 0, (), (), None, None, 0.0)

    @property
    def range(self) -> tuple[int, int] | None:
        if not self.segments:
            return None
        return (self.segments[0][0], self.segments[-1][1])

    @property
    def covered_count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.segments)

    @property
    def throughput(self) -> float:
        """Covered starts per second; the covered count when wall_time is 0."""
        return self.covered_count / self.wall_time if self.wall_time > 0 else float(self.covered_count)

    def payload(self) -> dict:
        """Semantic content, excluding timing. Two sweeps of the same
        range agree on this no matter how the work was split."""
        return {
            "segments": [list(s) for s in self.segments],
            "verified_count": self.verified_count,
            "unresolved": list(self.unresolved),
            "cycles_found": [list(c.values) for c in self.cycles_found],
            "max_total_stopping_time": _stat_dict(self.max_total_stopping_time),
            "max_excursion": _stat_dict(self.max_excursion),
        }

    def to_json(self) -> str:
        data = {
            "range": list(self.range) if self.range else None,
            **self.payload(),
            "wall_time": self.wall_time * 1000.0,
            "throughput": self.throughput,
        }
        del data["segments"]
        return json.dumps(data, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["statistic,value,argmax"]
        for name, stat in (
            ("max_total_stopping_time", self.max_total_stopping_time),
            ("max_excursion", self.max_excursion),
        ):
            if stat is None:
                lines.append(f"{name},,")
            else:
                lines.append(f"{name},{stat.value},{stat.argmax}")
        return "\n".join(lines) + "\n"


def _stat_dict(stat: RecordStat | None) -> dict | None:
    if stat is None:
        return None
    return {"value": stat.value, "argmax": stat.argmax}


def _best(candidates: Iterable[tuple[int, int]]) -> RecordStat | None:
    """Largest value wins; ties go to the smaller argmax."""
    best = max(candidates, key=lambda c: (c[0], -c[1]), default=None)
    return None if best is None else RecordStat(*best)


def _distinct_loops(loops: Iterable[ClosedLoop | None]) -> tuple[ClosedLoop, ...]:
    """Each non-trivial loop once, ordered by period and then values."""
    unique: dict[tuple[int, ...], ClosedLoop] = {}
    for loop in loops:
        if loop is not None and loop.values != _TRIVIAL_LOOP:
            unique.setdefault(loop.values, loop)
    return tuple(sorted(unique.values(), key=lambda c: (c.period, c.values)))


# ---------------------------------------------------------------------------
# Walkers


@functools.cache
def _block_tables() -> tuple:
    """Every level 0..K of dynamics._block_levels as int64 columns,
    each converted as the doubling pass yields it, so that no Python
    rows stay behind."""
    return tuple(
        tuple(np.array(c, dtype=np.int64) for c in zip(*level)) for level in _block_levels(K)
    )


def _block_table(k: int) -> tuple:
    """The k-step block map as int64 columns (mult, off, steps,
    peak_mult, peak_off), each indexed by residue mod 2^k."""
    return _block_tables()[k]


def _advance(table: tuple, k: int, cur, r, pk) -> None:
    """Take one k-step block on every lane, in place."""
    mult, off, steps, peak_m, peak_e = table
    j = cur & ((1 << k) - 1)
    a = cur >> k
    np.maximum(pk, peak_m[j] * a + peak_e[j], out=pk)
    r += steps[j]
    np.add(mult[j] * a, off[j], out=cur)


def _advance_wide(table: tuple, k: int, h, l, r, ph, pl):
    """Take one k-step block on every lane h·2^32 + l. r and the peak
    limbs (ph, pl) update in place; returns the new limbs."""
    mult, off, steps, peak_m, peak_e = table
    j = l & ((1 << k) - 1)
    ah = h >> k
    al = (h & ((1 << k) - 1)) << (32 - k) | l >> k
    pm = peak_m[j]
    t = pm * al + peak_e[j]
    bh, bl = pm * ah + (t >> 32), t & _LOW
    up = (bh > ph) | ((bh == ph) & (bl > pl))
    np.copyto(ph, bh, where=up)
    np.copyto(pl, bl, where=up)
    r += steps[j]
    m = mult[j]
    t = m * al + off[j]
    return m * ah + (t >> 32), t & _LOW


def _at_least(h, l, v: int):
    """Whether each lane h·2^32 + l is at least v."""
    return (h > v >> 32) | ((h == v >> 32) & (l >= v & _LOW))


def _walk_lanes(lo: int, hi: int, stop: int, budget: int):
    """Walk every start in [lo, hi] in lanes, one block per round, until
    it drops strictly below stop or passes budget col-steps.

    k is cut so that stop >= 2^(k+1), so no block passes through 1, and
    a lane may land past its first value below stop, as its steps plus
    the landing's total are still its total. Lanes past _BLOCK_LIMIT take
    the same blocks in two limbs, h·2^32 + l, in wide rounds until each
    is back at or below it or over budget; the int64 lanes wait out that
    round, so a returning lane retires before its next block. Values
    from _WIDE_LIMIT on, starts among them, first walk exactly in
    _descend to half of it. Each round retires only the lanes just
    finished, by index, and parks them at -1, a fixed point of every
    block, with r at _PARKED; they drop out once fewer than half the
    lanes are live.

    Returns (landing, steps, peak, exact), indexed by x - lo: landing is
    -1 where the budget ran out; exact holds the peaks past int64.
    """
    n = hi - lo + 1
    landing = np.full(n, -1, dtype=np.int64)
    steps, peak = np.zeros((2, n), dtype=np.int64)
    exact: dict[int, int] = {}
    k = max(1, min(K, stop.bit_length() - 2))
    table = _block_table(k)
    wide, back = _WIDE_LIMIT, _BLOCK_LIMIT + 1  # read per call, so patches apply
    lane = np.arange(n, dtype=np.int64)
    cur, r = np.zeros((2, n), dtype=np.int64)
    m = min(n, max(0, back - lo))
    if m:  # the starts after these begin wide
        cur[:m] = lane[:m] + lo
    pk = cur.copy()

    def exactly(i: int, c: int, s: int, p: int):
        """(value, steps, limb peak) of lane i after an exact walk from c
        to half the wide limit; a peak past int64 goes to exact."""
        c, s, q = _descend(c, wide >> 1, s, max(c, p, exact.get(i, 0)), budget)
        if q >> 63:
            exact[i], q = q, p
        return c, s if c >= 0 else budget + 1, q  # a -1 alone reads as parked

    def walk_wide(j, h, l, ph, pl) -> None:
        """Wide rounds on lanes j. A lane at or below _BLOCK_LIMIT, or over
        budget (at -1), goes back to cur, r and pk, and parks in limbs."""
        rj, live = r[j], j.size
        while live > 0:
            if h.max() >= wide >> 32:
                for q in np.flatnonzero(_at_least(h, l, wide)).tolist():
                    c, p = int(h[q]) << 32 | int(l[q]), int(ph[q]) << 32 | int(pl[q])
                    c, rj[q], p = exactly(int(lane[j[q]]), c, int(rj[q]), p)
                    h[q], l[q], ph[q], pl[q] = c >> 32, c & _LOW, p >> 32, p & _LOW
            d = np.flatnonzero((rj > budget) | ~_at_least(h.view(np.uint64), l, back))  # parked: 2^64 - 1
            if d.size:
                jd, hp, lp = j[d], ph[d], pl[d]
                cur[jd] = np.where(rj[d] > budget, -1, h[d] << 32 | l[d])
                r[jd] = rj[d]
                big = hp >= 1 << 31  # peaks past int64 go to exact
                pk[jd] = np.where(big, pk[jd], hp << 32 | lp)
                for i, a, b in zip(lane[jd[big]].tolist(), hp[big].tolist(), lp[big].tolist()):
                    exact[i] = max(exact.get(i, 0), a << 32 | b)
                h[d], l[d], rj[d] = -1, _LOW, _PARKED
                live -= d.size
                if 2 * live < j.size:
                    keep = np.flatnonzero(rj >= 0)
                    j, h, l, ph, pl, rj = j[keep], h[keep], l[keep], ph[keep], pl[keep], rj[keep]
            h, l = _advance_wide(table, k, h, l, rj, ph, pl)

    if m < n:  # limbs of the other starts, below the wide limit
        base = min(lo + m, wide)
        l = (base & _LOW) + lane[: n - m]
        h, l = (base >> 32) + (l >> 32), l & _LOW
        ph, pl = h.copy(), l.copy()
        for q in range(max(0, wide - lo - m), n - m):  # and an exact prefix past it
            c, r[m + q], p = exactly(m + q, lo + m + q, 0, 0)
            h[q], l[q], ph[q], pl[q] = c >> 32, c & _LOW, p >> 32, p & _LOW
        walk_wide(lane[m:], h, l, ph, pl)
    live = n
    while live > 0:
        out = np.flatnonzero((cur.view(np.uint64) < stop) | (r > budget))  # parked: 2^64 - 1
        if out.size:
            d = lane[out]
            landing[d] = cur[out]
            steps[d] = r[out]
            peak[d] = pk[out]
            landing[d[steps[d] > budget]] = -1  # more than budget steps to 1
            cur[out], r[out] = -1, _PARKED
            live -= out.size
            if 2 * live < lane.size:
                keep = np.flatnonzero(r >= 0)
                lane, cur, r, pk = lane[keep], cur[keep], r[keep], pk[keep]
        if cur.max(initial=0) < back:
            _advance(table, k, cur, r, pk)
        else:
            j = np.flatnonzero(cur >= back)
            c, p = cur[j], pk[j]
            walk_wide(j, c >> 32, c & _LOW, p >> 32, p & _LOW)
    return landing, steps, peak, exact


def _resolve(lo: int, hi: int, table: tuple, budget: int, cutoff: int):
    """Resolve every start in [lo, hi] against table = (steps, peak)
    over [0, len): walk it until it drops below len, then add the entry
    it landed on. A start is resolved when its total steps to 1 are at
    most budget col-steps.

    Returns (total, top, crossed, big): total steps and orbit peak, -1
    unless resolved, and whether an unresolved orbit dropped below
    cutoff within budget, indexed by x - lo; and big, the largest
    (peak, x - lo) among resolved lanes whose peak does not fit int64,
    the smallest x among ties, or None. Such a peak outranks every peak
    in top.
    """
    cache_steps, cache_peak = table
    landing, steps, peak, exact = _walk_lanes(lo, hi, len(cache_steps), budget)
    # A landing of -1 reads the last entry; ok discards it.
    tail = cache_steps[landing]
    total = steps + tail
    ok = (landing >= 0) & (tail >= 0) & (total <= budget)
    total[~ok] = -1
    top = np.where(ok, np.maximum(peak, cache_peak[landing]), -1)
    big = max(((p, -j) for j, p in exact.items() if ok[j]), default=None)
    crossed = np.zeros(len(total), dtype=bool)
    if cutoff > 1:
        # Each start the table did not resolve is walked exactly toward
        # the cutoff; at the default budget there are almost none.
        for j in np.flatnonzero(~ok).tolist():
            crossed[j] = _descend(lo + j, cutoff - 1, 0, lo + j, budget)[0] >= 0
    return total, top, crossed, None if big is None else (big[0], -big[1])


# ---------------------------------------------------------------------------
# Dense memo table


def _build_cache(cache_len: int, step_budget: int):
    """Exact (total steps to 1, orbit peak) for every x in [0, cache_len),
    -1 in both where x does not reach 1 within step_budget col-steps.
    Blocks [n, 2n) of doubling size, from [2, 4), are each resolved
    against the part [0, n) built so far, by the same rule as a chunk.
    """
    steps = np.full(cache_len, -1, dtype=np.int64)
    peak = np.full(cache_len, -1, dtype=np.int64)
    steps[1], peak[1] = 0, 1
    n = 2
    while n < cache_len:
        # Blocks capped at 2^16 cut peak RSS 86 -> 52 MB, but then glibc's mmap
        # threshold stays low and later sweeps in this process run ~1.6x slower.
        hi = min(2 * n, cache_len) - 1
        # The size cap keeps every peak within int64, so none is in big.
        steps[n:hi + 1], peak[n:hi + 1], _, _ = _resolve(n, hi, (steps[:n], peak[:n]), step_budget, 1)
        n = hi + 1
    return steps, peak


# ((cache_len, step_budget), (cache_steps, cache_peak)): the parent's
# memo, and in each pool worker the parent's table installed at start-up.
_cache_slot: tuple | None = None
# (worker count, start method, owner pid, executor): the parent's pool,
# whose workers hold the table of _cache_slot. A process forked from the
# owner inherits the tuple but not the pool's threads or workers.
_pool: tuple | None = None


def _install_table(slot: tuple) -> None:
    """Pool initializer: keep the table the parent handed over, so no
    start method makes a worker rebuild it. A worker gets it once and
    keeps it for the pool's life, which ends before the parent's table
    is replaced."""
    global _cache_slot
    _cache_slot = slot


def _cache_for(cache_len: int, step_budget: int) -> None:
    """Single-slot memo so repeated sweeps in one process reuse the
    table instead of rebuilding it. Replacing the table first shuts down
    the pool, whose workers and initializer arguments hold the old one."""
    key = (cache_len, step_budget)
    if _cache_slot is None or _cache_slot[0] != key:
        _drop_pool()
        _install_table((key, _build_cache(cache_len, step_budget)))


def _drop_pool() -> None:
    """Forget the pool, first shutting it down and waiting for its
    workers and threads when this process owns it."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[2] == os.getpid():
        pool[3].shutdown(cancel_futures=True)


def _sweep_pooled(workers: int, jobs: list) -> list[VerifyReport]:
    """Each job's report, in order, from the pool for _cache_slot's
    table with this many workers under the current start method. Any
    other pool, or one that a dead worker broke, is shut down before a
    new one starts, so that no pool forks while another's threads run;
    concurrent.futures' own exit hook stops the last one when the
    interpreter exits. Jobs still queued when the call ends early, by
    an error or an interrupt, are cancelled so that they do not delay
    the next sweep."""
    global _pool
    key = (workers, multiprocessing.get_start_method(), os.getpid())
    if _pool is None or _pool[:3] != key or _pool[3]._broken:
        _drop_pool()
        pool = ProcessPoolExecutor(workers, initializer=_install_table, initargs=(_cache_slot,))
        _pool = (*key, pool)
    futures = []
    try:
        for job in jobs:
            futures.append(_pool[3].submit(_sweep_chunk, job))
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()  # a no-op once a job has started


# ---------------------------------------------------------------------------
# Chunk sweeps


def _sweep_chunk(job: tuple[int, int, int, int]) -> VerifyReport:
    """Classify every x in [lo, hi] against the installed memo table and
    report on the chunk alone, cycle search included."""
    lo, hi, budget, cutoff = job
    total, top, crossed, big = _resolve(lo, hi, _cache_slot[1], budget, cutoff)
    # A start is verified when resolved, certified by the cutoff alone
    # when it crossed the cutoff, and unresolved otherwise. Lanes are
    # offsets from lo, which fit int64 whatever lo is.
    certified = (total >= 0) | crossed
    unresolved = [lo + j for j in np.flatnonzero(~certified).tolist()]
    # argmax keeps the first, so the smallest x among ties; -1 means none.
    j, k = int(np.argmax(total)), int(np.argmax(top))
    steps_cands = [(int(total[j]), lo + j)] if total[j] >= 0 else []
    # A peak past int64 outranks every peak in top.
    p, k = big or (int(top[k]), k)
    peak_cands = [(p, lo + k)] if p >= 0 else []
    # An unresolved start does not reach 1 within budget, so find_cycle's
    # walk toward 1 would only fail; Brent's walk alone finds its loop.
    outcomes = (_brent_walk(u, MapVariant.STANDARD, budget, None, False).outcome for u in unresolved)
    return VerifyReport(
        segments=((lo, hi),),
        verified_count=int(np.count_nonzero(certified)),
        unresolved=tuple(unresolved),
        cycles_found=_distinct_loops(o.loop for o in outcomes if isinstance(o, EntersCycle)),
        max_total_stopping_time=_best(steps_cands),
        max_excursion=_best(peak_cands),
        wall_time=0.0,
    )


# ---------------------------------------------------------------------------
# Drivers


def verify_range(config: VerifyConfig) -> VerifyReport:
    """Classify every x in [range_lo, range_hi] and aggregate statistics.

    Certification means the trajectory reached 1, or dropped strictly
    below assume_verified_below, within step_budget col-steps. Record
    statistics are taken only over trajectories that reached 1. Each
    chunk's report, made by the same job in the parent or a pool worker,
    goes to merge_reports, so the payload is identical regardless of
    chunking, worker count or table size.
    """
    cfg = config.validated()
    t0 = time.perf_counter()
    cache_len = max(2, min(cfg.dense_cache_entries, cfg.range_hi + 1))
    _cache_for(cache_len, cfg.step_budget)

    jobs = [
        (lo, min(lo + cfg.chunk_size - 1, cfg.range_hi), cfg.step_budget, cfg.assume_verified_below)
        for lo in range(cfg.range_lo, cfg.range_hi + 1, cfg.chunk_size)
    ]
    workers = min(cfg.resolved_worker_count, len(jobs))
    if workers <= 1:
        parts = [_sweep_chunk(job) for job in jobs]
    else:
        parts = _sweep_pooled(workers, jobs)
    return replace(merge_reports(*parts), wall_time=time.perf_counter() - t0)


def merge_reports(*reports: VerifyReport) -> VerifyReport:
    """Combine any number of reports over disjoint ranges; adjacent
    segments coalesce, and no reports give VerifyReport.empty().

    The merge is associative and commutative on every field except
    wall_time, where wall times add.
    """
    coalesced: list[tuple[int, int]] = []
    for lo, hi in sorted(s for r in reports for s in r.segments):
        if coalesced and lo <= coalesced[-1][1]:
            raise ValueError(f"overlapping ranges: {list(coalesced[-1])} and {[lo, hi]}")
        if coalesced and lo == coalesced[-1][1] + 1:
            coalesced[-1] = (coalesced[-1][0], hi)
        else:
            coalesced.append((lo, hi))
    steps = [(s.value, s.argmax) for r in reports if (s := r.max_total_stopping_time) is not None]
    peaks = [(s.value, s.argmax) for r in reports if (s := r.max_excursion) is not None]
    return VerifyReport(
        segments=tuple(coalesced),
        verified_count=sum(r.verified_count for r in reports),
        unresolved=tuple(sorted(x for r in reports for x in r.unresolved)),
        cycles_found=_distinct_loops(c for r in reports for c in r.cycles_found),
        max_total_stopping_time=_best(steps),
        max_excursion=_best(peaks),
        wall_time=sum((r.wall_time for r in reports), 0.0),
    )
