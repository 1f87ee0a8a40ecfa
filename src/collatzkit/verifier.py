"""Bulk convergence verification over integer ranges.

The sweep rests on a dense memo table over a prefix [1, cache_len):
for every entry that resolves within budget the table holds the exact
total stopping time and orbit peak, with -1 marking the rest. Each x
in the range then only walks until its orbit drops below cache_len and
the table finishes the job exactly.

One int64 lane kernel does every vectorized walk: it advances lanes
until each drops below its stop value, the lane's own start while the
table is built and cache_len in a chunk. Lanes whose next step could
leave int64, and every lane of a chunk beyond the vector range, finish
in one exact big-integer walker, so correctness never depends on 64
bits being enough. Worker processes receive the table when they start
and sweep disjoint chunks; partial results are merged in range order,
which makes reports independent of chunk size and worker count.

An optional cutoff (assume_verified_below) certifies a trajectory as
soon as it drops strictly below already-verified territory. Record
statistics still come only from exactly resolved trajectories, so the
cutoff changes what is certified, never what is measured.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cycles import ClosedLoop, find_cycle
from .dynamics import DEFAULT_STEP_BUDGET, MapVariant

DENSE_CACHE_ENTRIES = 1 << 20
# Larger tables are refused so that every table peak fits in int64: the
# first start whose orbit peak exceeds 2^63 - 1 is 8,528,817,511 (a known
# path record), above 2^32, and the default 2^20 table peaks at
# 90,239,155,648.
_MAX_CACHE_ENTRIES = 1 << 32

# 3x+1 on a value above this would leave int64.
_VALUE_LIMIT = (2**63 - 2) // 3
# Ranges starting beyond this skip the vector path entirely.
_RANGE_LIMIT = 2**62

_TRIVIAL_LOOP = (1, 4, 2, 1)


class ConfigError(ValueError):
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
        if not isinstance(self.range_lo, int) or self.range_lo < 1:
            raise ConfigError(f"range_lo must be a positive integer, got {self.range_lo!r}")
        if not isinstance(self.range_hi, int) or self.range_hi < self.range_lo:
            raise ConfigError(f"range_hi must be an integer >= range_lo, got {self.range_hi!r}")
        if not isinstance(self.step_budget, int) or self.step_budget < 1:
            raise ConfigError(f"step_budget must be a positive integer, got {self.step_budget!r}")
        if not isinstance(self.assume_verified_below, int) or self.assume_verified_below < 1:
            raise ConfigError(
                f"assume_verified_below must be a positive integer, got {self.assume_verified_below!r}"
            )
        if self.assume_verified_below > self.range_lo:
            raise ConfigError(
                "assume_verified_below may only reference already-certified territory: "
                f"{self.assume_verified_below} > range_lo {self.range_lo}"
            )
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be a positive integer, got {self.chunk_size!r}")
        if self.worker_count is not None and (
            not isinstance(self.worker_count, int) or self.worker_count < 1
        ):
            raise ConfigError(f"worker_count must be a positive integer, got {self.worker_count!r}")
        entries = self.dense_cache_entries
        if not isinstance(entries, int) or not 2 <= entries <= _MAX_CACHE_ENTRIES:
            raise ConfigError(f"dense_cache_entries must be an integer in [2, 2^32], got {entries!r}")
        return self

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
    throughput: float

    @classmethod
    def empty(cls) -> "VerifyReport":
        return cls((), 0, (), (), None, None, 0.0, 0.0)

    @property
    def range(self) -> tuple[int, int] | None:
        if not self.segments:
            return None
        return (self.segments[0][0], self.segments[-1][1])

    @property
    def covered_count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.segments)

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
            "verified_count": self.verified_count,
            "unresolved": list(self.unresolved),
            "cycles_found": [list(c.values) for c in self.cycles_found],
            "max_total_stopping_time": _stat_dict(self.max_total_stopping_time),
            "max_excursion": _stat_dict(self.max_excursion),
            "wall_time": self.wall_time * 1000.0,
            "throughput": self.throughput,
        }
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


def _best(candidates: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
    """Largest value wins; ties go to the smaller argmax."""
    best = None
    for value, argmax in candidates:
        if best is None or value > best[0] or (value == best[0] and argmax < best[1]):
            best = (value, argmax)
    return best


@dataclass
class _ChunkStats:
    verified: int
    unresolved: list[int]
    max_steps: tuple[int, int] | None
    max_peak: tuple[int, int] | None


# ---------------------------------------------------------------------------
# Walkers


def _walk_lanes(lo: int, hi: int, stop: int | None, budget: int, cutoff: int):
    """Walk every start in [lo, hi] in int64 lockstep, one col-step per
    round, until it drops strictly below stop (below its own start when
    stop is None) or has taken budget steps. When hi is beyond
    _RANGE_LIMIT, every start goes to _exact_walk instead.

    Returns (landing, steps, peak, crossed, exact). The arrays are
    indexed by x - lo: landing is -1 where the budget ran out, and
    crossed marks orbits that went below cutoff. A lane whose next 3x+1
    would leave int64 is finished by _exact_walk instead; exact maps its
    start to that result, and its array slots keep their initial values.
    """
    n = hi - lo + 1
    landing = np.full(n, -1, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    peak = np.zeros(n, dtype=np.int64)
    crossed = np.zeros(n, dtype=bool)
    exact: dict[int, tuple[int, int, int, bool]] = {}
    if hi > _RANGE_LIMIT:
        for x in range(lo, hi + 1):
            exact[x] = _exact_walk(x, x if stop is None else stop, 0, x, budget, cutoff, False)
        return landing, steps, peak, crossed, exact
    x0 = np.arange(lo, hi + 1, dtype=np.int64)
    cur = x0.copy()
    pk = x0.copy()
    # Carried only when there is a cutoff, sparing the table build its upkeep.
    cr = np.zeros(n, dtype=bool) if cutoff > 1 else None
    r = 0
    while x0.size:
        done = cur < (x0 if stop is None else stop)
        if done.any():
            d = x0[done]
            d -= lo
            landing[d] = cur[done]
            steps[d] = r
            peak[d] = pk[done]
            keep = ~done
            x0, cur, pk = x0[keep], cur[keep], pk[keep]
            if cr is not None:
                crossed[d] = cr[done]
                cr = cr[keep]
        if r >= budget:
            if cr is not None:
                crossed[x0 - lo] = cr
            break
        odd = (cur & 1).astype(bool)
        risky = odd & (cur > _VALUE_LIMIT)
        if risky.any():
            for j in np.nonzero(risky)[0]:
                x = int(x0[j])
                exact[x] = _exact_walk(
                    int(cur[j]), x if stop is None else stop, r, int(pk[j]),
                    budget, cutoff, cr is not None and bool(cr[j]),
                )
            keep = ~risky
            x0, cur, pk, odd = x0[keep], cur[keep], pk[keep], odd[keep]
            if cr is not None:
                cr = cr[keep]
        # 3*cur+1 wraps harmlessly on large even lanes; where() discards it.
        cur = np.where(odd, 3 * cur + 1, cur >> 1)
        r += 1
        np.maximum(pk, cur, out=pk)
        if cr is not None:
            cr |= cur < cutoff
    return landing, steps, peak, crossed, exact


def _exact_walk(c: int, stop: int, r: int, p: int, budget: int, cutoff: int, crossed: bool):
    """Continue one lane with exact integers from value c, r steps taken
    and peak p, under the rules of _walk_lanes. Returns (landing, steps,
    peak, crossed), landing -1 if the budget ran out."""
    while c >= stop:
        if r >= budget:
            return -1, r, p, crossed
        c = c // 2 if c % 2 == 0 else 3 * c + 1
        r += 1
        if c > p:
            p = c
        if c < cutoff:
            crossed = True
    return c, r, p, crossed


# ---------------------------------------------------------------------------
# Dense memo table


def _build_cache(cache_len: int, step_budget: int):
    """Exact (total steps to 1, orbit peak) for every x in [1, cache_len).

    Phase one walks every entry until it drops strictly below its own
    start, recording the glide's landing, length and peak. Phase two
    contracts glide chains by pointer doubling, so the whole table costs
    O(n log n) array operations. Entries that exhaust the budget keep
    the sentinel -1 for steps and 0 for peak.
    """
    landing, glide_steps, glide_peak, _, exact = _walk_lanes(2, cache_len - 1, None, step_budget, 1)
    # Entry 0 never resolves; entry 1 is its own landing.
    t = np.concatenate(([-1, 1], landing))
    ts = np.concatenate(([0, 0], glide_steps))
    tp = np.concatenate(([0, 1], glide_peak))
    del landing, glide_steps, glide_peak  # lowers the build's peak memory
    for v, (land, s, p, _) in exact.items():
        # The size cap keeps p within int64; numpy raises if it is not.
        t[v], ts[v], tp[v] = land, s, p

    # Pointer doubling: (ts, tp) always describe the path from v to
    # t[v]; each pass composes every live chain with its target's chain
    # simultaneously. Gathers happen before scatters, so a pass is a
    # true parallel jump. Chains ending at 1 or -1 are done.
    lv = np.flatnonzero(t > 1)
    while lv.size:
        tv = t[lv]
        nt, add_s, add_p = t[tv], ts[tv], tp[tv]
        ts[lv] = ts[lv] + add_s
        tp[lv] = np.maximum(tp[lv], add_p)
        t[lv] = nt
        lv = np.flatnonzero(t > 1)

    ok = t == 1
    return np.where(ok, ts, -1), np.where(ok, tp, 0)


_cache_slot: tuple | None = None


def _cache_for(cache_len: int, step_budget: int):
    """Single-slot memo so repeated sweeps in one process reuse the
    table instead of rebuilding it."""
    global _cache_slot
    key = (cache_len, step_budget)
    if _cache_slot is None or _cache_slot[0] != key:
        _cache_slot = (key, _build_cache(cache_len, step_budget))
    return _cache_slot[1]


# ---------------------------------------------------------------------------
# Chunk sweeps


def _sweep_chunk(lo, hi, budget, cutoff, cache_steps, cache_peak):
    """Classify every x in [lo, hi] against the memo table."""
    landing, steps, peak, crossed, exact = _walk_lanes(lo, hi, len(cache_steps), budget, cutoff)
    # One reduction for both kinds of result. A lane is verified when it
    # landed on a resolved table entry, certified by the cutoff alone
    # when it crossed the cutoff, and unresolved otherwise. Lanes are
    # offsets from lo, which fit int64 whatever lo is; the slots of exact
    # lanes are never written, so only vec is needed to skip them.
    vec = np.ones(hi - lo + 1, dtype=bool)
    vec[[x - lo for x in exact]] = False
    # A landing of -1 indexes the last entry; where() discards it.
    tail = np.where(landing >= 0, cache_steps[landing], -1)
    ok = tail >= 0
    certified = ok | crossed
    verified = int(np.count_nonzero(certified))
    unresolved = [lo + j for j in np.flatnonzero(~certified & vec).tolist()]
    steps_cands = []
    peak_cands = []
    if ok.any():
        # argmax keeps the first, so the smallest x among ties.
        total = np.where(ok, steps + tail, -1)
        j = int(np.argmax(total))
        steps_cands.append((int(total[j]), lo + j))
        top = np.where(ok, np.maximum(peak, cache_peak[landing]), -1)
        j = int(np.argmax(top))
        peak_cands.append((int(top[j]), lo + j))
    for x, (land, s, p, cr) in exact.items():
        cs = int(cache_steps[land]) if land >= 0 else -1
        if cs >= 0:
            steps_cands.append((s + cs, x))
            peak_cands.append((max(p, int(cache_peak[land])), x))
        elif not cr:
            unresolved.append(x)
            continue
        verified += 1
    return _ChunkStats(verified, sorted(unresolved), _best(steps_cands), _best(peak_cands))


# ---------------------------------------------------------------------------
# Drivers

_worker_table: tuple | None = None


def _worker_init(cache_steps, cache_peak):
    """Pool initializer: keep the table the parent handed over, so no
    start method makes a worker rebuild it."""
    global _worker_table
    _worker_table = (cache_steps, cache_peak)


def _worker_sweep(args):
    return _sweep_chunk(*args, *_worker_table)


def verify_range(config: VerifyConfig) -> VerifyReport:
    """Classify every x in [range_lo, range_hi] and aggregate statistics.

    Certification means the trajectory reached 1 or dropped strictly
    below assume_verified_below. Record statistics are taken only over
    trajectories resolved exactly, so they are identical regardless of
    chunking or worker count.
    """
    cfg = config.validated()
    t0 = time.perf_counter()
    cache_len = max(2, min(cfg.dense_cache_entries, cfg.range_hi + 1))
    table = _cache_for(cache_len, cfg.step_budget)

    jobs = [
        (lo, min(lo + cfg.chunk_size - 1, cfg.range_hi), cfg.step_budget, cfg.assume_verified_below)
        for lo in range(cfg.range_lo, cfg.range_hi + 1, cfg.chunk_size)
    ]
    workers = min(cfg.resolved_worker_count, len(jobs))
    if workers <= 1:
        parts = [_sweep_chunk(*job, *table) for job in jobs]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=table
        ) as pool:
            parts = list(pool.map(_worker_sweep, jobs))

    verified = sum(p.verified for p in parts)
    unresolved: list[int] = []
    for p in parts:
        unresolved.extend(p.unresolved)
    max_steps = _best(p.max_steps for p in parts if p.max_steps is not None)
    max_peak = _best(p.max_peak for p in parts if p.max_peak is not None)

    loops: list[ClosedLoop] = []
    seen = set()
    for u in unresolved:
        loop = find_cycle(u, MapVariant.STANDARD, cfg.step_budget)
        if loop is not None and loop.values != _TRIVIAL_LOOP and loop.values not in seen:
            seen.add(loop.values)
            loops.append(loop)
    loops.sort(key=lambda c: (c.period, c.values))

    wall = time.perf_counter() - t0
    covered = cfg.range_hi - cfg.range_lo + 1
    return VerifyReport(
        segments=((cfg.range_lo, cfg.range_hi),),
        verified_count=verified,
        unresolved=tuple(unresolved),
        cycles_found=tuple(loops),
        max_total_stopping_time=RecordStat(*max_steps) if max_steps else None,
        max_excursion=RecordStat(*max_peak) if max_peak else None,
        wall_time=wall,
        throughput=covered / wall if wall > 0 else float(covered),
    )


def merge_reports(a: VerifyReport, b: VerifyReport) -> VerifyReport:
    """Combine reports over disjoint ranges; adjacent segments coalesce.

    The merge is associative and commutative on every field except the
    timing pair, where wall times add and throughput is recomputed.
    """
    segs = sorted(a.segments + b.segments)
    for (lo1, hi1), (lo2, hi2) in zip(segs, segs[1:]):
        if lo2 <= hi1:
            raise ValueError(f"overlapping ranges: [{lo1}, {hi1}] and [{lo2}, {hi2}]")
    coalesced: list[tuple[int, int]] = []
    for lo, hi in segs:
        if coalesced and lo == coalesced[-1][1] + 1:
            coalesced[-1] = (coalesced[-1][0], hi)
        else:
            coalesced.append((lo, hi))

    seen = set()
    loops = []
    for loop in a.cycles_found + b.cycles_found:
        if loop.values not in seen:
            seen.add(loop.values)
            loops.append(loop)
    loops.sort(key=lambda c: (c.period, c.values))

    stats = []
    for x, y in ((a.max_total_stopping_time, b.max_total_stopping_time),
                 (a.max_excursion, b.max_excursion)):
        cands = [(s.value, s.argmax) for s in (x, y) if s is not None]
        best = _best(cands)
        stats.append(RecordStat(*best) if best else None)

    wall = a.wall_time + b.wall_time
    covered = sum(hi - lo + 1 for lo, hi in coalesced)
    return VerifyReport(
        segments=tuple(coalesced),
        verified_count=a.verified_count + b.verified_count,
        unresolved=tuple(sorted(a.unresolved + b.unresolved)),
        cycles_found=tuple(loops),
        max_total_stopping_time=stats[0],
        max_excursion=stats[1],
        wall_time=wall,
        throughput=covered / wall if wall > 0 else float(covered),
    )
