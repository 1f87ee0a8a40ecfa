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
verifiers do (Oliveira e Silva 2010; Barina 2021), as are peaks past
int64, in two rows by lane. Values too large for the limbs, and starts
among them, walk in the package's one exact big-integer walker,
dynamics._descend, until they fit again, and only peaks from 2^95 on
are Python ints, so correctness never depends on fixed-width integers.

Starts 2^k·a + j whose residues j share a block map land on one value
after the same steps of T; only 1,535 of the 4,096 maps mod 2^12 are
distinct. So in every slice below _WIDE_LIMIT, each start from the
table's size on takes its first block in one pass, in int64 or in
limbs, and only the smallest of each class in a 2^k-aligned block, at
or above the table and the slice's start, walks on. Convergence-only
verifiers drop the rest (Barina 2021); here each takes that walk's
landing, steps and later peak, so results stay exact.

Each thread walks in its own workspace: fixed int64 and bool rows of
2^16 lanes, made on its first walk, that hold the lanes, a spare of
each for compaction, the outputs and every temporary. numpy writes
into them through out= arguments and np.take(..., mode="wrap"), so a
warm sweep allocates no lane arrays, and its speed does not depend on
how the C allocator is tuned. Chunks and table blocks longer than that
are walked in 2^16-lane slices, so memory does not grow with either:
building the 2^20-entry table peaks about 28 MB above the import, 16
MB of it the table, where one 2^19-lane walk of its last block took
58 MB.

A multi-worker sweep hands its chunks to one worker pool per process,
kept across sweeps; its workers receive the table once, when they
start, and each walks in a workspace of its own. The pool belongs to
the table's memo slot: replacing the table shuts it down, and so does
a sweep with another worker count or start method, before the new
pool starts. One lock covers replacing the table and each multi-worker
sweep, and a sweep at one worker walks the table it obtained, so no
sweep's payload depends on what other threads sweep. Each chunk's
report is merged by merge_reports, which makes reports independent of
chunk size and worker count.

An optional cutoff (assume_verified_below) certifies every start whose
orbit drops strictly below already-verified territory within budget;
an exact walk decides this for each start that the lanes, which still
walk down to the table and so are sieved whatever the cutoff, leave
unresolved. Record statistics still come only from exactly resolved
trajectories, so the cutoff changes what is certified, never what is
measured.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
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
_WIDE_PARKED = (None, -1, _LOW, None, None, _PARKED)  # (j, h, l, ph, pl, rj), at -1
# Most lanes in one walk: _resolve walks a longer chunk, and the table
# build each block, in slices of this many lanes.
_SLICE = 1 << 16
_PIECE = 1 << 13  # lanes per flatnonzero call, 64 KB of indices

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
def _block_table(k: int) -> tuple:
    """Level k of dynamics._block_levels, the k-step block map, as int64
    columns (mult, off, steps, peak_mult, peak_off), each indexed by
    residue mod 2^k; no Python rows stay behind."""
    for level in _block_levels(k):
        pass
    return tuple(np.array(c, dtype=np.int64) for c in zip(*level))


@functools.cache
def _canon(k: int):
    """For each residue j mod 2^k, the smallest residue with the same
    (mult, off, steps) in _block_table(k), as int64: 2^k·a + j and its
    representative land on one value after their first k-step block."""
    first: dict = {}
    rows = zip(*(c.tolist() for c in _block_table(k)[:3]))
    return np.array([first.setdefault(row, j) for j, row in enumerate(rows)], dtype=np.int64)


def _reps(lo: int, n: int, floor: int, k: int, rep):
    """Into rep, for each of the n consecutive starts from lo, the lane of
    its representative by _canon(k) in its 2^k-aligned block, or its own
    where that lies before lane floor; scratch: ws.t[0] and ws.b[0]."""
    ws, mask = _local, (1 << k) - 1
    j = np.bitwise_and(np.add(ws.iota[:n], lo & mask, out=ws.t[0, :n]), mask, out=ws.t[0, :n])
    np.add(np.subtract(_take(_canon(k), j, rep), j, out=rep), ws.iota[:n], out=rep)
    head = rep[:floor + mask + 1]
    np.putmask(head, np.less(head, floor, out=ws.b[0, :head.size]), ws.iota[:n])
    return rep


def _take(col, j, out):
    """col[j] into out. numpy writes out directly under "wrap", but copies
    it under the default "raise"; -1 still reads the last entry."""
    return col.take(j, out=out, mode="wrap")


def _nonzero(mask, out):
    """The positions of mask's True entries. Past _PIECE of them they are
    found piece by piece into out, so no temporary reaches 128 KB, the C
    allocator's default mmap threshold."""
    if np.count_nonzero(mask) <= _PIECE:
        return np.flatnonzero(mask)
    c = 0
    for s in range(0, mask.size, _PIECE):
        piece = np.flatnonzero(mask[s:s + _PIECE])
        c += np.add(piece, s, out=out[c:c + piece.size]).size
    return out[:c]


_local = threading.local()


def _workspace(n: int):
    """This thread's lane buffers, made on its first walk and reused by
    every walk after it: int64 and bool rows of at least n lanes. Views
    [:n] of them hold the lanes, outputs and temporaries of _walk_lanes
    and _resolve, so a walk allocates no lane arrays, and threads that
    sweep at once share none."""
    ws = _local
    if getattr(ws, "size", 0) < n:
        ws.size = max(n, _SLICE)
        i, ws.b = np.empty((32, ws.size), dtype=np.int64), np.empty((2, ws.size), dtype=bool)
        ws.out, ws.t, ws.idx, ws.iota = i[0:3], i[3:9], i[9], np.arange(ws.size)
        ws.ints, ws.wide = (i[10:14], i[14:18]), (i[18:24], i[24:30])  # (rows, spares)
        # Apart from i, whose huge pages would make them resident in sweeps that never use them.
        ws.sieve, ws.peaks = i[30:32], np.empty((2, ws.size), dtype=np.int64)
    ws.big = False  # whether this walk uses ws.peaks; see _big_rows
    return ws


def _big_rows(ws):
    """This walk's rows (h, l) of peaks h·2^32 + l past int64 by lane, where
    h >= 2^31; zeroed on first use, so walks with no such peak skip them."""
    if not ws.big:
        ws.big = True
        ws.peaks.fill(0)
    return ws.peaks


class _Lanes:
    """Lanes as columns, views [:size] of workspace rows with a spare
    row each, the step count r last. retire(done, put) hands the lanes
    where done to put(d, *columns), d their positions, and parks them
    at parked (None leaves a column), a fixed point of every block with
    r negative for longer than any walk. Once fewer than half are live,
    the rest move, in order, to the spare rows, which swap in."""

    def __init__(self, ws, rows: tuple, size: int, parked: tuple):
        self.ws, (self.rows, self.spares), self.parked = ws, rows, parked
        self.size = self.live = size

    def cols(self) -> list:
        return [row[:self.size] for row in self.rows]

    def retire(self, done, put) -> None:
        d, cols = _nonzero(done, self.ws.idx), self.cols()
        if not d.size:
            return
        put(d, *cols)
        for col, v in zip(cols, self.parked):
            if v is not None:
                col[d] = v
        self.live -= d.size
        if 2 * self.live < self.size:
            self.keep(_nonzero(np.greater_equal(cols[-1], 0, out=self.ws.b[0, :self.size]), self.ws.idx))

    def keep(self, keep) -> None:
        for col, spare in zip(self.cols(), self.spares):
            _take(col, keep, spare[:keep.size])
        self.rows, self.spares, self.size = self.spares, self.rows, keep.size
        self.live = keep.size


def _advance(table: tuple, k: int, cur, r, pk, t) -> None:
    """Take one k-step block on every lane, in place; t is scratch."""
    mult, off, steps, peak_m, peak_e = table
    j, x, y = t[:3]
    np.bitwise_and(cur, (1 << k) - 1, out=j)
    cur >>= k  # a, where each lane was 2^k·a + j
    np.multiply(_take(peak_m, j, x), cur, out=x)
    np.maximum(pk, np.add(x, _take(peak_e, j, y), out=x), out=pk)
    r += _take(steps, j, x)
    cur *= _take(mult, j, x)
    cur += _take(off, j, x)


def _advance_wide(table: tuple, k: int, h, l, r, ph, pl, t, b) -> None:
    """Take one k-step block on every lane h·2^32 + l, in place, with r
    and the peak limbs (ph, pl); t and b are scratch."""
    mult, off, steps, peak_m, peak_e = table
    j, ah, al, x, y, z = t
    np.bitwise_and(l, (1 << k) - 1, out=j)
    np.right_shift(h, k, out=ah)
    np.left_shift(np.bitwise_and(h, (1 << k) - 1, out=al), 32 - k, out=al)
    al |= np.right_shift(l, k, out=z)

    def block(m_col, e_col, hi, lo):  # hi·2^32 + lo = m·a + e
        m = _take(m_col, j, hi)
        np.add(np.multiply(m, al, out=lo), _take(e_col, j, z), out=lo)
        hi *= ah
        hi += np.right_shift(lo, 32, out=z)
        lo &= _LOW

    block(peak_m, peak_e, x, y)
    _raise(ph, pl, x, y, b)
    r += _take(steps, j, x)
    block(mult, off, h, l)


def _raise(h, l, x, y, b) -> None:
    """(h, l) = max((h, l), (x, y)) lane by lane, in place; b is two bool rows."""
    up, tie = b
    np.logical_and(np.equal(x, h, out=tie), np.greater(y, l, out=up), out=tie)
    np.putmask(h, np.logical_or(np.greater(x, h, out=up), tie, out=up), x)
    np.putmask(l, up, y)


def _exactly(exact: dict, i: int, c: int, s: int, p: int, budget: int):
    """(value, steps, limb peak) of lane i, at c after s steps with limb
    peak p, after an exact walk in blocks back below _WIDE_LIMIT and on
    to half of it. A peak past the limbs, from 2^95, goes to exact; past
    budget the value is -1 and the steps budget + 1, which reads as parked."""
    c, s, q = _descend(c, _WIDE_LIMIT >> 1, s, max(c, p, exact.get(i, 0)), budget, _WIDE_LIMIT)
    if q >> 95:
        exact[i], q = q, p
    return c, s if c >= 0 else budget + 1, q


def _walk_wide(ws, ints: _Lanes, wide: _Lanes, table: tuple, k: int, budget: int, exact: dict) -> None:
    """Wide rounds on the lanes wide (j, h, l, ph, pl, rj), each the lane
    at position j of ints, which waits meanwhile, at h·2^32 + l after rj
    steps with peak ph·2^32 + pl, until each is back at or below
    _BLOCK_LIMIT, or over budget (at -1), and so back in ints. Values
    from _WIDE_LIMIT on walk exactly first; peaks past int64 go to _big_rows."""
    lane, cur, pk, r = ints.cols()
    j, h, l, ph, pl, rj = wide.cols()

    def put(d, j, h, l, ph, pl, rj):
        jd, x, y, z, u, v = ws.t[:, :d.size]
        r[_take(j, d, jd)] = _take(rj, d, x)
        over = np.greater(x, budget, out=ws.b[1, :d.size])
        np.left_shift(_take(h, d, x), 32, out=x)
        x |= _take(l, d, y)
        np.putmask(x, over, -1)
        cur[jd] = x
        hp, lp = _take(ph, d, x), _take(pl, d, y)
        big = np.greater_equal(hp, 1 << 31, out=ws.b[1, :d.size])
        np.bitwise_or(np.left_shift(hp, 32, out=z), lp, out=z)
        np.putmask(z, big, _take(pk, jd, u))
        pk[jd] = z
        if big.any():  # each lane's row keeps the largest peak of its wide walks
            (bh, bl), ids = _big_rows(ws), _take(lane, jd, z)
            u, v = _take(bh, ids, u), _take(bl, ids, v)
            _raise(u, v, hp, lp, ws.b[:, :d.size])
            bh[ids], bl[ids] = u, v

    back = _BLOCK_LIMIT + 1
    while wide.live:
        if h.max() >= _WIDE_LIMIT >> 32:  # from _WIDE_LIMIT, whose low limb is 0, on
            for q in np.flatnonzero(h >= _WIDE_LIMIT >> 32).tolist():
                c, p = int(h[q]) << 32 | int(l[q]), int(ph[q]) << 32 | int(pl[q])
                c, rj[q], p = _exactly(exact, int(lane[j[q]]), c, int(rj[q]), p, budget)
                h[q], l[q], ph[q], pl[q] = c >> 32, c & _LOW, p >> 32, p & _LOW
        # Back at or below _BLOCK_LIMIT, or over budget; parked h reads 2^64 - 1.
        (done, tmp), hu = ws.b[:, :wide.size], h.view(np.uint64)
        np.logical_and(np.less(l, back & _LOW, out=done), np.equal(hu, back >> 32, out=tmp), out=done)
        np.logical_or(done, np.less(hu, back >> 32, out=tmp), out=done)
        wide.retire(np.logical_or(done, np.greater(rj, budget, out=tmp), out=done), put)
        j, h, l, ph, pl, rj = wide.cols()
        _advance_wide(table, k, h, l, rj, ph, pl, ws.t[:, :wide.size], ws.b[:, :wide.size])


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
    _descend. Each round retires and parks the lanes just finished.
    A slice with a start from stop on and none from _WIDE_LIMIT on is
    sieved: every start from stop takes its first block at once, in
    int64 up to _BLOCK_LIMIT and in limbs past it, and only its
    representative, from _canon(k), walks on, unless that lies before lo
    or stop and so stands for itself alone; the start then takes its
    landing and steps, and as peak the larger of its own first-block
    peak and the peak of the representative's walk after that block.

    Returns (landing, steps, peak, limbs, exact), indexed by x - lo:
    landing is -1 where the budget ran out; limbs is None or _big_rows,
    which hold the peaks past int64; exact holds those from 2^95 on,
    which outrank both. The arrays are views of this thread's
    workspace, valid until its next walk.
    """
    n = hi - lo + 1
    ws = _workspace(n)
    landing, steps, peak = ws.out[:, :n]
    exact: dict[int, int] = {}
    k = max(1, min(K, stop.bit_length() - 2))
    table, back = _block_table(k), _BLOCK_LIMIT + 1  # read per call, so patches apply
    ints = _Lanes(ws, ws.ints, n, (None, -1, None, _PARKED))
    lane, cur, pk, r = ints.cols()
    lane[:], r[:] = ws.iota[:n], 0
    m = min(n, max(0, back - lo))  # the starts after these begin wide
    np.add(lane[:m], min(lo, back), out=cur[:m])
    wide = _Lanes(ws, ws.wide, n - m, _WIDE_PARKED)  # their limbs, after an exact prefix from _WIDE_LIMIT
    j, h, l, ph, pl, rj = wide.cols()
    j[:], base = lane[m:], min(lo + m, _WIDE_LIMIT)
    np.add(ws.iota[:n - m], base & _LOW, out=l)
    np.add(np.right_shift(l, 32, out=h), base >> 32, out=h)
    l &= _LOW
    ph[:], pl[:], rj[:] = h, l, 0
    for q in range(max(0, _WIDE_LIMIT - lo - m), n - m):
        c, rj[q], p = _exactly(exact, m + q, lo + m + q, 0, 0, budget)
        h[q], l[q], ph[q], pl[q] = c >> 32, c & _LOW, p >> 32, p & _LOW
    sieve, floor = stop <= hi < _WIDE_LIMIT, max(lo, stop) - lo
    if sieve:
        rep, first = ws.sieve[:, :n]
        keep = _nonzero(np.equal(_reps(lo, n, floor, k, rep), lane, out=ws.b[0, :n]), ws.idx)
        first[:m], s = cur[:m], min(floor, m)
        _advance(table, k, cur[s:m], r[s:m], first[s:m], ws.t[:, :m - s])
        ints.keep(keep)
        if m < n:  # the limbs' first-block peaks take their rows from rep
            _advance_wide(table, k, h, l, rj, ph, pl, ws.t[:, :n - m], ws.b[:, :n - m])
            rep[m:], first[m:] = ph, pl
            ph[:], pl[:] = h, l  # the representatives' later peaks start from their landing
            c = int(np.searchsorted(keep, m))  # the kept int64 starts; the wide ones follow
            wide.keep(np.subtract(keep[c:], m, out=keep[c:]))
            wide.cols()[0][:] = ws.iota[c:keep.size]
        lane, cur, pk, r = ints.cols()
    pk[:] = cur

    def put(d, lane, cur, pk, r):
        ids, x = ws.t[:2, :d.size]
        steps[_take(lane, d, ids)] = _take(r, d, x)
        over = np.greater(x, budget, out=ws.b[1, :d.size])  # more than budget steps to 1
        np.putmask(_take(cur, d, x), over, -1)
        landing[ids] = x
        peak[ids] = _take(pk, d, x)

    if m < n:
        _walk_wide(ws, ints, wide, table, k, budget, exact)
        lane, cur, pk, r = ints.cols()
    while ints.live:
        b0, b1 = ws.b[:, :ints.size]
        done = np.less(cur.view(np.uint64), stop, out=b0)  # parked: 2^64 - 1
        ints.retire(np.logical_or(done, np.greater(r, budget, out=b1), out=b0), put)
        lane, cur, pk, r = ints.cols()
        if cur.max(initial=0) < back:
            _advance(table, k, cur, r, pk, ws.t[:, :ints.size])
        else:
            w = _nonzero(np.greater_equal(cur, back, out=ws.b[0, :ints.size]), ws.idx)
            wide = _Lanes(ws, ws.wide, w.size, _WIDE_PARKED)
            j, h, l, ph, pl, rj = wide.cols()
            j[:] = w
            _take(r, w, rj)
            for src, hi_limb, lo_limb in ((cur, h, l), (pk, ph, pl)):
                np.right_shift(_take(src, w, lo_limb), 32, out=hi_limb)
                lo_limb &= _LOW
            _walk_wide(ws, ints, wide, table, k, budget, exact)
    if sieve:  # each start takes its representative's walk and its own first-block peak
        fh, first = ws.sieve[:, :n]
        rep = fh if m == n else _reps(lo, n, floor, k, ws.t[1, :n])
        for col in (landing, steps, peak, *(ws.peaks[:, :n] if ws.big else ())):
            col[:] = _take(col, rep, ws.t[0, :n])
        if m < n:  # first-block peaks in limbs: those past int64 go to the rows
            _raise(*_big_rows(ws)[:, m:n], fh[m:], first[m:], ws.b[:, :n - m])
            np.bitwise_or(np.left_shift(fh[m:], 32, out=fh[m:]), first[m:], out=first[m:])
        np.maximum(peak, first, out=peak)  # wrong only where the rows hold the peak
        for e, p in list(exact.items()):  # e stands only for starts of its own 2^k-aligned block
            stood = np.flatnonzero(rep[e:e + (1 << k)] == e) + e
            exact.update(dict.fromkeys(stood.tolist(), p))
    return landing, steps, peak, ws.peaks[:, :n] if ws.big else None, exact


def _resolve(lo: int, hi: int, table: tuple, budget: int, cutoff: int):
    """Resolve every start in [lo, hi] against table = (steps, peak)
    over [0, len): walk it until it drops below len, then add the entry
    it landed on. A start is resolved when its total steps to 1 are at
    most budget col-steps.

    Yields, for each slice of at most _SLICE starts from s, in order,
    (s, total, top, missed, big): total steps and orbit peak, -1 unless
    resolved, and whether a start is neither resolved nor dropped below
    cutoff within budget, indexed by x - s, all views of this thread's
    workspace valid until the next slice; and big, the largest
    (peak, x - s) among resolved lanes whose peak does not fit int64,
    the smallest x among ties, or None. It outranks every peak in top.
    Peaks in exact outrank those in the limb rows, compared high limb first.
    """
    cache_steps, cache_peak = table
    for s in range(lo, hi + 1, _SLICE):
        landing, total, top, limbs, exact = _walk_lanes(s, min(s + _SLICE - 1, hi), len(cache_steps), budget)
        ws, n = _local, landing.size
        tail, (ok, missed) = ws.t[0, :n], ws.b[:, :n]
        # A landing of -1 reads the last entry, but its steps are already
        # over budget, so ok drops it.
        total += _take(cache_steps, landing, tail)
        np.logical_and(np.greater_equal(tail, 0, out=ok), np.less_equal(total, budget, out=missed), out=ok)
        np.maximum(top, _take(cache_peak, landing, tail), out=top)
        big = max(((p, -j) for j, p in exact.items() if ok[j]), default=None)
        if big is None and limbs is not None and (a := int(np.multiply(limbs[0], ok, out=tail).max())) >> 31:
            at = _nonzero(np.equal(tail, a, out=missed), ws.idx)
            q = int(at[np.argmax(_take(limbs[1], at, ws.t[1, :at.size]))])
            big = (a << 32 | int(limbs[1][q]), -q)
        np.putmask(total, np.logical_not(ok, out=missed), -1)
        np.putmask(top, missed, -1)
        if cutoff > 1:
            # Each start the table did not resolve is walked exactly toward
            # the cutoff; at the default budget there are almost none.
            for j in _nonzero(missed, ws.idx).tolist():
                missed[j] = _descend(s + j, cutoff - 1, 0, s + j, budget)[0] < 0
        yield s, total, top, missed, None if big is None else (big[0], -big[1])


# ---------------------------------------------------------------------------
# Dense memo table


def _build_cache(cache_len: int, step_budget: int):
    """Exact (total steps to 1, orbit peak) for every x in [0, cache_len),
    -1 in both where x does not reach 1 within step_budget col-steps.
    Blocks [n, 2n) of doubling size, from [2, 4), are each resolved
    against the part [0, n) built so far, by the same rule as a chunk,
    in slices of at most _SLICE lanes.
    """
    steps = np.full(cache_len, -1, dtype=np.int64)
    peak = np.full(cache_len, -1, dtype=np.int64)
    steps[1], peak[1] = 0, 1
    n = 2
    while n < cache_len:
        hi = min(2 * n, cache_len) - 1
        # The size cap keeps every peak within int64, so none is in big.
        for s, total, top, _, _ in _resolve(n, hi, (steps[:n], peak[:n]), step_budget, 1):
            steps[s:s + total.size], peak[s:s + top.size] = total, top
        n = hi + 1
    return steps, peak


# ((cache_len, step_budget), (cache_steps, cache_peak)): the parent's
# memo, and in each pool worker the parent's table installed at start-up.
_cache_slot: tuple | None = None
# (worker count, start method, owner pid, executor): the parent's pool,
# whose workers hold the table of _cache_slot. A process forked from the
# owner inherits the tuple but not the pool's threads or workers.
_pool: tuple | None = None
# Held while the table is replaced and through each pooled sweep; new in a forked child.
_lock = threading.Lock()
os.register_at_fork(after_in_child=lambda: globals().update(_lock=threading.Lock()))


def _install_table(slot: tuple) -> None:
    """Pool initializer: keep the table the parent handed over, so no
    start method makes a worker rebuild it. A worker gets it once and
    keeps it for the pool's life, which ends before the parent's table
    is replaced."""
    global _cache_slot
    _cache_slot = slot


def _cache_for(cache_len: int, step_budget: int) -> tuple:
    """The table (cache_steps, cache_peak), from a single-slot memo so
    repeated sweeps in one process reuse it instead of rebuilding it.
    Replacing the table first shuts down the pool, whose workers and
    initializer arguments hold the old one. The caller holds _lock."""
    key = (cache_len, step_budget)
    if _cache_slot is None or _cache_slot[0] != key:
        _drop_pool()
        _install_table((key, _build_cache(cache_len, step_budget)))
    return _cache_slot[1]


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
    interpreter exits. At most 2·workers + 1 jobs, what its workers and
    call queue hold, are in the pool at once, so only those may still
    run when the call ends early, by an error or an interrupt. A sweep
    at one worker does not import multiprocessing or concurrent.futures."""
    global _pool
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    key = (workers, multiprocessing.get_start_method(), os.getpid())
    if _pool is None or _pool[:3] != key or _pool[3]._broken:
        _drop_pool()
        _pool = (*key, ProcessPoolExecutor(workers, initializer=_install_table, initargs=(_cache_slot,)))
    pool = _pool[3]
    futures, live = [], set()
    try:
        for job in jobs:
            if len(live) > 2 * workers:
                live = wait(live, return_when=FIRST_COMPLETED).not_done
            futures.append(pool.submit(_sweep_chunk, job))
            live.add(futures[-1])
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()  # a no-op once a job has started


# ---------------------------------------------------------------------------
# Chunk sweeps


def _sweep_chunk(job: tuple[int, int, int, int], table: tuple | None = None) -> VerifyReport:
    """Classify every x in [lo, hi] against table, or in a pool worker the
    installed one, and report on the chunk alone, cycle search included."""
    lo, hi, budget, cutoff = job
    unresolved, steps_cands, peak_cands = [], [], []
    for s, total, top, missed, big in _resolve(lo, hi, table or _cache_slot[1], budget, cutoff):
        # A start is verified when resolved or certified by the cutoff
        # alone, and unresolved otherwise. Lanes are offsets from s,
        # which fit int64 whatever s is.
        unresolved += [s + j for j in np.flatnonzero(missed).tolist()]
        # argmax keeps the first, so the smallest x among ties; -1 means none.
        j, k = int(np.argmax(total)), int(np.argmax(top))
        steps_cands.append((int(total[j]), s + j))
        # A peak past int64 outranks every peak in top.
        p, k = big or (int(top[k]), k)
        peak_cands.append((p, s + k))
    # An unresolved start does not reach 1 within budget, so find_cycle's
    # walk toward 1 would only fail; Brent's walk alone finds its loop.
    outcomes = (_brent_walk(u, MapVariant.STANDARD, budget, None, False).outcome for u in unresolved)
    return VerifyReport(
        segments=((lo, hi),),
        verified_count=hi - lo + 1 - len(unresolved),
        unresolved=tuple(unresolved),
        cycles_found=_distinct_loops(o.loop for o in outcomes if isinstance(o, EntersCycle)),
        max_total_stopping_time=_best(c for c in steps_cands if c[0] >= 0),
        max_excursion=_best(c for c in peak_cands if c[0] >= 0),
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
    jobs = [
        (lo, min(lo + cfg.chunk_size - 1, cfg.range_hi), cfg.step_budget, cfg.assume_verified_below)
        for lo in range(cfg.range_lo, cfg.range_hi + 1, cfg.chunk_size)
    ]
    workers = min(cfg.resolved_worker_count, len(jobs))
    with _lock:  # a pool's workers hold the table, so a pooled sweep keeps the lock
        table = _cache_for(cache_len, cfg.step_budget)
        parts = _sweep_pooled(workers, jobs) if workers > 1 else None
    if parts is None:  # in this thread, on the table it obtained
        parts = [_sweep_chunk(job, table) for job in jobs]
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
