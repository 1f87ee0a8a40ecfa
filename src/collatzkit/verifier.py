"""Bulk convergence verification over integer ranges.

The sweep rests on a dense memo table over a prefix [0, cache_len)
holding the exact total stopping time and orbit peak of every entry
that reaches 1 within the step budget, which counts total col-steps as
total_stopping_time does; -1 marks the rest. One rule resolves table
entries and sweep starts alike: walk the start until its orbit drops
below the table, then add the entry it landed on. The table is built
by that rule in blocks of doubling size from [2, 4), each against the
part already built; a sweep inside the table only reads it.

One lane kernel does every vectorized walk. Each round it moves a lane
by the affine block map of k steps of T (x/2, or (3x+1)/2 on odd x) for
its residue mod 2^k, the parity-vector form of Terras (1976), with k up
to K = 12; the map, with each block's step count and exact peak, is
dynamics._block_levels, held here as int64 columns. k is cut to the table's
size so that no block passes through 1. Lanes too large for int64 blocks
take the same blocks, in the same rounds, in two int64 limbs, as
fixed-width multi-word verifiers do (Oliveira e Silva 2010; Barina
2021), as are peaks past int64, in two rows by lane. Values too large
for the limbs, and starts among them, walk in the package's one exact
big-integer walker, dynamics._descend, until they fit again, and only
peaks from 2^95 on are Python ints, so correctness never depends on
fixed-width integers.

Starts 2^k·a + j whose residues j share a block map land on one value
after the same steps of T; only 1,535 of the 4,096 maps mod 2^12 are
distinct. So in a slice below _WIDE_LIMIT only the smallest start of
each class in a 2^k-aligned block, at or above the table and the
slice's start, walks, listed in closed form. The others need only the
largest first-block peak; start 2^k·a + j peaks at peak_m[j]·a +
peak_e[j], peak_m >= 1, so a slice's lies among its last 2^k starts.
Convergence-only verifiers drop them (Barina 2021); here they stay
exact. Consecutive slices' walked starts, as many as fit one slice's
lanes, share one walk and its rounds' fixed cost, the persistent-threads
pattern of Gupta, Stuart & Owens (2012) with no refill in mid-walk.

Each thread walks in its own workspace of fixed 2^16-lane rows,
written through out= arguments and np.take(..., mode="wrap"), so a warm
sweep allocates no lane arrays and its speed does not depend on how the
C allocator is tuned; ranges and table blocks are cut into 2^16-start
slices, so building the 2^20-entry table peaks about 28 MB above the
import, 16 MB of it the table.

A multi-worker sweep cuts its range into tasks, about four per worker
in whole slices, for one worker pool per process, kept until the table,
the worker count or the start method changes or a sweep fails; its
workers get the table once, when they start, and exit once their parent
is gone. One lock covers replacing the table and each multi-worker
sweep, and a sweep at one worker walks the table it obtained, so no
sweep's payload depends on what other threads sweep. One thread walks
its range as one stream of slices, a pool folds its tasks' reports as
they finish, and neither depends on the task size or worker count.

An optional cutoff (assume_verified_below) certifies every start whose
orbit drops strictly below already-verified territory within budget;
an exact walk decides this for each start that the lanes, which still
walk down to the table and so are sieved whatever the cutoff, leave
unresolved. Record statistics still come only from exactly resolved
trajectories, so the cutoff changes what is certified, never what is
measured.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from dataclasses import KW_ONLY, dataclass, replace
from typing import Iterable

import numpy as np

from .cycles import ClosedLoop
from .dynamics import DEFAULT_STEP_BUDGET, DomainError, EntersCycle, MapVariant
from .dynamics import _as_int, _block_levels, _brent_walk, _descend

# Most table entries; its peaks fit int64 (the 2^20 table peaks at 90,239,155,648).
_TABLE = 1 << 20

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
_WIDE_PARKED = (None, -1, _LOW, None, None, _PARKED)  # (lane, h, l, ph, pl, r), at -1
# Most lanes in one walk: sweeps and table blocks are cut into slices of
# at most this many starts, and a batch of slices holds this many lanes.
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
    _: KW_ONLY
    worker_count: int | None = None

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
            worker_count=None if self.worker_count is None else field("worker_count"),
        )

    @property
    def resolved_worker_count(self) -> int:
        if self.worker_count is not None:
            return self.worker_count
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
            return len(os.sched_getaffinity(0))
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


def _rank(c: tuple[int, int]) -> tuple[int, int]:  # the larger value, then the smaller x
    return c[0], -c[1]


def _best(candidates: Iterable[tuple[int, int]]) -> RecordStat | None:
    """Largest value wins; ties go to the smaller argmax."""
    best = max(candidates, key=_rank, default=None)
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


_fixed = functools.cache(lambda k: np.unique(_canon(k)))  # each class's smallest residue, ascending


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


def _rep_offsets(lo: int, n: int, floor: int, k: int, out):
    """The lanes, floor <= n, that _reps(lo, n, floor, k) maps to themselves
    into out, ascending: all before floor; in the 2^k-aligned block that
    floor enters at residue s, each j whose class's smallest residue is j
    or below s; past it _fixed(k) in each block, cut at n. Scratch: ws.t[0]."""
    fixed, size, s = _fixed(k), 1 << k, (lo + floor) & ((1 << k) - 1)
    part, b = _canon(k)[s:s + n - floor], floor - s + size  # b: the lane past floor's block
    head = np.flatnonzero(np.logical_or(np.less(part, s), np.equal(part, _local.iota[s:s + part.size])))
    blocks, r = max(0, n - b) >> k, int(np.searchsorted(fixed, max(0, n - b) & (size - 1)))
    a, c = floor + head.size, floor + head.size + blocks * fixed.size
    np.copyto(out[:floor], _local.iota[:floor])
    np.add(head, floor, out=out[floor:a])
    at = np.add(np.multiply(_local.iota[:blocks], size, out=_local.t[0, :blocks]), b, out=_local.t[0, :blocks])
    np.add(fixed, at[:, None], out=out[a:c].reshape(blocks, fixed.size))
    np.add(fixed[:r], b + blocks * size, out=out[c:c + r])
    return out[:c + r]


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
    every walk after it: int64 and bool rows of at least n and _SLICE
    lanes, whose views hold every lane, output and temporary of a walk
    and its readers, so that threads that sweep at once share none."""
    ws = _local
    if getattr(ws, "size", 0) < max(n, _SLICE):
        ws.size = max(n, _SLICE)
        i, ws.b = np.empty((34, ws.size), dtype=np.int64), np.empty((2, ws.size), dtype=bool)
        ws.out, ws.t, ws.idx, ws.iota = i[0:3], i[3:9], i[9], np.arange(ws.size)
        ws.ints, ws.wide = (i[10:14], i[14:18]), (i[18:24], i[24:30])  # (rows, spares)
        ws.sieve, ws.offs = i[30:32], i[32:].reshape(-1)  # offs: each batch lane's start, as x - lo
        ws.skip = np.empty(ws.size, dtype=bool)
        # Apart from i, whose huge pages would make them resident in sweeps that never use them.
        ws.peaks = np.empty((2, ws.size), dtype=np.int64)
    return ws


def _big_rows(ws):
    """This batch's rows (h, l) of peaks h·2^32 + l past int64 by lane, h
    >= 2^31; zeroed on first use, so walks with no such peak skip them."""
    if not ws.big:
        ws.big = True
        ws.peaks.fill(0)
    return ws.peaks


class _Lanes:
    """Lanes as columns, views [:size] of workspace rows with a spare
    row each, the lane number first and the step count r last.
    retire(done, put) hands the lanes where done to put(d, *columns), d
    their positions, and parks them at parked (None leaves a column), a
    fixed point of every block with r negative for longer than any walk;
    once fewer than half are live, the rest move, in order, to the spare
    rows, which swap in. add(n) appends n lanes and returns their columns
    to fill, first moving the live ones so if size would pass room, set
    by the walk, or fewer than half would be live; its scratch, ws.b[1]
    and ws.t[5], lets the other set's retire call it."""

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

    def add(self, n: int) -> list:
        size = self.size + n
        if self.live < self.size and (size > self.room or 2 * (self.live + n) < size):
            self.keep(_nonzero(np.greater_equal(self.cols()[-1], 0, out=self.ws.b[1, :self.size]), self.ws.t[5]))
        self.size, self.live = self.size + n, self.live + n
        return [row[self.size - n:self.size] for row in self.rows]


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


def _advance_wide(table: tuple, k: int, h, l, ph, pl, r, t, b) -> None:
    """Take one k-step block on every lane h·2^32 + l, in place, with the
    peak limbs (ph, pl) and r; t and b are scratch. With r None only the
    peak limbs take the block, and they may be (h, l) themselves."""
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
    if r is not None:
        r += _take(steps, j, x)
        block(mult, off, h, l)


def _raise(h, l, x, y, b) -> None:
    """(h, l) = max((h, l), (x, y)) lane by lane, in place; b is two bool rows."""
    up, tie = b
    np.logical_and(np.equal(x, h, out=tie), np.greater(y, l, out=up), out=tie)
    np.putmask(h, np.logical_or(np.greater(x, h, out=up), tie, out=up), x)
    np.putmask(l, up, y)


def _start_limbs(offs, lo: int, h, l) -> None:
    """The limbs h·2^32 + l of the starts lo + offs, lo at most _WIDE_LIMIT."""
    np.add(offs, lo & _LOW, out=l)
    np.add(np.right_shift(l, 32, out=h), lo >> 32, out=h)
    l &= _LOW


def _exactly(exact: dict, lanes: list, q: int, start, budget: int) -> None:
    """Walk lane q of the limb lanes (lane, h, l, ph, pl, r) exactly, in
    blocks back below _WIDE_LIMIT and on to half of it, in place; one
    that has taken no step is at its start, start(lane), which the limbs
    may not hold. A peak past the limbs, from 2^95, goes to exact; past
    budget the value is -1 and r budget + 1, which reads as parked."""
    lane, h, l, ph, pl, r = lanes
    i, s = int(lane[q]), int(r[q])
    c, p = (start(i), 0) if s == 0 else (int(h[q]) << 32 | int(l[q]), int(ph[q]) << 32 | int(pl[q]))
    c, s, top = _descend(c, _WIDE_LIMIT >> 1, s, max(c, p, exact.get(i, 0)), budget, _WIDE_LIMIT)
    if top >> 95:
        exact[i], top = top, p
    h[q], l[q], ph[q], pl[q], r[q] = c >> 32, c & _LOW, top >> 32, top & _LOW, s if c >= 0 else budget + 1


def _shape(lo: int, hi: int, stop: int) -> tuple:
    """(n, m, floor) of the slice [lo, hi]: its size, its starts in int64
    (the rest begin in limbs), and its first start from stop on, as x -
    lo, or n if none is or it reaches _WIDE_LIMIT; sieved if floor < n."""
    n = hi - lo + 1
    return n, min(n, max(0, _BLOCK_LIMIT + 1 - lo)), min(n, max(lo, stop) - lo) if hi < _WIDE_LIMIT else n


def _first_peaks(lo: int, hi: int, stop: int, k: int, skip=None) -> tuple[int, int]:
    """Each start's own first-block peak into ws.sieve = (fh, first), in
    first[:m] (one below stop as its own) and in limbs past it, for the
    slice's last min(n, 2^k) starts, which hold the largest, or with skip
    all. Returns the largest (peak, x) where skip is not set, ties to least x."""
    t = lo if skip is not None else max(lo, hi + 1 - (1 << k))
    ws, (n, m, floor), table = _local, _shape(t, hi, stop), _block_table(k)
    (fh, first), s = ws.sieve[:, :n], min(floor, m)
    np.add(ws.iota[:m], min(t, _BLOCK_LIMIT), out=first[:m])
    x, j, y = first[s:m], ws.t[0, :m - s], ws.t[1, :m - s]
    np.bitwise_and(x, (1 << k) - 1, out=j)
    x >>= k
    x *= _take(table[3], j, y)
    x += _take(table[4], j, y)
    if m < n:
        h, l = fh[m:], first[m:]
        _start_limbs(ws.iota[m:n], min(t, _WIDE_LIMIT), h, l)
        _advance_wide(table, k, h, l, h, l, None, ws.t[:, :n - m], ws.b[:, :n - m])
    if skip is not None:
        np.putmask(first[:m], skip[:m], -1)
        np.putmask(fh[m:], skip[m:n], -1)
    i = int(np.argmax(first[:m])) if m else 0
    best = (int(first[i]), -i) if m else (-1, 0)
    if m < n and (a := int(fh[m:].max())) >= 0:
        at = _nonzero(np.equal(fh[m:], a, out=ws.b[0, :n - m]), ws.idx)
        q = m + int(at[np.argmax(_take(first[m:], at, ws.t[0, :at.size]))])
        best = max(best, (a << 32 | int(first[q]), -q))
    return best[0], t - best[1]


def _walks(slices: Iterable, stop: int, budget: int):
    """Walk the starts of the slices (lo, hi) in lanes, one block
    per round, until each drops strictly below stop or passes budget
    col-steps, in batches of consecutive slices whose lanes fit _SLICE.

    k is cut so that no block passes through 1; a lane may land past its
    first value below stop, as its steps plus the landing's total are
    still its total. Lanes are held in two sets, each carrying the
    lanes' numbers in the batch: int64 lanes up to _BLOCK_LIMIT and limb
    lanes, h·2^32 + l, past it. Each round the int64 set retires and
    parks the lanes just finished and hands those past _BLOCK_LIMIT to
    the limb set; the limb set walks values from _WIDE_LIMIT on exactly
    in _descend, as it does starts among them first, and hands those
    back at or below _BLOCK_LIMIT, or over budget, to the int64 set;
    then each set takes one block, so no lane waits for another. A slice
    gives lanes to its representatives alone, listed once by _rep_offsets
    past the batch's lanes, which from stop on take their first block at
    once and their later peak from the landing. A slice, of at most
    _SLICE starts unless alone, that does not fit moves to the next batch.

    Yields per batch (parts, exact), parts holding (lo, hi, q, c) per
    slice: its lanes q to q + c - 1. By lane, until the next batch:
    landing (-1 past budget), steps and peak in ws.out, the start as x -
    lo in ws.offs, peaks past int64 in _big_rows if ws.big, and from
    2^95 on in exact.
    """
    k = max(1, min(K, stop.bit_length() - 2))  # stop >= 2^(k+1)
    table, back = _block_table(k), _BLOCK_LIMIT + 1  # read per call, so patches apply
    parts, exact, ws = [], {}, None

    def start(i):  # lane i's start
        return next(lo + int(ws.offs[i]) for lo, _, q, c in parts if q <= i < q + c)

    def put(d, lane, cur, pk, r):
        (landing, steps, peak), (ids, x, y) = ws.out, ws.t[:3, :d.size]
        steps[_take(lane, d, ids)] = _take(r, d, x)
        np.putmask(_take(cur, d, y), np.greater(x, budget, out=ws.b[1, :d.size]), -1)  # more than budget steps to 1
        landing[ids] = y
        peak[ids] = _take(pk, d, x)

    def to_wide(d, lane, cur, pk, r):
        wl, h, l, ph, pl, rw = wide.add(d.size)
        for src, dst in ((lane, wl), (r, rw), (cur, l), (pk, pl)):
            _take(src, d, dst)
        for hi_limb, lo_limb in ((h, l), (ph, pl)):
            np.right_shift(lo_limb, 32, out=hi_limb)
            lo_limb &= _LOW

    def to_ints(d, wl, h, l, ph, pl, rw):
        ids, c, p, r = ints.add(d.size)
        (x, y, u, v), b = ws.t[:4, :d.size], ws.b[:, :d.size]
        for src, dst in ((wl, ids), (rw, r), (h, c), (ph, x), (pl, y)):  # put lands those over budget at -1
            _take(src, d, dst)
        np.bitwise_or(np.left_shift(c, 32, out=c), _take(l, d, u), out=c)
        big = np.greater_equal(x, 1 << 31, out=b[1])  # the peak x·2^32 + y is past int64
        np.bitwise_or(np.left_shift(x, 32, out=p), y, out=p)
        np.putmask(p, big, c)
        if big.any():  # each lane's row keeps the largest peak of its limb walks
            bh, bl = _big_rows(ws)
            u, v = _take(bh, ids, u), _take(bl, ids, v)
            _raise(u, v, x, y, b)
            bh[ids], bl[ids] = u, v

    def walk():  # the batch, and then yields it
        lane, cur, pk, r = ints.cols()
        ints.room = wide.room = ints.size + wide.size  # no set takes blocks on more lanes than the batch has
        while ints.live or wide.live:  # an empty int64 set takes its ops on no lanes
            b0, b1 = ws.b[:, :ints.size]
            done = np.less(cur.view(np.uint64), stop, out=b0)  # parked: 2^64 - 1
            ints.retire(np.logical_or(done, np.greater(r, budget, out=b1), out=b0), put)
            lane, cur, pk, r = ints.cols()
            if cur.max(initial=0) >= back:
                ints.retire(np.greater_equal(cur, back, out=ws.b[0, :ints.size]), to_wide)
                lane, cur, pk, r = ints.cols()
            _advance(table, k, cur, r, pk, ws.t[:, :ints.size])
            if wide.live:
                _, h, l, ph, pl, rw = lanes = wide.cols()
                (done, tmp), x = ws.b[:, :wide.size], ws.t[0, :wide.size]
                for q in np.flatnonzero(np.greater_equal(h, _WIDE_LIMIT >> 32, out=done)).tolist():
                    _exactly(exact, lanes, q, start, budget)  # from _WIDE_LIMIT, whose low limb is 0, on
                # Back at or below _BLOCK_LIMIT, h < ceil((back - l) / 2^32), or over budget; parked h reads 2^64 - 1.
                np.right_shift(np.subtract(back + _LOW, l, out=x), 32, out=x)
                np.less(h.view(np.uint64), x.view(np.uint64), out=done)
                wide.retire(np.logical_or(done, np.greater(rw, budget, out=tmp), out=done), to_ints)
                _advance_wide(table, k, *wide.cols()[1:], ws.t[:, :wide.size], ws.b[:, :wide.size])
                lane, cur, pk, r = ints.cols()
        yield parts, exact

    for lo, hi in slices:
        (n, m, floor), ws = _shape(lo, hi, stop), _workspace(hi - lo + 1)
        q = ints.size + wide.size if parts else 0
        offs = _rep_offsets(lo, n, floor, k, ws.offs[q:])  # the row holds n lanes past the batch's
        if parts and q + offs.size > _SLICE:  # this slice moves to the next batch's first lanes
            yield from walk()
            parts, exact, q, ws.offs[:offs.size], offs = [], {}, 0, offs, ws.offs[:offs.size]
        if not parts:  # a new batch
            ws.big = False  # whether this batch uses ws.peaks; see _big_rows
            ints, wide = _Lanes(ws, ws.ints, 0, (None, -1, None, _PARKED)), _Lanes(ws, ws.wide, 0, _WIDE_PARKED)
        ci, c = int(np.searchsorted(offs, m)), offs.size  # the int64 lanes; the limb ones follow
        lane, cur, pk, r = ints.add(ci)
        lane[:], r[:] = ws.iota[q:q + ci], 0
        np.add(offs[:ci], min(lo, back), out=cur)
        f = int(np.searchsorted(offs[:ci], floor))  # those from floor on take their first block
        _advance(table, k, cur[f:], r[f:], pk[f:], ws.t[:, :ci - f])
        pk[:] = cur
        wl, h, l, ph, pl, rw = wide.add(c - ci)
        wl[:], rw[:] = ws.iota[q + ci:q + c], 0
        _start_limbs(offs[ci:], min(lo, _WIDE_LIMIT), h, l)
        if floor < n and ci < c:
            _advance_wide(table, k, h, l, ph, pl, rw, ws.t[:, :c - ci], ws.b[:, :c - ci])
        ph[:], pl[:] = h, l
        parts.append((lo, hi, q, c))
    if parts:
        yield from walk()


def _walk_lanes(lo: int, hi: int, stop: int, budget: int):
    """_walks on [lo, hi] alone, by start: one of a sieved slice takes
    its representative's landing and steps, and as peak the larger of
    its own first-block peak and the representative's later peak.
    Returns (landing, steps, peak, limbs, exact) by x - lo, as _walks
    gives them, limbs _big_rows or None, valid until the next walk."""
    (n, m, floor), k, ws = _shape(lo, hi, stop), max(1, min(K, stop.bit_length() - 2)), _workspace(hi - lo + 1)
    if floor < n:  # every start's first-block peak, in ws.sieve, which the walk leaves
        _first_peaks(lo, hi, stop, k, np.zeros(n, dtype=bool))
    ((part, *_), exact), = _walks([(lo, hi)], stop, budget)
    landing, steps, peak = ws.out[:, :n]
    if floor >= n:  # not sieved: every start has its lane, x - lo
        return landing, steps, peak, ws.peaks[:, :n] if ws.big else None, exact
    c, (fh, first), at = part[3], ws.sieve[:, :n], ws.t[2, :n]
    at[ws.offs[:c]] = ws.iota[:c]
    lanes = _take(at, _reps(lo, n, floor, k, ws.t[1, :n]), ws.t[3, :n])  # each start's representative's lane
    for col in (landing, steps, peak, *(ws.peaks[:, :n] if ws.big else ())):
        col[:] = _take(col, lanes, ws.t[0, :n])
    if m < n:  # first-block peaks in limbs: those past int64 go to the rows
        _raise(*_big_rows(ws)[:, m:n], fh[m:], first[m:], ws.b[:, :n - m])
        np.bitwise_or(np.left_shift(fh[m:], 32, out=fh[m:]), first[m:], out=first[m:])
    np.maximum(peak, first, out=peak)  # wrong only where the rows hold the peak
    spread = {}  # a lane stands only for starts of its own 2^k-aligned block
    for q, p in exact.items():
        e = int(ws.offs[q])
        spread.update(dict.fromkeys((np.flatnonzero(lanes[e:e + (1 << k)] == q) + e).tolist(), p))
    return landing, steps, peak, ws.peaks[:, :n] if ws.big else None, spread


# ---------------------------------------------------------------------------
# Dense memo table


def _land(total, top, landing, steps, peak, budget: int):
    """The landing rule, in place: add the table entry (steps, peak) at
    each landing to total and top, and set both to -1, the mask returned
    in ws.b[1], where the start does not reach 1 within budget."""
    tail, (neg, bad) = _local.t[0, :total.size], _local.b[:, :total.size]
    total += _take(steps, landing, tail)  # a landing of -1 is over budget
    np.logical_or(np.less(tail, 0, out=neg), np.greater(total, budget, out=bad), out=bad)
    np.maximum(top, _take(peak, landing, tail), out=top)
    total[bad] = top[bad] = -1
    return bad


def _build_cache(cache_len: int, step_budget: int):
    """Exact (total steps to 1, orbit peak) for every x in [0, cache_len),
    -1 in both where x does not reach 1 within step_budget col-steps.
    Blocks [n, 2n) of doubling size, from [2, 4), are each resolved
    against the part [0, n) built so far, by the same rule as a chunk,
    in slices of at most _SLICE starts walked by _walk_lanes.
    """
    steps, peak = np.full((2, cache_len), -1, dtype=np.int64)
    steps[1], peak[1], n = 0, 1, 2
    while n < cache_len:
        for s in range(n, min(2 * n, cache_len), _SLICE):
            e = min(s + _SLICE, 2 * n, cache_len)
            # The size cap keeps every peak within int64, so none is in limbs.
            landing, total, top, _, _ = _walk_lanes(s, e - 1, n, step_budget)
            _land(total, top, landing, steps[:n], peak[:n], step_budget)
            steps[s:e], peak[s:e] = total, top
        n = min(2 * n, cache_len)
    return steps, peak


# ((cache_len, step_budget), (cache_steps, cache_peak)): the parent's
# memo, and in each pool worker the parent's table installed at start-up.
_cache_slot: tuple | None = None
# (worker count, start method, executor): the parent's pool, whose
# workers hold the table of _cache_slot. A process forked from it gets
# neither the pool's threads nor its workers, so it forgets the pool.
_pool: tuple | None = None
# Held while the table is replaced and through each pooled sweep; new in a forked child.
_lock = threading.Lock()
os.register_at_fork(after_in_child=lambda: globals().update(_lock=threading.Lock(), _pool=None))


def _install_table(slot: tuple) -> None:
    """Pool initializer: keep the table the parent handed over, so no
    start method makes a worker rebuild it. A worker gets it once and
    keeps it for the pool's life, which ends before the parent's table
    is replaced. A daemon thread ends the worker once its parent is
    gone: a worker waiting on the call queue, whose write end it holds
    itself, would not see a killed parent's end."""
    global _cache_slot
    _cache_slot = slot

    def exit_with(parent=os.getppid()):
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=exit_with, daemon=True).start()


def _cache_for(cache_len: int, step_budget: int) -> tuple:
    """The table (cache_steps, cache_peak), from a single-slot memo so
    repeated sweeps in one process reuse it instead of rebuilding it.
    Replacing the table first shuts down the pool, whose workers and
    initializer arguments hold the old one. The caller holds _lock."""
    global _cache_slot
    key = (cache_len, step_budget)
    if _cache_slot is None or _cache_slot[0] != key:
        _drop_pool()
        _cache_slot = (key, _build_cache(cache_len, step_budget))
    return _cache_slot[1]


@atexit.register  # before the module's teardown, which would free a pool after multiprocessing's
def _drop_pool() -> None:
    """Forget the pool, first shutting it down and waiting for its
    workers and threads."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool[2].shutdown(cancel_futures=True)


def _sweep_pooled(workers: int, chunks: Iterable, budget: int, cutoff: int) -> VerifyReport:
    """The merge of the chunks' (lo, hi) reports from the pool for
    _cache_slot's table with this many workers under the current start
    method, one chunk per task. Any other pool, or one that a dead worker
    broke, is shut down before a new one starts, so that no pool forks
    while another's threads run; _drop_pool's exit hook stops the last.
    Chunks go lazily into a window of 2·workers + 1 tasks, what workers
    and call queue hold; reports come back through a queue their done
    callbacks fill, and merge only in equal task counts, so a start is
    merged about log2(tasks) times. A call that ends early, by an error
    or an interrupt, stops the workers, as the manager thread may have
    died, and drops the pool, cancelling the tasks not yet started. A
    sweep at one worker imports no multiprocessing or concurrent.futures."""
    global _pool
    import multiprocessing
    import queue
    from concurrent.futures import ProcessPoolExecutor

    key = (workers, multiprocessing.get_start_method())
    if _pool is None or _pool[:2] != key or _pool[2]._broken:
        _drop_pool()
        _pool = (*key, ProcessPoolExecutor(workers, initializer=_install_table, initargs=(_cache_slot,)))
    pool, done, merged, live, folded = _pool[2], queue.SimpleQueue(), [], 0, 0
    try:
        for lo, hi in chunks:
            if live > 2 * workers:  # merged holds the binary digits of folded, most tasks first
                merged, live, folded = [*merged, done.get().result()], live - 1, folded + 1
                if (z := (folded & -folded).bit_length()) > 1:
                    merged[-z:] = [merge_reports(*merged[-z:])]
            pool.submit(_sweep, lo, hi, budget, cutoff).add_done_callback(done.put)
            live += 1
        return merge_reports(*merged, *(done.get().result() for _ in range(live)))
    except BaseException:
        for worker in list((pool._processes or {}).values()):
            worker.terminate()
        _drop_pool()
        raise


# ---------------------------------------------------------------------------
# Chunk sweeps


def _sweep(lo: int, hi: int, budget: int, cutoff: int, table: tuple | None = None) -> VerifyReport:
    """One report on [lo, hi], cycle search included, against table =
    (steps, peak) over [0, len), or in a pool worker the installed one.
    The part below len reads the table at once; the rest is cut lazily
    into _SLICE-start slices, walked in _walks's batches and reduced by
    class with no array by start: a representative is its class's
    smallest start, so the steps record and that of later peaks come
    from representatives, and the first-block peaks' from _first_peaks
    on a sieved slice's last 2^k starts. The later peaks' candidates are
    the largest of the int64 top, the limb rows and exact, tiers of
    disjoint values (below 2^63, below 2^95, from 2^95 on) in which no
    top exceeds its lane's peak. A slice with a representative left
    unresolved spreads it to its members, which the cutoff may certify,
    and takes that maximum over all its other starts. Each batch's
    candidates fold to one per record."""
    cache_steps, cache_peak = table or _cache_slot[1]
    stop, ws, k = len(cache_steps), _local, max(1, min(K, len(cache_steps).bit_length() - 2))
    missed, steps, peaks = [], [], []  # starts left unresolved, and (value, x) candidates for each record
    if lo < stop:
        total, top = cache_steps[lo:hi + 1], cache_peak[lo:hi + 1]
        j, e = int(np.argmax(total)), int(np.argmax(top))
        missed += [lo + x for x in np.flatnonzero(total < 0).tolist()]
        steps, peaks = [(int(total[j]), lo + j)], [(int(top[e]), lo + e)]
    slices = ((s, min(s + _SLICE - 1, hi)) for s in range(max(lo, stop), hi + 1, _SLICE))
    for parts, exact in _walks(slices, stop, budget):
        for x0, x1, q, c in parts:
            (landing, total, top), offs = ws.out[:, q:q + c], ws.offs[q:q + c]
            bad = _land(total, top, landing, cache_steps, cache_peak, budget)
            lost = offs[np.flatnonzero(bad)] if bad.any() else None
            j, e = int(np.argmax(total)), int(np.argmax(top))  # the first, so the smallest x among ties
            steps.append((int(total[j]), x0 + int(offs[j])))
            peaks.append((int(top[e]), x0 + int(offs[e])))
            peaks += [(p, x0 + int(offs[i - q])) for i, p in exact.items() if q <= i < q + c and not bad[i - q]]
            h, l = ws.peaks[:, q:q + c]  # _big_rows if ws.big, zeroed where a lane does not reach 1
            if ws.big and (a := int(np.multiply(h, np.logical_not(bad, out=ws.b[0, :c]), out=h).max())) >> 31:
                at = _nonzero(np.equal(h, a, out=bad), ws.idx)
                e = int(at[np.argmax(_take(l, at, ws.t[1, :at.size]))])
                peaks.append((a << 32 | int(l[e]), x0 + int(offs[e])))
            if lost is not None:  # spread each unresolved representative to its members
                n, _, floor = _shape(x0, x1, stop)
                rep, flag = _reps(x0, n, floor, k, ws.t[1, :n]), ws.b[0, :n]
                flag[:] = False
                flag[lost] = True
                members = _take(flag, rep, ws.skip[:n])
                missed += [x0 + x for x in np.flatnonzero(members).tolist()]
            if x1 < _WIDE_LIMIT:  # sieved, as x0 >= stop
                peaks.append(_first_peaks(x0, x1, stop, k, members if lost is not None else None))
        steps, peaks = [max(steps, key=_rank)], [max(peaks, key=_rank)]
    # The cutoff walk: at the default budget almost no start takes it.
    unresolved = sorted(x for x in missed if cutoff < 2 or _descend(x, cutoff - 1, 0, x, budget)[0] < 0)
    # An unresolved start does not reach 1 within budget, so find_cycle's
    # walk toward 1 would only fail; Brent's walk alone finds its loop.
    outcomes = (_brent_walk(u, MapVariant.STANDARD, budget, None, False).outcome for u in unresolved)
    return VerifyReport(
        segments=((lo, hi),), unresolved=tuple(unresolved), verified_count=hi - lo + 1 - len(unresolved),
        cycles_found=_distinct_loops(o.loop for o in outcomes if isinstance(o, EntersCycle)),
        max_total_stopping_time=_best(c for c in steps if c[0] >= 0),
        max_excursion=_best(c for c in peaks if c[0] >= 0), wall_time=0.0,
    )


# ---------------------------------------------------------------------------
# Drivers


def _task_size(n: int, workers: int) -> int:  # about four pool tasks a worker, in whole slices, at most 2^20
    return min(1 << 20, -(-n // (4 * workers * _SLICE)) * _SLICE)


def verify_range(config: VerifyConfig) -> VerifyReport:
    """Classify every x in [range_lo, range_hi] and aggregate statistics.

    Certification means the trajectory reached 1, or dropped strictly
    below assume_verified_below, within step_budget col-steps. Record
    statistics are taken only over trajectories that reached 1. Starts
    below the table's size, min(_TABLE, range_hi + 1), read it. The range
    streams through this thread, or in _task_size tasks through a pool
    whose reports merge_reports folds as they finish, so the payload is
    identical regardless of task size, worker count or table size.
    """
    cfg = config.validated()
    t0 = time.perf_counter()
    lo, hi, args = cfg.range_lo, cfg.range_hi, (cfg.step_budget, cfg.assume_verified_below)
    cache_len = min(_TABLE, hi + 1)
    size = _task_size(hi - lo + 1, cfg.resolved_worker_count)
    # A range inside the table only reads it, so it needs no pool.
    workers = min(cfg.resolved_worker_count, (hi - lo) // size + 1) if hi >= cache_len else 1
    with _lock:  # a pool's workers hold the table, so a pooled sweep keeps the lock
        table = _cache_for(cache_len, cfg.step_budget)
        tasks = ((s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size))
        report = _sweep_pooled(workers, tasks, *args) if workers > 1 else None
    if report is None:  # in this thread, on the table it obtained
        report = _sweep(lo, hi, *args, table)
    return replace(report, wall_time=time.perf_counter() - t0)


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
