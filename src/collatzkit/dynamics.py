"""The 3x+1 map and its basic orbit machinery.

Everything downstream (loop validation, residue graphs, range
verification) is built on the three primitives here: the step map,
bounded iteration, and trajectory classification with cycle detection.

One exact walker, _descend, follows an orbit down to a floor for every
scalar walk of the package: stopping times, the arrival walk of
classify_trajectory, and the verifier's big-integer and cutoff walks.
Far above the floor it jumps K steps of T (x/2, or (3x+1)/2 on odd x)
at a time by the parity-vector block map of Terras (1976), and its
result is exactly that of a step-by-step walk. _block_levels(k) is the
package's one builder of that map: each j-step block's multiplier,
offset, col-step count and exact peak for every residue mod 2^j, for
j = 0..k in one doubling pass. The verifier's lane tables are its
levels 1..12, _descend's blocks its level 8 and, on walks that start
2^64 times or more above their floor, its level 12.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

if TYPE_CHECKING:
    from .cycles import ClosedLoop

DEFAULT_STEP_BUDGET = 10**5

# Block lengths of _descend, in steps of T. 12-step blocks walk 8-2048 bit
# starts ~1.4x as fast as 8-step ones, but a walk with K-step blocks takes
# single steps from (floor + 1)·2^K down, and 4,096 rows of 12-step blocks
# hold ~0.8 MB against ~0.04 MB for 256 rows of 8-step ones. So a walk that
# starts at or above (floor + 1)·2^_FAR takes _LONG_K-step blocks down to
# (floor + 1)·2^_LONG_K; every walk takes _K-step blocks from there on.
_K = 8
_LONG_K = 12
_FAR = 64


class DomainError(ValueError):
    """Raised when an argument falls outside the map's domain."""


class MapVariant(enum.Enum):
    """Which step map drives an orbit.

    STANDARD is the plain 3x+1 map, under which 1 -> 4 -> 2 -> 1 forever.
    STAR pins 1 as a fixed point and agrees with STANDARD everywhere else,
    so orbits that reach 1 stay there.
    """

    STANDARD = "standard"
    STAR = "star"


def _as_int(value, name: str, lo: int = 1, hi: int | None = None, error=DomainError) -> int:
    """value as a plain int in [lo, hi], with no upper end when hi is None.

    Every public integer argument of the package comes through here.
    operator.index admits ints and int-likes (numpy integers) and refuses
    floats and strings; bool is an int subclass but no count, bound or
    residue, so it is refused too. A refusal raises error, and its
    message names the argument.
    """
    # Plain ints, the common case, skip operator.index; type(True) is bool.
    if type(value) is int and value >= lo and (hi is None or value <= hi):
        return value
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            n = None
        if n is not None and n >= lo and (hi is None or n <= hi):
            return n
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise error(f"{name} must be an integer {bounds}, got {value!r}")


def col(x: int) -> int:
    """One step of the map: x/2 for even x, 3x+1 for odd x."""
    x = _as_int(x, "x")
    return x // 2 if x % 2 == 0 else 3 * x + 1


def col_star(x: int) -> int:
    """Loop-breaking variant: fixes 1, agrees with col everywhere else."""
    x = _as_int(x, "x")
    return 1 if x == 1 else col(x)


def step_function(variant: MapVariant) -> Callable[[int], int]:
    """Return the step map for a variant."""
    if variant is MapVariant.STANDARD:
        return col
    if variant is MapVariant.STAR:
        return col_star
    raise DomainError(f"unknown variant {variant!r}")


def iterate_k(x: int, k: int, variant: MapVariant = MapVariant.STANDARD) -> int:
    """Apply the step map k times and return the final value."""
    x = _as_int(x, "x")
    k = _as_int(k, "k", lo=0)
    step_function(variant)  # refuses an unknown variant
    while k and x != 1:
        x = x // 2 if x % 2 == 0 else 3 * x + 1
        k -= 1
    # Once at 1 the orbit is periodic: fixed under STAR, 1 -> 4 -> 2 -> 1
    # under STANDARD, so the steps left need not be walked.
    return x if x != 1 or variant is MapVariant.STAR else (1, 4, 2)[k % 3]


def _block_levels(k: int):
    """The affine block map over Z/2^jZ for j = 0, 1, ..., k in turn, from
    one doubling pass that holds only the level it is on.

    For x = 2^j·a + r, j steps of T give T^j(x) = mult·a + off in steps
    col-steps, and the largest col-step value on the way, x included, is
    peak_mult·a + peak_off for every a: each col-step value is m·a + e,
    and the one with the largest m also has the largest e (checked by
    the tests for every j up to the verifier's K). Level j is one tuple
    (mult, off, steps, peak_mult, peak_off) per residue r in [0, 2^j).

    Row r + b·2^(j-1) of level j is row r of level j - 1 and one more
    step of T: after its j - 1 steps, x = 2^(j-1)·(2a + b) + r is at
    2m·a + m·b + e.
    """
    level = ((1, 0, 0, 1, 0),)
    yield level
    for _ in range(k):
        rows = []
        for b in (0, 1):
            for m, e, steps, peak_m, peak_e in level:
                e += m * b
                peak_m, peak_e = 2 * peak_m, peak_m * b + peak_e
                if e & 1:
                    # Only a 3x+1 value can hold a new largest multiplier.
                    if 6 * m > peak_m:
                        peak_m, peak_e = 6 * m, 3 * e + 1
                    rows.append((3 * m, (3 * e + 1) >> 1, steps + 2, peak_m, peak_e))
                else:
                    rows.append((m, e >> 1, steps + 1, peak_m, peak_e))
        level = tuple(rows)
        yield level


@functools.cache
def _blocks(k: int) -> tuple:
    """(rows, top_m, top_e): level k of _block_levels, the k-step blocks
    _descend takes, held as Python rows, with the largest peak_mult and
    the largest peak_off of any row. Built once per process per level,
    and only for the levels a walk reaches."""
    for rows in _block_levels(k):
        pass
    return rows, max(row[3] for row in rows), max(row[4] for row in rows)


def _descend(
    c: int, floor: int, r: int, p: int, budget: int, high: int | None = None
) -> tuple[int, int, int]:
    """Walk the orbit on from value c, with r col-steps taken and peak
    p >= c, until it is at or below floor. Returns (value, steps, peak):
    a value at or below floor, the col-steps taken in all and the
    largest value seen; value is -1 if budget col-steps run out first.

    While c > high and the block fits the budget, the walk takes a
    whole _K-step block from _blocks(_K). Every value inside the block
    from c = 2^K·a + j is at least a, so with the default high,
    (floor + 1)·2^K, no block passes the first value at or below floor,
    and that is the value returned. A lower high may land further down
    the orbit. A walk with the default high that starts at or above
    (floor + 1)·2^_FAR first takes _LONG_K-step blocks, by the same bound
    down to (floor + 1)·2^_LONG_K, and goes on from there. The rest of
    the walk goes one col-step at a time, so steps and peak are exactly
    those of a plain step-by-step walk to the value returned.

    A block's peak is peak_m·a + peak_e <= top_m·a + top_e, at most p
    while a <= (p - top_e) // top_m. So the walk works out a block's
    peak only for a above that bound, and the bound only after it has
    worked out a peak; the first block of each length works out both.
    """
    if high is None:
        high = (floor + 1) << _K
        if c >> _FAR > floor:
            blocks, top_m, top_e = _blocks(_LONG_K)
            mask, bound = (1 << _LONG_K) - 1, -1
            long_high = (floor + 1) << _LONG_K
            while c > long_high:
                mult, off, n, peak_m, peak_e = blocks[c & mask]
                if r + n > budget:
                    break
                a = c >> _LONG_K
                if a > bound:
                    q = peak_m * a + peak_e
                    if q > p:
                        p = q
                    bound = (p - top_e) // top_m
                c = mult * a + off
                r += n
    blocks, top_m, top_e = _blocks(_K)
    mask, bound = (1 << _K) - 1, -1
    while c > floor:
        while c > high:
            mult, off, n, peak_m, peak_e = blocks[c & mask]
            if r + n > budget:
                break
            a = c >> _K
            if a > bound:
                q = peak_m * a + peak_e
                if q > p:
                    p = q
                bound = (p - top_e) // top_m
            c = mult * a + off
            r += n
        if r >= budget:
            return -1, r, p
        c = 3 * c + 1 if c & 1 else c >> 1
        r += 1
        if c > p:
            p = c
    return c, r, p


def total_stopping_time(x: int, step_budget: int = DEFAULT_STEP_BUDGET) -> int | None:
    """Number of steps until the orbit of x first hits 1, or None.

    Returns 0 for x == 1. Returns None when the orbit has not reached 1
    within step_budget applications of the map; with the default budget
    that does not happen for any x known to science. The count comes
    from one block-jumping walk to 1 (_descend).
    """
    x = _as_int(x, "x")
    step_budget = _as_int(step_budget, "step_budget")
    value, steps, _ = _descend(x, 1, 0, x, step_budget)
    return steps if value == 1 else None


def preimage(x: int) -> set[int]:
    """All y >= 1 with col(y) == x.

    2x is always a preimage. An odd preimage (x - 1) / 3 exists exactly
    when x == 4 (mod 6): x - 1 must be divisible by 3 and the quotient
    must come out odd and >= 1, which pins x to that residue class.
    """
    x = _as_int(x, "x")
    out = {2 * x}
    if x % 6 == 4:
        y = (x - 1) // 3
        if y >= 1:
            out.add(y)
    return out


@dataclass(frozen=True)
class ReachesOne:
    """Orbit hit 1 after `steps` applications of the map."""

    steps: int


@dataclass(frozen=True)
class EntersCycle:
    """Orbit fell into `loop` after a tail of `tail_length` steps."""

    loop: "ClosedLoop"
    tail_length: int


@dataclass(frozen=True)
class Unresolved:
    """Classification gave up: budget exhausted or value bound exceeded."""

    steps_taken: int
    max_value_seen: int


TrajectoryOutcome = Union[ReachesOne, EntersCycle, Unresolved]


@dataclass(frozen=True)
class TrajectoryRecord:
    start: int
    outcome: TrajectoryOutcome
    max_excursion: int
    values: tuple[int, ...] | None = None


def classify_trajectory(
    x: int,
    variant: MapVariant = MapVariant.STANDARD,
    step_budget: int = DEFAULT_STEP_BUDGET,
    value_bound: int | None = None,
    record_values: bool = False,
) -> TrajectoryRecord:
    """Classify the orbit of x: reaches 1, enters a cycle, or unresolved.

    The orbit halts the first time a step *arrives* at 1, so a start of
    1 is not an arrival: the orbit proceeds and is classified as the
    cycle it immediately enters (the 1-4-2-1 loop under STANDARD, the
    fixed point under STAR).

    Without record_values, the orbit of x != 1 is first walked toward 1
    by the block-jumping walker of total_stopping_time. When it arrives
    within step_budget and no value passes value_bound, that walk's step
    count and peak are the outcome: an orbit that first arrives at 1 on
    step s repeats no value before s, so Brent's method below could not
    have closed a loop sooner. Every other orbit goes to Brent's walk,
    so the outcome is the same either way.

    Cycles are found by Brent's method in constant memory: the walk
    takes one step per budget unit, and a tortoise jumps to the
    walk's position whenever the gap between them reaches a power of
    two. Equality of the two witnesses a cycle whose period is exactly
    the current gap; the tail length is then found by a second walk.

    An orbit is Unresolved when step_budget applications pass without
    arrival or cycle detection, or when a value exceeds value_bound.
    Both the step spent crossing value_bound and the offending value
    count toward steps_taken and max_value_seen.

    With record_values set, the record retains the visited prefix:
    through the arrival at 1, through the first closed lap of a cycle,
    or everything seen before giving up.
    """
    x = _as_int(x, "x")
    step_budget = _as_int(step_budget, "step_budget")
    if value_bound is not None:
        value_bound = _as_int(value_bound, "value_bound")
    step_function(variant)  # refuses an unknown variant
    if not record_values and x != 1:
        value, steps, peak = _descend(x, 1, 0, x, step_budget)
        if value == 1 and (value_bound is None or peak <= value_bound):
            return TrajectoryRecord(start=x, outcome=ReachesOne(steps), max_excursion=peak)
    return _brent_walk(x, variant, step_budget, value_bound, record_values)


def _brent_walk(
    x: int, variant: MapVariant, step_budget: int, value_bound: int | None, record_values: bool
) -> TrajectoryRecord:
    """classify_trajectory's record from a Brent walk of the orbit of x,
    one col-step at a time, on arguments already checked."""
    step = step_function(variant)
    fixes_one = variant is MapVariant.STAR
    cur = tortoise = max_seen = x
    values = [x] if record_values else None
    power = 1
    gap = steps = 0
    outcome = None
    while steps < step_budget:
        # step(cur), taken inline: the value needs no validation here.
        if cur % 2 == 0:
            cur //= 2
        elif not (fixes_one and cur == 1):
            cur = 3 * cur + 1
        steps += 1
        gap += 1
        if values is not None:
            values.append(cur)
        if cur > max_seen:
            max_seen = cur
        # Reaching 1 means arriving from elsewhere; the orbit of 1 itself
        # has nowhere to arrive from and classifies as the cycle it is on.
        if cur == 1 and x != 1:
            outcome = ReachesOne(steps)
            break
        if value_bound is not None and cur > value_bound:
            break
        if cur == tortoise:
            outcome = _entered_cycle(x, gap, step, variant)
            if values is not None:
                values = values[: outcome.tail_length + gap + 1]
            break
        if gap == power:
            tortoise = cur
            power *= 2
            gap = 0
    if outcome is None:
        outcome = Unresolved(steps_taken=steps, max_value_seen=max_seen)
    return TrajectoryRecord(
        start=x,
        outcome=outcome,
        max_excursion=max_seen,
        values=tuple(values) if values is not None else None,
    )


def _entered_cycle(
    start: int, period: int, step: Callable[[int], int], variant: MapVariant
) -> EntersCycle:
    """The cycle of the given period that the orbit of start falls into.

    One pointer goes a full period ahead, then both move in lockstep
    until they meet at the loop's entry point; the steps they take to
    meet are the tail length.
    """
    from .cycles import ClosedLoop  # deferred: cycles imports this module

    ahead = start
    for _ in range(period):
        ahead = step(ahead)
    behind = start
    tail = 0
    while behind != ahead:
        behind = step(behind)
        ahead = step(ahead)
        tail += 1
    core = [behind]
    for _ in range(period - 1):
        core.append(step(core[-1]))
    return EntersCycle(ClosedLoop._from_core(core, variant), tail)
