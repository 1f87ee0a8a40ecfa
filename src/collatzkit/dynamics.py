"""The 3x+1 map and its basic orbit machinery.

Everything downstream (loop validation, residue graphs, range
verification) is built on the three primitives here: the step map,
bounded iteration, and trajectory classification with cycle detection.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

if TYPE_CHECKING:
    from .cycles import ClosedLoop

DEFAULT_STEP_BUDGET = 10**5


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


def _as_positive(x, name: str = "x") -> int:
    # operator.index admits ints and int-like types (numpy integers)
    # while rejecting floats and strings outright.
    try:
        x = operator.index(x)
    except TypeError:
        raise DomainError(f"{name} must be a positive integer, got {x!r}") from None
    if x < 1:
        raise DomainError(f"{name} must be a positive integer, got {x}")
    return x


def col(x: int) -> int:
    """One step of the map: x/2 for even x, 3x+1 for odd x."""
    x = _as_positive(x)
    return x // 2 if x % 2 == 0 else 3 * x + 1


def col_star(x: int) -> int:
    """Loop-breaking variant: fixes 1, agrees with col everywhere else."""
    x = _as_positive(x)
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
    x = _as_positive(x)
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"k must be a nonnegative integer, got {k!r}") from None
    if k < 0:
        raise DomainError(f"k must be a nonnegative integer, got {k}")
    star = variant is MapVariant.STAR
    for _ in range(k):
        if star and x == 1:
            continue
        x = x // 2 if x % 2 == 0 else 3 * x + 1
    return x


def total_stopping_time(x: int, step_budget: int = DEFAULT_STEP_BUDGET) -> int | None:
    """Number of steps until the orbit of x first hits 1, or None.

    Returns 0 for x == 1. Returns None when the orbit has not reached 1
    within step_budget applications of the map; with the default budget
    that does not happen for any x known to science.
    """
    x = _as_positive(x)
    if step_budget < 1:
        raise DomainError(f"step_budget must be >= 1, got {step_budget}")
    if x == 1:
        return 0
    steps = 0
    while steps < step_budget:
        x = x // 2 if x % 2 == 0 else 3 * x + 1
        steps += 1
        if x == 1:
            return steps
    return None


def preimage(x: int) -> set[int]:
    """All y >= 1 with col(y) == x.

    2x is always a preimage. An odd preimage (x - 1) / 3 exists exactly
    when x == 4 (mod 6): x - 1 must be divisible by 3 and the quotient
    must come out odd and >= 1, which pins x to that residue class.
    """
    x = _as_positive(x)
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
    x = _as_positive(x)
    if step_budget < 1:
        raise DomainError(f"step_budget must be >= 1, got {step_budget}")
    if value_bound is not None:
        value_bound = _as_positive(value_bound, "value_bound")
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
