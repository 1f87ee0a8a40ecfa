"""Closed loops of the 3x+1 map: validation, canonical form, powers.

A closed loop is a finite orbit segment (a_0, ..., a_k) with k >= 1
where each a_i is one step from a_(i-1) and a_k == a_0. The canonical
form rotates the loop so its minimum element comes first; the closing
element is kept, so the stored tuple always has length period + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .dynamics import (
    DEFAULT_STEP_BUDGET,
    EntersCycle,
    MapVariant,
    ReachesOne,
    _as_int,
    classify_trajectory,
    step_function,
)


class LoopError(ValueError):
    """Base class for loop candidate rejections."""


class EmptySequenceError(LoopError):
    """Candidate has no elements at all."""


class LoopTooShortError(LoopError):
    """Candidate has fewer than two elements, so no step to check."""


class EndpointMismatchError(LoopError):
    """Candidate does not end where it starts."""


class ZeroElementError(LoopError):
    """Candidate contains a value outside the positive integers."""


class StepMismatchError(LoopError):
    """Some consecutive pair is not one application of the map."""

    def __init__(self, index: int, expected: int, got: int):
        self.index = index
        self.expected = expected
        self.got = got
        super().__init__(
            f"element {index} should be {expected} (one step from the "
            f"previous element), got {got}"
        )


@dataclass(frozen=True)
class ClosedLoop:
    """A validated closed loop in canonical minimum-first rotation."""

    values: tuple[int, ...]
    variant: MapVariant = MapVariant.STANDARD

    @property
    def period(self) -> int:
        return len(self.values) - 1

    @property
    def minimum(self) -> int:
        return self.values[0]

    @classmethod
    def _from_core(cls, core: Iterable[int], variant: MapVariant) -> "ClosedLoop":
        # core is one lap without the closing element, in orbit order.
        core = tuple(core)
        i = core.index(min(core))
        rotated = core[i:] + core[:i]
        return cls(rotated + (rotated[0],), variant)


def validate_loop(
    candidate: Sequence[int], variant: MapVariant = MapVariant.STANDARD
) -> ClosedLoop:
    """Check a candidate sequence and return it as a canonical ClosedLoop.

    The candidate must be nonempty, contain only positive integers, have
    at least one step, close on its first element, and follow the step
    map exactly. Rejections raise the LoopError subclass naming the
    first violated requirement.
    """
    values = tuple(_as_int(v, "loop element", error=ZeroElementError) for v in candidate)
    if len(values) == 0:
        raise EmptySequenceError("loop candidate is empty")
    if len(values) == 1:
        raise LoopTooShortError("loop candidate needs at least one step")
    if values[-1] != values[0]:
        raise EndpointMismatchError(
            f"loop must close on its first element: starts {values[0]}, ends {values[-1]}"
        )
    step = step_function(variant)
    for i in range(1, len(values)):
        expected = step(values[i - 1])
        if values[i] != expected:
            raise StepMismatchError(i, expected, values[i])
    return ClosedLoop._from_core(values[:-1], variant)


def loop_power(loop: ClosedLoop, m: int) -> ClosedLoop:
    """Concatenate m laps of a loop into one longer closed loop.

    The result walks the same cycle m times, so its tuple has length
    m * period + 1 and still validates. m == 1 returns the loop itself.
    """
    m = _as_int(m, "m")
    if m == 1:
        return loop
    lap = loop.values[1:]
    return ClosedLoop(loop.values + lap * (m - 1), loop.variant)


_LOOP_THROUGH_ONE = {
    MapVariant.STANDARD: validate_loop((1, 4, 2, 1)),
    MapVariant.STAR: validate_loop((1, 1), MapVariant.STAR),
}


def find_cycle(
    start: int,
    variant: MapVariant = MapVariant.STANDARD,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> ClosedLoop | None:
    """The loop the orbit of start falls into, or None if the budget runs out.

    This reads classify_trajectory's outcome. An orbit that arrives at 1
    is on the variant's loop through 1 (1-4-2-1 under STANDARD, the
    fixed point under STAR), so that loop is returned as soon as the
    arrival falls within step_budget. Any other loop is returned once
    Brent's method closes it within the budget; otherwise the result
    is None.
    """
    start = _as_int(start, "start")
    outcome = classify_trajectory(start, variant, step_budget).outcome
    if isinstance(outcome, EntersCycle):
        return outcome.loop
    if isinstance(outcome, ReachesOne):
        return _LOOP_THROUGH_ONE[variant]
    return None
