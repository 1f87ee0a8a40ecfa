import random

import pytest

from collatzkit import (
    DomainError,
    EmptySequenceError,
    EndpointMismatchError,
    LoopTooShortError,
    MapVariant,
    StepMismatchError,
    ZeroElementError,
    col,
    find_cycle,
    loop_power,
    validate_loop,
)


def test_validate_trivial_loop():
    loop = validate_loop((1, 4, 2, 1))
    assert loop.values == (1, 4, 2, 1)
    assert loop.period == 3
    assert loop.minimum == 1
    assert loop.variant is MapVariant.STANDARD


@pytest.mark.parametrize("rotation", [(1, 4, 2, 1), (4, 2, 1, 4), (2, 1, 4, 2)])
def test_validate_canonicalizes_rotations(rotation):
    assert validate_loop(rotation).values == (1, 4, 2, 1)


def test_validate_star_fixed_point():
    loop = validate_loop((1, 1), MapVariant.STAR)
    assert loop.values == (1, 1)
    assert loop.period == 1


def test_rejects_empty():
    with pytest.raises(EmptySequenceError):
        validate_loop(())


def test_rejects_singleton():
    with pytest.raises(LoopTooShortError):
        validate_loop((4,))


def test_rejects_open_endpoints():
    with pytest.raises(EndpointMismatchError):
        validate_loop((1, 4, 2))


def test_rejects_wrong_step():
    with pytest.raises(StepMismatchError) as info:
        validate_loop((1, 4, 3, 1))
    assert info.value.index == 2
    assert info.value.expected == 2
    assert info.value.got == 3


def test_rejects_fixed_point_under_standard():
    # (1,1) is only a loop for the variant that pins 1
    with pytest.raises(StepMismatchError):
        validate_loop((1, 1))


@pytest.mark.parametrize("candidate", [(0, 0), (1, 4, 0, 1), (-2, -1, -2), (1, 4.0, 2, 1)])
def test_rejects_nonpositive_elements(candidate):
    with pytest.raises(ZeroElementError):
        validate_loop(candidate)


def test_loop_power_identity():
    loop = validate_loop((1, 4, 2, 1))
    assert loop_power(loop, 1) is loop


def test_loop_power_three():
    loop = validate_loop((1, 4, 2, 1))
    cubed = loop_power(loop, 3)
    assert cubed.values == (1, 4, 2, 1, 4, 2, 1, 4, 2, 1)
    assert len(cubed.values) == 10
    assert cubed.period == 9


@pytest.mark.parametrize("m", range(1, 21))
def test_loop_power_validates(m):
    loop = validate_loop((1, 4, 2, 1))
    powered = loop_power(loop, m)
    assert powered.period == m * loop.period
    assert validate_loop(powered.values) == powered


def test_loop_power_star():
    loop = validate_loop((1, 1), MapVariant.STAR)
    p5 = loop_power(loop, 5)
    assert p5.values == (1,) * 6
    assert validate_loop(p5.values, MapVariant.STAR) == p5


@pytest.mark.parametrize("m", [0, -1, 2.0])
def test_loop_power_rejects_bad_multiplier(m):
    loop = validate_loop((1, 4, 2, 1))
    with pytest.raises(DomainError):
        loop_power(loop, m)


def test_find_cycle_trivial():
    assert find_cycle(1).values == (1, 4, 2, 1)
    assert find_cycle(7).values == (1, 4, 2, 1)
    assert find_cycle(1, MapVariant.STAR).values == (1, 1)
    assert find_cycle(40, MapVariant.STAR).values == (1, 1)


def test_find_cycle_budget_exhaustion():
    assert find_cycle(27, step_budget=10) is None
    # 27 arrives at 1 on step 111, so the loop through 1 is known from
    # there, before Brent's method would close it (step 130).
    assert find_cycle(27, step_budget=110) is None
    assert find_cycle(27, step_budget=111).values == (1, 4, 2, 1)
    assert find_cycle(27, MapVariant.STAR, 111).values == (1, 1)
    # Start 1 arrives nowhere; Brent's method closes its loop on step 6,
    # or on step 1 for the STAR fixed point.
    assert find_cycle(1, step_budget=5) is None
    assert find_cycle(1, step_budget=6).values == (1, 4, 2, 1)
    assert find_cycle(1, MapVariant.STAR, 1).values == (1, 1)


def test_find_cycle_random_starts():
    rng = random.Random(21)
    for _ in range(100):
        x = rng.randrange(1, 10**4)
        loop = find_cycle(x)
        assert loop is not None
        assert loop.values == (1, 4, 2, 1)


def test_find_cycle_result_revalidates():
    loop = find_cycle(97)
    assert validate_loop(loop.values) == loop


def test_canonical_form_minimum_first():
    rng = random.Random(22)
    for _ in range(50):
        x = rng.randrange(1, 10**4)
        loop = find_cycle(x)
        assert loop.values[0] == min(loop.values)
        assert loop.values[-1] == loop.values[0]
        # walking the loop with the map reproduces it
        for i in range(1, len(loop.values)):
            assert loop.values[i] == col(loop.values[i - 1])
