import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    DomainError,
    EntersCycle,
    MapVariant,
    ReachesOne,
    TrajectoryRecord,
    Unresolved,
    classify_trajectory,
    col,
    col_star,
    find_cycle,
    iterate_k,
    preimage,
    total_stopping_time,
    validate_loop,
)


def naive_orbit_to_one(x):
    seq = [x]
    while x != 1:
        x = x // 2 if x % 2 == 0 else 3 * x + 1
        seq.append(x)
    return seq


def test_col_small_table():
    assert col(1) == 4
    assert col(2) == 1
    assert col(3) == 10
    assert col(4) == 2
    assert col(5) == 16
    assert col(6) == 3
    assert col(7) == 22
    assert col(27) == 82


def test_col_parity_forms():
    rng = random.Random(11)
    for _ in range(500):
        t = rng.randrange(1, 10**9)
        assert col(2 * t) == t
        assert col(2 * t + 1) == 6 * t + 4


def test_col_odd_lands_on_4_mod_6():
    rng = random.Random(12)
    for _ in range(500):
        x = 2 * rng.randrange(0, 10**9) + 1
        assert col(x) % 6 == 4


def test_col_star_agrees_except_at_one():
    assert col_star(1) == 1
    assert col(1) == 4
    rng = random.Random(13)
    for _ in range(300):
        x = rng.randrange(2, 10**9)
        assert col_star(x) == col(x)


@pytest.mark.parametrize("bad", [0, -1, -27])
def test_domain_rejected(bad):
    with pytest.raises(DomainError):
        col(bad)
    with pytest.raises(DomainError):
        col_star(bad)
    with pytest.raises(DomainError):
        classify_trajectory(bad)


def test_non_integers_rejected():
    with pytest.raises(DomainError):
        col(2.5)
    with pytest.raises(DomainError):
        col("27")


def test_iterate_k_known():
    assert iterate_k(3, 2) == 5
    assert iterate_k(3, 0) == 3
    assert iterate_k(1, 3) == 1  # one lap of the trivial loop


def test_iterate_k_composes():
    rng = random.Random(14)
    for _ in range(100):
        x = rng.randrange(1, 10**6)
        a = rng.randrange(0, 50)
        b = rng.randrange(0, 50)
        assert iterate_k(x, a + b) == iterate_k(iterate_k(x, a), b)


def test_iterate_k_star_fixed_point():
    assert iterate_k(1, 7, MapVariant.STAR) == 1
    assert iterate_k(5, 100, MapVariant.STAR) == 1


def test_iterate_k_rejects_negative_count():
    with pytest.raises(DomainError):
        iterate_k(3, -1)


def test_total_stopping_time_known():
    assert total_stopping_time(1) == 0
    assert total_stopping_time(2) == 1
    assert total_stopping_time(6) == 8
    assert total_stopping_time(27) == 111


def test_total_stopping_time_is_least():
    rng = random.Random(15)
    for _ in range(50):
        x = rng.randrange(2, 5000)
        k = total_stopping_time(x)
        orbit = naive_orbit_to_one(x)
        assert len(orbit) - 1 == k
        assert all(v != 1 for v in orbit[:-1])


def test_total_stopping_time_budget_exhaustion():
    assert total_stopping_time(27, step_budget=50) is None
    assert total_stopping_time(27, step_budget=111) == 111


def test_preimage_known():
    assert preimage(16) == {5, 32}
    assert preimage(4) == {1, 8}
    assert preimage(1) == {2}
    assert preimage(5) == {10}


def test_preimage_forward_sound():
    for x in range(1, 2000):
        for y in preimage(x):
            assert col(y) == x


def test_preimage_complete_small():
    # brute-force inverse over a window that covers every candidate
    for x in range(1, 300):
        brute = {y for y in range(1, 2 * 300 + 1) if col(y) == x}
        assert preimage(x) == brute


def test_preimage_odd_branch_needs_4_mod_6():
    for x in range(1, 500):
        odd_pre = {y for y in preimage(x) if y % 2 == 1}
        if x % 6 == 4 and x != 4:
            assert odd_pre == {(x - 1) // 3}
        elif x == 4:
            assert odd_pre == {1}
        else:
            assert odd_pre == set()


def test_classify_reaches_one():
    rec = classify_trajectory(27)
    assert rec.outcome == ReachesOne(111)
    assert rec.max_excursion == 9232
    assert rec.values is None
    assert classify_trajectory(2).outcome == ReachesOne(1)
    assert classify_trajectory(4).outcome == ReachesOne(2)


def test_classify_start_one_standard():
    rec = classify_trajectory(1)
    assert isinstance(rec.outcome, EntersCycle)
    assert rec.outcome.loop.values == (1, 4, 2, 1)
    assert rec.outcome.tail_length == 0
    assert rec.max_excursion == 4


def test_classify_start_one_star():
    rec = classify_trajectory(1, MapVariant.STAR)
    assert isinstance(rec.outcome, EntersCycle)
    assert rec.outcome.loop.values == (1, 1)
    assert rec.outcome.tail_length == 0
    assert rec.max_excursion == 1


def test_classify_star_reaches_one_from_elsewhere():
    # arrival at 1 is chronologically first, so the fixed point is
    # reported as a cycle only when the start is 1 itself
    for x in (2, 6, 27, 97):
        rec = classify_trajectory(x, MapVariant.STAR)
        assert rec.outcome == ReachesOne(total_stopping_time(x))


def test_classify_budget_unresolved():
    rec = classify_trajectory(27, step_budget=50)
    assert rec.outcome == Unresolved(steps_taken=50, max_value_seen=1780)
    assert rec.max_excursion == 1780


def test_classify_value_bound():
    # 27 -> 82 -> 41 -> 124 is the first value above 100
    rec = classify_trajectory(27, value_bound=100)
    assert rec.outcome == Unresolved(steps_taken=3, max_value_seen=124)


def test_classify_records_values():
    rec = classify_trajectory(27, record_values=True)
    assert rec.values == tuple(naive_orbit_to_one(27))
    assert len(rec.values) == 112

    rec1 = classify_trajectory(1, record_values=True)
    assert rec1.values == (1, 4, 2, 1)

    rec50 = classify_trajectory(27, step_budget=50, record_values=True)
    assert rec50.values == tuple(naive_orbit_to_one(27)[:51])


def test_classify_sufficient_budget_always_resolves():
    rng = random.Random(16)
    for _ in range(200):
        x = rng.randrange(1, 10**5)
        rec = classify_trajectory(x)
        if isinstance(rec.outcome, EntersCycle):
            assert rec.outcome.loop.values == (1, 4, 2, 1)
        else:
            assert isinstance(rec.outcome, ReachesOne)


def test_classify_excursion_matches_naive():
    rng = random.Random(17)
    for _ in range(100):
        x = rng.randrange(2, 10**5)
        rec = classify_trajectory(x)
        assert rec.max_excursion == max(naive_orbit_to_one(x))


# The loop through 1 under each variant, and the step on which Brent's
# method closes it for the orbit of 1, which has no arrival to stop at.
LOOP_OF_ONE = {MapVariant.STANDARD: ((1, 4, 2, 1), 6), MapVariant.STAR: ((1, 1), 1)}


def plain_record(x, variant, budget, bound, record):
    """The record classify_trajectory must give, from a plain list walk.

    From x >= 2 the orbit reaches 1, runs out of budget or passes the
    bound; the orbit of 1 ends on the step that closes its loop.
    """
    loop, closes_on = LOOP_OF_ONE[variant]
    step = col_star if variant is MapVariant.STAR else col
    values = [x]
    outcome = None
    while outcome is None and len(values) <= budget:
        values.append(step(values[-1]))
        steps = len(values) - 1
        if x != 1 and values[-1] == 1:
            outcome = ReachesOne(steps)
        elif bound is not None and values[-1] > bound:
            outcome = Unresolved(steps, max(values))
        elif x == 1 and steps == closes_on:
            outcome = EntersCycle(validate_loop(loop, variant), 0)
            values = list(loop)
    if outcome is None:
        outcome = Unresolved(budget, max(values))
    return TrajectoryRecord(x, outcome, max(values), tuple(values) if record else None)


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(
        st.just(1),
        st.integers(2, 10**5),
        st.sampled_from([2**64 + 1, 2**65, 3 * 2**64, 2**70 + 27]),
    ),
    budget=st.integers(1, 400),
    bound=st.none() | st.integers(1, 80).flatmap(lambda bits: st.integers(1, 2**bits)),
    record=st.booleans(),
)
def test_classify_matches_plain_walk(x, budget, bound, record):
    for variant in MapVariant:
        expected = plain_record(x, variant, budget, bound, record)
        assert classify_trajectory(x, variant, budget, bound, record) == expected
        # find_cycle has no bound: it finds the loop through 1 exactly
        # when the unbounded walk ends on it within the budget.
        unbounded = plain_record(x, variant, budget, None, False).outcome
        if isinstance(unbounded, Unresolved):
            assert find_cycle(x, variant, budget) is None
        else:
            assert find_cycle(x, variant, budget) == validate_loop(LOOP_OF_ONE[variant][0], variant)


def test_step_budget_must_be_positive():
    with pytest.raises(DomainError):
        classify_trajectory(5, step_budget=0)
    with pytest.raises(DomainError):
        total_stopping_time(5, step_budget=0)
