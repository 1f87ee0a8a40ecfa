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
from collatzkit.dynamics import _FAR, _K, _LONG_K, _brent_walk, _descend


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


def test_iterate_k_huge_count_after_reaching_one():
    # 27 reaches 1 in 111 steps; from there STAR stays at 1 and STANDARD
    # cycles 1 -> 4 -> 2 -> 1, so the result has a closed form.
    k = 10**18
    for x, steps in ((1, 0), (27, 111)):
        assert iterate_k(x, k, MapVariant.STAR) == 1
        assert iterate_k(x, k, MapVariant.STANDARD) == (1, 4, 2)[(k - steps) % 3]
    # the closed form agrees with the walk on both sides of the arrival
    walked = naive_orbit_to_one(27) + [4, 2, 1] * 3
    for k in range(105, 120):
        assert iterate_k(27, k) == walked[k]
        assert iterate_k(27, k, MapVariant.STAR) == walked[min(k, 111)]


def test_iterate_k_rejects_negative_count():
    with pytest.raises(DomainError):
        iterate_k(3, -1)


def test_iterate_k_rejects_unknown_variant():
    # as classify_trajectory does, even when no step would read it
    for x, k in ((2, 5), (1, 3), (7, 0)):
        with pytest.raises(DomainError, match="variant"):
            iterate_k(x, k, "bogus")
    with pytest.raises(DomainError, match="variant"):
        classify_trajectory(2, "bogus")


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
    # a float, a bool and a string are refused as x and k are, not
    # truncated, counted as 1 or passed on to a TypeError
    for budget in (0, -3, 2.5, True, False, "3"):
        for call in (
            lambda: classify_trajectory(27, step_budget=budget),
            lambda: total_stopping_time(2, step_budget=budget),
            lambda: find_cycle(27, step_budget=budget),
        ):
            with pytest.raises(DomainError, match="step_budget"):
                call()


def plain_descend(c, floor, r, p, budget):
    """_descend's contract, one col-step at a time."""
    while c > floor:
        if r >= budget:
            return -1, r, p
        c = c // 2 if c % 2 == 0 else 3 * c + 1
        r += 1
        p = max(p, c)
    return c, r, p


def far_preimage(v, floor, rnd):
    """A start at or above (floor + 1)·2^_FAR whose orbit reaches v after
    a multiple of _LONG_K steps of T, so that long blocks land on v."""
    c = v
    while c >> _FAR <= floor:
        for _ in range(_LONG_K):
            # the odd preimage y of c under T, (3y + 1)/2 = c, if there is one
            y, rem = divmod(2 * c - 1, 3)
            c = y if rem == 0 and y & 1 and rnd.random() < 0.3 else 2 * c
    return c


def first_block(c, k):
    """(value, col-steps, peak) after k steps of T from c, c included in
    the peak."""
    n, peak = 0, c
    for _ in range(k):
        if c & 1:
            c, n, peak = (3 * c + 1) >> 1, n + 2, max(peak, 3 * c + 1)
        else:
            c, n = c >> 1, n + 1
    return c, n, peak


@st.composite
def descend_cases(draw):
    c = draw(st.integers(0, 310).flatmap(lambda bits: st.integers(1, 2**bits)))
    kind = draw(
        st.sampled_from(
            ("one", "large", "threshold", "gate", "long threshold", "long budget", "block peak")
        )
    )
    if kind == "one":
        floor = 1
    elif kind == "large":
        floor = draw(st.integers(1, 2**300))
    elif kind == "threshold":
        # c just above or just below (floor + 1)·2^K, where blocks start
        floor = max(1, (c >> _K) - 1 + draw(st.integers(-2, 2)))
    elif kind == "gate":
        # c just above or just below (floor + 1)·2^_FAR, where long blocks start
        floor = draw(st.integers(1, 2**200))
        c = ((floor + 1) << _FAR) + draw(st.integers(-2, 2))
    elif kind == "block peak":
        # The first two blocks are all 3x+1 steps, on the residue whose
        # block has the largest peak, and p is just below, at or just
        # above the second one's peak.
        floor, k = 1, draw(st.sampled_from((_K, _LONG_K)))
        c = (c % 2**_FAR if k == _K else ((floor + 1) << _FAR) + c) | ((1 << 2 * k) - 1)
    else:
        floor = draw(st.integers(1, 2**100))
        if kind == "long threshold":
            # a far start whose long blocks land just above or below
            # (floor + 1)·2^_LONG_K, where they stop
            v = ((floor + 1) << _LONG_K) + draw(st.integers(-2, 2))
            c = far_preimage(v, floor, draw(st.randoms(use_true_random=False)))
        else:
            c = ((floor + 1) << _FAR) + draw(st.integers(0, 2**200))
    r = draw(st.integers(0, 50))
    p = c + draw(st.one_of(st.just(0), st.integers(1, 2**320)))
    # Small budgets run out inside the first blocks.
    budget = r + draw(st.one_of(st.integers(-2, 40), st.integers(41, 10**5)))
    if kind == "long budget":
        # a far start whose budget runs out inside its first long block
        # or just fits it
        budget = r + first_block(c, _LONG_K)[1] + draw(st.integers(-3, 1))
    elif kind == "block peak":
        # and a budget of those two blocks alone, so that their peak is
        # the walk's
        v, n1, _ = first_block(c, k)
        _, n2, peak = first_block(v, k)
        p, budget = max(c, peak + draw(st.integers(-2, 1))), r + n1 + n2
    return c, floor, r, p, max(1, budget)


@settings(max_examples=500, deadline=None)
@given(case=descend_cases())
def test_descend_matches_plain_walk(case):
    assert _descend(*case) == plain_descend(*case)


@settings(max_examples=300, deadline=None)
@given(case=descend_cases(), data=st.data())
def test_descend_with_a_lower_block_threshold(case, data):
    # Blocks from above a lower threshold may pass the first value at or
    # below floor, so the walk may land further down the orbit; steps
    # and peak stay those of a plain walk to the value returned, and -1
    # means the orbit stayed above floor and every block's floor.
    c, floor, r, p, budget = case
    high = data.draw(st.integers(floor, (floor + 1) << _K))
    value, steps, peak = _descend(c, floor, r, p, budget, high)
    if value < 0:
        assert plain_descend(c, min(high >> _K, floor + 1) - 1, r, p, budget)[0] == -1
        return
    assert value <= floor and r <= steps <= max(r, budget)
    for _ in range(steps - r):
        c = c // 2 if c % 2 == 0 else 3 * c + 1
        p = max(p, c)
    assert (value, peak) == (c, p)


SEEDED_300_BIT = random.Random(300).getrandbits(300) | 1 << 299


@pytest.mark.parametrize("x", [1, 2, 3, 27, 2**64 + 1, SEEDED_300_BIT])
def test_arrival_walk_agrees_with_brent(x):
    # classify_trajectory walks toward 1 first and falls back to Brent's
    # walk; both must give one record at budgets around the total
    # stopping time t and bounds around the peak and below the start.
    _, t, peak = plain_descend(x, 1, 0, x, 10**6)
    for variant in MapVariant:
        loop, closes_on = LOOP_OF_ONE[variant]
        for budget in sorted({max(1, t - 1), max(1, t), t + 1}):
            for bound in (None, peak - 1, peak, x - 1):
                if bound is not None and bound < 1:
                    continue
                fast = classify_trajectory(x, variant, budget, bound)
                assert fast == _brent_walk(x, variant, budget, bound, False)
            assert total_stopping_time(x, budget) == (t if t <= budget else None)
            arrives = t <= budget if x != 1 else closes_on <= budget
            expected = validate_loop(loop, variant) if arrives else None
            assert find_cycle(x, variant, budget) == expected
