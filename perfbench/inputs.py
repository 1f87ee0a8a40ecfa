"""Seeded inputs for every workload.

Each function is a pure function of the seed: the same seed gives the
same inputs, and the program under test sees only what these return.
"""

from __future__ import annotations

import random

CHUNK = 1 << 16  # VerifyConfig's default chunk_size
# A sweep whose range_hi is 2^20 - 1 builds the full default table of
# 2^20 entries. The verifier memoises one table per process, keyed by
# its size, so no in-process sweep may end below this start.
TABLE_HI = (1 << 20) - 1
DENSE_RANGE = (1, 10**7)

# Windows below 2^62 run on the int64 lane kernel and must span two
# chunks so that two workers can split them; above 2^62 every start
# takes the exact big-int scalar path, which is ~40 us per start.
VECTOR_MAGNITUDES = (32, 36, 40, 44, 48, 52, 56, 60)
SCALAR_MAGNITUDES = (63, 64, 66)
VECTOR_WINDOW = 2 * CHUNK
SCALAR_WINDOW = 1 << 12
ORACLE_WINDOW = 256

ORBIT_STARTS = 40
ORBIT_BITS = (8, 2048)
OUT_DEGREE_QUERIES = 6
WITNESS_QUERIES = 7


def worker_order(seed: int, pass_index: int) -> tuple[int, int]:
    """Which worker count runs first in a pass of a sweep."""
    rng = random.Random(seed * 1_000_003 + pass_index)
    return (1, 2) if rng.random() < 0.5 else (2, 1)


def sparse_windows() -> list[tuple[int, int]]:
    """(lo, hi) per magnitude, at fixed starts. Consecutive starts share
    orbit tails, so a window's cost depends on where it sits: moving the
    2^60 window by a seeded offset changed its cost by a third at this
    commit. Fixed windows keep the work per pass the same for every seed;
    the seed picks the window order, the worker order and the oracle
    sub-window."""
    out = []
    for k in VECTOR_MAGNITUDES + SCALAR_MAGNITUDES:
        lo = (1 << k) + random.Random(k).randrange(1 << (k - 8))
        size = VECTOR_WINDOW if k in VECTOR_MAGNITUDES else SCALAR_WINDOW
        out.append((lo, lo + size - 1))
    return out


def window_order(seed: int, pass_index: int) -> list[tuple[int, int]]:
    windows = sparse_windows()
    random.Random(seed * 1_000_003 + pass_index + 1).shuffle(windows)
    return windows


def oracle_window(seed: int) -> tuple[int, int, int]:
    """(window lo, sub-window lo, sub-window hi) checked against the
    per-x oracle: one seeded sub-window of one seeded window."""
    windows = sparse_windows()
    rng = random.Random(seed + 7)
    lo, hi = windows[rng.randrange(len(windows))]
    a = rng.randrange(lo, hi - ORACLE_WINDOW + 2)
    return lo, a, a + ORACLE_WINDOW - 1


def explore_moduli(seed: int) -> list[int]:
    """Even and odd moduli from about 1000 to 8200, with 2^13 and 3^7.
    Bands are narrow because strongly_connected_components is quadratic
    in the modulus at this commit, so wide bands would make pass time
    depend on the seed."""
    rng = random.Random(seed + 11)
    even = rng.choice([m for m in range(1000, 1101, 2) if m != 1024])
    odd = rng.randrange(1001, 1100, 2)
    odd_mid = rng.randrange(4001, 4100, 2)
    return [even, odd, 3**7, odd_mid, 2**13]


def orbit_starts(seed: int) -> list[int]:
    """Starts of 8 to 2048 bits, one per log-uniform stratum."""
    rng = random.Random(seed + 13)
    lo_bits, hi_bits = ORBIT_BITS
    ratio = hi_bits / lo_bits
    out = []
    for i in range(ORBIT_STARTS):
        bits = int(lo_bits * ratio ** ((i + rng.random()) / ORBIT_STARTS))
        bits = max(lo_bits, min(hi_bits, bits))
        out.append(rng.getrandbits(bits) | (1 << (bits - 1)))
    return out


def explore_stream(seed: int) -> list[tuple]:
    """One pass of library queries, grouped so that each residue group
    builds its graph first. Groups run in a seeded order."""
    rng = random.Random(seed + 17)
    groups: list[tuple] = [("orbit", x) for x in orbit_starts(seed)]
    for m in explore_moduli(seed):
        residues = [rng.randrange(m) for _ in range(OUT_DEGREE_QUERIES)]
        # Edge positions as fractions of the edge count, resolved once the
        # graph exists; build_graph yields 2 edges per vertex for odd m
        # and between 1 and 2 for even m.
        edge_picks = [rng.random() for _ in range(WITNESS_QUERIES)]
        groups.append(("residue", m, tuple(residues), tuple(edge_picks)))
    rng.shuffle(groups)
    return groups


def cli_commands(seed: int) -> list[list[str]]:
    """One pass of CLI commands on small inputs, then two cold sweeps."""
    rng = random.Random(seed + 19)
    return [
        ["traj", str(rng.randrange(2, 10**5))],
        ["preimage", str(6 * rng.randrange(0, 10**5) + 4)],
        ["cycle", str(rng.randrange(2, 10**5))],
        ["graph", "--modulus", str(rng.randrange(6, 65))],
        ["verify", "--from", "1", "--to", "1000000"],
        ["verify", "--from", "1", "--to", "1000000", "--workers", "1"],
    ]
