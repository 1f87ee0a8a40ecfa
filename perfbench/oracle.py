"""Reference implementations and output checks.

Every check returns a list of error strings, empty when the output is
right. Nothing here imports collatzkit: the references are written
independently of the package, from the definitions, so a check can
reject what the package gets wrong. Checks run outside timed regions.
"""

from __future__ import annotations

import json

from inputs import DENSE_RANGE

# Known records over [1, 10^7] and [1, 10^6] (OEIS A006877, A006884).
DENSE_RECORDS = {
    "max_total_stopping_time": {"value": 685, "argmax": 8400511},
    "max_excursion": {"value": 60342610919632, "argmax": 6631675},
}
MILLION_RECORDS = {
    "max_total_stopping_time": {"value": 524, "argmax": 837799},
    "max_excursion": {"value": 56991483520, "argmax": 704511},
}
TRIVIAL_LOOP = (1, 4, 2, 1)


def walk(x: int) -> tuple[int, int]:
    """(steps to reach 1, largest value on the way) by plain iteration."""
    steps, peak = 0, x
    while x != 1:
        x = x // 2 if x % 2 == 0 else 3 * x + 1
        steps += 1
        if x > peak:
            peak = x
    return steps, peak


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def oracle_payload(lo: int, hi: int) -> dict:
    """The payload verify_range must give for [lo, hi] at the default
    step budget: every start verified, records over exact walks, ties
    to the smaller start."""
    best_steps = best_peak = None
    for x in range(lo, hi + 1):
        s, p = walk(x)
        if best_steps is None or s > best_steps[0]:
            best_steps = (s, x)
        if best_peak is None or p > best_peak[0]:
            best_peak = (p, x)
    return {
        "segments": [[lo, hi]],
        "verified_count": hi - lo + 1,
        "unresolved": [],
        "cycles_found": [],
        "max_total_stopping_time": {"value": best_steps[0], "argmax": best_steps[1]},
        "max_excursion": {"value": best_peak[0], "argmax": best_peak[1]},
    }


def check_sweep(payload: dict, segments: list[list[int]]) -> list[str]:
    """Every start of the given segments verified, nothing unresolved,
    no non-trivial cycle."""
    errors = []
    want = sum(hi - lo + 1 for lo, hi in segments)
    if payload["segments"] != segments:
        errors.append(f"segments {payload['segments']} != {segments}")
    if payload["verified_count"] != want:
        errors.append(f"verified_count {payload['verified_count']} != {want}")
    if payload["unresolved"]:
        errors.append(f"{len(payload['unresolved'])} unresolved starts")
    if payload["cycles_found"]:
        errors.append(f"cycles found: {payload['cycles_found']}")
    return errors


def check_dense(payload: dict) -> list[str]:
    errors = check_sweep(payload, [list(DENSE_RANGE)])
    for key, want in DENSE_RECORDS.items():
        if payload[key] != want:
            errors.append(f"{key} {payload[key]} != known record {want}")
    return errors


def check_identical(a: dict, b: dict, what: str) -> list[str]:
    if canonical(a) != canonical(b):
        return [f"{what}: payloads differ"]
    return []


def check_records_walk(payload: dict) -> list[str]:
    """Re-derive each record's value at its argmax by a plain walk."""
    errors = []
    for key, index in (("max_total_stopping_time", 0), ("max_excursion", 1)):
        stat = payload[key]
        if stat is None:
            errors.append(f"{key} missing")
            continue
        got = walk(stat["argmax"])[index]
        if got != stat["value"]:
            errors.append(f"{key} at {stat['argmax']}: walk gives {got}, report {stat['value']}")
    return errors


def check_oracle(payload: dict, lo: int, hi: int) -> list[str]:
    return check_identical(payload, oracle_payload(lo, hi), f"oracle [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Residue graphs


def successors(m: int, r: int) -> list[tuple[int, str]]:
    """Labeled successors of class r mod m, from the definition: the
    image of each member x = r + m*t under the branch its parity takes."""
    out = set()
    # Members r + m*t for t in 0..3 cover both parities of x and both
    # parities of (x - r) / m, which is all that decides the class of
    # the image; residue 0 has no member 0, so start it at m.
    for t in range(4):
        x = r + m * t
        if x == 0:
            continue
        if x % 2:
            out.add(((3 * x + 1) % m, "Triple"))
        else:
            out.add(((x // 2) % m, "Halve"))
    return sorted(out)


def reference_edges(m: int) -> list[tuple[int, int, str]]:
    return [(r, d, lab) for r in range(m) for d, lab in successors(m, r)]


def reference_scc(m: int) -> list[list[int]]:
    """Kosaraju on the reference adjacency (a different algorithm from
    the package's Tarjan), components ascending, ordered by minimum."""
    adj = [sorted({d for d, _ in successors(m, r)}) for r in range(m)]
    radj: list[list[int]] = [[] for _ in range(m)]
    for v in range(m):
        for w in adj[v]:
            radj[w].append(v)
    seen = [False] * m
    order: list[int] = []
    for root in range(m):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                stack.pop()
                order.append(v)
    comp = [-1] * m
    comps: list[list[int]] = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        members = [root]
        comp[root] = len(comps)
        todo = [root]
        while todo:
            v = todo.pop()
            for w in radj[v]:
                if comp[w] == -1:
                    comp[w] = len(comps)
                    members.append(w)
                    todo.append(w)
        comps.append(sorted(members))
    comps.sort(key=lambda c: c[0])
    return comps


def reference_dot(m: int) -> str:
    lines = [f"digraph collatz_mod_{m} {{"]
    lines += [f"  {v};" for v in range(m)]
    lines += [
        f'  {s} -> {d} [label="Col", branch="{lab}"];' for s, d, lab in reference_edges(m)
    ]
    return "\n".join(lines + ["}"]) + "\n"


def edge_tuples(graph) -> list[tuple[int, int, str]]:
    return [(e.src, e.dst, e.label.value) for e in graph.edges]


def check_graph(m: int, graph, sccs, roundtrip, dot: str) -> list[str]:
    errors = []
    if graph.modulus != m or edge_tuples(graph) != reference_edges(m):
        errors.append(f"build_graph({m}): edges differ from the reference")
    if sccs != reference_scc(m):
        errors.append(f"strongly_connected_components({m}) differs from the reference")
    if roundtrip != graph:
        errors.append(f"from_json(to_json(g)) != g at modulus {m}")
    if dot != reference_dot(m):
        errors.append(f"to_dot({m}) differs from the reference")
    return errors


def check_out_degree(m: int, r: int, got: int) -> list[str]:
    want = len({d for d, _ in successors(m, r)})
    return [] if got == want else [f"out_degree({m}, {r}) = {got}, want {want}"]


def check_witness(m: int, edge: tuple[int, int, str], x: int) -> list[str]:
    src, dst, label = edge
    odd = label == "Triple"

    def realises(y: int) -> bool:
        if y % m != src or y % 2 != odd:
            return False
        return ((3 * y + 1) if odd else y // 2) % m == dst

    if not realises(x):
        return [f"edge_witness({m}, {edge}) = {x} does not realise the edge"]
    first = src if src else m
    if any(realises(y) for y in range(first, x, m)):
        return [f"edge_witness({m}, {edge}) = {x} is not the smallest witness"]
    return []


# ---------------------------------------------------------------------------
# Orbit queries


def check_orbit(x: int, std, star, tst, loop) -> list[str]:
    """classify_trajectory under both variants must agree with
    total_stopping_time, and find_cycle must land in 1-4-2-1."""
    errors = []
    for name, rec in (("standard", std), ("star", star)):
        steps = getattr(rec.outcome, "steps", None)
        if type(rec.outcome).__name__ != "ReachesOne" or steps != tst:
            errors.append(f"classify_trajectory({x}, {name}) = {rec.outcome}, stopping time {tst}")
    if std.max_excursion != star.max_excursion:
        errors.append(f"max_excursion of {x} differs between variants")
    if loop is None or tuple(loop.values) != TRIVIAL_LOOP:
        errors.append(f"find_cycle({x}) = {loop}")
    return errors


# ---------------------------------------------------------------------------
# CLI


def expected_stdout(argv: list[str]) -> str | None:
    """Exact stdout of a command, or None for verify, whose JSON holds
    timings and is checked field by field instead."""
    cmd = argv[0]
    if cmd == "traj":
        x = int(argv[1])
        steps, peak = walk(x)
        return f"start {x}\noutcome reaches-one\nsteps {steps}\nmax-excursion {peak}\n"
    if cmd == "preimage":
        x = int(argv[1])
        pre = {2 * x}
        if x % 6 == 4:
            pre.add((x - 1) // 3)
        return " ".join(str(y) for y in sorted(pre)) + "\n"
    if cmd == "cycle":
        return " ".join(str(v) for v in TRIVIAL_LOOP) + "\n"
    if cmd == "graph":
        return reference_dot(int(argv[2]))
    return None


def check_cli(argv: list[str], returncode: int, stdout: str) -> list[str]:
    what = " ".join(argv)
    if returncode != 0:
        return [f"{what}: exit status {returncode}"]
    want = expected_stdout(argv)
    if want is not None:
        return [] if stdout == want else [f"{what}: stdout differs from the reference"]
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{what}: stdout is not JSON"]
    lo, hi = int(argv[2]), int(argv[4])
    payload = {k: data.get(k) for k in ("verified_count", "unresolved", "cycles_found", *MILLION_RECORDS)}
    want_payload = {"verified_count": hi - lo + 1, "unresolved": [], "cycles_found": [], **MILLION_RECORDS}
    errors = check_identical(payload, want_payload, what)
    if data.get("range") != [lo, hi]:
        errors.append(f"{what}: range {data.get('range')}")
    if not all(isinstance(data.get(k), (int, float)) for k in ("wall_time", "throughput")):
        errors.append(f"{what}: timing fields missing")
    return errors
