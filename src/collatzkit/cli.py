"""Command-line surface: traj, preimage, cycle, graph, verify.

Output is line-oriented and deterministic: numbers in decimal, sets
ascending, loops in canonical rotation. Exit status 0 on success, 1 on
domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .cycles import LoopError, find_cycle
from .dynamics import (
    DEFAULT_STEP_BUDGET,
    DomainError,
    EntersCycle,
    MapVariant,
    ReachesOne,
    classify_trajectory,
    preimage,
)
from .residue import build_graph, to_dot, to_json

_VARIANTS = {"standard": MapVariant.STANDARD, "star": MapVariant.STAR}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatzkit",
        description="Collatz trajectories, loops, residue graphs, and range verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    t = sub.add_parser("traj", help="classify the trajectory of x")
    t.add_argument("x", type=int)
    t.add_argument("--variant", choices=sorted(_VARIANTS), default="standard")
    t.add_argument("--max-steps", dest="max_steps", type=int, default=DEFAULT_STEP_BUDGET)
    t.add_argument("--values", action="store_true", help="also print the visited values")
    t.set_defaults(handler=_cmd_traj)

    pre = sub.add_parser("preimage", help="print all y with one step from y landing on x")
    pre.add_argument("x", type=int)
    pre.set_defaults(handler=_cmd_preimage)

    cyc = sub.add_parser("cycle", help="follow the orbit of x to the cycle it enters")
    cyc.add_argument("x", type=int)
    cyc.add_argument("--variant", choices=sorted(_VARIANTS), default="standard")
    cyc.set_defaults(handler=_cmd_cycle)

    g = sub.add_parser("graph", help="residue transition graph mod M")
    g.add_argument("--modulus", type=int, required=True)
    g.add_argument("--format", choices=["dot", "json"], default="dot")
    g.set_defaults(handler=_cmd_graph)

    v = sub.add_parser("verify", help="verify convergence over a range")
    v.add_argument("--from", dest="range_lo", type=int, required=True)
    v.add_argument("--to", dest="range_hi", type=int, required=True)
    v.add_argument(
        "--assume-verified-below", dest="assume_verified_below", type=int, default=1
    )
    v.add_argument("--workers", type=int, default=None)
    v.add_argument("--format", choices=["json", "csv"], default="json")
    v.set_defaults(handler=_cmd_verify)
    return parser


def canonical_argv(ns: argparse.Namespace) -> list[str]:
    """The canonical argument list for a parsed command: defaults made
    explicit, flags in a fixed order. Parsing it reproduces ns."""
    sc = ns.subcommand
    if sc == "traj":
        argv = ["traj", str(ns.x), "--variant", ns.variant, "--max-steps", str(ns.max_steps)]
        if ns.values:
            argv.append("--values")
        return argv
    if sc == "preimage":
        return ["preimage", str(ns.x)]
    if sc == "cycle":
        return ["cycle", str(ns.x), "--variant", ns.variant]
    if sc == "graph":
        return ["graph", "--modulus", str(ns.modulus), "--format", ns.format]
    argv = [
        "verify",
        "--from", str(ns.range_lo),
        "--to", str(ns.range_hi),
        "--assume-verified-below", str(ns.assume_verified_below),
    ]
    if ns.workers is not None:
        argv += ["--workers", str(ns.workers)]
    argv += ["--format", ns.format]
    return argv


def _cmd_traj(ns) -> int:
    rec = classify_trajectory(
        ns.x, _VARIANTS[ns.variant], ns.max_steps, record_values=ns.values
    )
    lines = [f"start {rec.start}"]
    out = rec.outcome
    if isinstance(out, ReachesOne):
        lines.append("outcome reaches-one")
        lines.append(f"steps {out.steps}")
    elif isinstance(out, EntersCycle):
        lines.append("outcome enters-cycle")
        lines.append("loop " + " ".join(str(v) for v in out.loop.values))
        lines.append(f"tail-length {out.tail_length}")
    else:
        lines.append("outcome unresolved")
        lines.append(f"steps-taken {out.steps_taken}")
    lines.append(f"max-excursion {rec.max_excursion}")
    if rec.values is not None:
        lines.append("values " + " ".join(str(v) for v in rec.values))
    print("\n".join(lines))
    return 0


def _cmd_preimage(ns) -> int:
    print(" ".join(str(y) for y in sorted(preimage(ns.x))))
    return 0


def _cmd_cycle(ns) -> int:
    loop = find_cycle(ns.x, _VARIANTS[ns.variant])
    if loop is None:
        print("none")
    else:
        print(" ".join(str(v) for v in loop.values))
    return 0


def _cmd_graph(ns) -> int:
    graph = build_graph(ns.modulus)
    if ns.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        print(to_json(graph))
    return 0


def _cmd_verify(ns) -> int:
    # Imported here so that the other commands skip numpy.
    from .verifier import VerifyConfig, verify_range

    config = VerifyConfig(
        range_lo=ns.range_lo,
        range_hi=ns.range_hi,
        assume_verified_below=ns.assume_verified_below,
        worker_count=ns.workers,
    )
    report = verify_range(config)
    if ns.format == "json":
        print(report.to_json())
    else:
        sys.stdout.write(report.to_csv())
    return 0


def dispatch(argv) -> int:
    """Parse and run one command, mapping errors to exit codes."""
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    try:
        return ns.handler(ns)
    except (DomainError, LoopError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
