"""Residue classes mod m and the transition graph the map induces on them.

For even modulus every class has a single parity, so each class carries
one kind of step: an odd class r has the lone successor (3r+1) mod m,
while an even class r splits under halving into r/2 and r/2 + m/2
according to the parity of (x - r) / m. For odd modulus every class
contains both parities, so both branches leave every vertex: halving
sends r to r * inv2 mod m with inv2 = (m+1)/2, tripling to (3r+1) mod m,
and the two targets may coincide. Edges are labeled by branch, so a
coincidence is still two edges.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .dynamics import _as_int


class BranchLabel(enum.Enum):
    HALVE = "Halve"
    TRIPLE = "Triple"


class Edge(NamedTuple):
    src: int
    dst: int
    label: BranchLabel


_SRC = attrgetter("src")


@dataclass(frozen=True)
class ResidueClass:
    """The set of positive integers congruent to residue mod modulus."""

    modulus: int
    residue: int

    def __post_init__(self):
        modulus = _as_int(self.modulus, "modulus")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residue", _as_int(self.residue, "residue", 0, modulus - 1))

    def contains(self, x: int) -> bool:
        return x >= 1 and x % self.modulus == self.residue

    def least_member(self) -> int:
        # Residue 0 itself is not a positive integer.
        return self.residue if self.residue >= 1 else self.modulus


@dataclass(frozen=True)
class TransitionGraph:
    """Labeled digraph on residues 0..modulus-1, edges sorted and deduplicated.

    Whatever order the edges come in, the graph keeps them sorted by
    (src, dst, branch) with repeats dropped, so the out-edges of a vertex
    form one contiguous run; edges_from finds it by bisection.
    """

    modulus: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        # Sorting puts repeated edges side by side; groupby keeps one of
        # each, with tuple equality rather than Python-level Enum hashing.
        # _value_ is the plain attribute behind the slower .value property.
        edges = sorted(self.edges, key=lambda e: (e.src, e.dst, e.label._value_))
        object.__setattr__(self, "edges", tuple(e for e, _ in groupby(edges)))

    @property
    def vertices(self) -> range:
        return range(self.modulus)

    def edges_from(self, residue: int) -> tuple[Edge, ...]:
        residue = _as_int(residue, "residue", 0, self.modulus - 1)
        lo = bisect_left(self.edges, residue, key=_SRC)
        return self.edges[lo:bisect_right(self.edges, residue, lo=lo, key=_SRC)]


def class_of(x: int, modulus: int) -> ResidueClass:
    """The residue class of x mod modulus."""
    x = _as_int(x, "x")
    modulus = _as_int(modulus, "modulus")
    return ResidueClass(modulus, x % modulus)


def transition_targets(modulus: int, residue: int) -> set[tuple[int, BranchLabel]]:
    """Labeled successors of a residue class under one step of the map."""
    modulus = _as_int(modulus, "modulus")
    residue = _as_int(residue, "residue", 0, modulus - 1)
    if modulus % 2 == 0:
        # Class parity is fixed, so exactly one branch applies.
        if residue % 2 == 1:
            return {((3 * residue + 1) % modulus, BranchLabel.TRIPLE)}
        half = residue // 2
        return {
            (half, BranchLabel.HALVE),
            (half + modulus // 2, BranchLabel.HALVE),
        }
    # Odd modulus: both parities occur in every class, so both branches
    # leave it. Halving is inversion of doubling mod m.
    inv2 = (modulus + 1) // 2
    return {
        ((residue * inv2) % modulus, BranchLabel.HALVE),
        ((3 * residue + 1) % modulus, BranchLabel.TRIPLE),
    }


def build_graph(modulus: int) -> TransitionGraph:
    """Transition graph on all residues mod modulus."""
    modulus = _as_int(modulus, "modulus")
    edges = []
    for r in range(modulus):
        for dst, label in transition_targets(modulus, r):
            edges.append(Edge(r, dst, label))
    return TransitionGraph(modulus, tuple(edges))


def out_degree(graph: TransitionGraph, residue: int) -> int:
    """Number of distinct successor classes, ignoring labels."""
    return len({e.dst for e in graph.edges_from(residue)})


def edge_witness(graph: TransitionGraph, edge: Edge) -> int:
    """Smallest positive x realizing an edge: x in class src, one step
    of the map lands in class dst via the labeled branch.

    Every edge produced by build_graph has a witness below 2 * modulus;
    the search allows slack beyond that before giving up.
    """
    m = graph.modulus
    want_odd = edge.label is BranchLabel.TRIPLE
    for x in range(edge.src or m, 10 * m + 1, m):
        # the class test only matters for a src outside [0, m)
        if x % m != edge.src or x % 2 != want_odd:
            continue
        y = 3 * x + 1 if want_odd else x // 2
        if y % m == edge.dst:
            return x
    raise LookupError(f"no witness for {edge} below {10 * m}")


def strongly_connected_components(graph: TransitionGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative. Components are returned with
    members ascending, ordered by their minimum vertex."""
    m = graph.modulus
    # Edges are sorted by (src, dst, branch), so one pass builds each
    # vertex's successors ascending, with both branches to one dst merged.
    adj: list[list[int]] = [[] for _ in range(m)]
    for e in graph.edges:
        succ = adj[e.src]
        if not succ or succ[-1] != e.dst:
            succ.append(e.dst)
    index = [-1] * m
    low = [0] * m
    on_stack = [False] * m
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(m):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(edge_pos, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    components.sort(key=lambda c: c[0])
    return components


def to_dot(graph: TransitionGraph) -> str:
    """Deterministic DOT text: vertices ascending, then one line per
    labeled edge in (src, dst, branch) order."""
    lines = [f"digraph collatz_mod_{graph.modulus} {{"]
    for v in graph.vertices:
        lines.append(f"  {v};")
    for e in graph.edges:
        lines.append(f'  {e.src} -> {e.dst} [label="Col", branch="{e.label.value}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: TransitionGraph) -> str:
    """Compact JSON with the same edge order as the graph itself."""
    payload = {
        "modulus": graph.modulus,
        "edges": [
            {"from": e.src, "to": e.dst, "branch": e.label.value} for e in graph.edges
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def from_json(text: str) -> TransitionGraph:
    """Inverse of to_json. Raises ValueError on malformed input."""
    data = json.loads(text)
    try:
        modulus = _as_int(data["modulus"], "modulus")
        edges = tuple(
            Edge(
                _as_int(e["from"], "from", 0, modulus - 1),
                _as_int(e["to"], "to", 0, modulus - 1),
                BranchLabel(e["branch"]),
            )
            for e in data["edges"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed transition graph JSON: {exc}") from exc
    return TransitionGraph(modulus, edges)
