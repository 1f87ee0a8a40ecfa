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
from array import array
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import NamedTuple

from .dynamics import DomainError, _as_int


class BranchLabel(enum.Enum):
    HALVE = "Halve"
    TRIPLE = "Triple"


class Edge(NamedTuple):
    src: int
    dst: int
    label: BranchLabel


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

    Construction checks the modulus and every edge: an Edge or a plain
    (src, dst, label) tuple, both endpoints in [0, modulus) and a
    BranchLabel, or DomainError. Whatever order the
    edges come in, the graph keeps them sorted by (src, dst, branch) with
    repeats dropped, so the out-edges of vertex v are the one run
    edges[_first[v]:_first[v + 1]] of an offset index that edges_from
    and the SCC pass both read.
    """

    modulus: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        m = _as_int(self.modulus, "modulus")
        edges = list(self.edges)
        for i, e in enumerate(edges):
            if type(e) is not Edge:
                if type(e) is not tuple or len(e) != 3:
                    raise DomainError(f"edge must be an Edge or a (src, dst, label) tuple, got {e!r}")
                e = edges[i] = Edge(*e)
            src, dst, label = e
            if type(label) is not BranchLabel:
                raise DomainError(f"edge label must be a BranchLabel, got {label!r}")
            # In-range plain ints, the common case, keep the edge as given.
            if not (type(src) is int and type(dst) is int and 0 <= src < m and 0 <= dst < m):
                src = _as_int(src, "edge src", 0, m - 1)
                edges[i] = Edge(src, _as_int(dst, "edge dst", 0, m - 1), label)
        # Sorting puts repeated edges side by side; groupby keeps one of
        # each, with tuple equality rather than Python-level Enum hashing.
        # _value_ is the plain attribute behind the slower .value property.
        edges.sort(key=lambda e: (e.src, e.dst, e.label._value_))
        edges = tuple(e for e, _ in groupby(edges))
        counts = [0] * (m + 1)
        for e in edges:
            counts[e.src + 1] += 1
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_first", array("q", accumulate(counts)))

    @property
    def vertices(self) -> range:
        return range(self.modulus)

    def edges_from(self, residue: int) -> tuple[Edge, ...]:
        residue = _as_int(residue, "residue", 0, self.modulus - 1)
        return self.edges[self._first[residue]:self._first[residue + 1]]


def class_of(x: int, modulus: int) -> ResidueClass:
    """The residue class of x mod modulus."""
    x = _as_int(x, "x")
    modulus = _as_int(modulus, "modulus")
    return ResidueClass(modulus, x % modulus)


def _targets(m: int, r: int) -> tuple[tuple[int, BranchLabel], ...]:
    """Labeled successors of residue r mod m, in (dst, branch) order."""
    if m % 2 == 0:
        # Class parity is fixed, so exactly one branch applies.
        if r % 2 == 1:
            return (((3 * r + 1) % m, BranchLabel.TRIPLE),)
        return ((r // 2, BranchLabel.HALVE), (r // 2 + m // 2, BranchLabel.HALVE))
    # Odd modulus: both parities occur in every class, so both branches
    # leave it. Halving is inversion of doubling mod m.
    half, triple = r * ((m + 1) // 2) % m, (3 * r + 1) % m
    if triple < half:
        return ((triple, BranchLabel.TRIPLE), (half, BranchLabel.HALVE))
    return ((half, BranchLabel.HALVE), (triple, BranchLabel.TRIPLE))


def transition_targets(modulus: int, residue: int) -> set[tuple[int, BranchLabel]]:
    """Labeled successors of a residue class under one step of the map."""
    modulus = _as_int(modulus, "modulus")
    return set(_targets(modulus, _as_int(residue, "residue", 0, modulus - 1)))


def build_graph(modulus: int) -> TransitionGraph:
    """Transition graph on all residues mod modulus."""
    m = _as_int(modulus, "modulus")
    return TransitionGraph(
        m, tuple(Edge(r, dst, label) for r in range(m) for dst, label in _targets(m, r))
    )


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
    first = graph._first
    dsts = [e.dst for e in graph.edges]
    index = [-1] * m
    low = [0] * m
    on_stack = [False] * m
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(m):
        if index[root] != -1:
            continue
        work = [(root, first[root])]
        while work:
            v, edge_pos = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(edge_pos, first[v + 1]):
                w = dsts[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, first[w]))
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
        edges = tuple(Edge(e["from"], e["to"], BranchLabel(e["branch"])) for e in data["edges"])
        return TransitionGraph(data["modulus"], edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed transition graph JSON: {exc}") from exc
