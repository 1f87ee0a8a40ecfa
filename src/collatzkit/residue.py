"""Residue classes mod m and the transition graph the map induces on them.

For even modulus every class has a single parity, so each class carries
one kind of step: an odd class r has the lone successor (3r+1) mod m,
while an even class r splits under halving into r/2 and r/2 + m/2
according to the parity of (x - r) / m. For odd modulus every class
contains both parities, so both branches leave every vertex: halving
sends r to r * inv2 mod m with inv2 = (m+1)/2, tripling to (3r+1) mod m,
and the two targets may coincide. Edges are labeled by branch, so a
coincidence is still two edges.

A TransitionGraph holds no per-edge objects: its edges are flat columns
in compressed sparse row form, an offset index of m + 1 entries and,
per edge, its destination and its branch (0 Halve, 1 Triple). The SCC
pass, JSON and DOT read the columns; graph.edges is a read-only view
that makes Edge values on demand.
"""

from __future__ import annotations

import enum
import json
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import lt, sub
from typing import NamedTuple

from .dynamics import DomainError, _as_int


class BranchLabel(enum.Enum):
    HALVE = "Halve"
    TRIPLE = "Triple"


class Edge(NamedTuple):
    src: int
    dst: int
    label: BranchLabel


# Branch column values: 0 and 1 sort as "Halve" < "Triple" do.
_LABELS = (BranchLabel.HALVE, BranchLabel.TRIPLE)
_BRANCHES = {label.value: b for b, label in enumerate(_LABELS)}


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


def _triples(columns):
    """(src, dst, branch) of every edge of a graph or a view, in order:
    the src column is each vertex v repeated first[v + 1] - first[v] times."""
    first = columns._first.tolist()
    # A list: zip draws from it faster than from the lazy chain.
    srcs = list(chain.from_iterable(map(repeat, range(len(first) - 1), map(sub, first[1:], first))))
    return zip(srcs, columns._dst.tolist(), columns._branch)


class _EdgeView(Sequence):
    """A graph's edges in (src, dst, branch) order as Edge values made on
    demand, read-only. It compares, hashes and prints as the tuple of
    those edges, and a slice of it is that tuple's slice."""

    def __init__(self, first: array, dst: array, branch: bytes):
        self._first, self._dst, self._branch = first, dst, branch

    def __len__(self) -> int:
        return len(self._dst)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = range(len(self))[i]  # negative from the end, IndexError past it
        return Edge(bisect_right(self._first, i) - 1, self._dst[i], _LABELS[self._branch[i]])

    def __iter__(self):
        return (Edge(s, d, _LABELS[b]) for s, d, b in _triples(self))

    def __eq__(self, other):
        if isinstance(other, _EdgeView):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Labeled digraph on residues 0..modulus-1, edges sorted and deduplicated.

    Construction checks the modulus and every edge: an Edge or a plain
    (src, dst, label) tuple, both endpoints in [0, modulus) and a
    BranchLabel, or DomainError. Each edge becomes one int key,
    (src·m + dst)·2 + branch, so that sorted keys are the edges in
    (src, dst, branch) order with repeats side by side; whatever order the
    edges come in, the graph keeps them in that order with repeats
    dropped, as columns: the out-edges of vertex v are the entries
    _first[v] to _first[v + 1] - 1 of _dst (array('q')) and _branch
    (bytes, 0 Halve, 1 Triple). edges is a read-only view of the columns
    as Edge values; equality and hashing compare the columns.
    """

    modulus: int
    edges: Sequence[Edge]

    def __post_init__(self):
        m = _as_int(self.modulus, "modulus")
        keys = []
        for e in self.edges:
            if type(e) is not Edge and (type(e) is not tuple or len(e) != 3):
                raise DomainError(f"edge must be an Edge or a (src, dst, label) tuple, got {e!r}")
            src, dst, label = e
            if type(label) is not BranchLabel:
                raise DomainError(f"edge label must be a BranchLabel, got {label!r}")
            # In-range plain ints, the common case, skip the integer rule.
            if not (type(src) is int and type(dst) is int and 0 <= src < m and 0 <= dst < m):
                src = _as_int(src, "edge src", 0, m - 1)
                dst = _as_int(dst, "edge dst", 0, m - 1)
            keys.append((src * m + dst) * 2 + (label is BranchLabel.TRIPLE))
        vars(self).update(vars(_graph(m, *_columns(m, keys))))

    def __eq__(self, other):
        if type(other) is not TransitionGraph:
            return NotImplemented
        return (self.modulus, self._first, self._dst, self._branch) == (
            other.modulus, other._first, other._dst, other._branch
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self._first.tobytes(), self._dst.tobytes(), self._branch))

    @property
    def vertices(self) -> range:
        return range(self.modulus)

    def edges_from(self, residue: int) -> tuple[Edge, ...]:
        residue = _as_int(residue, "residue", 0, self.modulus - 1)
        return self.edges[self._first[residue]:self._first[residue + 1]]


def _graph(m: int, first: array, dst: array, branch: bytes) -> TransitionGraph:
    """A TransitionGraph on columns already checked and canonical."""
    graph, edges = object.__new__(TransitionGraph), _EdgeView(first, dst, branch)
    vars(graph).update(modulus=m, edges=edges, _first=first, _dst=dst, _branch=branch)
    return graph


def _columns(m: int, keys: list[int]) -> tuple[array, array, bytes]:
    """The columns of the edges with these keys, which are sorted and
    deduplicated unless already strictly ascending."""
    if not all(map(lt, keys, islice(keys, 1, None))):
        keys = sorted(set(keys))
    row, counts = 2 * m, [0] * (m + 1)  # vertex v has the keys [v·row, (v + 1)·row)
    for k in keys:
        counts[k // row + 1] += 1
    dst = array("q", [(k >> 1) % m for k in keys])
    return array("q", accumulate(counts)), dst, bytes([k & 1 for k in keys])


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
    """Transition graph on all residues mod modulus, its columns written
    from the closed form of _targets, already in (dst, branch) order."""
    m = _as_int(modulus, "modulus")
    if m % 2 == 0:
        # Even r halves to r/2 and r/2 + m/2; odd r + 1 triples to 3r + 4.
        h = m // 2
        dst = [d for r in range(0, m, 2) for d in (r >> 1, (r >> 1) + h, (3 * r + 4) % m)]
        first = array("q", [v + (v + 1) // 2 for v in range(m + 1)])
        return _graph(m, first, array("q", dst), b"\0\0\1" * h)
    # (halve, triple) of each r; the smaller target goes first, Halve on a tie.
    pairs = [((r + (r & 1) * m) >> 1, (3 * r + 1) % m) for r in range(m)]
    dst = [d for h, t in pairs for d in ((h, t) if h <= t else (t, h))]
    branch = bytes([b for h, t in pairs for b in ((0, 1) if h <= t else (1, 0))])
    return _graph(m, array("q", range(0, 2 * m + 1, 2)), array("q", dst), branch)


def out_degree(graph: TransitionGraph, residue: int) -> int:
    """Number of distinct successor classes, ignoring labels."""
    residue = _as_int(residue, "residue", 0, graph.modulus - 1)
    return len(set(graph._dst[graph._first[residue]:graph._first[residue + 1]]))


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
    """Tarjan's algorithm in Pearce's (2016) space-efficient form,
    iterative. Components are returned with members ascending, ordered
    by their minimum vertex.

    One array, rindex, does the work of Tarjan's index, low and on-stack
    marks: 0 while a vertex is unvisited, then its visit number, lowered
    to the least one it reaches, then its component's number, counted
    down from m and so above every visit number still in use.
    """
    m = graph.modulus
    first, dst = graph._first.tolist(), graph._dst.tolist()
    scan, rindex, root = first[:-1], [0] * m, bytearray(m)  # scan: next out-edge
    stack: list[int] = []
    visit, comp = 1, m
    for s in range(m):
        if rindex[s]:
            continue
        path = [s]
        while path:
            v = path[-1]
            if not rindex[v]:
                rindex[v], root[v], visit = visit, 1, visit + 1
            i, end, low = scan[v], first[v + 1], rindex[v]
            while i < end and rindex[dst[i]]:
                if rindex[dst[i]] < low:
                    low, root[v] = rindex[dst[i]], 0
                i += 1
            rindex[v] = low
            if i < end:  # descend into dst[i], unvisited
                scan[v] = i + 1
                path.append(dst[i])
                continue
            path.pop()
            if root[v]:
                visit -= 1
                while stack and low <= rindex[stack[-1]]:
                    rindex[stack.pop()] = comp
                    visit -= 1
                rindex[v], comp = comp, comp - 1
            else:
                stack.append(v)
            if path and rindex[v] < rindex[path[-1]]:
                rindex[path[-1]], root[path[-1]] = rindex[v], 0
    # Grouped on first sight, components come ordered by their minimum
    # vertex, with their members ascending.
    components: dict[int, list[int]] = {}
    for v, c in enumerate(rindex):
        components.setdefault(c, []).append(v)
    return list(components.values())


def to_dot(graph: TransitionGraph) -> str:
    """Deterministic DOT text: vertices ascending, then one line per
    labeled edge in (src, dst, branch) order."""
    tails = [f'[label="Col", branch="{label.value}"];' for label in _LABELS]
    lines = [
        f"digraph collatz_mod_{graph.modulus} {{",
        *[f"  {v};" for v in graph.vertices],
        *[f"  {s} -> {d} {tails[b]}" for s, d, b in _triples(graph)],
    ]
    return "\n".join(lines) + "\n}\n"


def to_json(graph: TransitionGraph) -> str:
    """Compact JSON with the same edge order as the graph itself: what
    json.dumps writes for {"modulus", "edges": [{"from", "to", "branch"}]}
    with separators (",", ":")."""
    tails = [f',"branch":"{label.value}"}}' for label in _LABELS]
    edges = ",".join([f'{{"from":{s},"to":{d}{tails[b]}' for s, d, b in _triples(graph)])
    return f'{{"modulus":{graph.modulus},"edges":[{edges}]}}'


def from_json(text: str) -> TransitionGraph:
    """Inverse of to_json. Raises ValueError on malformed input."""
    data = json.loads(text)
    try:
        m, edges = _as_int(data["modulus"], "modulus"), data["edges"]
        src, dst = [e["from"] for e in edges], [e["to"] for e in edges]
        branch = [_BRANCHES[e["branch"]] for e in edges]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed transition graph JSON: {exc}") from exc
    for column, name in ((src, "edge src"), (dst, "edge dst")):
        # Checked in bulk; the integer rule runs only if that check fails.
        if column and not (set(map(type, column)) == {int} and 0 <= min(column) <= max(column) < m):
            column[:] = [_as_int(v, name, 0, m - 1) for v in column]
    keys = [(s * m + d) * 2 + b for s, d, b in zip(src, dst, branch)]
    return _graph(m, *_columns(m, keys))
