import copy
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    BranchLabel,
    DomainError,
    Edge,
    ResidueClass,
    TransitionGraph,
    build_graph,
    class_of,
    col,
    edge_witness,
    from_json,
    out_degree,
    strongly_connected_components,
    to_dot,
    to_json,
    transition_targets,
)

# The mod-10 graph, written out in full.
MOD10_EDGES = {
    (0, 0, "Halve"), (0, 5, "Halve"),
    (2, 1, "Halve"), (2, 6, "Halve"),
    (4, 2, "Halve"), (4, 7, "Halve"),
    (6, 3, "Halve"), (6, 8, "Halve"),
    (8, 4, "Halve"), (8, 9, "Halve"),
    (1, 4, "Triple"), (3, 0, "Triple"),
    (5, 6, "Triple"), (7, 2, "Triple"),
    (9, 8, "Triple"),
}


def brute_targets(modulus, residue, span=20):
    """Enumerate actual class members and see where one step sends them."""
    out = set()
    for x in range(1, span * modulus + 1):
        if x % modulus != residue:
            continue
        label = BranchLabel.HALVE if x % 2 == 0 else BranchLabel.TRIPLE
        out.add((col(x) % modulus, label))
    return out


def test_class_of():
    c = class_of(21, 10)
    assert c == ResidueClass(10, 1)
    assert c.contains(21) and c.contains(1) and c.contains(101)
    assert not c.contains(2)
    assert c.least_member() == 1


def test_least_member_of_zero_class():
    assert ResidueClass(10, 0).least_member() == 10
    assert ResidueClass(7, 0).least_member() == 7
    assert ResidueClass(10, 3).least_member() == 3


def test_residue_class_validation():
    with pytest.raises(DomainError):
        ResidueClass(10, 10)
    with pytest.raises(DomainError):
        ResidueClass(10, -1)
    with pytest.raises(DomainError):
        ResidueClass(0, 0)


@pytest.mark.parametrize("modulus", list(range(1, 31)))
def test_transition_targets_match_enumeration(modulus):
    for r in range(modulus):
        assert transition_targets(modulus, r) == brute_targets(modulus, r)


def test_build_graph_mod10_exact():
    g = build_graph(10)
    got = {(e.src, e.dst, e.label.value) for e in g.edges}
    assert got == MOD10_EDGES
    assert len(g.edges) == 15


def test_build_graph_mod2():
    g = build_graph(2)
    assert {(e.src, e.dst, e.label.value) for e in g.edges} == {
        (0, 0, "Halve"), (0, 1, "Halve"), (1, 0, "Triple"),
    }


def test_build_graph_mod3_coincident_targets():
    # both branches out of residue 2 land on residue 1
    g = build_graph(3)
    assert {(e.src, e.dst, e.label.value) for e in g.edges} == {
        (0, 0, "Halve"), (0, 1, "Triple"),
        (1, 2, "Halve"), (1, 1, "Triple"),
        (2, 1, "Halve"), (2, 1, "Triple"),
    }
    assert transition_targets(3, 2) == {(1, BranchLabel.HALVE), (1, BranchLabel.TRIPLE)}
    assert out_degree(g, 2) == 1


def test_build_graph_mod1_collapses():
    g = build_graph(1)
    assert {(e.src, e.dst, e.label.value) for e in g.edges} == {
        (0, 0, "Halve"), (0, 0, "Triple"),
    }


def test_edges_sorted_and_deduplicated():
    for m in (1, 2, 3, 10, 12, 17):
        g = build_graph(m)
        keys = [(e.src, e.dst, e.label.value) for e in g.edges]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


def test_even_modulus_edge_count():
    # each odd class contributes one edge, each even class two
    for m in range(2, 101, 2):
        assert len(build_graph(m).edges) == 3 * m // 2


def test_out_degree_law_even_modulus():
    for m in (2, 10, 46, 100):
        g = build_graph(m)
        for r in range(m):
            assert out_degree(g, r) == (1 if r % 2 == 1 else 2)


def test_edge_witness_bound_and_soundness():
    for m in range(1, 41):
        g = build_graph(m)
        for e in g.edges:
            w = edge_witness(g, e)
            assert 1 <= w <= 10 * m
            assert w % m == e.src
            assert (w % 2 == 1) == (e.label is BranchLabel.TRIPLE)
            assert col(w) % m == e.dst


def brute_sccs(graph):
    m = graph.modulus
    reach = [[False] * m for _ in range(m)]
    for v in range(m):
        reach[v][v] = True
    for e in graph.edges:
        reach[e.src][e.dst] = True
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(m):
                    if row_k[j]:
                        row_i[j] = True
    seen = set()
    comps = []
    for v in range(m):
        if v in seen:
            continue
        comp = [w for w in range(m) if reach[v][w] and reach[w][v]]
        seen.update(comp)
        comps.append(comp)
    return sorted(comps, key=lambda c: c[0])


@pytest.mark.parametrize("modulus", list(range(1, 26)))
def test_scc_matches_reachability_oracle(modulus):
    g = build_graph(modulus)
    assert strongly_connected_components(g) == brute_sccs(g)
    # Graphs with edges dropped from the end, as the benchmark's
    # corrupt-graph check builds them: the last vertices lose out-edges.
    for k in (1, 2, 5, len(g.edges) // 2):
        sub = TransitionGraph(modulus, g.edges[:-k])
        assert strongly_connected_components(sub) == brute_sccs(sub)


def test_scc_mod10_single_component():
    assert strongly_connected_components(build_graph(10)) == [list(range(10))]


def test_to_dot_shape():
    dot = to_dot(build_graph(10))
    lines = dot.splitlines()
    assert lines[0] == "digraph collatz_mod_10 {"
    assert lines[-1] == "}"
    assert [f"  {v};" for v in range(10)] == lines[1:11]
    arrows = [ln for ln in lines if "->" in ln]
    assert len(arrows) == 15
    assert '  8 -> 9 [label="Col", branch="Halve"];' in lines
    assert '  9 -> 8 [label="Col", branch="Triple"];' in lines


def test_to_dot_every_edge_exactly_once():
    dot = to_dot(build_graph(10))
    for src, dst, _branch in MOD10_EDGES:
        assert dot.count(f"  {src} -> {dst} ") == 1


def test_to_dot_mod1_self_loops():
    dot = to_dot(build_graph(1))
    arrows = [ln for ln in dot.splitlines() if "->" in ln]
    # one line per labeled branch, even when both close the same self-loop
    assert len(arrows) == 2


def test_to_dot_deterministic():
    assert to_dot(build_graph(12)) == to_dot(build_graph(12))


def test_json_shape():
    text = to_json(build_graph(10))
    assert text.startswith('{"modulus":10,"edges":[{"from":0,"to":0,"branch":"Halve"}')
    data = json.loads(text)
    assert data["modulus"] == 10
    assert len(data["edges"]) == 15
    assert all(set(e) == {"from", "to", "branch"} for e in data["edges"])


@pytest.mark.parametrize("modulus", [1, 2, 3, 10, 11, 24])
def test_json_round_trip(modulus):
    g = build_graph(modulus)
    assert from_json(to_json(g)) == g


def test_from_json_malformed():
    with pytest.raises(ValueError):
        from_json('{"edges":[]}')
    with pytest.raises(ValueError):
        from_json('{"modulus":4,"edges":[{"from":0,"to":1}]}')
    with pytest.raises(ValueError):
        from_json('{"modulus":4,"edges":[{"from":0,"to":1,"branch":"Square"}]}')
    with pytest.raises(ValueError):
        from_json('{"modulus":4,"edges":[{"from":9,"to":1,"branch":"Halve"}]}')
    with pytest.raises(ValueError):
        from_json('{"modulus":true,"edges":[]}')


def test_modulus_domain():
    with pytest.raises(DomainError):
        build_graph(0)
    with pytest.raises(DomainError):
        transition_targets(10, 10)
    with pytest.raises(DomainError):
        class_of(0, 10)


def test_edges_from():
    g = build_graph(10)
    assert g.edges_from(8) == (
        Edge(8, 4, BranchLabel.HALVE),
        Edge(8, 9, BranchLabel.HALVE),
    )
    assert g.edges_from(9) == (Edge(9, 8, BranchLabel.TRIPLE),)


def test_edges_from_matches_full_scan():
    # vertices 0, 1, 3, 5 and 6 of the parsed graph have no out-edges
    sparse = from_json(
        '{"modulus":7,"edges":[{"from":4,"to":1,"branch":"Triple"},'
        '{"from":2,"to":1,"branch":"Halve"},{"from":4,"to":2,"branch":"Halve"},'
        '{"from":2,"to":1,"branch":"Halve"}]}'
    )
    graphs = [build_graph(m) for m in (*range(1, 65), 3**7, 2**13)] + [sparse]
    for g in graphs:
        # one pass groups the edges as a per-vertex scan of g.edges would
        expected = {v: [] for v in g.vertices}
        for e in g.edges:
            expected[e.src].append(e)
        for v in g.vertices:
            assert g.edges_from(v) == tuple(expected[v])
    assert sparse.edges_from(2) == (Edge(2, 1, BranchLabel.HALVE),)
    assert to_json(sparse).count('"from":2') == 1
    assert sparse.edges_from(0) == sparse.edges_from(6) == ()
    assert strongly_connected_components(sparse) == brute_sccs(sparse)


def test_graph_canonicalizes_unordered_repeated_edges():
    H, T = BranchLabel.HALVE, BranchLabel.TRIPLE
    canonical = (Edge(0, 1, H), Edge(0, 2, T), Edge(1, 0, H), Edge(2, 0, H))
    # out of order, and (2, 0, H) twice
    g = TransitionGraph(
        3, (Edge(2, 0, H), Edge(0, 2, T), Edge(1, 0, H), Edge(0, 1, H), Edge(2, 0, H))
    )
    assert g.edges == canonical
    assert g.edges_from(0) == canonical[:2]
    assert g.edges_from(2) == (Edge(2, 0, H),)
    assert g == TransitionGraph(3, canonical)
    assert from_json(to_json(g)) == g


def test_graph_refuses_bad_modulus_and_edges():
    H = BranchLabel.HALVE
    bad = [
        (3, (Edge(5, 0, H),)),  # endpoint past the modulus
        (3, (Edge(0, 5, H),)),
        (3, (Edge(-1, 0, H),)),  # as a list index, -1 is vertex 2
        (0, ()),
        (True, ()),
        (3, (Edge(0, 1, "Halve"),)),
        (3, (Edge(True, 1, H),)),
        (3, (Edge(0, 1.0, H),)),
        (3, ((0, 1),)),  # not three items
        (3, ((0, 1, H, H),)),
        (3, (7,)),  # not iterable
        (3, ([0, 1, H],)),  # only a plain tuple converts
        (3, ((0, 5, H),)),  # a converted tuple is checked like an Edge
    ]
    for modulus, edges in bad:
        with pytest.raises(DomainError):
            TransitionGraph(modulus, edges)
    # a plain (src, dst, label) tuple becomes an Edge
    g = TransitionGraph(3, ((0, 1, H), Edge(2, 0, H)))
    assert g == TransitionGraph(3, (Edge(0, 1, H), Edge(2, 0, H)))
    assert all(type(e) is Edge for e in g.edges)


def test_graph_stores_int_like_endpoints_as_ints():
    H, T = BranchLabel.HALVE, BranchLabel.TRIPLE
    g = TransitionGraph(np.int64(3), (Edge(np.int64(2), np.int64(0), H), Edge(0, np.int64(1), T)))
    assert g == TransitionGraph(3, (Edge(0, 1, T), Edge(2, 0, H)))
    assert type(g.modulus) is int
    assert all(type(v) is int for e in g.edges for v in (e.src, e.dst))
    assert from_json(to_json(g)) == g


def test_output_hash_grid():
    # DOT, JSON and SCC output that every change to the residue module
    # keeps: first 16 hex digits of sha256 over each artifact, moduli
    # 1..200, 3^7 and 2^13 in turn.
    dot, js, scc = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for m in (*range(1, 201), 3**7, 2**13):
        g = build_graph(m)
        dot.update(to_dot(g).encode())
        js.update(to_json(g).encode())
        scc.update(json.dumps(strongly_connected_components(g)).encode())
    assert dot.hexdigest()[:16] == "fb747aae4f5c18f3"
    assert js.hexdigest()[:16] == "ff9c07e78114d260"
    assert scc.hexdigest()[:16] == "77ae623c02dd989c"


@pytest.mark.parametrize(
    "modulus, digests",
    [
        (3**10, ("dc8732bc3dea4826", "2dce5feaa8ae58b8", "3737f95f8af8edd4")),
        (2**16, ("5f445313deba61d6", "6cf8bc6d0ece57f0", "704690cd4a53b2cd")),
    ],
)
def test_output_hash_large_moduli(modulus, digests):
    # The larger moduli of the residue-graph scaling target, pinned one by
    # one: DOT, JSON and SCC output, first 16 hex digits of sha256 each.
    g = build_graph(modulus)
    artifacts = (to_dot(g), to_json(g), json.dumps(strongly_connected_components(g)))
    assert tuple(hashlib.sha256(a.encode()).hexdigest()[:16] for a in artifacts) == digests
    assert from_json(artifacts[1]) == g


def json_formula(graph):
    """to_json as it was written over a tuple of Edge values."""
    payload = {
        "modulus": graph.modulus,
        "edges": [{"from": e.src, "to": e.dst, "branch": e.label.value} for e in graph.edges],
    }
    return json.dumps(payload, separators=(",", ":"))


def dot_formula(graph):
    """to_dot as it was written over a tuple of Edge values."""
    lines = [f"digraph collatz_mod_{graph.modulus} {{"]
    lines += [f"  {v};" for v in graph.vertices]
    lines += [f'  {e.src} -> {e.dst} [label="Col", branch="{e.label.value}"];' for e in graph.edges]
    return "\n".join(lines + ["}"]) + "\n"


@st.composite
def edge_lists(draw):
    """A modulus in 1..40 and a list of edges: Edge values and plain
    tuples, repeated, in any order, some vertices with no out-edges and
    one hub with up to 2m."""
    m = draw(st.integers(1, 40))
    vertex, label = st.integers(0, m - 1), st.sampled_from(list(BranchLabel))
    raw = draw(st.lists(st.tuples(vertex, vertex, label), max_size=3 * m))
    hub = draw(vertex)
    raw += draw(st.lists(st.tuples(st.just(hub), vertex, label), max_size=2 * m))
    if raw:
        raw += draw(st.lists(st.sampled_from(raw), max_size=5))
    edges = [Edge(*e) if draw(st.booleans()) else e for e in raw]
    return m, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(case=edge_lists())
def test_columnar_graph_matches_reference(case):
    m, edges = case
    g = TransitionGraph(m, edges)
    canonical = sorted({(s, d, label.value) for s, d, label in edges})
    assert [(e.src, e.dst, e.label.value) for e in g.edges] == canonical
    # The edges view behaves as the tuple of the same edges.
    as_tuple = tuple(Edge(s, d, BranchLabel(b)) for s, d, b in canonical)
    view = g.edges
    assert len(view) == len(as_tuple)
    assert view == as_tuple and as_tuple == view and not view != as_tuple
    assert hash(view) == hash(as_tuple) and repr(view) == repr(as_tuple)
    assert all(type(e) is Edge for e in view)
    for i in (0, len(view) // 2, -1):
        if as_tuple:
            assert view[i] == as_tuple[i] and type(view[i]) is Edge
    with pytest.raises(IndexError):
        view[len(as_tuple)]
    for sl in (slice(None), slice(1, -1), slice(None, None, 2), slice(None, None, -1), slice(3, 3)):
        assert view[sl] == as_tuple[sl] and type(view[sl]) is tuple
    for v in g.vertices:
        assert g.edges_from(v) == tuple(e for e in as_tuple if e.src == v)
        assert out_degree(g, v) == len({e.dst for e in as_tuple if e.src == v})
    back = from_json(to_json(g))
    assert back == g and hash(back) == hash(g)
    assert to_json(g) == json_formula(g)
    assert to_dot(g) == dot_formula(g)
    assert strongly_connected_components(g) == brute_sccs(g)


@pytest.mark.parametrize("modulus", [1, 10, 11, 64])
def test_graph_survives_pickle_copy_and_hash(modulus):
    g = build_graph(modulus)
    pickled = [pickle.loads(pickle.dumps(g, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (*pickled, copy.deepcopy(g), copy.copy(g)):
        assert other == g and hash(other) == hash(g)
        assert other.edges == g.edges and other.edges_from(0) == g.edges_from(0)
    assert hash(g) == hash(from_json(to_json(g)))
    assert g != build_graph(modulus + 1)
