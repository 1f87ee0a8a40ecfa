import json

import pytest

from collatzkit import (
    BranchLabel,
    DomainError,
    Edge,
    ResidueClass,
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
    assert sparse.edges_from(2) == (Edge(2, 1, BranchLabel.HALVE),) * 2
    assert sparse.edges_from(0) == sparse.edges_from(6) == ()
