import random

import pytest

from locdom.bipartite import graph_from_traces
from locdom.families import complete_bipartite, cycle, path, star
from locdom.graphio import parse_graph6
from locdom.graphs import (
    VertexSet,
    _bits,
    bipartition,
    build_graph,
    complement,
    connected_components,
    delete_vertex,
    induced_subgraph,
    is_connected,
)

from oracles import nx_graph, twin_pairs
import networkx as nx


def test_vertexset_basics():
    s = VertexSet.of((5, 0, 2))
    assert list(s) == [0, 2, 5]
    assert len(s) == 3
    assert 2 in s and 3 not in s
    assert s.members() == (0, 2, 5)
    t = VertexSet.of((2, 7))
    assert (s | t).members() == (0, 2, 5, 7)
    assert (s & t).members() == (2,)
    assert (s - t).members() == (0, 5)
    assert VertexSet.of((0, 2)).issubset(s)
    assert not VertexSet.of((0, 3)).issubset(s)
    assert VertexSet.of(()) == VertexSet(0)
    assert not VertexSet(0)


def test_build_graph_families():
    p4 = path(4)
    assert sorted(p4.degree(v) for v in range(4)) == [1, 1, 2, 2]
    assert [p4.degree(v) for v in range(4)] == [1, 2, 2, 1]
    c4 = cycle(4)
    assert all(c4.degree(v) == 2 for v in range(4))
    s5 = star(5)
    assert s5.degree(0) == 4
    assert all(s5.degree(v) == 1 for v in range(1, 5))


def test_build_graph_dedupes():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match=r"\(0, 5\)"):
        build_graph(3, [(0, 5)])


def test_complement_small_cases():
    c4bar = complement(cycle(4))
    assert sorted(c4bar.edges()) == [(0, 2), (1, 3)]
    assert complement(complement(path(4))) == path(4)
    k34bar = complement(complete_bipartite(3, 4))
    comps = connected_components(k34bar)
    assert [len(c) for c in comps] == [3, 4]
    # each side becomes a clique
    for c in comps:
        m = len(c)
        assert sum(1 for i, j in k34bar.edges() if i in c and j in c) == m * (m - 1) // 2


def test_complement_involution_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = build_graph(n, edges)
        assert complement(complement(g)) == g


def test_bipartition_examples():
    bp = bipartition(cycle(6))
    assert (bp.r, bp.s) == (3, 3)
    assert bipartition(cycle(5)) is None
    bp = bipartition(complete_bipartite(2, 3))
    assert (bp.r, bp.s) == (2, 3)
    assert bp.U.members() == (0, 1)


def test_bipartition_requires_connected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="not connected"):
        bipartition(g)
    # an odd cycle in one component does not hide the missing connection
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(ValueError, match="not connected"):
        bipartition(g)


def test_bipartition_tie_break_contains_vertex_zero():
    bp = bipartition(cycle(8))
    assert 0 in bp.U and bp.r == bp.s == 4


def test_bipartition_sides_are_stable_random():
    rng = random.Random(11)
    found = 0
    while found < 40:
        n = rng.randint(2, 10)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.25])
        if not is_connected(g):
            continue
        bp = bipartition(g)
        assert (bp is None) == (not nx.is_bipartite(nx_graph(g)))
        if bp is None:
            continue
        found += 1
        for side in (bp.U, bp.W):
            assert not any(g.adj[i] & side.bits for i in side)


def test_walks_match_networkx_random():
    """Components and sides from the breadth-first layers agree with networkx on
    random graphs that include disconnected ones and odd cycles."""
    rng = random.Random(23)
    seen = {"disconnected": 0, "odd": 0, "bipartite": 0}
    for _ in range(2000):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.3, 0.5))
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < p])
        G = nx_graph(g)
        comps = sorted(tuple(sorted(c)) for c in nx.connected_components(G))
        assert [c.members() for c in connected_components(g)] == comps
        if len(comps) > 1:
            seen["disconnected"] += 1
            with pytest.raises(ValueError, match="not connected"):
                bipartition(g)
            continue
        bp = bipartition(g)
        if not nx.is_bipartite(G):
            seen["odd"] += 1
            assert bp is None
            continue
        seen["bipartite"] += 1
        sides = nx.bipartite.sets(G) if n > 1 else ({0}, set())
        assert {bp.U.members(), bp.W.members()} == {tuple(sorted(x)) for x in sides}
        assert bp.r == len(bp.U) <= bp.s == len(bp.W)
        assert bp.r < bp.s or 0 in bp.U
    assert min(seen.values()) >= 200, seen


def test_twin_pairs_examples():
    k23 = complete_bipartite(2, 3)
    pairs = twin_pairs(k23, VertexSet.of((2, 3, 4)))
    assert [(t.u, t.v, t.kind) for t in pairs] == [
        (2, 3, "open"), (2, 4, "open"), (3, 4, "open")]
    assert twin_pairs(path(4)) == []
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert [(t.u, t.v, t.kind) for t in twin_pairs(k3)] == [
        (0, 1, "closed"), (0, 2, "closed"), (1, 2, "closed")]


def test_twin_pairs_stable_under_relabeling():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.4])
        perm = list(range(n))
        rng.shuffle(perm)
        h = build_graph(n, [(perm[i], perm[j]) for i, j in g.edges()])
        a = {frozenset((perm[t.u], perm[t.v])) for t in twin_pairs(g)}
        b = {frozenset((t.u, t.v)) for t in twin_pairs(h)}
        assert a == b


def test_connected_components():
    two_k2 = build_graph(4, [(0, 1), (2, 3)])
    assert [c.members() for c in connected_components(two_k2)] == [(0, 1), (2, 3)]
    assert len(connected_components(cycle(4))) == 1
    empty3 = build_graph(3, [])
    assert [c.members() for c in connected_components(empty3)] == [(0,), (1,), (2,)]
    assert is_connected(cycle(4))
    assert not is_connected(two_k2)


def test_components_match_networkx_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 11)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.2])
        ours = {c.members() for c in connected_components(g)}
        theirs = {tuple(sorted(c)) for c in nx.connected_components(nx_graph(g))}
        assert ours == theirs


def test_is_connected_matches_the_component_count():
    """One breadth-first walk from vertex 0 against the full component split:
    no vertices, one vertex, isolated vertices, path(1500) and its
    complement, and 300 seeded random graphs."""
    rng = random.Random(37)
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(2, []),
              build_graph(4, [(1, 2), (2, 3)]), build_graph(4, [(0, 1), (1, 2)]),
              path(1500), complement(path(1500))]
    for _ in range(300):
        n = rng.randint(0, 14)
        graphs.append(build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                      if rng.random() < rng.uniform(0.02, 0.5)]))
    verdicts = [is_connected(g) for g in graphs]
    assert verdicts == [len(connected_components(g)) <= 1 for g in graphs]
    assert verdicts[:7] == [True, True, False, False, False, True, True]
    assert 50 < sum(verdicts) < 250


def test_induced_subgraph_keeps_order():
    g = cycle(5)
    sub, old = induced_subgraph(g, VertexSet.of((0, 1, 3)))
    assert old == [0, 1, 3]
    assert sorted(sub.edges()) == [(0, 1)]


def test_has_edge_and_degree_refuse_vertices_out_of_range():
    """A negative vertex does not wrap round to the last rows."""
    g = build_graph(3, [(0, 2)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    for i, j in ((-1, 0), (0, -1), (-3, 0), (3, 0), (0, 3), (-1, -1)):
        assert g.has_edge(i, j) is False
    assert [g.degree(v) for v in range(3)] == [1, 0, 1]
    for v in (-1, -3, 3):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            g.degree(v)


def test_delete_vertex():
    sub, old = delete_vertex(path(4), 1)
    assert old == [0, 2, 3]
    assert sorted(sub.edges()) == [(1, 2)]  # the old 2-3 edge survives
    with pytest.raises(ValueError, match="out of range"):
        delete_vertex(path(4), 9)


def _assert_rows_match(g, nxg):
    """g's rows are ints, each the mask of the matching networkx neighbourhood."""
    assert all(type(row) is int for row in g.adj)
    assert list(g.adj) == [sum(1 << w for w in nxg[v]) for v in range(nxg.number_of_nodes())]
    for i in range(g.n):
        assert g.has_edge(i, -1) is False and g.has_edge(-1, i) is False
        assert g.has_edge(i, g.n) is False and g.has_edge(g.n, i) is False
        assert [g.has_edge(i, j) for j in range(g.n)] == [nxg.has_edge(i, j) for j in range(g.n)]


def test_rows_are_int_masks_of_the_networkx_neighbourhoods():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        nxg = nx.empty_graph(n)
        nxg.add_edges_from(edges)
        g = build_graph(n, edges)
        _assert_rows_match(g, nxg)
        _assert_rows_match(complement(g), nx.complement(nxg))
        keep = [v for v in range(n) if rng.random() < 0.6]
        sub, _ = induced_subgraph(g, VertexSet.of(keep))
        _assert_rows_match(sub, nx.convert_node_labels_to_integers(
            nxg.subgraph(keep), ordering="sorted"))
        u = rng.randrange(n)
        rest = [v for v in range(n) if v != u]
        _assert_rows_match(delete_vertex(g, u)[0], nx.convert_node_labels_to_integers(
            nxg.subgraph(rest), ordering="sorted"))
        g6 = nx.to_graph6_bytes(nxg, header=False).decode("ascii")
        _assert_rows_match(parse_graph6(g6), nxg)
    for _ in range(20):
        r = rng.randint(1, 5)
        traces = [rng.randrange(1, 1 << r) for _ in range(rng.randint(1, 8))]
        nxg = nx.empty_graph(r + len(traces))
        nxg.add_edges_from((u, r + wi) for wi, m in enumerate(traces)
                           for u in range(r) if m >> u & 1)
        _assert_rows_match(graph_from_traces(r, tuple(traces)), nxg)


def test_bits_lists_set_bits_ascending():
    rng = random.Random(44)
    for m in [0, 1, 2, 3, 1 << 70, (1 << 70) | 5] + [rng.getrandbits(rng.randint(1, 90))
                                                    for _ in range(200)]:
        assert list(_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]
