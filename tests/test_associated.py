import random
import re

import pytest

from locdom.associated import (
    AssociatedGraph,
    LabelSubgraph,
    build_associated,
    cactus_stats,
    component_trace_check,
    edge_induced_subgraph,
    label_multiplicity,
    label_subgraph,
    parity_audit,
)
from locdom.families import complete_bipartite, extremal, path
from locdom.graphs import VertexSet, build_graph, complement
from locdom.ld import is_distinguishing
from locdom.suites import random_distinguishing_set, random_graph

from oracles import (
    naive_associated_edges,
    nx_cactus_stats,
    nx_components,
    nx_cycle_label_parity_ok,
)


def vs(*items):
    return VertexSet.of(items)


# the eight expected edges of the gadget's associated graph, grouped by label
GADGET_EDGES = {
    (5, 6, 0), (7, 8, 0), (9, 10, 0), (11, 12, 0),
    (5, 7, 1), (6, 8, 1),
    (7, 9, 3), (8, 10, 3),
}


def test_gadget_edges_and_levels(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    assert ag.k == 5
    assert ag.vertices == tuple(range(5, 13))
    assert set(ag.edges) == GADGET_EDGES
    assert ag.level == {5: 4, 6: 3, 7: 3, 8: 2, 9: 2, 10: 1, 11: 4, 12: 3}


def test_gadget_edges_match_definition_oracle(gadget):
    """The gadget's associated edges, and those of 60 seeded random graphs
    with edges on both sides of S, equal the definition oracle's."""
    rng = random.Random(131)
    cases = [gadget]
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.8))
        cases.append((g, random_distinguishing_set(rng, g)))
    for g, s in cases:
        ag = build_associated(g, s)
        assert set(ag.edges) == naive_associated_edges(g.n, list(g.edges()), set(s))


def test_single_base_vertex():
    g = path(4)
    ag = build_associated(g, vs(0, 1, 2))
    assert ag.vertices == (3,) and ag.edges == ()
    assert label_multiplicity(ag) == {0: 0, 1: 0, 2: 0}


def test_p4_distant_traces_give_no_edge():
    ag = build_associated(path(4), vs(0, 3))
    assert ag.vertices == (1, 2) and ag.edges == ()


def test_build_associated_rejects_non_distinguishing():
    k23 = complete_bipartite(2, 3)
    with pytest.raises(ValueError, match="distinguish vertices 2 and 3"):
        build_associated(k23, vs(0, 1))


def test_build_associated_names_the_first_equal_pair():
    """Outside traces {0}, {1}, {1}, {0} on vertices 2..5: pairs are taken in
    the order (2, 3), (2, 4), (2, 5), ..., so 2 and 5 are named, not 3 and 4."""
    g = build_graph(6, [(0, 2), (1, 3), (1, 4), (0, 5)])
    with pytest.raises(ValueError, match="distinguish vertices 2 and 5$"):
        build_associated(g, vs(0, 1))


def test_label_multiplicity_extremal_3_6():
    u = vs(0, 1, 2)
    counts = label_multiplicity(build_associated(extremal(3, 6), u))
    assert counts == {0: 2, 1: 3, 2: 2}


def test_label_multiplicity_all_zero(flat_gadget):
    g, s = flat_gadget
    ag = build_associated(g, s)
    assert ag.edges == ()
    assert label_multiplicity(ag) == {0: 0, 1: 0, 2: 0}


def test_flat_gadget_is_the_converse_counterexample(flat_gadget):
    """No edge carries label 2, yet dropping vertex 2 breaks distinguishing."""
    g, s = flat_gadget
    assert is_distinguishing(g, s)
    assert not is_distinguishing(g, s.discard(2))


def test_deleting_a_present_label_breaks_distinguishing(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    for lab in {e[2] for e in ag.edges}:
        assert not is_distinguishing(g, s.discard(lab))


def test_label_subgraph_gadget(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    ls = label_subgraph(ag, vs(0, 1))
    assert len(ls.edges) == 6
    assert [c.members() for c in ls.components] == [(5, 6, 7, 8), (9, 10), (11, 12)]
    stats = cactus_stats(ls)
    assert (stats.cc, stats.cy, stats.ex, stats.is_cactus) == (3, 1, 2, True)
    # single-label selection: four disjoint edges
    ls0 = label_subgraph(ag, vs(0))
    assert len(ls0.edges) == 4
    assert len(ls0.components) == 4
    # full selection keeps everything
    assert len(label_subgraph(ag, s).edges) == len(ag.edges)


def test_label_subgraph_rejects_bad_selection(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    with pytest.raises(ValueError, match="nonempty"):
        label_subgraph(ag, VertexSet(0))
    with pytest.raises(ValueError, match="subset"):
        label_subgraph(ag, vs(9))


def test_component_traces_gadget(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    ls = label_subgraph(ag, vs(0, 1))
    assert component_trace_check(ls)
    rest = s - vs(0, 1)
    expected = {(5, 6, 7, 8): (2, 3), (9, 10): (2,), (11, 12): (3, 4)}
    for comp in ls.components:
        common = {VertexSet(g.adj[v] & rest.bits).members() for v in comp}
        assert common == {expected[comp.members()]}


def test_component_traces_random():
    rng = random.Random(97)
    for _ in range(80):
        g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.8))
        s = random_distinguishing_set(rng, g)
        ag = build_associated(g, s)
        sub = VertexSet.of(v for v in s if rng.random() < 0.5)
        if not sub:
            sub = VertexSet.single(s.members()[0])
        assert component_trace_check(label_subgraph(ag, sub))


def test_component_trace_check_rejects_a_merged_component(gadget):
    """A hand-built "component" joining (9, 10) and (11, 12), whose traces
    outside the labels {0, 1} are {2} and {3, 4}, fails the check."""
    g, s = gadget
    ag = build_associated(g, s)
    ls = label_subgraph(ag, vs(0, 1))
    first, second, third = ls.components
    assert component_trace_check(ls)
    merged = LabelSubgraph(ag, ls.selected_labels, ls.edges, (first, second | third))
    assert not component_trace_check(merged)


def test_parity_audit_gadget_and_forest(gadget):
    g, s = gadget
    assert parity_audit(build_associated(g, s))
    ag = build_associated(path(4), vs(0, 3))
    assert parity_audit(ag)  # edgeless, vacuous


def test_parity_audit_random_against_networkx():
    rng = random.Random(101)
    for _ in range(80):
        g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.8))
        s = random_distinguishing_set(rng, g)
        ag = build_associated(g, s)
        assert parity_audit(ag)
        assert nx_cycle_label_parity_ok(ag.vertices, ag.edges)


def test_open_trails_have_an_odd_label():
    """An edge-disjoint walk with even counts for every label must be closed,
    so an open trail always uses some label an odd number of times."""
    rng = random.Random(103)
    found = 0
    while found < 60:
        g = random_graph(rng, rng.randint(5, 12), rng.uniform(0.3, 0.8))
        s = random_distinguishing_set(rng, g)
        ag = build_associated(g, s)
        if not ag.edges:
            continue
        adj = {}
        for x, y, lab in ag.edges:
            adj.setdefault(x, []).append((y, lab))
            adj.setdefault(y, []).append((x, lab))
        start = rng.choice(sorted(adj))
        v = start
        used = set()
        odd_labels = 0
        while True:
            options = [(w, lab) for w, lab in adj[v]
                       if frozenset((v, w)) not in used]
            if not options:
                break
            w, lab = rng.choice(options)
            used.add(frozenset((v, w)))
            odd_labels ^= 1 << lab
            v = w
        if not used:
            continue
        found += 1
        if v != start:
            assert odd_labels != 0
        # and the converse direction of the same fact
        if odd_labels == 0:
            assert v == start


def test_cactus_stats_single_edge(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    one = edge_induced_subgraph(ag, [ag.edges[0]])
    stats = cactus_stats(one)
    assert (stats.cc, stats.cy, stats.ex, stats.is_cactus) == (1, 0, 1, True)
    assert component_trace_check(one)


def test_cactus_stats_euler_and_blocks_random():
    rng = random.Random(107)
    for _ in range(80):
        g = random_graph(rng, rng.randint(5, 12), rng.uniform(0.3, 0.8))
        s = random_distinguishing_set(rng, g)
        ag = build_associated(g, s)
        if not ag.edges:
            continue
        k = rng.randint(1, len(ag.edges))
        ls = edge_induced_subgraph(ag, rng.sample(list(ag.edges), k))
        stats = cactus_stats(ls)
        pairs = [(x, y) for x, y, _ in ls.edges]
        assert (stats.cc, stats.cy, stats.ex, stats.is_cactus) == nx_cactus_stats(pairs)



def test_edge_induced_subgraph_rejects_repeated_and_foreign_edges(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    e = ag.edges[0]
    with pytest.raises(ValueError, match=re.escape(f"edge {e} is chosen more than once")):
        edge_induced_subgraph(ag, [e, ag.edges[1], e])
    with pytest.raises(ValueError, match="not an edge"):
        edge_induced_subgraph(ag, [(5, 12, 0)])


def random_labeled_graph(rng: random.Random) -> AssociatedGraph:
    """An arbitrary simple graph on at most 12 vertices with labels 0..4.

    The labels are random, or read off random 4-bit vertex codes (an edge
    joins codes that differ in its label's bit, so every cycle is label-even),
    or read off codes with one edge relabeled.  Only the vertices and labeled
    edges are meaningful; graph, s and level are placeholders.
    """
    n = rng.randint(1, 12)
    p = rng.uniform(0.1, 0.7)
    kind = rng.randrange(3)
    if kind == 0:
        edges = [(x, y, rng.randrange(5)) for x in range(n) for y in range(x + 1, n)
                 if rng.random() < p]
    else:
        codes = [rng.randrange(16) for _ in range(n)]
        edges = [(x, y, (codes[x] ^ codes[y]).bit_length() - 1)
                 for x in range(n) for y in range(x + 1, n)
                 if (codes[x] ^ codes[y]).bit_count() == 1 and rng.random() < 2 * p]
        if kind == 2 and edges:
            i = rng.randrange(len(edges))
            x, y, lab = edges[i]
            edges[i] = (x, y, rng.choice([u for u in range(5) if u != lab]))
    return AssociatedGraph(build_graph(n, []), VertexSet.of(range(5)), tuple(range(n)),
                           tuple(edges), {v: 0 for v in range(n)}, 5)


def test_parity_and_cactus_on_arbitrary_labeled_graphs():
    """Both verdicts of parity_audit and is_cactus, against networkx."""
    rng = random.Random(127)
    outcomes = set()
    for _ in range(300):
        ag = random_labeled_graph(rng)
        pairs = [(x, y) for x, y, _ in ag.edges]
        even = parity_audit(ag)
        assert even == nx_cycle_label_parity_ok(ag.vertices, ag.edges)
        ls = label_subgraph(ag, ag.s)
        assert [c.members() for c in ls.components] == nx_components(ag.vertices, pairs)
        stats = cactus_stats(ls)
        assert (stats.cc, stats.cy, stats.ex, stats.is_cactus) == nx_cactus_stats(pairs)
        outcomes |= {("even", even), ("cactus", stats.is_cactus)}
    assert len(outcomes) == 4


def trace_cube():
    """All eight subsets of a 3-set as traces: the associated graph is the 3-cube."""
    edges = []
    for i, tr in enumerate(((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))):
        for u in tr:
            edges.append((u, 3 + i))
    return build_graph(11, edges), vs(0, 1, 2)


def test_cube_instance_is_not_cactus():
    g, s = trace_cube()
    ag = build_associated(g, s)
    assert len(ag.vertices) == 8 and len(ag.edges) == 12
    assert parity_audit(ag)
    whole = edge_induced_subgraph(ag, ag.edges)
    stats = cactus_stats(whole)
    assert not stats.is_cactus
    assert not nx_cactus_stats([(x, y) for x, y, _ in whole.edges])[3]
    assert (stats.cc, stats.cy) == (1, 12 - 8 + 1)
    # restricting to two labels keeps two disjoint squares: a cactus again
    two = label_subgraph(ag, vs(0, 1))
    st2 = cactus_stats(two)
    assert st2.is_cactus and (st2.cc, st2.cy, st2.ex) == (2, 2, 0)


def test_complement_has_same_associated_graph(gadget):
    g, s = gadget
    ag = build_associated(g, s)
    agc = build_associated(complement(g), s)
    assert ag.vertices == agc.vertices
    assert ag.edges == agc.edges
    assert all(agc.level[v] == ag.k - ag.level[v] for v in ag.vertices)


def test_level_census_bounds():
    """Level populations respect the binomial ceiling, one vertex max at the ends."""
    rng = random.Random(113)
    from math import comb
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.8))
        s = random_distinguishing_set(rng, g)
        ag = build_associated(g, s)
        by_level = {}
        for v in ag.vertices:
            by_level[ag.level[v]] = by_level.get(ag.level[v], 0) + 1
        for j, cnt in by_level.items():
            assert cnt <= comb(ag.k, j)
