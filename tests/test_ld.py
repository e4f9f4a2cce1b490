import random
from itertools import combinations

import pytest

from locdom.bipartite import census_pairs, connected_bipartite_graphs
from locdom.families import complete_bipartite, cycle, path, star
from locdom.graphs import VertexSet, build_graph, complement, connected_components
from locdom.ld import (
    _seal_index,
    is_distinguishing,
    is_dominating,
    is_ld_set,
    lambda_bounded,
    lambda_bruteforce,
    ld_codes,
    undominated_vertex,
)

from oracles import adj_sets, ilp_lambda, naive_codes, naive_is_ld, naive_lambda


def vs(*items):
    return VertexSet.of(items)


def random_graph(rng, n, p):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


def test_is_dominating():
    p4 = path(4)
    assert is_dominating(p4, vs(1, 2))
    assert not is_dominating(p4, vs(0))
    assert is_dominating(p4, p4.vertices())


def test_is_distinguishing():
    p4 = path(4)
    assert is_distinguishing(p4, vs(0, 3))
    k23 = complete_bipartite(2, 3)
    assert not is_distinguishing(k23, vs(0, 1))
    # one or zero outside vertices: nothing to tell apart
    assert is_distinguishing(p4, vs(0, 1, 2))
    assert is_distinguishing(p4, p4.vertices())


def test_is_ld_set():
    p4 = path(4)
    assert is_ld_set(p4, vs(0, 3))
    assert not is_ld_set(p4, vs(0))
    assert is_ld_set(cycle(4), vs(0, 1))


def test_undominated_vertex():
    assert undominated_vertex(path(4), vs(0, 3)) is None
    p3 = path(3)
    assert undominated_vertex(p3, vs(0)) == 2
    k14 = star(5)
    assert undominated_vertex(k14, vs(1, 2, 3, 4)) is None
    with pytest.raises(ValueError, match="distinguishing"):
        undominated_vertex(complete_bipartite(2, 3), vs(0, 1))


def test_lambda_bruteforce_known_values():
    assert lambda_bruteforce(path(4)).lam == 2
    assert lambda_bruteforce(star(5)).lam == 4
    assert lambda_bruteforce(complete_bipartite(2, 3)).lam == 3


def test_lambda_bruteforce_witness_is_ld():
    rep = lambda_bruteforce(path(7))
    assert is_ld_set(path(7), rep.witness)
    assert len(rep.witness) == rep.lam


def test_lambda_bruteforce_cap():
    g = build_graph(25, [(i, i + 1) for i in range(24)])
    with pytest.raises(ValueError, match="lambda_bounded"):
        lambda_bruteforce(g)


def test_lambda_bounded_examples():
    found, size, wit = lambda_bounded(path(7), 3)
    assert found and size == 3 and is_ld_set(path(7), wit)
    assert not lambda_bounded(star(5), 2).found
    found, size, _ = lambda_bounded(complement(path(7)), 3)
    assert found and size == 3


def test_seal_index_is_the_transpose_of_the_seals():
    """hits_of[x] and closed_at[i] against seal masks built from the definition:
    seal u is N[u], seal n + u*n + v is {u, v} | (N(u) ^ N(v)) for u < v."""
    rng = random.Random(89)
    graphs = [build_graph(0, []), build_graph(1, [])]
    graphs += [build_graph(n, list(combinations(range(n), 2))) for n in range(2, 13)]
    graphs += [random_graph(rng, rng.randint(2, 12), rng.uniform(0.05, 0.95))
               for _ in range(60)]
    for g in graphs:
        n = g.n
        adj = adj_sets(n, g.edges())
        seals = {u: {u} | adj[u] for u in range(n)}
        seals.update({n + u * n + v: {u, v} | (adj[u] ^ adj[v])
                      for u, v in combinations(range(n), 2)})
        hits_of, closed_at, every = _seal_index([row.bits for row in g.adj])
        assert every == sum(1 << b for b in seals)
        assert hits_of == [sum(1 << b for b, m in seals.items() if x in m) for x in range(n)]
        assert closed_at == [sum(1 << b for b, m in seals.items() if max(m) <= i)
                             for i in range(n)]


def test_ld_codes_examples():
    k23 = complete_bipartite(2, 3)
    codes = ld_codes(k23)
    assert codes and all(len(c) == 3 for c in codes)
    c4_codes = [c.members() for c in ld_codes(cycle(4))]
    assert c4_codes == [(0, 1), (0, 3), (1, 2), (2, 3)]
    p4_codes = [c.members() for c in ld_codes(path(4))]
    assert (0, 2) in p4_codes and (0, 3) in p4_codes


def test_ld_codes_match_naive_oracle():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        assert [c.members() for c in ld_codes(g)] == naive_codes(n, list(g.edges()))


def test_lambda_matches_naive_oracle_including_disconnected():
    rng = random.Random(29)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.05, 0.6))
        lam, wit = naive_lambda(n, list(g.edges()))
        rep = lambda_bruteforce(g)
        assert rep.lam == lam
        assert rep.witness.members() == wit


def test_lambda_bounded_agrees_with_bruteforce():
    """Found, size and witness at kmax = lambda-1, lambda, lambda+1 against the naive scan."""
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        lam, wit = naive_lambda(n, list(g.edges()))
        for kmax in (max(0, lam - 1), lam, min(n, lam + 1)):
            res = lambda_bounded(g, kmax)
            if kmax >= lam:
                assert res.found and res.size == lam
                assert res.witness.members() == wit
            else:
                assert res == (False, None, None)


def test_solver_matches_naive_oracle_on_census_graphs():
    """Every census graph with n <= 8 and its complement: lambda, witness and all codes."""
    checked = 0
    for r, s in census_pairs(8):
        for _, g in connected_bipartite_graphs(r, s):
            for h in (g, complement(g)):
                edges = list(h.edges())
                lam, wit = naive_lambda(h.n, edges)
                rep = lambda_bruteforce(h)
                assert (rep.lam, rep.witness.members()) == (lam, wit)
                assert lambda_bounded(h, lam) == (True, lam, rep.witness)
                assert not lambda_bounded(h, lam - 1).found
                assert [c.members() for c in ld_codes(h)] == naive_codes(h.n, edges)
                checked += 1
    assert checked == 220


@pytest.mark.parametrize("family", [path, cycle])
def test_lambda_bounded_on_long_paths_and_cycles(family):
    """Above the oracle cap: lambda(P_n) = lambda(C_n) = ceil(2n/5)."""
    for n in range(21, 31):
        g = family(n)
        lam = -(-2 * n // 5)
        res = lambda_bounded(g, lam)
        assert res.found and res.size == lam and is_ld_set(g, res.witness)
        assert not lambda_bounded(g, lam - 1).found


def test_lambda_bounded_matches_ilp_above_the_cap():
    """Random graphs with n = 21..30, where the naive scan cannot reach: the
    search finds a set of the ILP's size, it is an LD-set, and none smaller."""
    pytest.importorskip("scipy.optimize", reason="the ILP oracle needs scipy's milp")
    rng = random.Random(97)
    for i in range(30):
        n = 21 + i % 10
        g = random_graph(rng, n, rng.uniform(0.12, 0.2))
        edges = list(g.edges())
        lam = ilp_lambda(n, edges)
        res = lambda_bounded(g, lam)
        assert res.found and res.size == lam
        assert naive_is_ld(adj_sets(n, edges), set(res.witness.members()))
        assert not lambda_bounded(g, lam - 1).found


def test_distinguishing_invariant_under_complement():
    rng = random.Random(53)
    for _ in range(80):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        k = rng.randint(0, n)
        s = VertexSet.of(rng.sample(range(n), k))
        assert is_distinguishing(g, s) == is_distinguishing(complement(g), s)


def test_ld_set_transfer_properties():
    """An LD-set carries to the complement iff it dominates there; the one
    vertex seeing all of S repairs it."""
    rng = random.Random(67)
    checked_a = 0
    for _ in range(300):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        k = rng.randint(1, n)
        s = VertexSet.of(rng.sample(range(n), k))
        if not is_ld_set(g, s):
            continue
        gbar = complement(g)
        assert is_ld_set(gbar, s) == is_dominating(gbar, s)
        full_trace = [u for u in range(n) if u not in s
                      and g.adj[u].bits & s.bits == s.bits]
        assert len(full_trace) <= 1
        # transfer fails exactly when some outside vertex sees all of S
        assert is_ld_set(gbar, s) == (not full_trace)
        if full_trace:
            checked_a += 1
            assert is_ld_set(gbar, s.add(full_trace[0]))
    assert checked_a > 0


def test_lambda_complement_within_one():
    rng = random.Random(71)
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        assert abs(lambda_bruteforce(g).lam - lambda_bruteforce(complement(g)).lam) <= 1


def test_lambda_additive_over_components():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.0, 0.3))
        comps = connected_components(g)
        if len(comps) < 2:
            continue
        total = lambda_bruteforce(g).lam
        # recompute each component with the naive oracle on relabeled pieces
        parts = 0
        for comp in comps:
            keep = comp.members()
            pos = {v: i for i, v in enumerate(keep)}
            sub_edges = [(pos[i], pos[j]) for i, j in g.edges() if i in comp and j in comp]
            parts += naive_lambda(len(keep), sub_edges)[0]
        assert total == parts


def test_trace_comparison_counts_empty_as_equal():
    # two isolated-from-S vertices share the empty trace, so S cannot distinguish
    g = build_graph(4, [(0, 1)])
    assert not is_distinguishing(g, vs(0, 1))
    adj = adj_sets(4, [(0, 1)])
    assert not naive_is_ld(adj, {0, 1})
