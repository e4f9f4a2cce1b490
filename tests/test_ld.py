import random
from itertools import combinations

import pytest

from locdom import ld
from locdom.bipartite import census_pairs, classify, connected_bipartite_graphs
from locdom.families import complete_bipartite, cycle, path, star
from locdom.graphs import VertexSet, build_graph, complement, connected_components, induced_subgraph
from locdom.ld import (
    LDReport,
    _floor,
    _seal_index,
    is_distinguishing,
    is_dominating,
    is_ld_set,
    lambda_bounded,
    lambda_bruteforce,
    ld_codes,
    undominated_vertex,
)
from locdom.suites import connected_atlas_graphs, random_distinguishing_set

from oracles import adj_sets, ilp_lambda, naive_codes, naive_is_ld, naive_lambda, reference_walk


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


@pytest.mark.parametrize("check, members", [
    (is_dominating, [0, 1, 2, 7]),
    (is_distinguishing, [0, 1, 2, 7]),
    (is_ld_set, [0, 1, 2, 7]),
    (undominated_vertex, [0, 1, 2, 7]),
    (induced_subgraph, [0, 5]),
])
def test_sets_reaching_outside_the_graph_are_refused(check, members):
    """A set holding a vertex past the order is an error, not a set that the
    vertices beyond the graph happen to dominate or distinguish."""
    with pytest.raises(ValueError, match="^set contains vertices outside the graph$"):
        check(path(3), VertexSet.of(members))


def test_undominated_vertex_matches_a_count_of_empty_traces():
    rng = random.Random(149)
    found = {False: 0, True: 0}
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.05, 0.7))
        s = random_distinguishing_set(rng, g)
        empty = [v for v in range(g.n) if v not in s and not g.adj[v] & s.bits]
        assert len(empty) <= 1
        assert undominated_vertex(g, s) == (empty[0] if empty else None)
        found[bool(empty)] += 1
    assert min(found.values()) >= 50


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


def test_ld_codes_cap_names_the_enumeration():
    g = build_graph(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(ValueError, match="minimum LD-sets are enumerated only up to it"):
        ld_codes(g)


def test_lambda_bounded_above_the_order_asks_what_the_order_asks():
    """V is an LD-set, so kmax > n gives the answer at kmax = n; only kmax < 0
    is refused."""
    rng = random.Random(61)
    graphs = [build_graph(n, []) for n in range(4)] + [path(2), star(3)]
    graphs += [random_graph(rng, rng.randint(1, 7), rng.uniform(0.05, 0.9))
               for _ in range(40)]
    for g in graphs:
        for extra in (1, 5):
            assert lambda_bounded(g, g.n + extra) == lambda_bounded(g, g.n)
        assert lambda_bounded(g, g.n) is not None
    with pytest.raises(ValueError, match=r"^kmax must be >= 0, got -1$"):
        lambda_bounded(path(4), -1)


def test_lambda_bounded_examples():
    rep = lambda_bounded(path(7), 3)
    assert rep is not None and rep.lam == 3 and is_ld_set(path(7), rep.witness)
    assert lambda_bounded(star(5), 2) is None
    rep = lambda_bounded(complement(path(7)), 3)
    assert rep is not None and rep.lam == 3


def test_floor_is_a_lower_bound():
    """Every connected graph with n <= 7, its complement, and random graphs."""
    rng = random.Random(101)
    graphs = [h for g in connected_atlas_graphs(7) for h in (g, complement(g))]
    graphs += [random_graph(rng, rng.randint(0, 12), rng.uniform(0.05, 0.95))
               for _ in range(300)]
    for g in graphs:
        assert _floor(g.adj) <= naive_lambda(g.n, list(g.edges()))[0]


@pytest.mark.parametrize("family", [path, cycle])
def test_floor_is_tight_on_paths_cycles_and_their_complements(family):
    for n in range(7, 41):
        g = family(n)
        assert _floor(g.adj) == -(-2 * n // 5)
        assert _floor(complement(g).adj) == -(-(2 * n - 2) // 5)


def test_floor_outside_the_order_is_refused():
    g = path(5)
    for bad in (-1, 6):
        with pytest.raises(ValueError, match=r"floor must be in \[0, 5\]"):
            lambda_bruteforce(g, floor=bad)
        with pytest.raises(ValueError, match=r"floor must be in \[0, 5\]"):
            lambda_bounded(g, 3, floor=bad)


def test_any_proven_floor_leaves_the_answer_unchanged():
    """floor = 0..lambda, on graphs that are often disconnected, where the floor
    bounds the last component once the others are solved."""
    rng = random.Random(103)
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.05, 0.4))
        rep = lambda_bruteforce(g)
        codes = ld._solve(g, g.n, True, 0)
        for floor in range(rep.lam + 1):
            assert lambda_bruteforce(g, floor=floor) == rep
            assert ld._solve(g, g.n, True, floor) == codes
            for kmax in range(floor, n + 1):
                assert lambda_bounded(g, kmax, floor=floor) == lambda_bounded(g, kmax)


def test_seal_index_is_the_transpose_of_the_seals():
    """miss_of[x] and closed_at[i] against seal masks built from the definition:
    seal u is N[u], seal n + u*n + v is {u, v} | (N(u) ^ N(v)) for u < v, and
    miss_of[x] holds every seal but those containing x."""
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
        miss_of, closed_at, every = _seal_index(g.adj)
        assert every == sum(1 << b for b in seals)
        assert miss_of == [every ^ sum(1 << b for b, m in seals.items() if x in m)
                           for x in range(n)]
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
    """The report, or None, at kmax = lambda-1, lambda, lambda+1 against the naive scan."""
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        lam, wit = naive_lambda(n, list(g.edges()))
        for kmax in (max(0, lam - 1), lam, min(n, lam + 1)):
            res = lambda_bounded(g, kmax)
            if kmax >= lam:
                assert res is not None and res.lam == lam
                assert res.witness.members() == wit
            else:
                assert res is None


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
                assert lambda_bounded(h, lam) == LDReport(lam, rep.witness)
                assert lambda_bounded(h, lam - 1) is None
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
        assert res is not None and res.lam == lam and is_ld_set(g, res.witness)
        assert lambda_bounded(g, lam - 1) is None


def test_floors_past_kmax_answer_before_any_seal_index(monkeypatch):
    """path(1500) has a degree floor of 600, far past kmax 1, and K_{1,21}'s
    stable side floor, 21, is past classify's budget of r + 1 = 2: both are
    refuted without building a seal index."""
    def refuse(adj):
        raise AssertionError("seal index built although a floor exceeds kmax")

    monkeypatch.setattr(ld, "_seal_index", refuse)
    assert lambda_bounded(path(1500), 1) is None
    assert classify(star(22)).partial


class _ReadLog(list):
    """A list that logs each item read through it, as (name, index)."""

    def __init__(self, items, name, log):
        super().__init__(items)
        self.name, self.log = name, log

    def __getitem__(self, i):
        self.log.append((self.name, i))
        return super().__getitem__(i)


def _logged(index, log):
    seals_of, closed_at, every = index
    return _ReadLog(seals_of, "seals_of", log), _ReadLog(closed_at, "closed_at", log), every


def _hits_form(index):
    """The seal index with each vertex's missed seals turned into the seals
    it meets, the form the reference walk reads."""
    miss_of, closed_at, every = index
    return [every ^ m for m in miss_of], closed_at, every


def test_walk_reads_the_seal_index_as_the_one_call_per_member_walk(monkeypatch):
    """The walk, whose nodes with two slots left make no calls, reads the seal
    index in the same order as the reference walk that makes a call per
    member, and finds the same LD-sets; both check a node with no slot left
    against the seals still needed.  Every start size from 0 to lambda, a
    refuting search below lambda, collecting or not, on seeded random graphs
    with n <= 11.  A stop left out shows in the read log, and a collecting
    walk that ends at its first hit in the hit list."""
    seal_index = ld._seal_index
    rng = random.Random(43)
    log = []
    monkeypatch.setattr(ld, "_seal_index", lambda adj: _logged(seal_index(adj), log))
    lams = []
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 11), rng.uniform(0.1, 0.9))
        lam = lambda_bruteforce(g).lam
        lams.append(lam)
        searches = [(kmin, lam) for kmin in range(lam + 1)] + [(0, lam - 1)]
        for kmin, kmax in searches:
            for collect in (False, True):
                log.clear()
                got = ld._solve_connected(g, kmin, kmax, collect)
                ref_log = []
                want = reference_walk(g.n, *_logged(_hits_form(seal_index(g.adj)), ref_log),
                                      kmin, kmax, collect)
                assert got == want, (g.adj, kmin, kmax, collect)
                assert log == ref_log, (g.adj, kmin, kmax, collect)
    assert {2, 3, 4, 5} <= set(lams)


def test_seal_index_of_the_complement_flips_only_the_closed_seals():
    """Complementing keeps every pair seal {u, v} | (N(u) ^ N(v)), since
    N(u) ^ N(v) gains or loses only u and v, and moves x in or out of every
    closed seal but its own: miss_bar[x] == miss[x] ^ (full ^ 1 << x), with
    the same ``every``.  Seeded random graphs with n <= 14, and n = 0 and 1."""
    rng = random.Random(97)
    graphs = [build_graph(0, []), build_graph(1, [])]
    graphs += [random_graph(rng, rng.randint(2, 14), rng.uniform(0.05, 0.95))
               for _ in range(80)]
    for g in graphs:
        full = (1 << g.n) - 1
        miss, _, every = _seal_index(g.adj)
        miss_bar, _, every_bar = _seal_index(complement(g).adj)
        assert every_bar == every
        assert miss_bar == [m ^ (full ^ 1 << x) for x, m in enumerate(miss)]


def _random_bipartite(rng, r, s, p):
    """A seeded random graph with sides range(r) and range(r, r + s)."""
    return build_graph(r + s, [(a, b) for a in range(r) for b in range(r, r + s)
                               if rng.random() < p])


def test_walk_matches_the_reference_walk_at_workload_sizes():
    """The walk against the one-call-per-member reference at the orders the
    benchmark and the census reach: path, cycle and their complements with
    n = 14..20, and seeded random bipartite graphs with 12 <= n <= 18, each
    at lambda and refuting lambda - 1, collecting or not."""
    rng = random.Random(101)
    graphs = [f(n) for n in range(14, 21) for f in (path, cycle)]
    graphs += [complement(g) for g in graphs]
    for _ in range(12):
        r = rng.randint(3, 8)
        s = rng.randint(max(r, 12 - r), 18 - r)
        graphs.append(_random_bipartite(rng, r, s, rng.uniform(0.2, 0.6)))
    for g in graphs:
        index = _seal_index(g.adj)
        lam = lambda_bruteforce(g).lam
        for k in (lam - 1, lam):
            for collect in (False, True):
                want = reference_walk(g.n, *_hits_form(index), k, k, collect)
                assert ld._solve_connected(g, k, k, collect) == want, (g.adj, k, collect)


def test_two_and_three_member_minimums_match_the_naive_oracle():
    """ld_codes and lambda_bounded on seeded random graphs with lambda = 2 or
    3, where collecting walks run the inline two-slot level, against the
    naive scan: every minimum LD-set, and the report, or None, at
    kmax = lambda - 1, lambda, lambda + 1."""
    rng = random.Random(47)
    seen = {2: 0, 3: 0}
    while min(seen.values()) < 40:
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.15, 0.85))
        edges = list(g.edges())
        lam, wit = naive_lambda(n, edges)
        if lam not in seen:
            continue
        seen[lam] += 1
        assert [c.members() for c in ld_codes(g)] == naive_codes(n, edges), edges
        assert lambda_bounded(g, lam - 1) is None
        for kmax in range(lam, min(n, lam + 1) + 1):
            assert lambda_bounded(g, kmax) == LDReport(lam, VertexSet.of(wit)), edges


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
        assert res is not None and res.lam == lam
        assert naive_is_ld(adj_sets(n, edges), set(res.witness.members()))
        assert lambda_bounded(g, lam - 1) is None


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
                      and g.adj[u] & s.bits == s.bits]
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
