import random

import pytest

from locdom import bipartite, suites
from locdom.bipartite import (
    ClassificationReport,
    canonical_traces,
    census_pairs,
    check_census_graph,
    classify,
    condition_triple,
    connected_bipartite_graphs,
    corollary16_audit,
    feasibility_window,
    graph_from_traces,
    lemma13_audit,
    run_census,
)
from locdom.families import bistar, complete_bipartite, cycle, extremal, path, star
from locdom.graphs import (Bipartition, VertexSet, bipartition, build_graph, complement,
                           is_connected, twin_pairs)
from locdom.ld import lambda_bruteforce

from oracles import (bicolored_connected_counts, filtered_census_traces, ilp_lambda,
                     naive_lambda, trace_count_floors)


def test_condition_triple_extremal_3_6():
    g = extremal(3, 6).graph
    conds = condition_triple(g, bipartition(g))
    assert (conds.c1, conds.c2, conds.c3) == (True, True, True)
    assert conds.c3_twin_form is True


def test_condition_triple_complete_bipartite():
    g = complete_bipartite(3, 4)
    conds = condition_triple(g, bipartition(g))
    assert not conds.c1
    assert not conds.c3 and not conds.c3_twin_form


def test_condition_triple_bistar():
    # both centers see the whole opposite side, so c2 holds; the leaf twins
    # kill c1 (and with it the label condition)
    g = bistar(3, 3)
    conds = condition_triple(g, bipartition(g))
    assert (conds.c1, conds.c2, conds.c3, conds.c3_twin_form) == (False, True, False, False)


def test_condition_triple_rejects_fake_bipartition():
    g = cycle(4)
    bad = Bipartition(VertexSet.of((0, 1)), VertexSet.of((2, 3)), 2, 2)
    with pytest.raises(ValueError, match="not stable"):
        condition_triple(g, bad)
    # each way sides can fail on the path 0-1-2-3-4; when both are unstable
    # the smallest offending vertex is named, here 0 in W
    cases = [
        ((0, 1, 2), (2, 3, 4), "bipartition sides must partition the vertex set"),
        ((0, 2), (1, 3), "bipartition sides must partition the vertex set"),
        ((1, 2, 4), (0, 3), "side containing vertex 1 is not stable; input is not bipartite"),
        ((0, 2), (1, 3, 4), "side containing vertex 3 is not stable; input is not bipartite"),
        ((3, 4), (0, 1, 2), "side containing vertex 0 is not stable; input is not bipartite"),
    ]
    for u, w, message in cases:
        bp = Bipartition(VertexSet.of(u), VertexSet.of(w), len(u), len(w))
        with pytest.raises(ValueError) as info:
            condition_triple(path(5), bp)
        assert str(info.value) == message, (u, w)


def test_c1_and_c2_match_the_twin_reference():
    """On every census graph up to order 10, and on connected bipartite graphs
    with shuffled labels, half of them with a repeated row, so that both
    values of c1 and of c2 occur."""
    def reference(g, bp):
        # no twin pair inside W, and some w in W whose neighbourhood is U
        return not twin_pairs(g, bp.W), any(g.adj[w] == bp.U.bits for w in bp.W)

    checked = 0
    for r, s in census_pairs(10):
        u_side = VertexSet((1 << r) - 1)
        for _, g in connected_bipartite_graphs(r, s):
            bp = Bipartition(u_side, g.vertices() - u_side, r, s)
            conds = condition_triple(g, bp)
            assert (conds.c1, conds.c2) == reference(g, bp)
            checked += 1
    assert checked == 2937
    rng = random.Random(139)
    seen = set()
    for trial in range(400):
        r = rng.randint(1, 5)
        s = rng.randint(1, 9)
        traces = [rng.randint(1, (1 << r) - 1) for _ in range(s)]
        if trial % 2 and s > 1:
            traces[rng.randrange(1, s)] = traces[0]
        if trial % 3 == 0:
            traces[rng.randrange(s)] = (1 << r) - 1
        g0 = graph_from_traces(r, traces)
        perm = rng.sample(range(g0.n), g0.n)
        g = build_graph(g0.n, [(perm[a], perm[b]) for a, b in g0.edges()])
        if not is_connected(g):
            continue
        bp = bipartition(g)
        conds = condition_triple(g, bp)
        assert (conds.c1, conds.c2) == reference(g, bp)
        seen.add((conds.c1, conds.c2))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_classify_bistar_3_3():
    rep = classify(bistar(3, 3))
    assert (rep.lambda_g, rep.lambda_gbar, rep.relation) == (4, 3, -1)
    assert not rep.predicted_plus_one


def test_classify_c8():
    rep = classify(cycle(8))
    assert (rep.lambda_g, rep.lambda_gbar, rep.relation) == (4, 3, -1)


def test_classify_extremal_3_6():
    rep = classify(extremal(3, 6).graph)
    assert rep.relation == 1
    assert rep.predicted_plus_one
    assert rep.witness_g.members() == (0, 1, 2)


def test_classify_k2_exception():
    # the lone bipartite +1 case with r <= 2; the prediction deliberately
    # stays false outside the 3 <= r < s domain
    rep = classify(path(2))
    assert rep.relation == 1
    assert not rep.predicted_plus_one


def test_classify_rejects_non_bipartite():
    with pytest.raises(ValueError, match="bipartite"):
        classify(cycle(5))


def test_feasibility_window():
    assert feasibility_window(3, 6)
    assert not feasibility_window(3, 8)
    assert not feasibility_window(4, 6)
    assert feasibility_window(5, 31)
    assert not feasibility_window(5, 32)
    with pytest.raises(ValueError, match="r >= 3"):
        feasibility_window(2, 5)


def test_corollary16_audit_extremal():
    assert corollary16_audit(extremal(3, 6).graph)
    assert corollary16_audit(extremal(3, 7).graph)


def test_lemma13_audit_examples():
    p6 = path(6)
    mixed = VertexSet.of((0, 2, 5))  # hits both sides of the bipartition
    assert lemma13_audit(p6, mixed)
    k25 = complete_bipartite(2, 5)  # 2^r <= s trigger
    code = lambda_bruteforce(k25).witness
    assert lemma13_audit(k25, code)
    with pytest.raises(ValueError, match="minimum LD-set"):
        lemma13_audit(p6, VertexSet.of((0, 1)))


def test_lemma13_audit_holds_over_census_codes():
    from locdom.ld import ld_codes
    for r, s in ((3, 4), (3, 5)):
        for _, g in connected_bipartite_graphs(r, s):
            for code in ld_codes(g):
                assert lemma13_audit(g, code)


def test_canonical_traces_identifies_isomorphs():
    rng = random.Random(131)
    from itertools import permutations
    for _ in range(40):
        r = rng.randint(2, 4)
        s = rng.randint(2, 5)
        traces = tuple(sorted(rng.randint(1, 2**r - 1) for _ in range(s)))
        perm = rng.choice(list(permutations(range(r))))
        permuted = tuple(sorted(
            sum(1 << perm[b] for b in range(r) if (m >> b) & 1) for m in traces))
        assert canonical_traces(r, traces) == canonical_traces(r, permuted)


def test_relabeling_tables_refuse_r_above_8():
    """r = 9 would need 9! tables of 512 entries; every caller is refused first."""
    with pytest.raises(ValueError, match="r <= 8, got r = 9"):
        canonical_traces(9, (1, 2))
    with pytest.raises(ValueError, match="r <= 8, got r = 9"):
        next(connected_bipartite_graphs(9, 10))


def test_census_generator_small_counts():
    """Trace-multiset enumeration agrees with brute-force enumeration over all
    labeled bipartite graphs, counted up to isomorphism via canonical forms."""
    from itertools import product
    for r, s in ((2, 3), (3, 4)):
        seen = set()
        for assignment in product(range(1, 2**r), repeat=s):
            traces = tuple(sorted(assignment))
            g = graph_from_traces(r, traces)
            from locdom.graphs import is_connected
            if is_connected(g):
                seen.add(canonical_traces(r, traces))
        ours = list(connected_bipartite_graphs(r, s))
        assert len(ours) == len(seen)
        assert {t for t, _ in ours} == seen


def test_orderly_enumeration_matches_filter_oracle():
    """The pruned enumerator yields exactly the generate-then-filter multisets,
    in the same order, for every census side pair up to order 10, and so does
    the concatenation of its prefix subtrees, the census's task split."""
    for r, s in census_pairs(10):
        ours = list(connected_bipartite_graphs(r, s))
        assert [t for t, _ in ours] == filtered_census_traces(r, s), (r, s)
        assert all(g == graph_from_traces(r, t) for t, g in ours)
        prefixes = list(bipartite._prefixes(r, s))
        assert prefixes and all(len(p) == bipartite.TASK_PREFIX_LENGTH for p in prefixes)
        assert [item for p in prefixes
                for item in connected_bipartite_graphs(r, s, p)] == ours, (r, s)
    # unsorted, out of range, longer than s, and (2,), which a relabeling
    # of U sends to the lex-smaller (1,)
    for prefix in ((2, 1), (0, 1), (1, 8), (1, 1, 1, 1, 1), (2,)):
        with pytest.raises(ValueError, match="not a canonical prefix"):
            next(connected_bipartite_graphs(3, 4, prefix))


def test_census_counts_match_the_burnside_oracle():
    """Enumerated classes per side pair equal the independent Burnside count
    through order 11.  (5, 6) is left to the slow order-12 census: its 19,687
    graphs are most of the enumeration time to order 11."""
    oracle = bicolored_connected_counts(11)
    assert {(r, s): oracle[r, s] for r, s in census_pairs(10)} == {
        (3, 4): 34, (3, 5): 76, (3, 6): 155, (3, 7): 290, (4, 5): 558, (4, 6): 1824}
    for r, s in census_pairs(11):
        if (r, s) != (5, 6):
            assert sum(1 for _ in connected_bipartite_graphs(r, s)) == oracle[r, s], (r, s)


def test_census_entry_checks_pass_on_known_graphs():
    t = canonical_traces(3, (7, 6, 5, 3, 4, 1))
    e = check_census_graph(3, 6, t, graph_from_traces(3, t))
    assert e.ok() and e.report.relation == 1
    t2 = canonical_traces(3, (7, 7, 7, 7))
    e2 = check_census_graph(3, 4, t2, graph_from_traces(3, t2))
    assert e2.ok() and e2.report.relation <= 0


def test_run_census_n8_clean():
    entries = list(run_census(8))
    assert entries and all(e.ok() for e in entries)
    # equivalence holds with real exceptions impossible below the window
    assert all(e.report.relation != 1 for e in entries)


def test_run_census_parallel_matches_serial():
    serial = list(run_census(8))
    parallel = list(run_census(8, jobs=2))
    assert serial == parallel
    # run_census does not sort: the order is the enumeration's own
    for entries in (serial, parallel):
        keys = [(e.r, e.s, e.traces) for e in entries]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_classify_matches_naive_lambda_on_census_sample():
    rng = random.Random(137)
    pool = list(connected_bipartite_graphs(3, 5))
    for traces, g in rng.sample(pool, 12):
        rep = classify(g)
        assert rep.lambda_g == naive_lambda(g.n, list(g.edges()))[0]
        gbar = complement(g)
        assert rep.lambda_gbar == naive_lambda(gbar.n, list(gbar.edges()))[0]


def test_equal_sides_never_gain(gadget=None):
    """r = s conclusion check on all bipartite atlas graphs with equal sides."""
    from locdom.suites import connected_atlas_graphs
    checked = 0
    for g in connected_atlas_graphs(7):
        bp = None
        try:
            bp = bipartition(g)
        except ValueError:
            continue
        if bp is None or bp.r != bp.s:
            continue
        rep = classify(g)
        checked += 1
        if g.n >= 3:
            assert rep.relation <= 0, f"r=s graph gained: {list(g.edges())}"
    assert checked > 10


def test_small_sides_never_gain_beyond_k2():
    from locdom.suites import connected_atlas_graphs
    plus_ones = []
    for g in connected_atlas_graphs(6):
        try:
            bp = bipartition(g)
        except ValueError:
            continue
        if bp is None or bp.r > 2:
            continue
        if classify(g).relation == 1:
            plus_ones.append(g)
    assert len(plus_ones) == 1 and plus_ones[0].n == 2


def test_classify_complement_matches_naive_oracle():
    """classify starts the complement's search at lambda(G) - 1; on every census
    graph with n <= 8 its value and witness equal the naive scan's."""
    checked = 0
    for r, s in census_pairs(8):
        for _, g in connected_bipartite_graphs(r, s):
            rep = classify(g)
            h = complement(g)
            lam, wit = naive_lambda(h.n, list(h.edges()))
            assert (rep.lambda_gbar, rep.witness_gbar.members()) == (lam, wit)
            checked += 1
    assert checked == 110


def _naive_lambdas(g):
    h = complement(g)
    return naive_lambda(g.n, list(g.edges()))[0], naive_lambda(h.n, list(h.edges()))[0]


def test_side_floors_match_the_trace_count_oracle():
    """The side floors equal the oracle's, which lists every trace open to
    each side as explicit sets; sides in both orders, and empty sides."""
    for r in range(11):
        for s in range(11):
            assert bipartite._side_floors(r, s) == trace_count_floors(r, s), (r, s)


def test_side_floors_bound_lambda_on_census_graphs():
    """Every census graph with n <= 9 against the naive scan of G and its
    complement; each floor is reached on some of them."""
    tight = [0, 0]
    for r, s in census_pairs(9):
        stable, clique = bipartite._side_floors(r, s)
        for _, g in connected_bipartite_graphs(r, s):
            lam, lam_bar = _naive_lambdas(g)
            assert stable <= lam and clique <= lam_bar, (r, s, g.edges())
            tight[0] += stable == lam
            tight[1] += clique == lam_bar
    assert tight == [371, 82]


def test_side_floors_bound_lambda_on_random_bipartite_graphs():
    """300 seeded connected bipartite graphs with sides r <= s <= 8, r = s
    included, against the naive scan of G and its complement."""
    rng = random.Random(2718)
    pairs = [(r, s) for s in range(1, 9) for r in range(1, s + 1)]
    checked = equal_sides = 0
    while checked < 300:
        r, s = rng.choice(pairs)
        p = rng.uniform(0.2, 0.8)
        g = build_graph(r + s, [(u, r + w) for u in range(r) for w in range(s)
                                if rng.random() < p])
        if not is_connected(g):
            continue
        # connected, so U = 0..r-1 and W are its only sides
        stable, clique = bipartite._side_floors(r, s)
        lam, lam_bar = _naive_lambdas(g)
        assert stable <= lam and clique <= lam_bar, (r, s, g.edges())
        checked += 1
        equal_sides += r == s
    assert equal_sides > 30


def test_side_floors_on_stars_and_complete_bipartite_graphs():
    """The stable floor is lambda on every star K_{1,s}; complete bipartite
    graphs have disconnected complements, K_r plus K_s."""
    for n in range(2, 12):
        lam, lam_bar = _naive_lambdas(star(n))
        stable, clique = bipartite._side_floors(1, n - 1)
        assert stable == lam == n - 1 and clique <= lam_bar
    for r in range(1, 6):
        for s in range(r, 11 - r):
            g = complete_bipartite(r, s)
            assert not is_connected(complement(g))
            lam, lam_bar = _naive_lambdas(g)
            stable, clique = bipartite._side_floors(r, s)
            assert stable <= lam and clique <= lam_bar, (r, s)


def test_classify_above_the_cap_with_side_floors():
    """K_{1,21}: the stable floor, 21, is past the r + 1 = 2 budget, and the
    report is partial as before.  Four seeded random bipartite graphs with
    n = 21..26 get lambda and lambda-bar of the ILP oracle."""
    g = star(22)
    assert bipartite._side_floors(1, 21)[0] == 21
    assert classify(g) == ClassificationReport(1, 21, None, None, None,
                                               condition_triple(g, bipartition(g)),
                                               False, None, None, partial=True)
    pytest.importorskip("scipy.optimize", reason="the ILP oracle needs scipy's milp")
    rng = random.Random(31)
    for r, s in ((7, 14), (7, 16), (8, 17), (9, 17)):
        g = None
        while g is None or not is_connected(g):
            g = build_graph(r + s, [(u, r + w) for u in range(r) for w in range(s)
                                    if rng.random() < 0.5])
        rep = classify(g)
        h = complement(g)
        assert not rep.partial
        assert rep.lambda_g == ilp_lambda(g.n, list(g.edges()))
        assert rep.lambda_gbar == ilp_lambda(h.n, list(h.edges()))


def test_theorem_suites_call_the_solver_without_a_floor(monkeypatch):
    """thm3 checks |lambda(G) - lambda(complement)| <= 1, the inequality behind
    classify's floor, so its solves must not assume it."""
    calls = []

    def spy(g, *args, **kwargs):
        calls.append(kwargs)
        return lambda_bruteforce(g, *args, **kwargs)

    monkeypatch.setattr(suites, "lambda_bruteforce", spy)
    assert suites.thm3_suite()[1] == []
    assert suites.table1_suite(max_pc=8, max_star=6, max_kb=6, max_bistar=4)[1] == []
    assert len(calls) > 2000 and all("floor" not in kw for kw in calls)
