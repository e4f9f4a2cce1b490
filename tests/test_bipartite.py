import random

import pytest

from locdom.bipartite import (
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
from locdom.families import bistar, complete_bipartite, cycle, extremal, path
from locdom.graphs import VertexSet, bipartition, build_graph, complement
from locdom.ld import lambda_bruteforce

from oracles import filtered_census_traces, naive_lambda


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
    from locdom.graphs import Bipartition
    bad = Bipartition(VertexSet.of((0, 1)), VertexSet.of((2, 3)), 2, 2)
    with pytest.raises(ValueError, match="not stable"):
        condition_triple(g, bad)


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
    in the same order, for every census side pair up to order 10."""
    for r, s in census_pairs(10):
        ours = list(connected_bipartite_graphs(r, s))
        assert [t for t, _ in ours] == filtered_census_traces(r, s), (r, s)
        assert all(g == graph_from_traces(r, t) for t, g in ours)


def test_census_entry_checks_pass_on_known_graphs():
    t = canonical_traces(3, (7, 6, 5, 3, 4, 1))
    e = check_census_graph(3, 6, t, graph_from_traces(3, t))
    assert e.ok() and e.report.relation == 1
    t2 = canonical_traces(3, (7, 7, 7, 7))
    e2 = check_census_graph(3, 4, t2, graph_from_traces(3, t2))
    assert e2.ok() and e2.report.relation <= 0


def test_run_census_n8_clean():
    entries = run_census(8)
    assert entries and all(e.ok() for e in entries)
    # equivalence holds with real exceptions impossible below the window
    assert all(e.report.relation != 1 for e in entries)


def test_run_census_parallel_matches_serial():
    serial = run_census(8)
    parallel = run_census(8, jobs=2)
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
