import random

import pytest

from locdom import bipartite, suites
from locdom.bipartite import (
    CENSUS_CHECKS,
    ClassificationReport,
    census_pairs,
    check_census_graph,
    classify,
    condition_triple,
    connected_bipartite_graphs,
    corollary16_audit,
    feasibility_window,
    graph_from_traces,
    run_census,
)
from locdom.families import bistar, complete_bipartite, cycle, extremal, path, star
from locdom.graphs import (Bipartition, VertexSet, bipartition, build_graph, complement,
                           is_connected)
from locdom.ld import lambda_bruteforce, ld_codes

from oracles import (_relabeling_maps, bicolored_connected_counts, canonical_multiset,
                     complement_subset_floor, filtered_census_traces, ilp_lambda, naive_lambda,
                     orderly_canonical_tuples, trace_count_floors, twin_excess, twin_pairs)


def test_condition_triple_extremal_3_6():
    g = extremal(3, 6)
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
    rep = classify(extremal(3, 6))
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
    assert corollary16_audit(extremal(3, 6))
    assert corollary16_audit(extremal(3, 7))


def test_lemma13_audit_examples():
    """The Lemma 13 trigger, one hand example per hypothesis and two codes
    that fire none.  Every minimum LD-set of a graph with 2^r <= s is mixed
    or W (W - S is undominated by a code inside W, and U holds too few
    traces for W), so that hypothesis never decides alone on one; U of
    K_{2,5}, which is not an LD-set, exercises it."""
    def fires(g, members):
        return bipartite._lemma13_fires(bipartition(g), VertexSet.of(members))

    p6 = path(6)  # sides {0, 2, 4} and {1, 3, 5}
    assert VertexSet.of((0, 2, 5)) in ld_codes(p6) and fires(p6, (0, 2, 5))
    # W = {1, 3, 5} is a minimum LD-set too, but r = s
    assert VertexSet.of((1, 3, 5)) in ld_codes(p6) and not fires(p6, (1, 3, 5))
    tree = graph_from_traces(2, (1, 1, 3))  # U = {0, 1}, W = {2, 3, 4}
    assert VertexSet.of((2, 3, 4)) in ld_codes(tree) and fires(tree, (2, 3, 4))
    assert fires(complete_bipartite(2, 5), (0, 1))
    ext = extremal(3, 6)  # U = {0, 1, 2} is its only minimum LD-set
    assert ld_codes(ext) == [VertexSet.of((0, 1, 2))] and not fires(ext, (0, 1, 2))


def test_lemma13_audit_holds_over_census_codes():
    """Every minimum LD-set of every census graph of order <= 8, the (3, 4)
    and (3, 5) pairs, that fires the Lemma 13 trigger belongs to a graph whose
    relation is <= 0, and the census's own check passes on every entry."""
    entries = list(run_census(8))
    assert {(e.report.r, e.report.s) for e in entries} == {(3, 4), (3, 5)}
    fired = witness_fired_at_zero = 0
    for e in entries:
        bp = bipartition(e.graph)
        for code in ld_codes(e.graph):
            if bipartite._lemma13_fires(bp, code):
                fired += 1
                assert e.report.relation <= 0, (e.traces, code)
        assert "lemma13" not in e.failed
        witness_fired_at_zero += (e.report.relation == 0
                                  and bipartite._lemma13_fires(bp, e.report.witness_g))
    assert (fired, witness_fired_at_zero) == (1103, 51)


def test_relabeling_tables_refuse_r_above_8():
    """r = 9 would need 9! tables of 512 entries; the enumerator is refused first."""
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
            if is_connected(graph_from_traces(r, traces)):
                seen.add(canonical_multiset(r, traces))
        ours = list(connected_bipartite_graphs(r, s))
        assert len(ours) == len(seen)
        assert {t for t, _ in ours} == seen


def test_orderly_enumeration_matches_filter_oracle():
    """The pruned enumerator yields exactly the generate-then-filter multisets,
    in the same order, for every census side pair up to order 10, and so does
    the concatenation of its prefix subtrees, the census's task split.  With
    s <= 3 the prefixes are whole multisets, each its own subtree.  Pairs of
    order 13 and more split on longer prefixes, checked on (3, 10)."""
    for r, s in census_pairs(10) + [(1, 2), (1, 3), (2, 3)]:
        ours = list(connected_bipartite_graphs(r, s))
        assert [t for t, _ in ours] == filtered_census_traces(r, s), (r, s)
        assert all(g == graph_from_traces(r, t) for t, g in ours)
        prefixes = list(bipartite._prefixes(r, s))
        length = min(bipartite.TASK_PREFIX_LENGTH, s)
        assert prefixes and all(len(p) == length for p in prefixes)
        assert [item for p in prefixes
                for item in connected_bipartite_graphs(r, s, p)] == ours, (r, s)
    # from order 13 the tasks take four masks, and still cover the walk
    assert [bipartite._prefix_length(r, 13 - r) for r in range(3, 7)] == [4] * 4
    assert bipartite._prefix_length(6, 6) == bipartite._prefix_length(4, 8) == 3
    prefixes = list(bipartite._prefixes(3, 10))
    assert prefixes and all(len(p) == 4 for p in prefixes)
    assert ([t for p in prefixes for t, _ in connected_bipartite_graphs(3, 10, p)]
            == [t for t, _ in connected_bipartite_graphs(3, 10)])
    # unsorted, out of range, longer than s, and (2,), which a relabeling
    # of U sends to the lex-smaller (1,)
    for prefix in ((2, 1), (0, 1), (1, 8), (1, 1, 1, 1, 1), (2,)):
        with pytest.raises(ValueError, match="not a canonical prefix"):
            next(connected_bipartite_graphs(3, 4, prefix))


def test_incremental_walk_matches_the_full_scan_walk():
    """The walk that carries each relabeling's verdict yields the same
    canonical tuples, disconnected ones included, in the same order as the
    reference walk that re-sorts every prefix under every relabeling.  (5, 6)
    is the largest pair checked; the small pairs cover r = 1 and 2."""
    for r, length in [(1, 3), (2, 4), (3, 5), (3, 7), (4, 6), (5, 6)]:
        rel = bipartite._relabelings(r)
        walk = bipartite._canonical_tuples(rel, [], bipartite._root_verdicts(rel, ()), length)
        assert list(walk) == orderly_canonical_tuples(r, length), (r, length)


def test_relabelings_hold_each_table_once():
    """Each preimage list is the table of the inverse relabeling, the same
    object and no copy; ``drops`` marks the masks a table sends lower; and
    the tables are the non-identity relabelings of the oracle, each once."""
    from math import factorial
    for r in range(7):
        rel = bipartite._relabelings(r)
        masks = range(1 << r)
        ids = {id(table) for table in rel.tables}
        assert len(rel.tables) == len(rel.preimage) == len(rel.drops) == factorial(r) - 1
        for table, pre, drops in zip(rel.tables, rel.preimage, rel.drops):
            assert id(pre) in ids
            assert all(pre[table[x]] == x for x in masks)
            assert all(drops >> x & 1 == (table[x] < x) for x in masks)
        identity = tuple(range(1, 1 << r))
        oracle = {tuple(img[m] for m in identity) for img in _relabeling_maps(r)} - {identity}
        assert {tuple(table[1:]) for table in rel.tables} == oracle, r


def test_census_counts_match_the_burnside_oracle():
    """Enumerated classes per side pair equal the independent Burnside count
    for every census pair through order 11, (5, 6) with its 19,687 graphs
    included."""
    oracle = bicolored_connected_counts(11)
    assert {(r, s): oracle[r, s] for r, s in census_pairs(10)} == {
        (3, 4): 34, (3, 5): 76, (3, 6): 155, (3, 7): 290, (4, 5): 558, (4, 6): 1824}
    assert oracle[5, 6] == 19687
    for r, s in census_pairs(11):
        assert sum(1 for _ in connected_bipartite_graphs(r, s)) == oracle[r, s], (r, s)


def test_graph_from_traces_rejects_masks_outside_u():
    """A mask with a bit at or above r would add an edge inside W or a
    self-loop, and a negative one has no finite set of bits: all are refused.
    The zero mask is an isolated W vertex."""
    for traces in ([8, 1], [4], [1, -1]):
        with pytest.raises(ValueError, match=r"trace mask -?\d+ is outside \[0, 2\^2\)"):
            graph_from_traces(2, traces)
    g = graph_from_traces(2, [0, 3])
    assert g.n == 4 and g.adj == (0b1000, 0b1000, 0, 0b11)


def test_census_entry_checks_pass_on_known_graphs(monkeypatch):
    t = (1, 2, 3, 5, 6, 7)  # the canonical form of (7, 6, 5, 3, 4, 1)
    g = graph_from_traces(3, t)
    e = check_census_graph(t, g)
    assert e.failed == () and e.report.relation == 1
    assert (e.report.r, e.report.s, e.report.lambda_g) == (3, 6, 3)
    t2 = (7, 7, 7, 7)
    e2 = check_census_graph(t2, graph_from_traces(3, t2))
    assert e2.failed == () and e2.report.relation <= 0
    # failed checks are named once each, in CENSUS_CHECKS order, whatever fails
    assert CENSUS_CHECKS == ("equivalence", "twin_form", "cor16", "window", "lemma13", "gap")
    monkeypatch.setattr(bipartite, "corollary16_audit", lambda g: False)
    monkeypatch.setattr(bipartite, "feasibility_window", lambda r, s: False)
    monkeypatch.setattr(bipartite, "_lemma13_fires", lambda bp, code: True)
    assert check_census_graph(t, g).failed == ("cor16", "window", "lemma13")
    assert check_census_graph(t2, graph_from_traces(3, t2)).failed == ()
    # a report whose prediction and twin form disagree with it fails the rest
    honest = bipartite._classify

    def skewed(g, bp):
        rep = honest(g, bp)
        conds = rep.conditions._replace(c3_twin_form=not rep.conditions.c3)
        return rep._replace(conditions=conds, predicted_plus_one=False)

    monkeypatch.setattr(bipartite, "_classify", skewed)
    assert check_census_graph(t, g).failed == CENSUS_CHECKS[:-1]


def test_census_check_flags_a_relation_above_one(monkeypatch):
    """A relation of +2 where +1 is not predicted passes the other five
    checks; the gap check alone names it."""
    t = (1, 2, 3, 5)  # relation 0, lex-first witness U, so Lemma 13 does not fire
    g = graph_from_traces(3, t)
    assert check_census_graph(t, g).failed == ()
    honest = bipartite._classify
    monkeypatch.setattr(bipartite, "_classify", lambda g, bp: honest(g, bp)._replace(relation=2))
    e = check_census_graph(t, g)
    assert not e.report.predicted_plus_one and e.failed == ("gap",)


def test_census_check_reads_the_sides_off_its_graph():
    """The census check takes r = n - len(traces) and U = 0..r-1 from the
    graph, the sides bipartition finds, so its report is classify's on every
    census graph of order <= 9."""
    checked = 0
    for r, s in census_pairs(9):
        for traces, g in connected_bipartite_graphs(r, s):
            assert check_census_graph(traces, g).report == classify(g), traces
            checked += 1
    assert checked == 823


def test_run_census_n8_clean():
    entries = list(run_census(8))
    assert entries and all(e.failed == () for e in entries)
    # equivalence holds with real exceptions impossible below the window
    assert all(e.report.relation != 1 for e in entries)


def test_run_census_parallel_matches_serial():
    serial = list(run_census(8))
    parallel = list(run_census(8, jobs=2))
    assert serial == parallel
    # run_census does not sort: the order is the enumeration's own
    for entries in (serial, parallel):
        keys = [(e.report.r, e.report.s, e.traces) for e in entries]
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
    each side as explicit sets; sides in both orders, empty sides, and every
    count of members the twins force on each side."""
    for r in range(11):
        for s in range(11):
            for ta in range(r + 1):
                for tb in range(s + 1):
                    assert (bipartite._side_floors(r, s, ta, tb)
                            == trace_count_floors(r, s, ta, tb)), (r, s, ta, tb)


def test_side_floors_bound_lambda_on_census_graphs():
    """Every census graph with n <= 9 against the naive scan of G and its
    complement; each floor is reached on some of them."""
    tight = [0, 0]
    for r, s in census_pairs(9):
        stable, clique = bipartite._side_floors(r, s, 0, 0)
        for _, g in connected_bipartite_graphs(r, s):
            lam, lam_bar = _naive_lambdas(g)
            assert stable <= lam and clique <= lam_bar, (r, s, g.edges())
            tight[0] += stable == lam
            tight[1] += clique == lam_bar
    assert tight == [371, 82]


def _twin_floors(g, r):
    """The side floors of g, with sides U = 0..r-1 and W, and the twin
    excess of each side counted by the oracle."""
    u_side = VertexSet((1 << r) - 1)
    ta, tb = twin_excess(g, u_side), twin_excess(g, g.vertices() - u_side)
    return bipartite._side_floors(r, g.n - r, ta, tb), (ta, tb)


def test_twin_floors_bound_lambda_on_census_graphs():
    """Every census graph with n <= 9 against the naive scan of G and its
    complement, with the members twins force on each side counted by pairwise
    comparison.  The twins raise G's floor on many graphs, and it is reached
    on more of them than the side counts alone reach."""
    tight = [0, 0]
    raised = 0
    for r, s in census_pairs(9):
        for _, g in connected_bipartite_graphs(r, s):
            (stable, clique), _ = _twin_floors(g, r)
            lam, lam_bar = _naive_lambdas(g)
            assert stable <= lam and clique <= lam_bar, (r, s, g.edges())
            tight[0] += stable == lam
            tight[1] += clique == lam_bar
            raised += stable > bipartite._side_floors(r, s, 0, 0)[0]
    assert (tight, raised) == ([568, 561], 250)


def _complement_floors(g, r):
    """The per-subset complement floor of g, with sides U = 0..r-1 and W,
    and the oracle's, which lists every trace as an explicit set and counts
    the twin excess by pairwise comparison."""
    u_side = VertexSet((1 << r) - 1)
    bp = Bipartition(u_side, g.vertices() - u_side, r, g.n - r)
    fast = bipartite._complement_floor(g, bp, 0, bipartite._repeats(g, bp.U),
                                       bipartite._repeats(g, bp.W), 0)
    slow = complement_subset_floor(g, range(r), twin_excess(g, bp.U), twin_excess(g, bp.W))
    return fast, slow


def test_complement_floor_matches_the_oracle_and_bounds_lambda_on_census_graphs():
    """Every census graph with n <= 9, predicted or not: the per-subset
    complement floor equals the oracle's and is at most the naive scan's
    lambda(complement), which it reaches on most of them."""
    tight = 0
    for r, s in census_pairs(9):
        for _, g in connected_bipartite_graphs(r, s):
            fast, slow = _complement_floors(g, r)
            h = complement(g)
            lam_bar = naive_lambda(h.n, list(h.edges()))[0]
            assert fast == slow and fast <= lam_bar, (r, s, g.edges())
            tight += fast == lam_bar
    assert tight == 741


def test_twin_floors_bound_lambda_with_planted_twins():
    """300 seeded connected bipartite graphs, r, s <= 7, made by repeating
    rows and columns of a random biadjacency matrix, so that both sides have
    twins, against the naive scan of G and its complement; classify agrees
    with the scan, and the per-subset complement floor with its oracle."""
    rng = random.Random(1618)
    checked = 0
    while checked < 300:
        r, s = rng.randint(2, 6), rng.randint(2, 7)
        r0, s0 = rng.randint(1, r - 1), rng.randint(1, s - 1)
        base = [[rng.random() < 0.5 for _ in range(s0)] for _ in range(r0)]
        rows = base + [rng.choice(base) for _ in range(r - r0)]
        cols = list(range(s0)) + [rng.randrange(s0) for _ in range(s - s0)]
        rng.shuffle(rows)
        rng.shuffle(cols)
        g = build_graph(r + s, [(u, r + w) for u in range(r) for w in range(s)
                                if rows[u][cols[w]]])
        if not is_connected(g):
            continue
        (stable, clique), (ta, tb) = _twin_floors(g, r)
        assert ta >= r - r0 and tb >= s - s0
        lam, lam_bar = _naive_lambdas(g)
        assert stable <= lam and clique <= lam_bar, (r, s, g.edges())
        fast, slow = _complement_floors(g, r)
        assert fast == slow and fast <= lam_bar, (r, s, g.edges())
        rep = classify(g)
        assert (rep.lambda_g, rep.lambda_gbar) == (lam, lam_bar), (r, s, g.edges())
        checked += 1


def test_complement_floor_is_lambda_on_predicted_graphs():
    """The census graphs of order <= 12 where the condition triple predicts
    +1, 51 of them: the floor equals the ILP oracle's lambda(complement),
    from any start at or below it, with or without G's U part tried first."""
    pytest.importorskip("scipy.optimize", reason="the ILP oracle needs scipy's milp")
    predicted = 0
    for r, s in census_pairs(12):
        full = (1 << r) - 1
        for traces, g in connected_bipartite_graphs(r, s):
            # c1 and c2 read off the traces, before the triple is built
            if full not in traces or len(set(traces)) < s:
                continue
            bp = Bipartition(VertexSet(full), g.vertices() - VertexSet(full), r, s)
            if not condition_triple(g, bp).all_hold():
                continue
            predicted += 1
            h = complement(g)
            lam_bar = ilp_lambda(h.n, list(h.edges()))
            ta, tb = bipartite._repeats(g, bp.U), bipartite._repeats(g, bp.W)
            for k in range(lam_bar + 1):
                for first in (0, full):
                    assert bipartite._complement_floor(g, bp, k, ta, tb, first) == lam_bar
    assert predicted == 51


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
        stable, clique = bipartite._side_floors(r, s, 0, 0)
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
        stable, clique = bipartite._side_floors(1, n - 1, 0, 0)
        assert stable == lam == n - 1 and clique <= lam_bar
    for r in range(1, 6):
        for s in range(r, 11 - r):
            g = complete_bipartite(r, s)
            assert not is_connected(complement(g))
            lam, lam_bar = _naive_lambdas(g)
            stable, clique = bipartite._side_floors(r, s, 0, 0)
            assert stable <= lam and clique <= lam_bar, (r, s)


def test_classify_above_the_cap_with_side_floors():
    """K_{1,21}: the stable floor, 21, is past the r + 1 = 2 budget, and the
    report is partial as before.  Four seeded random bipartite graphs with
    n = 21..26 get lambda and lambda-bar of the ILP oracle."""
    g = star(22)
    assert bipartite._side_floors(1, 21, 0, 0)[0] == 21
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
    assert suites.table1_suite()[1] == []
    assert len(calls) > 2000 and all("floor" not in kw for kw in calls)
