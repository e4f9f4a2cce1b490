"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines and timings inline).
"""

import time
from collections import Counter
from math import ceil

import pytest

from locdom.associated import build_associated, label_subgraph
from locdom.bipartite import (CENSUS_CHECKS, bipartition, census_pairs, classify,
                              feasibility_window, run_census)
from locdom.families import (
    banner,
    bistar,
    complete_bipartite,
    cycle,
    extremal,
    path,
    star,
    table1_expected,
)
from locdom.graphs import VertexSet, complement
from locdom.ld import lambda_bounded, lambda_bruteforce
from locdom.suites import cactus_suite, parity_suite, thm3_suite

from conftest import trace_gadget
from oracles import bicolored_connected_counts


def report(name, start):
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - start:.1f}s)")


def test_c1_table1_regression():
    start = time.monotonic()
    for n in range(4, 15):
        for kind, g in (("path", path(n)), ("cycle", cycle(n))):
            got = (lambda_bruteforce(g).lam, lambda_bruteforce(complement(g)).lam)
            want = (ceil(2 * n / 5),) * 2 if n <= 6 else (ceil(2 * n / 5), ceil((2 * n - 2) / 5))
            assert got == want == table1_expected(kind, n=n), (kind, n)
    for n in range(4, 13):
        g = star(n)
        got = (lambda_bruteforce(g).lam, lambda_bruteforce(complement(g)).lam)
        assert got == (n - 1, n - 1), ("star", n)
    for r in range(2, 11):
        for s in range(r, 13 - r):
            g = complete_bipartite(r, s)
            got = (lambda_bruteforce(g).lam, lambda_bruteforce(complement(g)).lam)
            assert got == (r + s - 2, r + s - 2), ("K", r, s)
    for r in range(3, 7):
        for s in range(r, 7):
            g = bistar(r, s)
            got = (lambda_bruteforce(g).lam, lambda_bruteforce(complement(g)).lam)
            assert got == (r + s - 2, r + s - 3), ("bistar", r, s)
    report("1 table1 regression", start)


def test_c2_complement_gap_exhaustive_n7():
    start = time.monotonic()
    checked, violations = thm3_suite(max_n=7)
    assert checked == 996
    assert violations == []
    report("2 complement gap <= 1 on all 996 connected graphs n<=7", start)


def test_c3_characterization_census():
    start = time.monotonic()
    entries = list(run_census(10))
    assert len(entries) == 2937
    counts = {}
    for e in entries:
        counts[e.report.r, e.report.s] = counts.get((e.report.r, e.report.s), 0) + 1
    assert counts == {(3, 4): 34, (3, 5): 76, (3, 6): 155, (3, 7): 290,
                      (4, 5): 558, (4, 6): 1824}
    for name in CENSUS_CHECKS:
        bad = [e for e in entries if name in e.failed]
        assert bad == [], (name, bad[:3])
    plus = [e for e in entries if e.report.relation == 1]
    assert plus, "the census must contain gain witnesses"
    assert all(feasibility_window(e.report.r, e.report.s) for e in plus)
    report(f"3 census of {len(entries)} bipartite graphs n<=10", start)


@pytest.mark.slow
def test_census_order_11():
    """Opt-in (pytest -m slow): the whole order-11 census."""
    start = time.monotonic()
    entries = list(run_census(11))
    assert len(entries) == 28509
    assert [e for e in entries if e.failed] == []
    assert sum(1 for e in entries if e.report.relation == 1) == 5
    report(f"census of {len(entries)} bipartite graphs n<=11", start)


@pytest.mark.slow
def test_census_order_12():
    """Opt-in (pytest -m slow): the whole order-12 census on two workers,
    counted as the entries stream in, without holding them."""
    start = time.monotonic()
    counts, relations, plus, bad = Counter(), Counter(), Counter(), []
    for e in run_census(12, jobs=2):
        rep = e.report
        counts[rep.r, rep.s] += 1
        relations[rep.relation] += 1
        if rep.relation == 1:
            plus[rep.r, rep.s] += 1
        if e.failed:
            bad.append((rep.r, rep.s, e.traces, e.failed))
    oracle = bicolored_connected_counts(12)
    assert counts == {(r, s): oracle[r, s] for r, s in census_pairs(12)}
    assert counts.total() == 142637
    assert [relations[rel] for rel in (-1, 0, 1)] == [80528, 62058, 51]
    assert bad == []
    assert plus == {(3, 6): 2, (3, 7): 1, (4, 7): 2, (4, 8): 46}
    report(f"census of {counts.total()} bipartite graphs n<=12", start)


def test_c4_extremal_construction():
    start = time.monotonic()
    for r in (3, 4, 5):
        lo = ceil(3 * r / 2 + 1)
        for s in range(lo, 2**r):
            assert feasibility_window(r, s)
            g = extremal(r, s)
            from locdom.bipartite import condition_triple
            conds = condition_triple(g, bipartition(g))
            assert conds.all_hold(), (r, s)
    for r in (3, 4):
        for s in range(ceil(3 * r / 2 + 1), 2**r):
            g = extremal(r, s)
            rep = lambda_bounded(g, r + 1)
            assert rep is not None and rep.lam == r, (r, s)
            rep = lambda_bounded(complement(g), r + 1)
            assert rep is not None and rep.lam == r + 1, (r, s)
    # the order-36 instance: the small side is the unique-size optimum and
    # the complement needs exactly one more vertex
    g = extremal(5, 31)
    assert g.n == 36
    res = lambda_bounded(g, 5)
    assert res is not None and res.lam == 5
    assert res.witness == VertexSet.of(range(5))
    assert lambda_bounded(g, 4) is None
    res_bar = lambda_bounded(complement(g), 6)
    assert res_bar is not None and res_bar.lam == 6  # so no LD-set of size <= 5 exists there
    # classify, which starts the complement at its per-subset floor, against
    # the plain walk with no floor: both ends of the window, and order 21,
    # just above the 20-vertex cap, where the window reaches it (r >= 5)
    for r in range(3, 8):
        lo, hi = ceil(3 * r / 2 + 1), 2**r - 1
        for s in sorted({lo, hi, min(hi, max(lo, 21 - r))}):
            g = extremal(r, s)
            rep = classify(g)
            assert (rep.lambda_g, rep.lambda_gbar, rep.relation, rep.partial) == \
                (r, r + 1, 1, False), (r, s)
            assert rep.lambda_gbar == lambda_bounded(complement(g), r + 1).lam, (r, s)
    report("4 extremal construction r in {3,...,7}", start)


def test_c5_associated_graph_properties():
    start = time.monotonic()
    checked, violations = parity_suite(seed=2024, trials=500, max_n=14)
    assert checked == 500
    assert violations == []
    report("5 associated-graph property suite (500 trials)", start)


def test_c6_cactus_bounds():
    start = time.monotonic()
    checked, violations = cactus_suite(seed=2024, trials=500, max_n=14)
    assert checked == 500
    assert violations == []
    report("6 cactus suite (500 trials)", start)


def test_c7_fixed_points():
    start = time.monotonic()
    assert lambda_bruteforce(complete_bipartite(2, 3)).lam == 3
    b = bistar(2, 3)
    assert lambda_bruteforce(b).lam == 3
    assert lambda_bruteforce(complement(b)).lam == 2
    p = banner()
    assert lambda_bruteforce(p).lam == 3
    assert lambda_bruteforce(complement(p)).lam == 2
    # K2 is the one small bipartite graph whose complement needs an extra vertex
    from locdom.suites import connected_atlas_graphs
    gains = []
    for g in connected_atlas_graphs(6):
        try:
            bp = bipartition(g)
        except ValueError:
            continue
        if bp is None:
            continue
        lam = lambda_bruteforce(g).lam
        lam_bar = lambda_bruteforce(complement(g)).lam
        if lam_bar == lam + 1 and bp.r <= 2:
            gains.append(g)
    assert len(gains) == 1 and gains[0].n == 2
    report("7 fixed-point spot checks", start)


def test_c8_labeled_subgraph_reconstruction():
    start = time.monotonic()
    g, s = trace_gadget()
    ag = build_associated(g, s)
    ls = label_subgraph(ag, VertexSet.of((0, 1)))
    comps = [c.members() for c in ls.components]
    assert comps == [(5, 6, 7, 8), (9, 10), (11, 12)]
    # shape: one 4-cycle plus two disjoint edges
    degs = {}
    for x, y, _ in ls.edges:
        degs[x] = degs.get(x, 0) + 1
        degs[y] = degs.get(y, 0) + 1
    assert sorted(degs.values()) == [1, 1, 1, 1, 2, 2, 2, 2]
    assert len(ls.edges) == 6
    cyc_verts = {v for v, d in degs.items() if d == 2}
    assert cyc_verts == {5, 6, 7, 8}
    rest = s - VertexSet.of((0, 1))
    shared = {
        comp.members(): {VertexSet(g.adj[v] & rest.bits).members() for v in comp}
        for comp in ls.components
    }
    assert shared == {
        (5, 6, 7, 8): {(2, 3)},
        (9, 10): {(2,)},
        (11, 12): {(3, 4)},
    }
    report("8 labeled-subgraph reconstruction", start)
