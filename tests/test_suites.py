import random
from fnmatch import fnmatch
from pathlib import Path

import pytest

from locdom import suites
from locdom.associated import cactus_stats
from locdom.graphio import parse_graph6
from locdom.suites import (
    cactus_suite,
    connected_atlas_graphs,
    parity_suite,
    random_distinguishing_set,
    random_graph,
    table1_suite,
    thm3_suite,
)
from locdom.ld import is_distinguishing
from oracles import naive_associated_edges, nx_cactus_stats


def test_atlas_counts():
    graphs = connected_atlas_graphs(6)
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    with pytest.raises(ValueError, match="atlas covers"):
        connected_atlas_graphs(8)


def test_atlas_file_is_the_connected_networkx_atlas():
    """Reference for data/connected7.g6: rebuilt here from networkx's atlas."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    expected = [
        nx.to_graph6_bytes(G, header=False).decode("ascii").strip()
        for G in graph_atlas_g()[1:]
        if G.number_of_nodes() <= 7 and nx.is_connected(G)
    ]
    assert suites._ATLAS_FILE.read_text(encoding="ascii").splitlines() == expected


def test_atlas_count_guard_names_the_short_order(tmp_path, monkeypatch):
    lines = suites._ATLAS_FILE.read_text(encoding="ascii").splitlines()
    drop = next(i for i, line in enumerate(lines) if parse_graph6(line).n == 5)
    short = tmp_path / "short.g6"
    short.write_text("".join(line + "\n" for i, line in enumerate(lines) if i != drop))
    monkeypatch.setattr(suites, "_ATLAS_FILE", short)
    with pytest.raises(RuntimeError, match="20 connected graphs of order 5, expected 21"):
        connected_atlas_graphs(7)


def test_pyproject_has_no_runtime_dependency_and_ships_the_data():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    root = Path(__file__).resolve().parents[1]
    meta = tomllib.loads((root / "pyproject.toml").read_text())
    assert meta["project"]["dependencies"] == []
    test_extra = meta["project"]["optional-dependencies"]["test"]
    assert any(req.startswith("networkx") for req in test_extra)
    globs = meta["tool"]["setuptools"]["package-data"]["locdom"]
    package = root / "src" / "locdom"
    data = [p.relative_to(package).as_posix() for p in (package / "data").rglob("*") if p.is_file()]
    assert data
    for rel in data:
        assert any(fnmatch(rel, glob) for glob in globs), rel


def test_random_distinguishing_set_is_distinguishing():
    rng = random.Random(3)
    draws = [rng.randint(2, 12) for _ in range(30)] + [2] * 10 + [3] * 10
    for n in draws:
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        s = random_distinguishing_set(rng, g)
        assert is_distinguishing(g, s)
        assert 1 <= len(s) <= g.n - 1
    for n in (0, 1):
        with pytest.raises(ValueError, match="needs n >= 2"):
            random_distinguishing_set(rng, random_graph(rng, n, 0.5))


def test_suites_smoke():
    checked, bad = table1_suite()
    assert checked == 66 and not bad
    checked, bad = thm3_suite(max_n=5)
    assert checked == 31 and not bad
    checked, bad = parity_suite(seed=1, trials=40, max_n=10)
    assert checked == 40 and not bad
    checked, bad = cactus_suite(seed=1, trials=40, max_n=10)
    assert checked == 40 and not bad


def test_suites_deterministic_per_seed():
    assert parity_suite(seed=5, trials=15) == parity_suite(seed=5, trials=15)
    assert cactus_suite(seed=5, trials=15) == cactus_suite(seed=5, trials=15)


def test_two_per_label_draw_matches_the_definition_and_oracles():
    """Trace-first cactus instances against the definition and networkx."""
    rng = random.Random(11)
    max_n = 12
    shapes, with_cycle, multi_label = set(), 0, 0
    for _ in range(300):
        ag, chosen, sub = suites._two_per_label_instance(rng, max_n)
        g, s = ag.graph, set(ag.s)
        edges = list(g.edges())
        # G has only S-(V - S) edges; the associated edges follow the definition
        assert all((i in s) != (j in s) for i, j in edges)
        assert len(ag.edges) == len(set(ag.edges))
        assert set(ag.edges) == naive_associated_edges(g.n, edges, s)
        # exactly two parent edges per chosen label
        assert set(sub.edges) <= set(ag.edges)
        assert sorted(lab for _, _, lab in sub.edges) == sorted(chosen * 2)
        st = cactus_stats(sub)
        ref = nx_cactus_stats((x, y) for x, y, _ in sub.edges)
        assert (st.cc, st.cy, st.ex, st.is_cactus) == ref
        shapes.add((g.n, len(s)))
        with_cycle += st.cy >= 1
        multi_label += len(chosen) >= 2
    assert {n for n, _ in shapes} == set(range(suites.CACTUS_MIN_N, max_n + 1))
    # every |S| = k with 4 <= n - k <= 2^k occurs, at least for the small orders
    assert {(n, k) for n in range(6, 10) for k in range(2, n - 3) if n - k <= 1 << k} <= shapes
    assert with_cycle and multi_label


def test_cactus_suite_builds_one_instance_per_trial(monkeypatch):
    built = []
    real = suites.build_associated
    monkeypatch.setattr(suites, "build_associated", lambda g, s: built.append(g) or real(g, s))
    assert cactus_suite(seed=3, trials=50, max_n=14) == (50, [])
    assert len(built) == 50


def test_cactus_suite_reports_a_non_cactus(monkeypatch):
    """The cactus check is not vacuous: a wrong verdict shows as violations."""
    real = suites.cactus_stats
    monkeypatch.setattr(suites, "cactus_stats",
                        lambda ls: real(ls)._replace(is_cactus=False))
    checked, bad = cactus_suite(seed=1, trials=20, max_n=10)
    assert checked == 20 and len(bad) == 20
    assert all("not a cactus" in line for line in bad)


def test_random_suites_reject_out_of_range_parameters():
    with pytest.raises(ValueError, match="cactus suite needs max_n >= 6, got 5"):
        cactus_suite(max_n=5)
    with pytest.raises(ValueError, match="parity suite needs max_n >= 4, got 3"):
        parity_suite(max_n=3)
    for suite in (parity_suite, cactus_suite):
        with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
            suite(trials=-3)
        # refused before a graph of that order is drawn
        with pytest.raises(ValueError,
                           match="^order 70000 exceeds the largest supported order 65536$"):
            suite(trials=1, max_n=70000)
    # the bounds themselves are accepted
    assert cactus_suite(seed=2, trials=30, max_n=6) == (30, [])
    assert parity_suite(seed=2, trials=30, max_n=4) == (30, [])
    assert cactus_suite(trials=0) == parity_suite(trials=0) == (0, [])


def test_suites_table_holds_each_suite_with_keyword_only_options():
    """The command line reads a suite's options and their defaults off its
    keyword-only parameters, so a suite takes no other parameter."""
    assert suites.SUITES == {"table1": table1_suite, "thm3": thm3_suite,
                             "cactus": cactus_suite, "parity": parity_suite}
    assert list(suites.SUITES) == ["table1", "thm3", "cactus", "parity"]
    for run in suites.SUITES.values():
        assert run.__code__.co_argcount == 0
    assert table1_suite.__kwdefaults__ is None
    assert thm3_suite.__kwdefaults__ == {"max_n": 7}
    random_defaults = {"seed": 2024, "trials": 500, "max_n": 14}
    assert parity_suite.__kwdefaults__ == cactus_suite.__kwdefaults__ == random_defaults
    with pytest.raises(TypeError):
        thm3_suite(5)
