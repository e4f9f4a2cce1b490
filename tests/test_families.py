import pytest

from locdom.bipartite import bipartition, condition_triple
from locdom.cli import main
from locdom.families import (
    KINDS,
    banner,
    base_subsets,
    bistar,
    complete_bipartite,
    cycle,
    extremal,
    generate,
    path,
    star,
    table1_expected,
)
from locdom.graphs import complement
from locdom.ld import lambda_bruteforce


def test_generate_dispatch():
    assert generate("path", n=4) == path(4)
    assert generate("cycle", n=5) == cycle(5)
    assert generate("star", n=6) == star(6)
    assert generate("complete_bipartite", r=2, s=3) == complete_bipartite(2, 3)
    assert generate("bistar", r=3, s=4) == bistar(3, 4)
    assert generate("extremal", r=3, s=6) == extremal(3, 6)
    assert generate("banner") == banner()


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n >= 3"):
        generate("cycle", n=2)
    with pytest.raises(ValueError, match="requires parameter n"):
        generate("path")
    with pytest.raises(ValueError, match="^family 'bistar' requires parameter s$"):
        generate("bistar", r=3)
    with pytest.raises(ValueError, match="unknown family"):
        generate("wheel", n=5)
    with pytest.raises(ValueError, match=r"feasibility window \[6, 2\^3 - 1\] for r=3"):
        extremal(3, 8)


# the parameters each kind reads, in KINDS order, and values that every kind
# reading them accepts
READS = {"path": "n", "cycle": "n", "star": "n", "complete_bipartite": "rs",
         "bistar": "rs", "extremal": "rs", "banner": ""}
VALUES = {"n": 6, "r": 3, "s": 6}


def test_kinds_are_the_families_table_in_order():
    assert KINDS == tuple(READS)


@pytest.mark.parametrize("spec, name", [
    ({"kind": "banner", "n": 7}, "n"),
    ({"kind": "banner", "n": 5}, "n"),
    ({"kind": "path", "n": 5, "r": 3}, "r"),
    ({"kind": "star", "n": 5, "s": 3}, "s"),
    ({"kind": "bistar", "n": 7, "r": 3, "s": 4}, "n"),
] + [
    ({"kind": kind, **{p: VALUES[p] for p in reads}, name: VALUES[name]}, name)
    for kind, reads in READS.items() for name in "nrs" if name not in reads
])
def test_generate_refuses_a_parameter_the_kind_does_not_read(spec, name):
    with pytest.raises(ValueError,
                       match=f"^family {spec['kind']!r} does not read parameter {name}$"):
        generate(**spec)


@pytest.mark.parametrize("kind", KINDS)
def test_generate_requires_each_parameter_the_kind_reads(kind):
    params = {p: VALUES[p] for p in READS[kind]}
    assert generate(kind, **params).n > 0
    for name in params:
        with pytest.raises(ValueError, match=f"^family {kind!r} requires parameter {name}$"):
            generate(kind, **{p: v for p, v in params.items() if p != name})


def test_extremal_window_message_for_huge_r(capsys):
    """2^r - 1 has about 6,000 digits at r = 20000, more than Python formats."""
    with pytest.raises(ValueError, match=r"s=5 outside the feasibility window "
                                         r"\[30001, 2\^20000 - 1\] for r=20000"):
        extremal(20000, 5)
    assert main(["family", "extremal", "--r", "20000", "--s", "5"]) == 2
    err = capsys.readouterr().err
    assert "[30001, 2^20000 - 1] for r=20000" in err and "digits" not in err


def test_bistar_shape():
    g = bistar(3, 3)
    assert g.n == 6
    assert g.has_edge(0, 1)
    assert sorted(g.degree(v) for v in range(6)) == [1, 1, 1, 1, 3, 3]


def test_banner_shape():
    g = banner()
    assert g.n == 5
    assert sorted(g.degree(v) for v in range(5)) == [1, 2, 2, 2, 3]
    assert g.has_edge(0, 4)


def w_subsets(g, r):
    """The subsets of {1..r} that G(r, s)'s s-side vertices encode, read off
    its rows: vertex r + i encodes {u + 1 for each neighbour u}."""
    return tuple(tuple(u + 1 for u in range(r) if g.adj[w] >> u & 1) for w in range(r, g.n))


def test_extremal_base_subsets():
    assert w_subsets(extremal(3, 6), 3) == (
        (1, 2, 3), (2, 3), (1, 3), (1, 2), (3,), (1,))
    assert w_subsets(extremal(4, 7), 4) == (
        (1, 2, 3, 4), (2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3), (3, 4), (1, 2))
    assert base_subsets(5) == [
        (1, 2, 3, 4, 5),
        (2, 3, 4, 5), (1, 3, 4, 5), (1, 2, 4, 5), (1, 2, 3, 5), (1, 2, 3, 4),
        (3, 4, 5), (1, 2, 5), (1, 2, 3)]


def test_extremal_extension_rule():
    w = w_subsets(extremal(3, 7), 3)
    assert w[:6] == w_subsets(extremal(3, 6), 3)
    assert w[6] == (2,)


def test_extremal_5_31_uses_every_subset():
    w = w_subsets(extremal(5, 31), 5)
    assert len(w) == 31
    assert len(set(w)) == 31
    from itertools import combinations
    everything = {c for k in range(1, 6) for c in combinations(range(1, 6), k)}
    assert set(w) == everything


def test_extremal_adjacency_rule():
    """G(4, 7) is its base subsets: s-side vertex 4 + i is adjacent to
    exactly the r-side vertices u - 1 for u in the i-th base subset, and the
    r side holds no edge."""
    g = extremal(4, 7)
    for wi, subset in enumerate(base_subsets(4)):
        for u in range(1, 5):
            assert g.has_edge(u - 1, 4 + wi) == (u in subset)
    assert g.n == 11 and not any(g.adj[u] & 0b1111 for u in range(4))


def test_extremal_satisfies_conditions():
    for r, s in ((3, 6), (3, 7), (4, 7), (4, 11), (5, 9)):
        g = extremal(r, s)
        conds = condition_triple(g, bipartition(g))
        assert conds.all_hold(), (r, s)


def test_table1_expected_values():
    assert table1_expected("path", n=10) == (4, 4)
    assert table1_expected("path", n=4) == (2, 2)
    assert table1_expected("cycle", n=7) == (3, 3)
    assert table1_expected("star", n=7) == (6, 6)
    assert table1_expected("complete_bipartite", r=2, s=3) == (3, 3)
    assert table1_expected("bistar", r=3, s=4) == (5, 4)
    with pytest.raises(ValueError, match="n >= 4"):
        table1_expected("path", n=3)
    with pytest.raises(ValueError, match="3 <= r <= s"):
        table1_expected("bistar", r=2, s=3)


def test_table1_matches_solver_spot():
    for kind, kwargs, g in (
        ("path", {"n": 9}, path(9)),
        ("cycle", {"n": 6}, cycle(6)),
        ("star", {"n": 8}, star(8)),
        ("complete_bipartite", {"r": 3, "s": 4}, complete_bipartite(3, 4)),
        ("bistar", {"r": 3, "s": 3}, bistar(3, 3)),
    ):
        expect = table1_expected(kind, **kwargs)
        got = (lambda_bruteforce(g).lam, lambda_bruteforce(complement(g)).lam)
        assert got == expect, kind
