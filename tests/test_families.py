import pytest

from locdom.bipartite import bipartition, condition_triple
from locdom.cli import main
from locdom.families import (
    FamilySpec,
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
    assert generate(FamilySpec("path", n=4)) == path(4)
    assert generate(FamilySpec("cycle", n=5)) == cycle(5)
    assert generate(FamilySpec("star", n=6)) == star(6)
    assert generate(FamilySpec("complete_bipartite", r=2, s=3)) == complete_bipartite(2, 3)
    assert generate(FamilySpec("bistar", r=3, s=4)) == bistar(3, 4)
    assert generate(FamilySpec("extremal", r=3, s=6)) == extremal(3, 6).graph
    assert generate(FamilySpec("banner")) == banner()


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n >= 3"):
        generate(FamilySpec("cycle", n=2))
    with pytest.raises(ValueError, match="requires parameter n"):
        generate(FamilySpec("path"))
    with pytest.raises(ValueError, match="^family 'bistar' requires parameter s$"):
        generate(FamilySpec("bistar", r=3))
    with pytest.raises(ValueError, match="unknown family"):
        generate(FamilySpec("wheel", n=5))
    with pytest.raises(ValueError, match=r"feasibility window \[6, 2\^3 - 1\] for r=3"):
        extremal(3, 8)


@pytest.mark.parametrize("spec, name", [
    (FamilySpec("banner", n=7), "n"),
    (FamilySpec("banner", n=5), "n"),
    (FamilySpec("path", n=5, r=3), "r"),
    (FamilySpec("star", n=5, s=3), "s"),
    (FamilySpec("bistar", n=7, r=3, s=4), "n"),
])
def test_generate_refuses_a_parameter_the_kind_does_not_read(spec, name):
    with pytest.raises(ValueError, match=f"^family {spec.kind!r} does not read parameter {name}$"):
        generate(spec)


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


def test_extremal_base_subsets():
    assert extremal(3, 6).w_subsets == (
        (1, 2, 3), (2, 3), (1, 3), (1, 2), (3,), (1,))
    assert extremal(4, 7).w_subsets == (
        (1, 2, 3, 4), (2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3), (3, 4), (1, 2))
    assert base_subsets(5) == [
        (1, 2, 3, 4, 5),
        (2, 3, 4, 5), (1, 3, 4, 5), (1, 2, 4, 5), (1, 2, 3, 5), (1, 2, 3, 4),
        (3, 4, 5), (1, 2, 5), (1, 2, 3)]


def test_extremal_extension_rule():
    w = extremal(3, 7)
    assert w.w_subsets[:6] == extremal(3, 6).w_subsets
    assert w.w_subsets[6] == (2,)


def test_extremal_5_31_uses_every_subset():
    w = extremal(5, 31)
    assert len(w.w_subsets) == 31
    assert len(set(w.w_subsets)) == 31
    from itertools import combinations
    everything = {c for k in range(1, 6) for c in combinations(range(1, 6), k)}
    assert set(w.w_subsets) == everything


def test_extremal_adjacency_rule():
    w = extremal(4, 7)
    g = w.graph
    for wi, subset in enumerate(w.w_subsets):
        for u in range(1, 5):
            assert g.has_edge(u - 1, 4 + wi) == (u in subset)


def test_extremal_satisfies_conditions():
    for r, s in ((3, 6), (3, 7), (4, 7), (4, 11), (5, 9)):
        g = extremal(r, s).graph
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
