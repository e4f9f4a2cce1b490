import random
from itertools import chain

import pytest

from locdom.associated import build_associated
from locdom.families import complete_bipartite, path
from locdom.graphio import (
    Graph6Error,
    export_dot,
    parse_documents,
    parse_edge_list,
    parse_graph6,
    sniff_format,
    to_edge_list,
    to_graph6,
)
from locdom.graphs import VertexSet, build_graph

from conftest import trace_gadget
import networkx as nx


def test_parse_graph6_known_strings():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count() == 6
    k2 = parse_graph6("A_")
    assert k2.n == 2 and sorted(k2.edges()) == [(0, 1)]
    empty5 = parse_graph6("D??")
    assert empty5.n == 5 and empty5.edge_count() == 0
    # the eight-byte header '~~' plus six groups may declare a small order
    assert parse_graph6("~~?????D?{") == parse_graph6("D?{")


def test_parse_graph6_header_and_whitespace():
    assert parse_graph6(">>graph6<<C~\n").n == 4


@pytest.mark.parametrize("line, offset", [
    (">>graph6<<A!", 11),
    ("  A!", 3),
    ("\t>>graph6<<A!\n", 12),
    (" ~A", 3),
    (">>graph6<<~~??", 14),
    ("  C~~", 4),
    (">>graph6<<A`", 11),
])
def test_parse_graph6_offsets_count_from_the_line_as_given(line, offset):
    """The header and the leading whitespace count toward the offset."""
    with pytest.raises(Graph6Error, match=rf"\(byte offset {offset}\)$") as info:
        parse_graph6(line)
    assert info.value.offset == offset


def test_parse_documents_names_the_line():
    with pytest.raises(Graph6Error, match=r"^line 2: trailing garbage after adjacency data "
                                          r"\(byte offset 2\)$") as info:
        parse_documents("A_\nB?o\n")
    assert info.value.offset == 2
    # blank lines count; an order refused by the header names its line too
    with pytest.raises(ValueError, match="^line 3: order 70000 exceeds"):
        parse_documents("A_\n\n~PDo\n")


def test_parse_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error, match="byte offset 1"):
        parse_graph6("C" + chr(30))
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("C")
    with pytest.raises(Graph6Error, match="trailing garbage"):
        parse_graph6("C~~")
    with pytest.raises(Graph6Error, match="empty"):
        parse_graph6("   ")
    with pytest.raises(Graph6Error,
                       match=r"^truncated extended size header \(byte offset 2\)$"):
        parse_graph6("~A")
    with pytest.raises(Graph6Error, match=r"^truncated long size header \(byte offset 4\)$"):
        parse_graph6("~~??")
    # the one bit of K2's single byte is its top bit; the five below pad it
    with pytest.raises(Graph6Error, match=r"^nonzero padding bits \(byte offset 1\)$"):
        parse_graph6("A`")


def test_graph6_round_trip_random():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(0, 20)
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.4])
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_round_trip_across_both_size_headers():
    """Orders 0 to 70, each at a few densities: the one-byte size header
    below 63, the four-byte one from 63 on."""
    rng = random.Random(70)
    for n in range(71):
        for p in (0.1, 0.5, 0.9):
            g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])
            line = to_graph6(g)
            assert line.startswith("~") == (n >= 63)
            assert parse_graph6(line) == g


def test_graph6_matches_networkx_encoding():
    """Random orders up to 15, plus 0, 1 and both sides of the one-byte
    size header's limit at 63."""
    rng = random.Random(13)
    drawn = (rng.randint(1, 15) for _ in range(60))
    for n in chain(drawn, (0, 1, 62, 63, 64, 100)):
        g = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < 0.5])
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert to_graph6(g) == theirs
        assert parse_graph6(theirs) == g


def test_graph6_large_n_header():
    g = build_graph(70, [(0, 69)])
    line = to_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_edge_list_round_trip():
    g = path(4)
    assert parse_edge_list(to_edge_list(g)) == g
    text = "4 3\n0 1\n1 2\n2 3\n"
    assert parse_edge_list(text) == g


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2.*self-loop"):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(ValueError, match="line 2.*out of range"):
        parse_edge_list("3 1\n0 5\n")
    with pytest.raises(ValueError, match="line 2: edge must be"):
        parse_edge_list("3 1\n0 1 2\n")
    with pytest.raises(ValueError, match="expected 2 edges, found 1"):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError, match="^line 1: vertex count must be nonnegative, got -1$"):
        parse_edge_list("-1 1\n0 1\n")
    # a negative edge count is refused on the header, not counted against
    for text in ("3 -1\n0 1\n", "3 -1\n"):
        with pytest.raises(ValueError, match="^line 1: edge count must be nonnegative, got -1$"):
            parse_edge_list(text)


def test_sniff_and_documents():
    assert sniff_format("4 3\n0 1\n1 2\n2 3\n") == "edge-list"
    assert sniff_format("C~\n") == "graph6"
    assert [g.n for g in parse_documents("C~\nA_\n")] == [4, 2]
    assert parse_documents(to_edge_list(path(5))) == [path(5)]


def test_round_trips_on_census_graphs():
    from locdom.bipartite import connected_bipartite_graphs
    for _, g in connected_bipartite_graphs(3, 4):
        assert parse_graph6(to_graph6(g)) == g
        assert parse_edge_list(to_edge_list(g)) == g


def test_export_dot_gadget_ranks():
    g, s = trace_gadget()
    dot = export_dot(build_associated(g, s))
    assert dot.count("rank=same") == 6  # levels 0..5
    assert '"[0123]" -- "[123]" [label="0"]' in dot
    assert '"[023]" -- "[02]" [label="3"]' in dot
    assert dot.startswith("graph") and dot.rstrip().endswith("}")


def test_export_dot_trivial_cases():
    ag = build_associated(path(4), VertexSet.of((0, 1, 2)))
    dot = export_dot(ag)
    assert '"[2]"' in dot
    # no real edges: every joint in the output belongs to the invisible spine
    assert all("__level" in line for line in dot.splitlines() if "--" in line)
    flat = build_associated(complete_bipartite(1, 1), VertexSet.of((0,)))
    assert '"[0]"' in export_dot(flat)


def test_export_dot_edgeless_multinode():
    from conftest import equal_size_trace_gadget
    g, s = equal_size_trace_gadget()
    dot = export_dot(build_associated(g, s))
    for name in ('"[01]"', '"[02]"', '"[12]"'):
        assert name in dot
    assert all("__level" in line for line in dot.splitlines() if "--" in line)
