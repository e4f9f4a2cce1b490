"""Property-based fuzzing of the graph parsers and the CLI's graph input.

Every parser either returns a graph or raises ValueError; a malformed graph6
line raises Graph6Error with the byte offset of the defect.  `locdom lambda -`
on any stdin text ends in exit code 0 or 2, never 1 (a property violation)
and never an uncaught exception.
"""

import contextlib
import io
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from locdom.cli import main  # noqa: E402
from locdom.graphio import (  # noqa: E402
    HEADER,
    Graph6Error,
    parse_documents,
    parse_edge_list,
    parse_graph6,
    sniff_format,
    to_edge_list,
    to_graph6,
)
from locdom.graphs import Graph, build_graph  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

# graph6 bytes (63..126) plus the whitespace and near misses around them
graph6_text = st.text(alphabet=st.sampled_from(
    [chr(c) for c in range(63, 127)] + [" ", "\n", "\t", ">", "<", "0", "\x7f", "é"]),
    max_size=40)
# "n m" headers and "i j" lines with small, huge and negative numbers
number = st.one_of(st.integers(-3, 25), st.integers(-10**15, 10**15)).map(str)
edge_list_text = st.lists(
    st.one_of(st.tuples(number, number).map(" ".join), number, st.just("")),
    max_size=12).map("\n".join)
# any code point, surrogates included, with ASCII drawn as often as the rest
code_points = st.one_of(st.integers(0, 127), st.integers(0, sys.maxunicode)).map(chr)


@st.composite
def graphs(draw, max_n=70):
    n = draw(st.integers(0, max_n))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.lists(pairs, max_size=3 * n)) if n > 1 else []
    return build_graph(n, [(i, j) for i, j in edges if i != j])


@st.composite
def near_misses(draw):
    """A small graph written in either format, then one character replaced,
    inserted or deleted (or none)."""
    g = draw(graphs(max_n=12))
    text = draw(st.sampled_from([to_graph6(g) + "\n", to_edge_list(g)]))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["keep", "replace", "insert", "delete"]))
    if edit == "keep":
        return text
    ch = "" if edit == "delete" else draw(code_points)
    return text[:at] + ch + text[at + (edit != "insert"):]


any_text = st.one_of(st.lists(code_points, max_size=40).map("".join),
                     graph6_text, edge_list_text, near_misses())


@FUZZ
@given(st.one_of(graph6_text, near_misses()))
def test_parse_graph6_returns_a_graph_or_names_an_offset(text):
    try:
        g = parse_graph6(text)
    except Graph6Error as exc:
        # only an empty line has no byte to point at
        body = text.strip().removeprefix(HEADER)
        assert exc.offset is not None or body == ""
    else:
        assert isinstance(g, Graph)


@FUZZ
@given(any_text)
@example(f"{10**12} 0\n")  # a huge declared order
def test_parse_edge_list_returns_a_graph_or_raises_value_error(text):
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    assert isinstance(g, Graph)


@FUZZ
@given(any_text)
def test_sniff_format_names_a_format_or_raises_value_error(text):
    try:
        fmt = sniff_format(text)
    except ValueError:
        assert not text.strip()
        return
    assert fmt in ("graph6", "edge-list")


@FUZZ
@given(any_text)
@example(f"{10**12} 0\n")  # a huge declared order
def test_lambda_on_any_stdin_exits_0_or_2(text):
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["lambda", "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("locdom: error:")


@FUZZ
@given(graphs())
def test_graph6_and_edge_list_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g
    assert parse_edge_list(to_edge_list(g)) == g
    assert parse_documents(to_graph6(g) + "\n") == [g]
    assert parse_documents(to_edge_list(g)) == [g]
