"""Graph parsing and serialization: graph6, edge lists, DOT export.

graph6 packs the upper triangle of the adjacency matrix column-major into
6-bit groups stored as printable bytes 63..126, preceded by a size header
(one byte for n < 63, '~' plus three bytes up to n = 258047, '~~' plus six
bytes beyond).
"""

from __future__ import annotations

from .associated import AssociatedGraph
from .graphs import Graph, _check_order, build_graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


def _vals(text: str, start: int) -> list[int]:
    vals = []
    for off in range(start, len(text)):
        v = ord(text[off]) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"invalid graph6 byte {text[off]!r}", off)
        vals.append(v)
    return vals


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a graph."""
    text = line.strip()
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    if not text:
        raise Graph6Error("empty graph6 input")
    vals = _vals(text, 0)
    if vals[0] < 63:
        n, body = vals[0], vals[1:]
        body_off = 1
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise Graph6Error("truncated extended size header", len(text))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body, body_off = vals[4:], 4
    else:
        if len(vals) < 8:
            raise Graph6Error("truncated long size header", len(text))
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        body, body_off = vals[8:], 8
    _check_order(n)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(
            f"adjacency data truncated: expected {nbytes} bytes, got {len(body)}",
            body_off + len(body),
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after adjacency data", body_off + nbytes)
    if nbytes and body[-1] & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6Error("nonzero padding bits", body_off + nbytes - 1)
    # the body as one int, least significant bit first: bit i of column j
    # (edge ij) is bit j(j - 1)/2 + i; base 8 converts in linear time
    acc = int("0" + "".join([_GROUP_OCTAL[v] for v in reversed(body)]), 8)
    rows = [0] * n
    for j in range(1, n):
        col = acc & ((1 << j) - 1)
        acc >>= j
        rows[j] |= col
        while col:  # _bits inline
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    return Graph(n, tuple(rows))


# each 6-bit group read least significant bit first: the graph6 byte that
# encodes it, and the two octal digits that decode it
_REVERSED = [int(f"{v:06b}"[::-1], 2) for v in range(64)]
_GROUP_BYTE = [chr(63 + v) for v in _REVERSED]
_GROUP_OCTAL = [f"{v:02o}" for v in _REVERSED]


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 line."""
    n = g.n
    if n < 63:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> (6 * k)) & 63 for k in range(5, -1, -1)]
    out = [chr(63 + v) for v in head]
    # the upper triangle, column by column, gathered least significant bit
    # first in ``acc``; whole 6-bit groups are cut off its low end, so it
    # stays below n + 60 bits however large the graph
    acc = width = 0
    for j in range(1, n):
        acc |= (g.adj[j] & ((1 << j) - 1)) << width
        width += j
        if width >= 60:
            cut = width - width % 6
            out += [_GROUP_BYTE[(acc >> k) & 63] for k in range(0, cut, 6)]
            acc >>= cut
            width -= cut
    out += [_GROUP_BYTE[(acc >> k) & 63] for k in range(0, width, 6)]
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a header line "n m" then m lines "i j" (0-based)."""
    lines = text.splitlines()
    header = None
    edges = []
    expect = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: header must be 'n m', got {line!r}")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ValueError(f"line {lineno}: header must be two integers") from None
            for what, count in zip(("vertex", "edge"), header):
                if count < 0:
                    raise ValueError(f"line {lineno}: {what} count must be nonnegative, "
                                     f"got {count}")
            _check_order(header[0])
            expect = header[1]
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: edge must be 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        if len(edges) >= expect:
            raise ValueError(f"line {lineno}: more than the declared {expect} edges")
        edges.append((lineno, i, j))
    if header is None:
        raise ValueError("empty edge-list input")
    if len(edges) != expect:
        raise ValueError(f"expected {expect} edges, found {len(edges)}")
    try:
        return build_graph(header[0], [(i, j) for _, i, j in edges])
    except ValueError as exc:
        for lineno, i, j in edges:
            if i == j or not (0 <= i < header[0] and 0 <= j < header[0]):
                raise ValueError(f"line {lineno}: {exc}") from None
        raise


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{i} {j}" for i, j in g.edges()]
    return "\n".join(lines) + "\n"


def sniff_format(text: str) -> str:
    """Guess graph6 vs edge-list: an all-digit "n m" first line means edge list.

    Unambiguous because digits are below the graph6 byte range.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            parts = line.split()
            if len(parts) == 2 and all(p.isdigit() for p in parts):
                return "edge-list"
            return "graph6"
    raise ValueError("empty graph input")


def parse_documents(text: str) -> list[Graph]:
    """Parse input text into its graphs: one per graph6 line, or the one edge list."""
    if sniff_format(text) == "edge-list":
        return [parse_edge_list(text)]
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def _trace_name(ag: AssociatedGraph, v: int) -> str:
    members = ag.trace(v).members()
    if members and max(members) > 9:
        return "[" + ",".join(map(str, members)) + "]"
    return "[" + "".join(map(str, members)) + "]"


def export_dot(ag: AssociatedGraph) -> str:
    """Render an associated graph in DOT with one rank per level, level 0 at the bottom.

    Node names are the bracketed traces used in level drawings; edges carry
    their label vertex as the edge label.
    """
    out = ["graph associated {"]
    out.append('  node [shape=plaintext];')
    names = {v: _trace_name(ag, v) for v in ag.vertices}
    # invisible spine anchors force level k to the top rank
    for j in range(ag.k, -1, -1):
        out.append(f'  "__level{j}" [style=invis, label=""];')
    for hi in range(ag.k, 0, -1):
        out.append(f'  "__level{hi}" -- "__level{hi - 1}" [style=invis];')
    for j in range(ag.k + 1):
        row = [f'"__level{j}"'] + [
            f'"{names[v]}"' for v in ag.vertices if ag.level[v] == j
        ]
        out.append("  { rank=same; " + "; ".join(row) + "; }")
    for x, y, lab in ag.edges:
        out.append(f'  "{names[x]}" -- "{names[y]}" [label="{lab}"];')
    out.append("}")
    return "\n".join(out) + "\n"
