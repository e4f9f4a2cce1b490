"""Immutable graph substrate: vertex sets, graphs, bipartitions, components.

Vertices are dense 0-based indices, and every set of them is a bitmask with
bit v for vertex v.  Adjacency rows are plain int masks, so a trace inside a
set S is one AND of a row with S's mask.  Every set a public function takes
or returns is a :class:`VertexSet`, the hashable wrapper around such a mask.
The records are ``typing.NamedTuple`` classes, so they unpack, index and
compare like tuples; ``VertexSet`` is a slotted class, because a tuple's
pickling and ``_replace`` read the ``__iter__`` and ``__len__`` it redefines.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


# The largest vertex count accepted.  It is far above any order the exact
# search can finish, and it is checked before anything of that length is
# built, so an input that declares a huge order fails with a message.
MAX_ORDER = 1 << 16


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the largest supported order {MAX_ORDER}")


def _check_inside(g: Graph, s: VertexSet) -> None:
    if s.bits >> g.n:
        raise ValueError("set contains vertices outside the graph")


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet:
    """A set of vertex indices stored as a bitmask.

    Immutable: assigning or deleting ``bits`` raises AttributeError.  Equal
    only to a VertexSet with the same bits, and hashed as ``hash((bits,))``,
    the hash of a one-field record.
    """

    __slots__ = ("bits",)
    bits: int

    def __init__(self, bits: int = 0) -> None:
        _set_bits(self, bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.bits,))

    def __reduce__(self) -> tuple[type, tuple[int]]:
        return (VertexSet, (self.bits,))

    @classmethod
    def of(cls, items: Iterable[int]) -> "VertexSet":
        m = 0
        for v in items:
            if not 0 <= v < MAX_ORDER:
                raise ValueError(f"vertex index must be in [0, {MAX_ORDER}), got {v}")
            m |= 1 << v
        return cls(m)

    @classmethod
    def single(cls, v: int) -> "VertexSet":
        return cls.of((v,))

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return _bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits | other.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits & other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits & ~other.bits)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits ^ other.bits)

    def issubset(self, other: "VertexSet") -> bool:
        return self.bits & ~other.bits == 0

    def add(self, v: int) -> "VertexSet":
        return VertexSet(self.bits | (1 << v))

    def discard(self, v: int) -> "VertexSet":
        return VertexSet(self.bits & ~(1 << v))

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}})"


# the slot's own setter, which the refusing __setattr__ does not reach
_set_bits = VertexSet.bits.__set__


class Graph(NamedTuple):
    """Simple undirected graph on vertices 0..n-1.

    ``adj[i]`` is the open neighborhood N(i) as an int mask with bit j set
    for each neighbor j.  Rows are symmetric and irreflexive; use
    :func:`build_graph` to construct.
    """

    n: int
    adj: tuple[int, ...]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self.adj[v].bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        """True iff ij is an edge; False when either end is not a vertex."""
        return 0 <= i < self.n and 0 <= j < self.n and (self.adj[i] >> j) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.adj):
            for j in _bits(row):
                if j > i:
                    yield (i, j)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def vertices(self) -> VertexSet:
        return VertexSet((1 << self.n) - 1)


class Bipartition(NamedTuple):
    """Stable sides (U, W) of a connected bipartite graph, with |U| = r <= s = |W|."""

    U: VertexSet
    W: VertexSet
    r: int
    s: int


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and an edge list.

    Edges are deduplicated; self-loops and out-of-range endpoints are rejected.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    _check_order(n)
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop rejected: ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    """Complement graph: ij is an edge iff it is not an edge of g (i != j)."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << i) for i, row in enumerate(g.adj)))


def _layers(adj: tuple[int, ...], start: int) -> list[int]:
    """Breadth-first layers from ``start`` as disjoint masks, by distance."""
    layers = [1 << start]
    seen = frontier = 1 << start
    while True:
        nxt = 0
        rest = frontier
        while rest:  # _bits inline, without a generator per layer
            low = rest & -rest
            nxt |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = nxt & ~seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(frontier)


def connected_components(g: Graph) -> list[VertexSet]:
    """Partition of V into maximal connected pieces, ordered by smallest member."""
    seen = 0
    out = []
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        comp = sum(_layers(g.adj, start))  # disjoint masks, so + is |
        seen |= comp
        out.append(VertexSet(comp))
    return out


def is_connected(g: Graph) -> bool:
    """True iff g has at most one component; the empty graph is connected."""
    return g.n == 0 or sum(_layers(g.adj, 0)) == (1 << g.n) - 1


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color a connected graph.

    Returns None when an odd cycle exists.  Raises ValueError on disconnected
    input so that "not connected" is never reported as "not bipartite".
    Sides are normalized so that r <= s; on a tie the side containing vertex 0
    becomes U.
    """
    if g.n == 0:
        raise ValueError("graph is not connected: it has no vertices")
    layers = _layers(g.adj, 0)
    if sum(layers) != (1 << g.n) - 1:
        raise ValueError("graph is not connected; split into components first")
    # breadth-first edges join one layer or two adjacent ones, so the layers
    # alternate sides unless some row meets its own layer: an odd cycle
    if any(g.adj[v] & layer for layer in layers for v in _bits(layer)):
        return None
    side0 = VertexSet(sum(layers[::2]))
    side1 = g.vertices() - side0
    if len(side0) > len(side1):
        side0, side1 = side1, side0
    # tie-break: vertex 0 is layer 0, so side0 already contains it
    return Bipartition(side0, side1, len(side0), len(side1))


def induced_subgraph(g: Graph, keep: VertexSet) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``keep``, relabeled to 0..|keep|-1.

    Returns the subgraph and the list mapping new indices to original ones
    (ascending, so relabeling preserves index order).
    """
    _check_inside(g, keep)
    old = keep.members()
    pos = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        m = 0
        for w in _bits(g.adj[v] & keep.bits):
            m |= 1 << pos[w]
        rows.append(m)
    return Graph(len(old), tuple(rows)), list(old)


def delete_vertex(g: Graph, u: int) -> tuple[Graph, list[int]]:
    """Graph minus vertex u, relabeled; returns (graph, new->old index map)."""
    if not (0 <= u < g.n):
        raise ValueError(f"vertex {u} out of range")
    return induced_subgraph(g, g.vertices().discard(u))
