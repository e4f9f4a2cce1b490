"""The edge-labeled graph associated with a distinguishing set.

Given a distinguishing set S of G, the associated graph lives on V minus S;
two vertices are joined exactly when their neighborhoods inside S differ in a
single vertex u, and that u becomes the edge label.  Vertices sit on levels
0..|S| by trace size.  Label-selected subgraphs of this structure are the
cactus-shaped objects driving the bipartite lower bounds.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graphs import Graph, VertexSet, _check_inside


class AssociatedGraph(NamedTuple):
    """Edge-labeled graph on V minus S for a distinguishing set S.

    ``edges`` holds (x, y, label) triples with x < y and label in S; an edge
    means the traces of x and y in S differ exactly in {label}.  ``level``
    maps each vertex to its trace size; the repr leaves it out.
    """

    graph: Graph
    s: VertexSet
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    level: dict[int, int]
    k: int

    def trace(self, v: int) -> VertexSet:
        return VertexSet(self.graph.adj[v] & self.s.bits)

    def __repr__(self) -> str:
        return (f"AssociatedGraph(graph={self.graph!r}, s={self.s!r}, "
                f"vertices={self.vertices!r}, edges={self.edges!r}, k={self.k!r})")


class LabelSubgraph(NamedTuple):
    """Subgraph of an associated graph induced by a set of edges.

    ``components`` partitions every parent vertex: vertices with no incident
    selected edge stay as singleton components, keeping component counts
    monotone under edge removal.  Bound computations that need the
    edge-incident restriction (cycle counts, the cactus inequalities) use
    :func:`cactus_stats`.
    """

    parent: AssociatedGraph
    selected_labels: VertexSet
    edges: tuple[tuple[int, int, int], ...]
    components: tuple[VertexSet, ...]


class CactusStats(NamedTuple):
    """Component/cycle accounting of an edge-induced subgraph.

    cc and cy are computed on the edge-incident vertices; cy follows the
    generalized Euler identity |E| - |V| + cc and ex = |E| - 4*cy.
    """

    cc: int
    cy: int
    ex: int
    is_cactus: bool


def build_associated(g: Graph, s: VertexSet) -> AssociatedGraph:
    """Build the associated graph of a distinguishing set.

    Raises ValueError naming one violating pair when s is not distinguishing.
    """
    _check_inside(g, s)
    outside = tuple(g.vertices() - s)
    traced = [(v, g.adj[v] & s.bits) for v in outside]
    edges = []
    # pairs come in the order i < j, so the first equal pair is the one named
    for i, (x, tx) in enumerate(traced):
        for y, ty in traced[i + 1:]:
            diff = tx ^ ty
            if diff.bit_count() == 1:
                edges.append((x, y, diff.bit_length() - 1))
            elif not diff:
                raise ValueError(f"set does not distinguish vertices {x} and {y}")
    level = {v: t.bit_count() for v, t in traced}
    return AssociatedGraph(g, s, outside, tuple(edges), level, len(s))


def label_multiplicity(ag: AssociatedGraph) -> dict[int, int]:
    """Number of edges carrying each label, zero included, keyed by S member."""
    counts = {u: 0 for u in ag.s}
    for _, _, lab in ag.edges:
        counts[lab] += 1
    return counts


def _forest(vertices: Iterable[int], edges) -> dict[int, tuple[int, int, int]]:
    """Breadth-first spanning forest of the (x, y, label) edges over ``vertices``.

    Each component is rooted at its smallest member.  Maps every other vertex
    to (parent, label, depth) of its tree edge, parents before children, so
    the map holds |V| - cc entries.  Every edge endpoint must lie in
    ``vertices``.
    """
    nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for x, y, lab in edges:
        nbrs[x].append((y, lab))
        nbrs[y].append((x, lab))
    tree: dict[int, tuple[int, int, int]] = {}
    for root in sorted(nbrs):
        if root in tree:
            continue
        # the root marks its component as seen only while it is walked
        tree[root] = (root, -1, 0)
        queue = [root]
        for v in queue:
            depth = tree[v][2] + 1
            for w, lab in nbrs[v]:
                if w not in tree:
                    tree[w] = (v, lab, depth)
                    queue.append(w)
        del tree[root]
    return tree


def _components_of(vertices: Iterable[int], edges) -> tuple[VertexSet, ...]:
    """Connected components of the (x, y, label) edges over ``vertices``,
    ordered by smallest member."""
    root: dict[int, int] = {}
    for v, (p, _, _) in _forest(vertices, edges).items():
        root[v] = root.get(p, p)
    groups: dict[int, int] = {}
    for v in sorted(vertices):
        r = root.get(v, v)
        groups[r] = groups.get(r, 0) | (1 << v)
    return tuple(VertexSet(m) for m in groups.values())


def label_subgraph(ag: AssociatedGraph, s_prime: VertexSet) -> LabelSubgraph:
    """Subgraph keeping exactly the edges whose label lies in s_prime."""
    if not s_prime:
        raise ValueError("label selection must be nonempty")
    if not s_prime.issubset(ag.s):
        raise ValueError("label selection is not a subset of the distinguishing set")
    edges = tuple(e for e in ag.edges if e[2] in s_prime)
    return LabelSubgraph(ag, s_prime, edges, _components_of(ag.vertices, edges))


def edge_induced_subgraph(ag: AssociatedGraph, edges) -> LabelSubgraph:
    """Subgraph from an explicit subset of parent edges.

    Used for the two-edges-per-label bound analysis; the selected labels are
    those appearing on the chosen edges.  Each edge may be chosen once.
    """
    edges = tuple(sorted(edges))
    known = set(ag.edges)
    for i, e in enumerate(edges):
        if e not in known:
            raise ValueError(f"edge {e} is not an edge of the associated graph")
        if i and edges[i - 1] == e:
            raise ValueError(f"edge {e} is chosen more than once")
    labels = VertexSet.of(lab for _, _, lab in edges)
    return LabelSubgraph(ag, labels, edges, _components_of(ag.vertices, edges))


def component_trace_check(ls: LabelSubgraph) -> bool:
    """Every component agrees on its trace outside the selected labels.

    A component passes when its members' traces in S minus the selected
    labels form a one-element set.  A selected edge changes only its own
    label, so the components of a label subgraph always pass; a partition
    that joins two of them with different outside traces does not.
    """
    ag = ls.parent
    rest = (ag.s - ls.selected_labels).bits
    adj = ag.graph.adj
    return all(len({adj[v] & rest for v in comp}) == 1 for comp in ls.components)


def parity_audit(ag: AssociatedGraph) -> bool:
    """Every cycle has an even number of edges per label.

    Label parity is additive over the cycle space, and the fundamental cycles
    of any spanning forest span it, so they decide every cycle.  Potentials
    xor the label bits down the breadth-first forest; a fundamental cycle is
    all-even exactly when its closing edge (x, y, u) has
    potential(x) ^ potential(y) == bit(u), which tree edges meet by
    construction.
    """
    pot: dict[int, int] = {}
    for v, (p, lab, _) in _forest(ag.vertices, ag.edges).items():
        pot[v] = pot.get(p, 0) ^ (1 << lab)
    return all(pot.get(x, 0) ^ pot.get(y, 0) == 1 << lab for x, y, lab in ag.edges)


def cactus_stats(ls: LabelSubgraph) -> CactusStats:
    """Component, cycle and excess-edge counts on the edge-incident restriction.

    A spanning forest of the restriction has |V| - cc edges, which gives cc,
    and cy = |E| - |V| + cc counts its fundamental cycles.  is_cactus holds
    when no edge lies on two cycles, which is when the fundamental cycles are
    pairwise edge-disjoint: then every cycle, a sum of fundamental ones, is a
    union of edge-disjoint fundamental cycles, and a simple cycle is never the
    union of two or more of them (they would meet at a vertex of degree four
    or not meet at all).  So each closing edge marks the tree edges on its
    cycle, up to where its two ends meet, and a second mark refutes it.
    """
    verts = {v for x, y, _ in ls.edges for v in (x, y)}
    tree = _forest(verts, ls.edges)
    cc = len(verts) - len(tree)
    m = len(ls.edges)
    cy = m - len(verts) + cc
    ex = m - 4 * cy
    return CactusStats(cc, cy, ex, _cycles_edge_disjoint(tree, ls.edges))


def _cycles_edge_disjoint(tree: dict[int, tuple[int, int, int]], edges) -> bool:
    """No tree edge lies on two of the fundamental cycles the other edges close."""
    # a tree edge is named by its child; roots are absent from ``tree``
    marked: set[int] = set()
    for x, y, lab in edges:
        if tree.get(y, ())[:2] == (x, lab) or tree.get(x, ())[:2] == (y, lab):
            continue
        while x != y:
            if tree.get(x, (0, 0, 0))[2] < tree.get(y, (0, 0, 0))[2]:
                x, y = y, x
            if x in marked:
                return False
            marked.add(x)
            x = tree[x][0]
    return True
