"""The edge-labeled graph associated with a distinguishing set.

Given a distinguishing set S of G, the associated graph lives on V minus S;
two vertices are joined exactly when their neighborhoods inside S differ in a
single vertex u, and that u becomes the edge label.  Vertices sit on levels
0..|S| by trace size.  Label-selected subgraphs of this structure are the
cactus-shaped objects driving the bipartite lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graphs import Graph, VertexSet
from .ld import is_distinguishing


@dataclass(frozen=True)
class AssociatedGraph:
    """Edge-labeled graph on V minus S for a distinguishing set S.

    ``edges`` holds (x, y, label) triples with x < y and label in S; an edge
    means the traces of x and y in S differ exactly in {label}.  ``level``
    maps each vertex to its trace size.
    """

    graph: Graph
    s: VertexSet
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    level: dict[int, int] = field(repr=False)
    k: int

    def trace(self, v: int) -> VertexSet:
        return VertexSet(self.graph.adj[v].bits & self.s.bits)

    def edge_label(self, x: int, y: int) -> int | None:
        if x > y:
            x, y = y, x
        for a, b, lab in self.edges:
            if (a, b) == (x, y):
                return lab
        return None


@dataclass(frozen=True)
class LabelSubgraph:
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


@dataclass(frozen=True)
class CactusStats:
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
    if not s.issubset(g.vertices()):
        raise ValueError("set contains vertices outside the graph")
    outside = [v for v in range(g.n) if v not in s]
    traces = {v: g.adj[v].bits & s.bits for v in outside}
    for i in range(len(outside)):
        for j in range(i + 1, len(outside)):
            x, y = outside[i], outside[j]
            if traces[x] == traces[y]:
                raise ValueError(f"set does not distinguish vertices {x} and {y}")
    edges = []
    for i in range(len(outside)):
        for j in range(i + 1, len(outside)):
            x, y = outside[i], outside[j]
            diff = traces[x] ^ traces[y]
            if diff.bit_count() == 1:
                edges.append((x, y, diff.bit_length() - 1))
    level = {v: traces[v].bit_count() for v in outside}
    return AssociatedGraph(g, s, tuple(outside), tuple(edges), level, len(s))


def label_multiplicity(ag: AssociatedGraph) -> dict[int, int]:
    """Number of edges carrying each label, zero included, keyed by S member."""
    counts = {u: 0 for u in ag.s}
    for _, _, lab in ag.edges:
        counts[lab] += 1
    return counts


def _components_of(vertices: Iterable[int], edges) -> tuple[VertexSet, ...]:
    """Connected components of the (x, y, label) edges over ``vertices``,
    ordered by smallest member."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y, _ in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    groups: dict[int, int] = {}
    for v in vertices:
        r = find(v)
        groups[r] = groups.get(r, 0) | (1 << v)
    comps = [VertexSet(m) for m in groups.values()]
    comps.sort(key=lambda c: c.bits & -c.bits)
    return tuple(comps)


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
    those appearing on the chosen edges.
    """
    edges = tuple(sorted(edges))
    known = set(ag.edges)
    for e in edges:
        if e not in known:
            raise ValueError(f"edge {e} is not an edge of the associated graph")
    labels = VertexSet.of(lab for _, _, lab in edges)
    return LabelSubgraph(ag, labels, edges, _components_of(ag.vertices, edges))


def component_trace_check(ls: LabelSubgraph) -> bool:
    """Every component agrees on its trace outside the selected labels.

    The shared value must equal the outside-trace of a lowest-level member.
    """
    ag = ls.parent
    rest = ag.s - ls.selected_labels
    for comp in ls.components:
        members = comp.members()
        outline = {v: ag.graph.adj[v].bits & rest.bits for v in members}
        low = min(members, key=lambda v: ag.level[v])
        if any(outline[v] != outline[low] for v in members):
            return False
    return True


def _adjacency(edges) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for x, y, lab in edges:
        adj.setdefault(x, []).append((y, lab))
        adj.setdefault(y, []).append((x, lab))
    return adj


def parity_audit(ag: AssociatedGraph) -> bool:
    """Every cycle of a cycle basis has an even number of edges per label.

    Label parity is additive over the cycle space, so checking the
    fundamental cycles of a spanning forest covers every cycle.  Implemented
    with label-xor potentials along the forest: a chord (x, y, u) closes an
    all-even cycle iff potential(x) ^ potential(y) == bit(u).
    """
    adj = _adjacency(ag.edges)
    pot: dict[int, int] = {}
    for root in ag.vertices:
        if root in pot:
            continue
        pot[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, lab in adj.get(v, ()):
                if w not in pot:
                    pot[w] = pot[v] ^ (1 << lab)
                    stack.append(w)
    for x, y, lab in ag.edges:
        if pot[x] ^ pot[y] != (1 << lab):
            # chord closing a cycle with some odd label count, or an
            # inconsistent tree edge
            return False
    return True


def cactus_stats(ls: LabelSubgraph) -> CactusStats:
    """Component, cycle and excess-edge counts on the edge-incident restriction.

    is_cactus holds when every block of the subgraph is a single edge or a
    single cycle, i.e. no edge lies on two distinct cycles.
    """
    incident: set[int] = set()
    for x, y, _ in ls.edges:
        incident.add(x)
        incident.add(y)
    verts = tuple(sorted(incident))
    comps = _components_of(verts, ls.edges)
    cc = len(comps)
    m = len(ls.edges)
    cy = m - len(verts) + cc
    ex = m - 4 * cy
    return CactusStats(cc, cy, ex, _all_blocks_edge_or_cycle(verts, ls.edges))


def _all_blocks_edge_or_cycle(verts, edges) -> bool:
    # Hopcroft-Tarjan block decomposition; a block with more edges than
    # vertices contains an edge shared by two cycles.
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
    for idx, (x, y, _) in enumerate(edges):
        adj[x].append((y, idx))
        adj[y].append((x, idx))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = 0
    estack: list[int] = []

    def block_ok(block_edges: list[int]) -> bool:
        vs: set[int] = set()
        for idx in block_edges:
            x, y, _ = edges[idx]
            vs.add(x)
            vs.add(y)
        return len(block_edges) <= 1 or len(block_edges) == len(vs)

    for root in verts:
        if root in disc:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, pedge, it = stack[-1]
            advanced = False
            for w, idx in it:
                if idx == pedge:
                    continue
                if w not in disc:
                    estack.append(idx)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, idx, iter(adj[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    estack.append(idx)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while estack and estack[-1] != pedge:
                        block.append(estack.pop())
                    if estack:
                        block.append(estack.pop())
                    if not block_ok(block):
                        return False
    return True


def path_label_audit(ag: AssociatedGraph, path: list[int]) -> bool:
    """Check the label structure of a level-increasing path.

    The input must be a path of associated-graph edges whose levels strictly
    increase (each edge raises the level by one).  Returns True iff the edge
    labels are pairwise distinct and every label belongs to the trace of every
    later vertex on the path.
    """
    for v in path:
        if v not in ag.level:
            raise ValueError(f"vertex {v} is not a vertex of the associated graph")
    if len(set(path)) != len(path):
        raise ValueError("input repeats a vertex, so it is not a path")
    labels = []
    for a, b in zip(path, path[1:]):
        lab = ag.edge_label(a, b)
        if lab is None:
            raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")
        if ag.level[b] != ag.level[a] + 1:
            raise ValueError("path is not strictly level-increasing")
        labels.append(lab)
    if len(set(labels)) != len(labels):
        return False
    for j in range(1, len(path)):
        tr = ag.trace(path[j]).bits
        for lab in labels[:j]:
            if (tr >> lab) & 1 == 0:
                return False
    return True
