"""Independent reference implementations used to cross-check the library.

Everything here works on plain Python sets and adjacency dicts (or defers to
networkx), deliberately avoiding the bitmask/pruning code paths under test.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations

import networkx as nx


def adj_sets(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def naive_is_dominating(adj: list[set[int]], s: set[int]) -> bool:
    return all(adj[v] & s for v in range(len(adj)) if v not in s)


def naive_is_distinguishing(adj: list[set[int]], s: set[int]) -> bool:
    traces = [frozenset(adj[v] & s) for v in range(len(adj)) if v not in s]
    return len(set(traces)) == len(traces)


def naive_is_ld(adj: list[set[int]], s: set[int]) -> bool:
    return naive_is_dominating(adj, s) and naive_is_distinguishing(adj, s)


def naive_lambda(n: int, edges) -> tuple[int, tuple[int, ...]]:
    """Minimum LD-set size and first witness by full (size, lex) scan."""
    adj = adj_sets(n, edges)
    for k in range(n + 1):
        for comb in combinations(range(n), k):
            if naive_is_ld(adj, set(comb)):
                return k, comb
    raise AssertionError("unreachable: V is an LD-set")


def ilp_lambda(n: int, edges) -> int:
    """Minimum LD-set size from a 0/1 program written from the definition.

    x_v = 1 puts v in the set.  Domination: x_v plus x over N(v) is at least
    1.  Location: for u != v, x_u + x_v plus x over N(u) ^ N(v) is at least 1,
    since two outside vertices are told apart only by a member adjacent to
    exactly one of them.  Needs scipy.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    adj = adj_sets(n, edges)
    rows = [[v, *adj[v]] for v in range(n)]
    rows += [[u, v, *(adj[u] ^ adj[v])] for u, v in combinations(range(n), 2)]
    a = np.zeros((len(rows), n))
    for i, cols in enumerate(rows):
        a[i, cols] = 1
    res = milp(c=np.ones(n), constraints=LinearConstraint(a, lb=1, ub=np.inf),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"ILP solver did not finish: {res.message}")
    return int(round(res.fun))


def naive_codes(n: int, edges) -> list[tuple[int, ...]]:
    adj = adj_sets(n, edges)
    lam, _ = naive_lambda(n, edges)
    return [c for c in combinations(range(n), lam) if naive_is_ld(adj, set(c))]


def naive_associated_edges(n: int, edges, s: set[int]) -> set[tuple[int, int, int]]:
    """Symmetric-difference-one trace pairs, straight from the definition."""
    adj = adj_sets(n, edges)
    out = set()
    outside = [v for v in range(n) if v not in s]
    for x, y in combinations(outside, 2):
        diff = (adj[x] & s) ^ (adj[y] & s)
        if len(diff) == 1:
            out.add((x, y, next(iter(diff))))
    return out


def filtered_census_traces(r: int, s: int) -> list[tuple[int, ...]]:
    """Census trace multisets by generate-then-filter, in generation order.

    Every multiset of s nonempty subsets of U = {0..r-1} (as bitmasks) from
    ``combinations_with_replacement``, kept when no relabeling of U sorts it
    lex-smaller and the bipartite graph it describes is connected.
    """
    masks = range(1, 1 << r)
    images = [{m: sum(1 << perm[b] for b in range(r) if m >> b & 1) for m in masks}
              for perm in permutations(range(r))]
    out = []
    for traces in combinations_with_replacement(masks, s):
        if any(tuple(sorted(img[m] for m in traces)) < traces for img in images):
            continue
        G = nx.Graph()
        G.add_nodes_from(range(r + s))
        G.add_edges_from((u, r + i) for i, m in enumerate(traces) for u in range(r) if m >> u & 1)
        if nx.is_connected(G):
            out.append(traces)
    return out


def nx_graph(g) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def nx_components(vertices, edge_pairs) -> list[tuple[int, ...]]:
    """Connected components as sorted tuples, ordered by smallest member."""
    G = nx.Graph()
    G.add_nodes_from(vertices)
    G.add_edges_from(edge_pairs)
    return sorted(tuple(sorted(c)) for c in nx.connected_components(G))


def nx_cactus_stats(edge_pairs) -> tuple[int, int, int, bool]:
    """(cc, cy, ex, is_cactus) of the graph the edges span.

    cy is the size of nx's cycle basis and ex = |E| - 4 cy.  A cactus has no
    edge on two cycles: every biconnected block is an edge or a cycle.
    """
    G = nx.Graph(list(edge_pairs))
    cy = len(nx.cycle_basis(G))
    blocks = [G.subgraph(b) for b in nx.biconnected_components(G)]
    is_cactus = all(b.number_of_edges() in (1, b.number_of_nodes()) for b in blocks)
    return (nx.number_connected_components(G), cy, G.number_of_edges() - 4 * cy,
            is_cactus)


def nx_cycle_label_parity_ok(vertices, labeled_edges) -> bool:
    """Check even label counts over nx's cycle basis."""
    G = nx.Graph()
    G.add_nodes_from(vertices)
    for x, y, lab in labeled_edges:
        G.add_edge(x, y, label=lab)
    for cycle in nx.cycle_basis(G):
        counts: dict[int, int] = {}
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            lab = G.edges[a, b]["label"]
            counts[lab] = counts.get(lab, 0) + 1
        if any(c % 2 for c in counts.values()):
            return False
    return True
