"""Independent reference implementations used to cross-check the library.

Everything here works on plain Python sets and adjacency dicts (or defers to
networkx), deliberately avoiding the bitmask/pruning code paths under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, gcd

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


@lru_cache(maxsize=None)
def _trace_families(a: int, b: int, cliques: bool) -> tuple[int, int, int]:
    """Sizes of the traces open to W - S and to U - S, and of their union,
    when S has a members in U and b in W, listed as explicit sets.

    With stable sides a vertex of W sees only U, so its trace is a subset of
    S & U, and a vertex of U one of S & W.  With clique sides a vertex of W
    also sees all of S & W, and a vertex of U all of S & U.  The empty trace
    is undominated and is dropped.
    """
    su = [("u", i) for i in range(a)]
    sw = [("w", j) for j in range(b)]
    w_base, u_base = (set(sw), set(su)) if cliques else (set(), set())
    w_traces = {frozenset(w_base | set(x)) for k in range(a + 1) for x in combinations(su, k)}
    u_traces = {frozenset(u_base | set(y)) for k in range(b + 1) for y in combinations(sw, k)}
    w_traces.discard(frozenset())
    u_traces.discard(frozenset())
    return len(w_traces), len(u_traces), len(w_traces | u_traces)


def trace_count_floors(r: int, s: int, ta: int = 0, tb: int = 0) -> tuple[int, int]:
    """Least LD-set sizes the side counts allow: with stable sides of r and s
    vertices (a bipartite graph), and with clique sides (its complement),
    when S must hold at least ta vertices of U and tb of W.

    The r - a vertices of U - S and the s - b of W - S need distinct traces
    from their families.  By Hall's theorem that is possible exactly when
    each family is large enough for its own side and the union for both.
    """
    return tuple(
        min(a + b for a in range(ta, r + 1) for b in range(tb, s + 1)
            for w_room, u_room, room in [_trace_families(a, b, cliques)]
            if s - b <= w_room and r - a <= u_room and (r - a) + (s - b) <= room)
        for cliques in (False, True)
    )


def complement_subset_floor(g, side, ta: int = 0, tb: int = 0) -> int:
    """The least |S| the per-subset trace count allows for an LD-set S of the
    complement of bipartite ``g``, with U = ``side`` and W the rest, when S
    holds at least ta vertices of U and tb of W.

    For every A within U and every b it lists, as explicit sets, the traces
    the vertices of W - S can take in the complement, B plus A - N(w) for w
    in W, and those U - S can take, A plus any subset of B, with B standing
    for b anonymous members of W; the empty trace is undominated and is
    dropped.  A and b are admitted when W - S, U - S and both together fit
    in their families, as in :func:`trace_count_floors`.
    """
    adj = adj_sets(g.n, g.edges())
    u_side = sorted(side)
    w_side = [v for v in range(g.n) if v not in u_side]
    r, s = len(u_side), len(w_side)
    best = r + s
    for a in range(ta, r + 1):
        for members in combinations(u_side, a):
            chosen = set(members)
            for b in range(tb, min(s, best - a) + 1):
                sw = [("w", j) for j in range(b)]
                w_traces = {frozenset(set(sw) | (chosen - adj[w])) for w in w_side}
                u_traces = {frozenset(chosen | set(y)) for k in range(b + 1)
                            for y in combinations(sw, k)}
                w_traces.discard(frozenset())
                u_traces.discard(frozenset())
                if (s - b <= len(w_traces) and r - a <= len(u_traces)
                        and (r - a) + (s - b) <= len(w_traces | u_traces)):
                    best = a + b
                    break
    return best


def twin_excess(g, side) -> int:
    """The number of vertices of ``side`` that an LD-set must hold because of
    twins: the class sizes less one, summed over the classes of vertices of
    ``side`` with equal neighbourhoods, found by comparing every pair."""
    members = list(side)
    classes: list[list[int]] = []
    for v in members:
        for cls in classes:
            if all(g.has_edge(v, x) == g.has_edge(cls[0], x) for x in range(g.n)):
                cls.append(v)
                break
        else:
            classes.append([v])
    return sum(len(cls) - 1 for cls in classes)


def reference_walk(n: int, hits_of, closed_at, every: int, kmin: int, kmax: int,
                   collect: bool):
    """The exact search's walk over a seal index, one recursive call per
    member down to an empty slot count: (k, LD-set masks) for the least k in
    [kmin, kmax] with an LD-set, or None.  A node stops after member j when
    ``closed_at[j]`` holds a seal it still needs; without ``collect`` the
    first hit ends the walk.  It reads ``hits_of`` and ``closed_at`` in the
    order a walk that visits the same sets with the same stops reads them."""
    hits: list[int] = []

    def walk(i: int, met: int, chosen: int, left: int) -> bool:
        need = every & ~met
        if left == 0:
            if need:
                return False
            hits.append(chosen)
            return not collect
        for j in range(i, n - left + 1):
            if walk(j + 1, met | hits_of[j], chosen | 1 << j, left - 1):
                return True
            if closed_at[j] & need:
                return False
        return False

    for k in range(kmin, kmax + 1):
        walk(0, 0, 0, k)
        if hits:
            return k, hits
    return None


def naive_codes(n: int, edges) -> list[tuple[int, ...]]:
    adj = adj_sets(n, edges)
    lam, _ = naive_lambda(n, edges)
    return [c for c in combinations(range(n), lam) if naive_is_ld(adj, set(c))]


@dataclass(frozen=True)
class TwinPair:
    """Pair u < v with N(u)=N(v) (kind 'open') or N[u]=N[v] (kind 'closed')."""

    u: int
    v: int
    kind: str


def twin_pairs(g, restrict=None) -> list[TwinPair]:
    """All twin pairs inside ``restrict`` (default: all vertices), sorted by
    (u, v), from neighbourhood sets: the reference for c1, "W has no twins".

    For distinct vertices the open and closed equalities are mutually
    exclusive.
    """
    adj = adj_sets(g.n, g.edges())
    verts = range(g.n) if restrict is None else restrict.members()
    out = []
    for u, v in combinations(verts, 2):
        if adj[u] == adj[v]:
            out.append(TwinPair(u, v, "open"))
        elif adj[u] | {u} == adj[v] | {v}:
            out.append(TwinPair(u, v, "closed"))
    return out


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


def _relabeling_maps(r: int) -> list[dict[int, int]]:
    """Every relabeling of U = {0..r-1}, as a map on nonempty subset masks."""
    masks = range(1, 1 << r)
    return [{m: sum(1 << perm[b] for b in range(r) if m >> b & 1) for m in masks}
            for perm in permutations(range(r))]


def canonical_multiset(r: int, traces) -> tuple[int, ...]:
    """The lex-least sorted image of a trace multiset under the relabelings of U."""
    return min(tuple(sorted(img[m] for m in traces)) for img in _relabeling_maps(r))


def filtered_census_traces(r: int, s: int) -> list[tuple[int, ...]]:
    """Census trace multisets by generate-then-filter, in generation order.

    Every multiset of s nonempty subsets of U = {0..r-1} (as bitmasks) from
    ``combinations_with_replacement``, kept when no relabeling of U sorts it
    lex-smaller and the bipartite graph it describes is connected.
    """
    images = _relabeling_maps(r)
    out = []
    for traces in combinations_with_replacement(range(1, 1 << r), s):
        if any(tuple(sorted(img[m] for m in traces)) < traces for img in images):
            continue
        G = nx.Graph()
        G.add_nodes_from(range(r + s))
        G.add_edges_from((u, r + i) for i, m in enumerate(traces) for u in range(r) if m >> u & 1)
        if nx.is_connected(G):
            out.append(traces)
    return out


def orderly_canonical_tuples(r: int, length: int) -> list[tuple[int, ...]]:
    """Every canonical sorted tuple of ``length`` nonempty masks over
    U = {0..r-1}, connected or not, in increasing order, by an orderly walk
    with a full scan.

    The walk grows a sorted tuple one mask at a time, never below its last
    mask, and re-sorts each grown prefix's image under every relabeling of U.
    It keeps the prefix when no image sorts lex-smaller.  No verdict is
    carried from a prefix to its extensions.
    """
    images = _relabeling_maps(r)
    out = []

    def grow(prefix: list[int]) -> None:
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for m in range(prefix[-1] if prefix else 1, 1 << r):
            prefix.append(m)
            if not any(sorted([img[x] for x in prefix]) < prefix for img in images):
                grow(prefix)
            prefix.pop()

    grow([])
    return out


def _partitions(n: int, top: int):
    """Partitions of n into parts of at most ``top``, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, top), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _z(parts: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation with these cycle lengths."""
    out = 1
    for k in set(parts):
        m = parts.count(k)
        out *= k**m * factorial(m)
    return out


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def bicolored_connected_counts(max_n: int) -> dict[tuple[int, int], int]:
    """Connected bicoloured graphs with r vertices of one colour and s of the
    other, up to colour-preserving isomorphism, for every 1 <= r + s <= max_n.

    Burnside over S_r x S_s acting on the r*s possible edges counts all
    bicoloured graphs: B(r, s) = sum over cycle types l of r and m of s of
    2^(sum gcd(l_i, m_j)) / (z_l z_m).  Since B = exp(sum_k C(x^k, y^k) / k),
    the connected counts are C(r, s) = sum over k dividing gcd(r, s) of
    mu(k) / k * L(r/k, s/k) with L = log B (Harary and Palmer, Graphical
    Enumeration, 1973; OEIS A028657).  For r != s a connected bipartite graph
    has one pair of sides, so C(r, s) counts the unlabelled graphs.
    """
    parts = {n: list(_partitions(n, n)) for n in range(max_n + 1)}
    b = {}
    for r in range(max_n + 1):
        for s in range(max_n + 1 - r):
            b[r, s] = sum(
                Fraction(2 ** sum(gcd(i, j) for i in lam for j in mu), _z(lam) * _z(mu))
                for lam in parts[r] for mu in parts[s]
            )
    # L = log B from (r + s) B(r, s) = sum over (a, b) of (a + b) L(a, b) B(r - a, s - b)
    log = {}
    for n in range(1, max_n + 1):
        for r in range(n + 1):
            s = n - r
            rest = sum((a + c) * log[a, c] * b[r - a, s - c]
                       for a in range(r + 1) for c in range(s + 1)
                       if 0 < a + c < n)
            log[r, s] = (n * b[r, s] - rest) / n
    out = {}
    for (r, s) in log:
        total = sum(Fraction(_mobius(k), k) * log[r // k, s // k]
                    for k in range(1, gcd(r, s) + 1) if r % k == 0 and s % k == 0)
        assert total.denominator == 1, (r, s, total)
        out[r, s] = int(total)
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
