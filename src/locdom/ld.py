"""Locating-dominating predicates and exact minimum-size computation.

A set S is dominating when every vertex outside S has a neighbor in S, and
distinguishing when the traces N(v) & S are pairwise distinct over v outside
S.  An LD-set is both.  Every minimum here (:func:`lambda_bruteforce`,
:func:`ld_codes`, :func:`lambda_bounded`) comes from one exact search.  Each
connected component is solved on its own, and sizes are tried upward from a
proven floor.  For each size a walk picks the next member in increasing
order, so it meets LD-sets in lexicographic order.  A set is an LD-set
exactly when it meets every *seal*: N[u] for every vertex u, and {u, v} plus
the separators of u and v for every pair.  The seals are numbered, and each
vertex has a bitset of the seal indices it meets, so the walk carries the
seals met so far as one int.  Choosing a vertex is one OR.  A node stops once
it has passed over the last member of a seal it still needs, and a last
member completes an LD-set exactly when it meets every seal still needed.

Floors.  Let S be an LD-set of size k in a graph with n vertices, largest
degree D and smallest degree d.  The n - k vertices outside S carry distinct
nonempty traces, so (:func:`_floor` takes the largest of the three):

* n - k <= 2^k - 1 (Slater 1988);
* at most k traces are singletons, so at least 2(n - k) - k edges join S to
  the rest, and at most kD do: k >= 2n / (D + 3);
* at most one trace is all of S and at most k miss exactly one member, so at
  least 2(n - k) - k - 2 non-edges join S to the rest, and at most
  k(n - 1 - d) do: k >= (2n - 2) / (n + 2 - d).

The last two are lambda itself on paths and cycles, ceil(2n/5), and on their
complements, ceil((2n - 2)/5).  A caller may also pass a floor it has proved.
classify knows the sides U and W of a bipartite G, of sizes r and s, and
counts the traces each side can carry when S has a members in U and b in W:

* in G the sides are stable, so W - S carries distinct nonempty subsets of
  S & U and U - S of S & W: s - b <= 2^a - 1 and r - a <= 2^b - 1;
* in the complement the sides are cliques, so W - S carries S & W plus
  distinct subsets of S & U, nonempty when b = 0, and U - S likewise, with
  only S itself open to both: s - b <= 2^a - [b = 0], r - a <= 2^b - [a = 0]
  and (r - a) + (s - b) <= 2^a - [b = 0] + 2^b - [a = 0] - 1.

Each floor is the least a + b its conditions allow.  The complement starts
at the larger of its floor and lambda(G) - 1, because an LD-set of the
complement distinguishes G and leaves at most one vertex of G undominated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph, VertexSet, _bits, connected_components, induced_subgraph

ORACLE_CAP = 20


@dataclass(frozen=True)
class LDReport:
    """Result of an exact minimum LD-set computation.

    ``lam`` is the minimum LD-set size, ``witness`` the lexicographically
    first minimum LD-set, and ``all_codes`` every minimum LD-set when
    enumeration was requested.
    """

    lam: int
    witness: VertexSet
    all_codes: tuple[VertexSet, ...] | None = None


class BoundedResult(NamedTuple):
    found: bool
    size: int | None
    witness: VertexSet | None


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside s has a neighbor in s."""
    return all(g.adj[v] & s.bits for v in _bits(((1 << g.n) - 1) & ~s.bits))


def is_distinguishing(g: Graph, s: VertexSet) -> bool:
    """True iff the traces N(v) & s are pairwise distinct over v outside s.

    Two undominated outside vertices both carry the empty trace, so they are
    not distinguished.
    """
    seen = set()
    for v in _bits(((1 << g.n) - 1) & ~s.bits):
        t = g.adj[v] & s.bits
        if t in seen:
            return False
        seen.add(t)
    return True


def is_ld_set(g: Graph, s: VertexSet) -> bool:
    return is_dominating(g, s) and is_distinguishing(g, s)


def undominated_vertex(g: Graph, s: VertexSet) -> int | None:
    """The vertex outside a distinguishing set with no neighbor in it, or None.

    Raises ValueError when s is not distinguishing (a silent answer would mask
    a caller bug).  Undominated vertices all carry the empty trace, so under
    a distinguishing set there is at most one, and the first found is it.
    """
    if not is_distinguishing(g, s):
        raise ValueError("undominated_vertex requires a distinguishing set")
    return next((v for v in g.vertices() - s if g.adj[v] & s.bits == 0), None)


def lambda_bruteforce(g: Graph, enumerate_all: bool = False, *, floor: int = 0) -> LDReport:
    """Exact minimum LD-set size, with the lexicographically first minimum LD-set.

    With ``enumerate_all`` every minimum LD-set is collected, in
    lexicographic order.  ``floor`` is a lower bound on lambda that the caller
    has proved; the search skips the sizes below it, so a wrong floor gives a
    wrong answer.  Refuses graphs with more than ``ORACLE_CAP`` vertices;
    :func:`lambda_bounded` answers for those.
    """
    if g.n > ORACLE_CAP:
        raise ValueError(
            f"graph order {g.n} exceeds the oracle cap {ORACLE_CAP}; use lambda_bounded instead "
            f"(on the command line: locdom lambda --bounded K)"
        )
    lam, codes = _solve(g, g.n, enumerate_all, floor)
    codes = sorted_codes(codes)
    return LDReport(
        lam,
        VertexSet(codes[0]),
        tuple(VertexSet(c) for c in codes) if enumerate_all else None,
    )


def _unmap(mask: int, old: list[int]) -> int:
    return sum(1 << old[i] for i in _bits(mask))


def sorted_codes(masks: list[int]) -> list[int]:
    """Sort set masks by their ascending member tuples (lexicographic)."""
    return sorted(masks, key=lambda m: tuple(_bits(m)))


def ld_codes(g: Graph) -> list[VertexSet]:
    """All LD-sets of minimum size, lexicographically sorted."""
    return list(lambda_bruteforce(g, enumerate_all=True).all_codes)


def lambda_bounded(g: Graph, kmax: int, *, floor: int = 0) -> BoundedResult:
    """Decide whether an LD-set of size <= kmax exists.

    When one does, size and witness are those :func:`lambda_bruteforce`
    reports: the same search, without an order cap, stopped above kmax.
    ``floor`` is a proven lower bound on lambda, as for
    :func:`lambda_bruteforce`.
    """
    if not (0 <= kmax <= g.n):
        raise ValueError(f"kmax must be in [0, {g.n}], got {kmax}")
    got = _solve(g, kmax, False, floor)
    if got is None:
        return BoundedResult(False, None, None)
    return BoundedResult(True, got[0], VertexSet(got[1][0]))


def _floor(adj: tuple[int, ...]) -> int:
    """A lower bound on lambda from the order and the degrees alone: the
    largest of the three floors in the module docstring."""
    n = len(adj)
    if n == 0:
        return 0
    k = 0
    while k + (1 << k) - 1 < n:
        k += 1
    degrees = [row.bit_count() for row in adj]
    return max(k, -(-2 * n // (max(degrees) + 3)), -(-(2 * n - 2) // (n + 2 - min(degrees))))


def _solve(g: Graph, kmax: int, collect: bool, floor: int) -> tuple[int, list[int]] | None:
    """(lambda, minimum LD-set masks) when lambda <= kmax, else None.

    The masks are every minimum LD-set when ``collect`` is set, else only the
    lexicographically first.  Minimum LD-sets of a disconnected graph are the
    unions of per-component ones, and the first union is the union of the
    first ones, so components are solved one by one, sharing the budget left
    above their :func:`_floor` bounds.  ``floor`` is a proven lower bound on
    lambda of the whole graph; once the other components are solved, it
    bounds the last one.
    """
    if not (0 <= floor <= g.n):
        raise ValueError(f"floor must be in [0, {g.n}], got {floor}")
    comps = connected_components(g)
    parts = [(g, None)] if len(comps) <= 1 else [induced_subgraph(g, c) for c in comps]
    floors = [_floor(sub.adj) for sub, _ in parts]
    spare = kmax - sum(floors)
    lam = 0
    codes = [0]
    for idx, ((sub, old), low) in enumerate(zip(parts, floors)):
        start = max(low, floor - lam) if idx == len(parts) - 1 else low
        got = _solve_connected(sub, start, low + spare, collect)
        if got is None:
            return None
        k, hits = got
        spare -= k - low
        lam += k
        if old is not None:
            hits = [_unmap(h, old) for h in hits]
        codes = [c | h for c in codes for h in hits]
    return lam, codes


def _solve_connected(g: Graph, kmin: int, kmax: int,
                     collect: bool) -> tuple[int, list[int]] | None:
    """The least size k in [kmin, kmax] with an LD-set, and its LD-set masks.

    For each k a walk picks the members in increasing order, so LD-sets are
    met in lexicographic order.  The walk carries ``met``, the seal indices
    (see :func:`_seal_index`) that the chosen vertices meet, as one int, and
    ``left``, the slots still open.  A node tries each next member j in turn,
    adding ``hits_of[j]``; passing over j decides every seal with no member
    above j, so the node stops at the first j whose ``closed_at[j]`` holds a
    seal it still needs.  A node with one slot left makes no call: j completes
    an LD-set exactly when ``hits_of[j]`` holds every seal still needed.  The
    empty set is an LD-set only of the empty graph.
    """
    n = g.n
    hits_of, closed_at, every = _seal_index(g.adj)
    hits: list[int] = []

    def walk(i: int, met: int, chosen: int, left: int) -> bool:
        """Search below a branch; True once the first hit ends the search."""
        need = every & ~met
        if left == 1:
            for j in range(i, n):
                if not need & ~hits_of[j]:
                    hits.append(chosen | 1 << j)
                    if not collect:
                        return True
                if closed_at[j] & need:
                    return False
            return False
        for j in range(i, n - left + 1):
            if walk(j + 1, met | hits_of[j], chosen | 1 << j, left - 1):
                return True
            if closed_at[j] & need:
                return False
        return False

    for k in range(kmin, kmax + 1):
        if k:
            walk(0, 0, 0, k)
        elif every == 0:
            hits.append(0)
        if hits:
            return k, hits
    return None


@lru_cache(maxsize=64)
def _seal_layout(n: int) -> tuple[list[int], list[int], int, int, int]:
    """Per-order constants of the seal index, with ``block[u] = 1 << (n + u*n)``
    the lowest bit of pair block u.  ``table[b]`` is the sum of
    ``block[8c + i]`` over the bits i of the byte b, divided by
    ``block[8c] = 1 << shifts[c]``; ``rep`` is the sum of all blocks,
    ``above`` the valid pair bits (v > u in block u) and ``every`` all seal
    indices."""
    table = [0]
    for i in range(8):
        table += [t | 1 << i * n for t in table]
    shifts = [n + c * n for c in range(0, n, 8)]
    full = (1 << n) - 1
    above = sum((full ^ ((2 << u) - 1)) << (n + u * n) for u in range(n))
    return table, shifts, sum(1 << (n + u * n) for u in range(n)), above, full | above


def _seal_index(adj: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """(hits_of, closed_at, every) for the graph with these neighbourhood masks.

    Seals are numbered in a fixed layout: bit u is N[u], and bit n + u*n + v
    is the pair seal {u, v} | (N(u) ^ N(v)) of u < v.  ``hits_of[x]`` holds
    the seals that contain x: N[x] in the closed part, and in pair block u
    the v with u in N(x) xor v in N(x), plus v == x and all of x's own block.
    ``closed_at[i]`` holds the seals with no member above i.
    """
    n = len(adj)
    table, shifts, rep, above, every = _seal_layout(n)
    full = (1 << n) - 1
    hits_of = []
    for x, nbrs in enumerate(adj):
        spread = 0
        rest = nbrs
        for shift in shifts:
            spread |= table[rest & 255] << shift
            rest >>= 8
        pairs = (nbrs * rep) ^ (spread * full) | rep << x | full << (n + x * n)
        hits_of.append(nbrs | 1 << x | above & pairs)
    closed_at = [0] * n
    later = 0
    for i in range(n - 1, -1, -1):
        closed_at[i] = every & ~later
        later |= hits_of[i]
    return hits_of, closed_at, every
