"""Locating-dominating predicates and exact minimum-size computation.

A set S is dominating when every vertex outside S has a neighbor in S, and
distinguishing when the traces N(v) & S are pairwise distinct over v outside
S.  An LD-set is both.  The predicates refuse a set that holds a vertex
outside the graph.  Every minimum here (:func:`lambda_bruteforce`,
:func:`ld_codes`, :func:`lambda_bounded`) comes from one exact search, and
both lambda functions answer with one record, :class:`LDReport`;
:func:`lambda_bounded` answers None when no LD-set fits its bound.  A
connected graph goes straight to the walk; a disconnected one is split, and
each component is solved on its own.  Sizes are tried upward from a proven
floor.  For each size a walk picks the next member in increasing order, so
it meets LD-sets in lexicographic order.  A set is an LD-set exactly when it
meets every *seal*: N[u] for every vertex u, and {u, v} plus the separators
of u and v for every pair.  The seals are numbered, and each vertex has a
bitset of the seal indices it misses, so the walk carries the seals still
needed as one int.  Choosing a vertex is one AND.  A node stops once it has
passed over the last member of a seal it still needs, and a node with no
slot left is an LD-set exactly when no seal is still needed.  A node with
two slots left fills them by a scan, not calls.

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
complements, ceil((2n - 2)/5).  A caller may also pass a floor it has
proved, and sizes below it are skipped.  :func:`locdom.bipartite.classify`
is that caller, with two counts.  :func:`locdom.bipartite._side_floors`
counts the traces each side of a bipartite G can carry and the members its
twins force, and the complement starts no lower than lambda(G) - 1.  Where
the paper's conditions predict lambda(complement) = lambda(G) + 1,
:func:`locdom.bipartite._complement_floor` repeats the count for each part
A of an LD-set of the complement that lies in the small side, reading the
distinct projections of the other side's rows on A, and the complement
starts at the least size some A admits.  On other graphs that count costs
more than the sizes it skips.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph, VertexSet, _bits, _check_inside, connected_components, induced_subgraph, \
    is_connected

ORACLE_CAP = 20


class LDReport(NamedTuple):
    """Result of an exact minimum LD-set computation.

    ``lam`` is the minimum LD-set size and ``witness`` the lexicographically
    first minimum LD-set.
    """

    lam: int
    witness: VertexSet


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex outside s has a neighbor in s."""
    _check_inside(g, s)
    return all(g.adj[v] & s.bits for v in _bits(((1 << g.n) - 1) & ~s.bits))


def is_distinguishing(g: Graph, s: VertexSet) -> bool:
    """True iff the traces N(v) & s are pairwise distinct over v outside s.

    Two undominated outside vertices both carry the empty trace, so they are
    not distinguished.
    """
    _check_inside(g, s)
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


def lambda_bruteforce(g: Graph, *, floor: int = 0) -> LDReport:
    """Exact minimum LD-set size, with the lexicographically first minimum LD-set.

    ``floor`` is a lower bound on lambda that the caller has proved; the
    search skips the sizes below it, so a wrong floor gives a wrong answer.
    Refuses graphs with more than ``ORACLE_CAP`` vertices;
    :func:`lambda_bounded` answers for those.
    """
    if g.n > ORACLE_CAP:
        raise ValueError(
            f"graph order {g.n} exceeds the oracle cap {ORACLE_CAP}; use lambda_bounded instead "
            f"(on the command line: locdom lambda --bounded K)"
        )
    lam, codes = _solve(g, g.n, False, floor)
    return LDReport(lam, VertexSet(codes[0]))


def _unmap(mask: int, old: list[int]) -> int:
    return sum(1 << old[i] for i in _bits(mask))


def ld_codes(g: Graph) -> list[VertexSet]:
    """All LD-sets of minimum size, lexicographically sorted.

    Refuses graphs with more than ``ORACLE_CAP`` vertices.
    """
    if g.n > ORACLE_CAP:
        raise ValueError(f"graph order {g.n} exceeds the oracle cap {ORACLE_CAP}; "
                         f"minimum LD-sets are enumerated only up to it")
    _, codes = _solve(g, g.n, True, 0)
    return [VertexSet(c) for c in sorted(codes, key=lambda m: tuple(_bits(m)))]


def lambda_bounded(g: Graph, kmax: int, *, floor: int = 0) -> LDReport | None:
    """The report :func:`lambda_bruteforce` gives when lambda <= kmax, else None.

    It is the same search, without an order cap, stopped above kmax.
    The vertex set is an LD-set, so a kmax above the order asks what kmax =
    n asks.  ``floor`` is a proven lower bound on lambda, as for
    :func:`lambda_bruteforce`.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    got = _solve(g, min(kmax, g.n), False, floor)
    return None if got is None else LDReport(got[0], VertexSet(got[1][0]))


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
    lexicographically first.  ``floor`` is a proven lower bound on lambda of
    the whole graph.  A connected graph goes straight to the walk, from the
    larger of ``floor`` and its :func:`_floor`.  Minimum LD-sets of a
    disconnected graph are the unions of per-component ones, and the first
    union is the union of the first ones, so components are solved one by
    one, sharing the budget left above their :func:`_floor` bounds; once the
    other components are solved, ``floor`` bounds the last one.
    """
    if not (0 <= floor <= g.n):
        raise ValueError(f"floor must be in [0, {g.n}], got {floor}")
    # a floor above kmax rules out every size: answer None before the
    # components are split and any seal index is built
    if floor > kmax:
        return None
    if is_connected(g):
        low = _floor(g.adj)
        return None if low > kmax else _solve_connected(g, max(low, floor), kmax, collect)
    parts = [induced_subgraph(g, c) for c in connected_components(g)]
    floors = [_floor(sub.adj) for sub, _ in parts]
    spare = kmax - sum(floors)
    if spare < 0:
        return None
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
        hits = [_unmap(h, old) for h in hits]
        codes = [c | h for c in codes for h in hits]
    return lam, codes


def _solve_connected(g: Graph, kmin: int, kmax: int,
                     collect: bool) -> tuple[int, list[int]] | None:
    """The least size k in [kmin, kmax] with an LD-set, and its LD-set masks.

    For each k a walk picks the members in increasing order, so LD-sets are
    met in lexicographic order.  The walk carries ``need``, the seal indices
    (see :func:`_seal_index`) that no chosen vertex meets, as one int, and
    ``left``, the slots still open.  A node tries each next member j in turn,
    keeping only the needed seals in ``miss_of[j]``; passing over j decides
    every seal with no member above j, so the node stops at the first j
    whose ``closed_at[j]`` holds a seal it still needs.  A node with no slot
    left is an LD-set exactly when no seal is still needed.  A node with two
    slots left makes no call: for each j it scans the members m after j, with
    the same stops, and m completes an LD-set exactly when ``miss_of[m]``
    holds none of the seals still needed, so the walk visits the same sets
    in the same order as a walk with a call per member.
    """
    n = g.n
    miss_of, closed_at, every = _seal_index(g.adj)
    hits: list[int] = []

    def walk(i: int, need: int, chosen: int, left: int) -> bool:
        """Search below a branch; True once the first hit ends the search."""
        if not left:
            if need:
                return False
            hits.append(chosen)
            return not collect
        if left == 2:
            for j in range(i, n - 1):
                # the zero-slot check, inline, for each last member after j
                rest = need & miss_of[j]
                pair = chosen | 1 << j
                for m in range(j + 1, n):
                    if not rest & miss_of[m]:
                        hits.append(pair | 1 << m)
                        if not collect:
                            return True
                    if closed_at[m] & rest:
                        break
                if closed_at[j] & need:
                    return False
            return False
        for j in range(i, n - left + 1):
            if walk(j + 1, need & miss_of[j], chosen | 1 << j, left - 1):
                return True
            if closed_at[j] & need:
                return False
        return False

    for k in range(kmin, kmax + 1):
        walk(0, every, 0, k)
        if hits:
            return k, hits
    return None


@lru_cache(maxsize=64)
def _seal_layout(n: int) -> tuple[list[int], list[int], int, list[int], int]:
    """Per-order constants of the seal index, with ``block[u] = 1 << (n + u*n)``
    the lowest bit of pair block u.  ``table[b]`` is the sum of
    ``block[8c + i]`` over the bits i of the byte b, divided by
    ``block[8c] = 1 << shifts[c]``; ``rep`` is the sum of all blocks and
    ``every`` all seal indices.  ``own[x]`` holds the seals that contain x
    whatever its neighbours: N[x] (bit x), and the valid pair bits (v > u in
    block u) among bit x of every block and all of x's own block."""
    table = [0]
    for i in range(8):
        table += [t | 1 << i * n for t in table]
    shifts = [n + c * n for c in range(0, n, 8)]
    full = (1 << n) - 1
    rep = sum(1 << (n + u * n) for u in range(n))
    above = sum((full ^ ((2 << u) - 1)) << (n + u * n) for u in range(n))
    own = [1 << x | above & (rep << x | full << (n + x * n)) for x in range(n)]
    return table, shifts, rep, own, full | above


def _seal_index(adj: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """(miss_of, closed_at, every) for the graph with these neighbourhood masks.

    Seals are numbered in a fixed layout: bit u is N[u], and bit n + u*n + v
    is the pair seal {u, v} | (N(u) ^ N(v)) of u < v; ``every`` holds them
    all.  The seals that contain x are N[x] in the closed part, and in pair
    block u the v with u in N(x) xor v in N(x), plus v == x and all of x's
    own block; ``miss_of[x]`` holds the other seals, those x does not meet.
    ``closed_at[i]`` holds the seals with no member above i: the seals that
    every vertex above i misses.
    """
    n = len(adj)
    table, shifts, rep, own, every = _seal_layout(n)
    full = (1 << n) - 1
    miss_of = []
    for x, nbrs in enumerate(adj):
        spread = 0
        rest = nbrs
        for shift in shifts:
            spread |= table[rest & 255] << shift
            rest >>= 8
        # both products lie above bit n, where every holds the valid pair bits
        miss_of.append(every ^ (nbrs | own[x] | every & ((nbrs * rep) ^ (spread * full))))
    closed_at = [0] * n
    later = every
    for i in range(n - 1, -1, -1):
        closed_at[i] = later
        later &= miss_of[i]
    return miss_of, closed_at, every
