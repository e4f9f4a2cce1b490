"""Locating-dominating predicates and exact minimum-size computation.

A set S is dominating when every vertex outside S has a neighbor in S, and
distinguishing when the traces N(v) & S are pairwise distinct over v outside
S.  An LD-set is both.  Every minimum here (:func:`lambda_bruteforce`,
:func:`ld_codes`, :func:`lambda_bounded`) comes from one exact search: each
connected component is solved on its own, sizes are tried upward from
Slater's lower bound, and an include-first walk over the vertices meets
LD-sets in lexicographic order.  The walk prunes with precomputed *seal*
lists: a set is an LD-set exactly when it meets N[u] for every vertex u and
{u, v} plus the separators of u and v for every pair, and each such mask is
listed under its highest vertex, where the walk has decided all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import Graph, VertexSet, connected_components, induced_subgraph

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
    rest = ((1 << g.n) - 1) & ~s.bits
    while rest:
        low = rest & -rest
        if g.adj[low.bit_length() - 1].bits & s.bits == 0:
            return False
        rest ^= low
    return True


def is_distinguishing(g: Graph, s: VertexSet) -> bool:
    """True iff the traces N(v) & s are pairwise distinct over v outside s.

    Two undominated outside vertices both carry the empty trace, so they are
    not distinguished.
    """
    seen = set()
    rest = ((1 << g.n) - 1) & ~s.bits
    while rest:
        low = rest & -rest
        t = g.adj[low.bit_length() - 1].bits & s.bits
        if t in seen:
            return False
        seen.add(t)
        rest ^= low
    return True


def is_ld_set(g: Graph, s: VertexSet) -> bool:
    return is_dominating(g, s) and is_distinguishing(g, s)


def undominated_vertex(g: Graph, s: VertexSet) -> int | None:
    """The unique vertex outside a distinguishing set with no neighbor in it.

    Raises ValueError when s is not distinguishing (a silent answer would mask
    a caller bug); with the precondition satisfied at most one such vertex can
    exist, and None is returned when every vertex is dominated.
    """
    if not is_distinguishing(g, s):
        raise ValueError("undominated_vertex requires a distinguishing set")
    hits = [v for v in range(g.n) if v not in s and g.adj[v].bits & s.bits == 0]
    if len(hits) > 1:
        raise ValueError(f"two undominated vertices {hits[:2]} under a distinguishing set")
    return hits[0] if hits else None


def _is_ld_mask(adj_bits: list[int], full: int, smask: int) -> bool:
    rest = full & ~smask
    seen = set()
    while rest:
        low = rest & -rest
        t = adj_bits[low.bit_length() - 1] & smask
        if t == 0 or t in seen:
            return False
        seen.add(t)
        rest ^= low
    return True


def lambda_bruteforce(g: Graph, enumerate_all: bool = False) -> LDReport:
    """Exact minimum LD-set size, with the lexicographically first minimum LD-set.

    With ``enumerate_all`` every minimum LD-set is collected, in
    lexicographic order.  Refuses graphs with more than ``ORACLE_CAP`` vertices;
    :func:`lambda_bounded` answers for those.
    """
    if g.n > ORACLE_CAP:
        raise ValueError(
            f"graph order {g.n} exceeds the oracle cap {ORACLE_CAP}; use lambda_bounded instead "
            f"(on the command line: locdom lambda --bounded K)"
        )
    lam, codes = _solve(g, g.n, enumerate_all)
    codes = sorted_codes(codes)
    return LDReport(
        lam,
        VertexSet(codes[0]),
        tuple(VertexSet(c) for c in codes) if enumerate_all else None,
    )


def _unmap(mask: int, old: list[int]) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << old[i]
        mask >>= 1
        i += 1
    return out


def sorted_codes(masks: list[int]) -> list[int]:
    """Sort set masks by their ascending member tuples (lexicographic)."""
    return sorted(masks, key=_mask_key)


def _mask_key(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def ld_codes(g: Graph) -> list[VertexSet]:
    """All LD-sets of minimum size, lexicographically sorted."""
    return list(lambda_bruteforce(g, enumerate_all=True).all_codes)


def lambda_bounded(g: Graph, kmax: int) -> BoundedResult:
    """Decide whether an LD-set of size <= kmax exists.

    When one does, size and witness are those :func:`lambda_bruteforce`
    reports: the same search, without an order cap, stopped above kmax.
    """
    if not (0 <= kmax <= g.n):
        raise ValueError(f"kmax must be in [0, {g.n}], got {kmax}")
    got = _solve(g, kmax, False)
    if got is None:
        return BoundedResult(False, None, None)
    return BoundedResult(True, got[0], VertexSet(got[1][0]))


def _slater(n: int) -> int:
    """Least k with n <= k + 2^k - 1, a lower bound on lambda (Slater 1988):
    the n - k vertices outside an LD-set carry distinct nonempty traces."""
    k = 0
    while k + (1 << k) - 1 < n:
        k += 1
    return k


def _solve(g: Graph, kmax: int, collect: bool) -> tuple[int, list[int]] | None:
    """(lambda, minimum LD-set masks) when lambda <= kmax, else None.

    The masks are every minimum LD-set when ``collect`` is set, else only the
    lexicographically first.  Minimum LD-sets of a disconnected graph are the
    unions of per-component ones, and the first union is the union of the
    first ones, so components are solved one by one, sharing the budget left
    above their Slater bounds.
    """
    comps = connected_components(g)
    parts = [(g, None)] if len(comps) <= 1 else [induced_subgraph(g, c) for c in comps]
    spare = kmax - sum(_slater(sub.n) for sub, _ in parts)
    lam = 0
    codes = [0]
    for sub, old in parts:
        floor = _slater(sub.n)
        got = _solve_connected(sub, floor, floor + spare, collect)
        if got is None:
            return None
        k, hits = got
        spare -= k - floor
        lam += k
        if old is not None:
            hits = [_unmap(h, old) for h in hits]
        codes = [c | h for c in codes for h in hits]
    return lam, codes


def _solve_connected(g: Graph, kmin: int, kmax: int,
                     collect: bool) -> tuple[int, list[int]] | None:
    """The least size k in [kmin, kmax] with an LD-set, and its LD-set masks.

    For each k an include-first walk decides vertices 0, 1, ... in turn, so
    LD-sets are met in lexicographic order.  ``seals[i]`` lists the masks
    whose highest vertex is i: N[u] for each vertex u, and {u, v} plus the
    separators (N(u) ^ N(v)) - {u, v} for each pair u < v.  A set is an
    LD-set exactly when it meets every one.  Including i meets all of
    ``seals[i]``; excluding i decides their last vertex, so a seal the chosen
    set misses there ends the branch.  A walk that reaches i == n has passed
    every seal.
    """
    n = g.n
    adj_bits = [row.bits for row in g.adj]
    full = (1 << n) - 1
    seals: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        closed = adj_bits[u] | 1 << u
        seals[closed.bit_length() - 1].append(closed)
        for v in range(u + 1, n):
            pair = (adj_bits[u] ^ adj_bits[v]) | 1 << u | 1 << v
            seals[pair.bit_length() - 1].append(pair)
    hits: list[int] = []

    def walk(i: int, chosen: int, size: int) -> bool:
        """Search below a branch; True once the first hit ends the search."""
        if size == k:
            if i == n or _is_ld_mask(adj_bits, full, chosen):
                hits.append(chosen)
                return not collect
            return False
        if n - i < k - size:
            return False
        if walk(i + 1, chosen | 1 << i, size + 1):
            return True
        for seal in seals[i]:
            if not seal & chosen:
                return False
        return walk(i + 1, chosen, size)

    for k in range(kmin, kmax + 1):
        walk(0, 0, 0)
        if hits:
            return k, hits
    return None
