"""Locating-dominating predicates and exact minimum-size computation.

A set S is dominating when every vertex outside S has a neighbor in S, and
distinguishing when the traces N(v) & S are pairwise distinct over v outside
S.  An LD-set is both.  Every minimum here (:func:`lambda_bruteforce`,
:func:`ld_codes`, :func:`lambda_bounded`) comes from one exact search: each
connected component is solved on its own, sizes are tried upward from
Slater's lower bound, and an include-first walk over the vertices meets
LD-sets in lexicographic order.  A set is an LD-set exactly when it meets
every *seal*: N[u] for every vertex u, and {u, v} plus the separators of u
and v for every pair.  The seals are numbered, and each vertex has a bitset
of the seal indices it meets, so the walk carries the seals met so far as
one int: including a vertex is one OR, a branch ends when some seal whose
members are all decided is missed, and a full branch is an LD-set exactly
when it has met every seal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    LD-sets are met in lexicographic order.  The walk carries ``met``, the
    seal indices (see :func:`_seal_index`) that the chosen vertices meet, as
    one int.  Including i adds ``hits_of[i]``.  Excluding i decides every
    seal with no member above i, so a branch whose ``met`` misses a seal of
    ``closed_at[i]`` ends there.  A branch that has filled its k slots is an
    LD-set exactly when ``met == every``.
    """
    n = g.n
    hits_of, closed_at, every = _seal_index([row.bits for row in g.adj])
    hits: list[int] = []

    def walk(i: int, met: int, chosen: int, size: int) -> bool:
        """Search below a branch; True once the first hit ends the search."""
        if size == k:
            if met == every:
                hits.append(chosen)
                return not collect
            return False
        if n - i < k - size:
            return False
        if walk(i + 1, met | hits_of[i], chosen | 1 << i, size + 1):
            return True
        if closed_at[i] & ~met:
            return False
        return walk(i + 1, met, chosen, size)

    for k in range(kmin, kmax + 1):
        walk(0, 0, 0, 0)
        if hits:
            return k, hits
    return None


@lru_cache(maxsize=64)
def _seal_layout(n: int) -> tuple[list[int], int, int, int]:
    """Per-order constants of the seal index: ``block[u]``, the lowest bit of
    pair block u; ``rep``, their sum; ``above``, the valid pair bits (v > u in
    block u); and ``every``, all seal indices."""
    block = [1 << (n + u * n) for u in range(n)]
    full = (1 << n) - 1
    above = sum((full ^ ((2 << u) - 1)) << (n + u * n) for u in range(n))
    return block, sum(block), above, full | above


def _seal_index(adj_bits: list[int]) -> tuple[list[int], list[int], int]:
    """(hits_of, closed_at, every) for the graph with these neighbourhood masks.

    Seals are numbered in a fixed layout: bit u is N[u], and bit n + u*n + v
    is the pair seal {u, v} | (N(u) ^ N(v)) of u < v.  ``hits_of[x]`` holds
    the seals that contain x: N[x] in the closed part, and in pair block u
    the v with u in N(x) xor v in N(x), plus v == x and all of x's own block.
    ``closed_at[i]`` holds the seals with no member above i.
    """
    n = len(adj_bits)
    block, rep, above, every = _seal_layout(n)
    full = (1 << n) - 1
    hits_of = []
    for x, nbrs in enumerate(adj_bits):
        spread = 0
        rest = nbrs
        while rest:
            low = rest & -rest
            spread |= block[low.bit_length() - 1]
            rest ^= low
        pairs = (nbrs * rep) ^ (spread * full) | rep << x | full << (n + x * n)
        hits_of.append(nbrs | 1 << x | above & pairs)
    closed_at = [0] * n
    later = 0
    for i in range(n - 1, -1, -1):
        closed_at[i] = every & ~later
        later |= hits_of[i]
    return hits_of, closed_at, every
