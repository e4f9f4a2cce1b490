"""Named graph families and the extremal bipartite construction.

Vertex labelings are fixed so golden values stay stable:

* path/cycle: vertices 0..n-1 in path order (cycle closes n-1 to 0)
* star: center 0, leaves 1..n-1
* complete_bipartite: side of size r first (0..r-1), then the s side
* bistar: centers 0 and 1 adjacent; leaves of 0 are 2..r, leaves of 1 the rest
* banner: cycle 0-1-2-3-0 plus pendant 4 attached to 0
* extremal: the r-side first (0..r-1); s-side vertex r+i is adjacent to
  vertex u-1 for each member u of the i-th subset of {1..r} in the list
  :func:`extremal` builds (full set, single deletions, pair deletions, then
  extension subsets), so the graph's s-side rows are those subsets

:func:`generate` looks each kind's builder and parameters up in one table.
"""

from __future__ import annotations

from itertools import combinations, islice

from .bipartite import feasibility_window, graph_from_traces
from .graphs import Graph, _check_order, build_graph


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise ValueError(f"complete bipartite needs r, s >= 1, got ({r}, {s})")
    return graph_from_traces(r, [(1 << r) - 1] * s)


def bistar(r: int, s: int) -> Graph:
    """Two stars on r and s vertices with adjacent centers (order r+s)."""
    if r < 2 or s < 2:
        raise ValueError(f"bistar needs r, s >= 2, got ({r}, {s})")
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, r + 1)]
    edges += [(1, v) for v in range(r + 1, r + s)]
    return build_graph(r + s, edges)


def banner() -> Graph:
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])


def base_subsets(r: int) -> list[tuple[int, ...]]:
    """The defining s-side subsets of G(r, ceil(3r/2 + 1)).

    The full set, every single-element deletion, the deletions of the pairs
    {2i-1, 2i}, and for odd r additionally the deletion of {r-1, r}.
    """
    full = tuple(range(1, r + 1))
    subsets = [full]
    for i in full:
        subsets.append(tuple(x for x in full if x != i))
    for i in range(1, r // 2 + 1):
        subsets.append(tuple(x for x in full if x not in (2 * i - 1, 2 * i)))
    if r % 2 == 1:
        subsets.append(tuple(x for x in full if x not in (r - 1, r)))
    return subsets


def extremal(r: int, s: int) -> Graph:
    """Construct G(r, s) for any s in the feasibility window.

    Beyond the base subsets, extension subsets are the nonempty subsets of
    {1..r} not already present, taken in increasing cardinality then
    lexicographic order; any choice preserves the three characterization
    conditions, so a canonical one keeps outputs reproducible.
    """
    if not feasibility_window(r, s):
        lo = -(-3 * r // 2) + 1
        # 2^r - 1 stays symbolic: for r above about 14,000 it has more digits
        # than Python formats
        raise ValueError(f"s={s} outside the feasibility window [{lo}, 2^{r} - 1] for r={r}")
    subsets = base_subsets(r)
    have = set(subsets)
    extra = (c for k in range(1, r + 1) for c in combinations(range(1, r + 1), k)
             if c not in have)
    subsets += islice(extra, s - len(subsets))
    traces = [sum(1 << (u - 1) for u in w) for w in subsets]
    return graph_from_traces(r, traces)


# each kind's builder and the parameters it reads, in the order it takes them
_FAMILIES = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "star": (star, ("n",)),
    "complete_bipartite": (complete_bipartite, ("r", "s")),
    "bistar": (bistar, ("r", "s")),
    "extremal": (extremal, ("r", "s")),
    "banner": (banner, ()),
}
KINDS = tuple(_FAMILIES)


def generate(kind: str, *, n: int | None = None, r: int | None = None,
             s: int | None = None) -> Graph:
    """Build the graph of family ``kind``, which requires the parameters its
    ``_FAMILIES`` entry reads and refuses the others."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {KINDS}")
    build, reads = _FAMILIES[kind]
    given = {"n": n, "r": r, "s": s}
    for name, value in given.items():
        if (value is None) == (name in reads):
            verb = "requires" if name in reads else "does not read"
            raise ValueError(f"family {kind!r} {verb} parameter {name}")
    args = [given[name] for name in reads]
    # the order, r + s for the two-sided kinds; r alone bounds 2**r in the
    # extremal window check, even when s is negative
    _check_order(max([*args, sum(args)]))
    return build(*args)


def table1_expected(kind: str, n: int | None = None, r: int | None = None,
                    s: int | None = None) -> tuple[int, int]:
    """Closed-form (minimum LD size of G, of its complement) for the classic families.

    Paths and cycles: (ceil(2n/5), ceil(2n/5)) for 4 <= n <= 6 and
    (ceil(2n/5), ceil((2n-2)/5)) from n = 7 on; stars n-1 twice; complete
    bipartite n-2 twice; bistars (n-2, n-3) for 3 <= r <= s.
    """
    if kind in ("path", "cycle"):
        if n is None or n < 4:
            raise ValueError(f"{kind} formula needs n >= 4, got {n}")
        lam = -(-2 * n // 5)
        return (lam, lam) if n <= 6 else (lam, -(-(2 * n - 2) // 5))
    if kind == "star":
        if n is None or n < 4:
            raise ValueError(f"star formula needs n >= 4, got {n}")
        return (n - 1, n - 1)
    if kind == "complete_bipartite":
        if r is None or s is None or not (2 <= r <= s):
            raise ValueError(f"complete bipartite formula needs 2 <= r <= s, got ({r}, {s})")
        n = r + s
        return (n - 2, n - 2)
    if kind == "bistar":
        if r is None or s is None or not (3 <= r <= s):
            raise ValueError(f"bistar formula needs 3 <= r <= s, got ({r}, {s})")
        n = r + s
        return (n - 2, n - 3)
    raise ValueError(f"no closed form for family kind {kind!r}")
