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
"""

from __future__ import annotations

from itertools import combinations

from .bipartite import feasibility_window, graph_from_traces
from .graphs import Graph, _check_order, build_graph

KINDS = ("path", "cycle", "star", "complete_bipartite", "bistar", "extremal", "banner")


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
    for c in range(1, r + 1):
        if len(subsets) >= s:
            break
        for combo in combinations(range(1, r + 1), c):
            if len(subsets) >= s:
                break
            if combo not in have:
                subsets.append(combo)
                have.add(combo)
    assert len(subsets) == s and len(have) == s, "extension subsets must stay distinct"
    traces = [sum(1 << (u - 1) for u in w) for w in subsets]
    return graph_from_traces(r, traces)


def generate(kind: str, *, n: int | None = None, r: int | None = None,
             s: int | None = None) -> Graph:
    """Build the graph of family ``kind`` with the given parameters.

    Each kind requires the parameters it reads and refuses the others: n
    for path, cycle and star, r and s for the two-sided kinds, none for
    banner.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {KINDS}")
    reads = () if kind == "banner" else ("n",) if kind in ("path", "cycle", "star") else ("r", "s")
    for name, value in (("n", n), ("r", r), ("s", s)):
        if (value is None) == (name in reads):
            verb = "requires" if name in reads else "does not read"
            raise ValueError(f"family {kind!r} {verb} parameter {name}")
    if kind == "banner":
        return banner()
    if reads == ("n",):
        _check_order(n)
        return {"path": path, "cycle": cycle, "star": star}[kind](n)
    # r alone bounds 2**r in the extremal window check, even when s is negative
    _check_order(max(r, s, r + s))
    if kind == "complete_bipartite":
        return complete_bipartite(r, s)
    if kind == "bistar":
        return bistar(r, s)
    return extremal(r, s)


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
