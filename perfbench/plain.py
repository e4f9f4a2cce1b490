"""Plain-set graph toolkit used to build inputs and check outputs.

Nothing here imports locdom.  Graphs are (n, edges) pairs or lists of
neighbour sets, so the checks do not share the bitmask code paths, the
pruned searches or the graph6 codec of the program under test.
"""

from __future__ import annotations

from itertools import combinations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    have = {(min(i, j), max(i, j)) for i, j in edges}
    return [(i, j) for i, j in combinations(range(n), 2) if (i, j) not in have]


def to_graph6(n: int, edges) -> str:
    """graph6 text of a graph with fewer than 63 vertices."""
    if not 0 <= n < 63:
        raise ValueError(f"only orders below 63 are encoded here, got {n}")
    have = {(min(i, j), max(i, j)) for i, j in edges}
    bits = [1 if (i, j) in have else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode graph6 text of a graph with fewer than 63 vertices."""
    text = text.strip()
    n = ord(text[0]) - 63
    if not 0 <= n < 63:
        raise ValueError(f"unsupported graph6 size byte in {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend((val >> (5 - k)) & 1 for k in range(6))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(text) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 body length does not match order {n}: {text!r}")
    return n, [p for p, b in zip(pairs, bits) if b]


def is_ld_set(adj: list[set[int]], s) -> bool:
    """Every vertex outside s has a nonempty trace in s, and the traces differ."""
    s = set(s)
    traces = [frozenset(adj[v] & s) for v in range(len(adj)) if v not in s]
    return all(traces) and len(set(traces)) == len(traces)


def naive_lambda(adj: list[set[int]]) -> int:
    """Minimum LD-set size by scanning every subset, smallest first."""
    n = len(adj)
    for k in range(n + 1):
        if any(is_ld_set(adj, c) for c in combinations(range(n), k)):
            return k
    raise AssertionError("the whole vertex set is always an LD-set")


def ilp_lambda(adj: list[set[int]]) -> int:
    """Minimum LD-set size from a 0/1 program written from the definition.

    x_v = 1 puts v in the set.  Domination: x_v + sum of x over N(v) >= 1.
    Location: for u != v, x_u + x_v + sum of x over N(u) ^ N(v) >= 1, since
    two outside vertices are told apart only by a set member adjacent to
    exactly one of them.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(adj)
    rows = []
    for v in range(n):
        row = np.zeros(n)
        row[[v, *adj[v]]] = 1
        rows.append(row)
    for u, v in combinations(range(n), 2):
        row = np.zeros(n)
        row[[u, v, *(adj[u] ^ adj[v])]] = 1
        rows.append(row)
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(np.array(rows), lb=1, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"ILP solver did not finish: {res.message}")
    return int(round(res.fun))


def bipartition(adj: list[set[int]]) -> tuple[set[int], set[int]] | None:
    """Sides (U, W) of a connected bipartite graph with |U| <= |W|.

    On equal sizes the side holding vertex 0 is U.  None when an odd cycle
    exists or the graph is disconnected.
    """
    n = len(adj)
    color = {0: 0}
    todo = [0]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                todo.append(w)
            elif color[w] == color[v]:
                return None
    if len(color) != n:
        return None
    side0 = {v for v in range(n) if color[v] == 0}
    side1 = set(range(n)) - side0
    return (side1, side0) if len(side1) < len(side0) else (side0, side1)


def conditions(adj: list[set[int]], u_side: set[int], w_side: set[int]) -> dict:
    """The paper's three conditions and the twin form of the third.

    c1: no two W vertices share a neighbourhood.  c2: some W vertex sees all
    of U.  c3: every u in U labels at least two edges of the U-associated
    graph, i.e. at least two W pairs whose neighbourhoods differ exactly in u.
    c3_twin_form: deleting u leaves at least two twin pairs inside W.  Both
    forms are reported false when c1 fails, as the program does.
    """
    nbr = {w: frozenset(adj[w]) for w in w_side}
    c1 = len(set(nbr.values())) == len(nbr)
    c2 = any(nb == frozenset(u_side) for nb in nbr.values())
    if not c1:
        return {"c1": False, "c2": c2, "c3": False, "c3_twin_form": False}
    pairs = list(combinations(sorted(w_side), 2))
    c3 = all(sum(1 for a, b in pairs if nbr[a] ^ nbr[b] == {u}) >= 2 for u in u_side)
    twin = all(sum(1 for a, b in pairs if nbr[a] - {u} == nbr[b] - {u}) >= 2
               for u in u_side)
    return {"c1": c1, "c2": c2, "c3": c3, "c3_twin_form": twin}


def window(r: int, s: int) -> bool:
    """The paper's feasibility window ceil(3r/2) + 1 <= s <= 2^r - 1."""
    return -(-3 * r // 2) + 1 <= s <= 2 ** r - 1


def extremal_subsets(r: int, s: int, pick) -> list[frozenset[int]]:
    """W-side neighbourhoods of the paper's G(r, s) on U = {0..r-1}.

    The base family is U, every U - {i}, every U - {2i, 2i+1} and, for odd r,
    U - {r-2, r-1}; the remaining s - |base| sets are any other nonempty
    subsets, chosen here by ``pick(candidates, count)``.
    """
    full = frozenset(range(r))
    base = [full] + [full - {i} for i in range(r)]
    base += [full - {2 * i, 2 * i + 1} for i in range(r // 2)]
    if r % 2:
        base.append(full - {r - 2, r - 1})
    if not (window(r, s) and len(base) <= s):
        raise ValueError(f"G({r}, {s}) is outside the feasibility window")
    rest = [frozenset(c) for k in range(1, r + 1) for c in combinations(range(r), k)
            if frozenset(c) not in base]
    return base + pick(rest, s - len(base))


def graph_from_subsets(r: int, subsets) -> tuple[int, list[tuple[int, int]]]:
    return r + len(subsets), [(u, r + w) for w, sub in enumerate(subsets) for u in sorted(sub)]
