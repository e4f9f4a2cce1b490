"""Recompute census_counts.json: connected bipartite graphs per side sizes (r, s).

Counts isomorphism classes of connected bipartite graphs with stable sides of
sizes 3 <= r < s and r + s <= MAX_N.  A labeled graph is a multiset of s-side
neighbourhoods (nonempty subsets of the r-side); classes are separated with
networkx (Weisfeiler-Lehman hash buckets, then VF2 isomorphism), so the count
does not rest on locdom's canonical-multiset rule.  Sides of different sizes
in a connected bipartite graph are fixed by the graph, so plain graph
isomorphism is the right equivalence.

    python3 perfbench/census_counts.py     # rewrites census_counts.json
    git diff perfbench/census_counts.json  # shows whether the file was stale

Takes about 35 s on one core.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import combinations_with_replacement

import networkx as nx

from checks import census_pairs

MAX_N = 10
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_counts.json")


def count_classes(r: int, s: int) -> int:
    reps: dict[str, list[nx.Graph]] = {}
    total = 0
    for traces in combinations_with_replacement(range(1, 1 << r), s):
        g = nx.Graph()
        g.add_nodes_from(range(r + s))
        g.add_edges_from((u, r + w) for w, mask in enumerate(traces)
                         for u in range(r) if mask >> u & 1)
        if not nx.is_connected(g):
            continue
        key = nx.weisfeiler_lehman_graph_hash(g, iterations=3)
        bucket = reps.setdefault(key, [])
        if not any(nx.is_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            total += 1
    return total


def compute() -> dict:
    return {
        "max_n": MAX_N,
        "counts": {f"{r},{s}": count_classes(r, s) for r, s in census_pairs(MAX_N)},
    }


def main() -> int:
    text = json.dumps(compute(), indent=2) + "\n"
    with open(PATH, "w", encoding="ascii") as fh:
        fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
