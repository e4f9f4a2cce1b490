"""Independent checks of the program's outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
right.  The facts checked come from definitions and from the paper, recomputed
with plain sets, an ILP or networkx.  The only stored answer is the census
count file, which census_counts.py recomputes.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations

import plain

# classify is exact up to this order (locdom.ld.ORACLE_CAP) and may be partial above it
ORACLE_CAP = 20
CENSUS_SAMPLE = 40
ASSOCIATED_SAMPLE = 40

# connected graphs on 1..7 vertices (OEIS A001349)
CONNECTED_UP_TO_7 = 1 + 1 + 2 + 6 + 21 + 112 + 853
# table1 instances: paths and cycles of order 4..14, stars 4..12, complete
# bipartite K(r, s) with 2 <= r <= s and r + s <= 12, bistars 3 <= r <= s <= 6
TABLE1_INSTANCES = (
    2 * len(range(4, 15)) + len(range(4, 13))
    + sum(1 for r in range(2, 12) for s in range(r, 13 - r))
    + sum(1 for r in range(3, 7) for s in range(r, 7))
)
RANDOM_SUITE_PARAMS = {"seed": 2024, "trials": 500, "max_n": 14}


def _ld_witness(adj, witness, size, what: str) -> list[str]:
    if witness is None or len(set(witness)) != size or not plain.is_ld_set(adj, witness):
        return [f"{what}: witness {witness} is not an LD-set of size {size}"]
    return []


# --- lambda ------------------------------------------------------------------

def check_lambda_item(item: dict, text: str) -> list[str]:
    """One `lambda`, `lambda --bounded K` or `classify` output against the ILP.

    ``item`` holds the input: label, cmd, n, edges, and optionally ``closed``,
    the paper's (lambda(G), lambda(complement)), and ``bound``, the K of
    ``--bounded``.
    """
    tag = item["label"]
    out = json.loads(text)
    n, edges = item["n"], item["edges"]
    adj = plain.adjacency(n, edges)
    lam = plain.ilp_lambda(adj)
    bad = []
    closed = item.get("closed")
    if closed is not None and lam != closed[0]:
        bad.append(f"{tag}: ILP gives {lam}, the paper's closed form {closed[0]}")
    if item["cmd"] == "lambda":
        if out.get("lambda") != lam:
            bad.append(f"{tag}: lambda {out.get('lambda')}, ILP {lam}")
        return bad + _ld_witness(adj, out.get("witness"), lam, tag)
    if item["cmd"] == "bounded":
        k = item["bound"]
        if out.get("found") != (lam <= k):
            bad.append(f"{tag}: found={out.get('found')} for K={k}, ILP lambda {lam}")
        elif lam <= k:
            if out.get("size") != lam:
                bad.append(f"{tag}: size {out.get('size')}, ILP {lam}")
            bad += _ld_witness(adj, out.get("witness"), lam, tag)
        elif out.get("size") is not None or out.get("witness") is not None:
            bad.append(f"{tag}: a size or witness reported although none exists")
        return bad

    comp = plain.adjacency(n, plain.complement_edges(n, edges))
    lam_bar = plain.ilp_lambda(comp)
    if closed is not None and lam_bar != closed[1]:
        bad.append(f"{tag}: ILP gives complement {lam_bar}, the paper's closed form {closed[1]}")
    sides = plain.bipartition(adj)
    if sides is None:
        return bad + [f"{tag}: input is not connected bipartite"]
    u_side, w_side = sides
    r, s = len(u_side), len(w_side)
    if (out.get("r"), out.get("s")) != (r, s):
        bad.append(f"{tag}: sides ({out.get('r')}, {out.get('s')}), expected ({r}, {s})")
    conds = plain.conditions(adj, u_side, w_side)
    if out.get("conditions") != conds:
        bad.append(f"{tag}: conditions {out.get('conditions')}, expected {conds}")
    plus = 3 <= r < s and conds["c1"] and conds["c2"] and conds["c3"]
    if out.get("predicted_plus_one") != plus:
        bad.append(f"{tag}: predicted_plus_one {out.get('predicted_plus_one')}, expected {plus}")
    if 3 <= r < s and (lam_bar - lam == 1) != plus:
        bad.append(f"{tag}: ILP relation {lam_bar - lam} contradicts the characterization")
    # The bounded search is asked for sets of size <= r + 1 above the cap, so
    # a partial report is right exactly when one of the two values exceeds r + 1.
    if out.get("partial"):
        if n <= ORACLE_CAP or (lam <= r + 1 and lam_bar <= r + 1):
            bad.append(f"{tag}: partial report, but lambda {lam} and {lam_bar} are within reach")
        return bad
    got = (out.get("lambda"), out.get("lambda_bar"), out.get("relation"))
    if got != (lam, lam_bar, lam_bar - lam):
        bad.append(f"{tag}: (lambda, lambda_bar, relation) {got}, ILP {(lam, lam_bar, lam_bar - lam)}")
    bad += _ld_witness(adj, out.get("witness"), lam, tag)
    bad += _ld_witness(comp, out.get("witness_bar"), lam_bar, f"{tag} complement")
    return bad


# --- census ------------------------------------------------------------------

def census_pairs(max_n: int) -> list[tuple[int, int]]:
    return [(r, s) for r in range(3, max_n) for s in range(r + 1, max_n - r + 1)]


def _class_key(adj, u_side, w_side) -> tuple:
    """Least sorted W-neighbourhood multiset over all relabelings of U."""
    us = sorted(u_side)
    best = None
    for perm in permutations(range(len(us))):
        pos = dict(zip(us, perm))
        key = tuple(sorted(sum(1 << pos[u] for u in adj[w]) for w in w_side))
        if best is None or key < best:
            best = key
    return best


def check_census(text: str, max_n: int, counts: dict, seed: int) -> list[str]:
    """A `census --max-n N` report against recomputed conditions and class counts."""
    rep = json.loads(text)
    rows = rep["entries"]
    bad = []
    want = {(r, s): counts[f"{r},{s}"] for r, s in census_pairs(max_n)}
    got: dict[tuple[int, int], set] = {pair: set() for pair in want}
    by_relation = {"-1": 0, "0": 0, "1": 0}
    graphs = []
    for row in rows:
        tag = row.get("key")
        n, edges = plain.from_graph6(row["key"])
        adj = plain.adjacency(n, edges)
        comp = plain.adjacency(n, plain.complement_edges(n, edges))
        graphs.append((adj, comp, row))
        sides = plain.bipartition(adj)
        if sides is None:
            bad.append(f"{tag}: not a connected bipartite graph")
            continue
        u_side, w_side = sides
        r, s = len(u_side), len(w_side)
        if (row["r"], row["s"]) != (r, s) or (r, s) not in want:
            bad.append(f"{tag}: sides ({row['r']}, {row['s']}), recomputed ({r}, {s})")
            continue
        key = _class_key(adj, u_side, w_side)
        if key in got[(r, s)]:
            bad.append(f"{tag}: isomorphic to an earlier row")
        got[(r, s)].add(key)
        conds = plain.conditions(adj, u_side, w_side)
        if row["conditions"] != conds:
            bad.append(f"{tag}: conditions {row['conditions']}, recomputed {conds}")
        plus = conds["c1"] and conds["c2"] and conds["c3"]
        lam, lam_bar, rel = row["lambda"], row["lambda_bar"], row["relation"]
        by_relation[str(rel)] = by_relation.get(str(rel), 0) + 1
        if rel != lam_bar - lam or abs(rel) > 1:
            bad.append(f"{tag}: lambda {lam}, lambda_bar {lam_bar}, relation {rel}")
        if (rel == 1) != plus or row["predicted_plus_one"] != plus:
            bad.append(f"{tag}: relation {rel} but the three conditions give {plus}")
        if rel == 1 and not plain.window(r, s):
            bad.append(f"{tag}: plus-one graph outside the feasibility window")
        if row["ok"] is not True or row["partial"]:
            bad.append(f"{tag}: row flagged ok={row['ok']} partial={row['partial']}")
        bad += _ld_witness(adj, row["witness"], lam, tag)
        bad += _ld_witness(comp, row["witness_bar"], lam_bar, f"{tag} complement")
    for pair, count in want.items():
        if len(got[pair]) != count:
            bad.append(f"(r, s) = {pair}: {len(got[pair])} classes, expected {count}")
    summary = rep["summary"]
    if summary["graphs"] != len(rows) or len(rows) != sum(want.values()):
        bad.append(f"{summary['graphs']} graphs reported, {len(rows)} rows, "
                   f"{sum(want.values())} expected")
    if summary["by_relation"] != by_relation or summary["counterexamples"]:
        bad.append(f"summary {summary['by_relation']} / {summary['counterexamples']} "
                   f"disagrees with the rows {by_relation}")
    rng = random.Random(seed)
    for adj, comp, row in rng.sample(graphs, min(CENSUS_SAMPLE, len(graphs))):
        naive = (plain.naive_lambda(adj), plain.naive_lambda(comp))
        if (row["lambda"], row["lambda_bar"]) != naive:
            bad.append(f"{row['key']}: lambda pair {(row['lambda'], row['lambda_bar'])}, "
                       f"naive scan {naive}")
    return bad


# --- suites ------------------------------------------------------------------

def check_suite_report(suite: str, text: str) -> list[str]:
    """A `verify --suite S` report: the expected number checked and no violations."""
    rep = json.loads(text)
    expected = {"thm3": CONNECTED_UP_TO_7, "table1": TABLE1_INSTANCES}.get(
        suite, RANDOM_SUITE_PARAMS["trials"])
    bad = []
    if rep.get("checked") != expected:
        bad.append(f"{suite}: checked {rep.get('checked')}, expected {expected}")
    if rep.get("violations") != []:
        bad.append(f"{suite}: violations {rep.get('violations')}")
    if suite in ("parity", "cactus") and rep.get("params") != RANDOM_SUITE_PARAMS:
        bad.append(f"{suite}: params {rep.get('params')}, expected {RANDOM_SUITE_PARAMS}")
    return bad


def _nx_stats(edges) -> tuple[int, int, int, bool]:
    """(cc, cy, ex, is_cactus) of the edge-induced graph, from networkx."""
    import networkx as nx

    h = nx.Graph()
    h.add_edges_from((x, y) for x, y, _ in edges)
    cc = nx.number_connected_components(h)
    cy = h.number_of_edges() - h.number_of_nodes() + cc
    blocks_ok = True
    for block in nx.biconnected_component_edges(h):
        verts = {v for e in block for v in e}
        blocks_ok &= len(block) == 1 or len(block) == len(verts)
    return cc, cy, h.number_of_edges() - 4 * cy, blocks_ok


def _nx_label_parity(edges) -> bool:
    """Every cycle of a networkx cycle basis carries each label an even number of times."""
    import networkx as nx

    h = nx.Graph()
    label = {}
    for x, y, lab in edges:
        h.add_edge(x, y)
        label[frozenset((x, y))] = lab
    for cyc in nx.cycle_basis(h):
        odd = set()
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            odd ^= {label[frozenset((a, b))]}
        if odd:
            return False
    return True


def _random_distinguishing(rng, adj) -> set[int]:
    n = len(adj)
    for _ in range(200):
        s = set(rng.sample(range(n), rng.randint(1, n - 1)))
        traces = [frozenset(adj[v] & s) for v in range(n) if v not in s]
        if len(set(traces)) == len(traces):
            return s
    return set(range(n)) - {rng.randrange(n)}


def check_associated_sample(locdom, seed: int, count: int = ASSOCIATED_SAMPLE) -> list[str]:
    """Associated graphs, label subgraphs and cactus statistics on seeded instances.

    Edges and levels are rebuilt from the definition (outside traces that
    differ in exactly one member u, labelled u); component, cycle and block
    structure and cycle label parity come from networkx.  Two-edges-per-label
    subgraphs must be cacti with |V| >= 3/4 |E| + cc (the paper's lemmas).
    """
    rng = random.Random(seed)
    bad = []
    for t in range(count):
        n = rng.randint(5, 12)
        p = rng.uniform(0.2, 0.8)
        edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
        adj = plain.adjacency(n, edges)
        s = _random_distinguishing(rng, adj)
        tag = f"sample {t} (n={n}, S={sorted(s)})"
        ag = locdom.build_associated(locdom.build_graph(n, edges), locdom.VertexSet.of(s))
        outside = [v for v in range(n) if v not in s]
        want = {(x, y, next(iter((adj[x] & s) ^ (adj[y] & s))))
                for x, y in combinations(outside, 2) if len((adj[x] & s) ^ (adj[y] & s)) == 1}
        if set(ag.edges) != want or len(ag.edges) != len(want):
            bad.append(f"{tag}: associated edges differ from the definition")
            continue
        if list(ag.vertices) != outside or any(ag.level[v] != len(adj[v] & s) for v in outside):
            bad.append(f"{tag}: associated vertices or levels differ from the definition")
        if not _nx_label_parity(ag.edges) or locdom.parity_audit(ag) is not True:
            bad.append(f"{tag}: a cycle with an odd label count, or parity_audit disagrees")
        labels = sorted(s)
        pick = [u for u in labels if rng.random() < 0.5] or [rng.choice(labels)]
        ls = locdom.label_subgraph(ag, locdom.VertexSet.of(pick))
        if set(ls.edges) != {e for e in want if e[2] in pick}:
            bad.append(f"{tag}: label subgraph for {pick} has the wrong edges")
        elif ls.edges:
            st = locdom.cactus_stats(ls)
            if (st.cc, st.cy, st.ex, st.is_cactus) != _nx_stats(ls.edges):
                bad.append(f"{tag}: cactus stats {st} for labels {pick}, "
                           f"networkx {_nx_stats(ls.edges)}")
        per_label: dict[int, list] = {}
        for e in sorted(want):
            per_label.setdefault(e[2], []).append(e)
        two = [e for u in sorted(per_label) if len(per_label[u]) >= 2
               for e in rng.sample(per_label[u], 2)]
        if two:
            st = locdom.cactus_stats(locdom.edge_induced_subgraph(ag, two))
            ref = _nx_stats(two)
            verts = {v for x, y, _ in two for v in (x, y)}
            if (st.cc, st.cy, st.ex, st.is_cactus) != ref or not ref[3]:
                bad.append(f"{tag}: two-per-label subgraph stats {st}, networkx {ref}")
            if 4 * len(verts) < 3 * len(two) + 4 * ref[0]:
                bad.append(f"{tag}: two-per-label subgraph breaks |V| >= 3/4 |E| + cc")
    return bad
