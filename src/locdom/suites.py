"""Reusable verification suites: closed-form regressions and randomized property runs.

Each suite returns (checked, violations); a violation is a human-readable
string pinpointing the failing instance.  Runs are deterministic for a fixed
seed and trial count.  SUITES maps each name to its suite, whose options are
its keyword-only parameters.
"""

from __future__ import annotations

import random
from importlib import resources

from .associated import (
    AssociatedGraph,
    _forest,
    build_associated,
    cactus_stats,
    component_trace_check,
    edge_induced_subgraph,
    label_multiplicity,
    label_subgraph,
    parity_audit,
)
from .graphio import parse_graph6, to_graph6
from .graphs import Graph, VertexSet, _check_order, build_graph, complement
from .ld import is_distinguishing, lambda_bruteforce
from . import families

# the suites' defaults; ATLAS_MAX_N is thm3's
ATLAS_MAX_N = 7
SEED = 2024
TRIALS = 500
RANDOM_MAX_N = 14
_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# one-argument joinpath: the two-argument form needs Python 3.11
_ATLAS_FILE = resources.files(__package__).joinpath("data/connected7.g6")


class AtlasError(RuntimeError):
    """The atlas file does not hold the known number of graphs of some order."""


def connected_atlas_graphs(max_n: int) -> list[Graph]:
    """Every connected graph with at most max_n <= 7 vertices, one per isomorphism class.

    Read from the package file ``data/connected7.g6``: the connected graphs
    with n <= 7 from Read and Wilson's *An Atlas of Graphs*, one graph6 line
    each, in atlas order.  Per-order counts are checked against the known values,
    raising AtlasError, so a damaged file cannot silently shrink the census.
    """
    if max_n > ATLAS_MAX_N:
        raise ValueError(f"atlas covers n <= {ATLAS_MAX_N}, requested {max_n}")
    out = []
    counts = {n: 0 for n in range(1, max_n + 1)}
    for line in _ATLAS_FILE.read_text(encoding="ascii").splitlines():
        g = parse_graph6(line)
        if g.n > max_n:
            continue
        out.append(g)
        counts[g.n] += 1
    for n in range(1, max_n + 1):
        if counts[n] != _CONNECTED_COUNTS[n]:
            raise AtlasError(
                f"atlas anomaly: {counts[n]} connected graphs of order {n}, "
                f"expected {_CONNECTED_COUNTS[n]}"
            )
    return out


def table1_suite() -> tuple[int, list[str]]:
    """Closed-form regression for paths, cycles, stars, complete bipartite, bistars.

    66 instances: paths and cycles of order 4 to 14, stars of order 4 to 12,
    K_{r,s} with 2 <= r <= s and r + s <= 12, and bistars with 3 <= r <= s <= 6.
    """
    checked = 0
    bad = []

    def check(name: str, g: Graph, expected: tuple[int, int]) -> None:
        nonlocal checked
        checked += 1
        got = (lambda_bruteforce(g).lam, lambda_bruteforce(complement(g)).lam)
        if got != expected:
            bad.append(f"{name}: got {got}, expected {expected}")

    for n in range(4, 15):
        check(f"path n={n}", families.path(n), families.table1_expected("path", n=n))
        check(f"cycle n={n}", families.cycle(n), families.table1_expected("cycle", n=n))
    for n in range(4, 13):
        check(f"star n={n}", families.star(n), families.table1_expected("star", n=n))
    for r in range(2, 7):
        for s in range(r, 13 - r):
            check(
                f"complete_bipartite r={r} s={s}",
                families.complete_bipartite(r, s),
                families.table1_expected("complete_bipartite", r=r, s=s),
            )
    for r in range(3, 7):
        for s in range(r, 7):
            check(
                f"bistar r={r} s={s}",
                families.bistar(r, s),
                families.table1_expected("bistar", r=r, s=s),
            )
    return checked, bad


def thm3_suite(*, max_n: int = ATLAS_MAX_N) -> tuple[int, list[str]]:
    """|lam(G) - lam(complement)| <= 1 over every connected graph with n <= max_n.

    Raises ValueError when max_n < 1, which would check no graph."""
    if max_n < 1:
        raise ValueError(f"the thm3 suite needs max_n >= 1, got {max_n}")
    checked = 0
    bad = []
    for g in connected_atlas_graphs(max_n):
        checked += 1
        a = lambda_bruteforce(g).lam
        b = lambda_bruteforce(complement(g)).lam
        if abs(a - b) > 1:
            bad.append(f"{to_graph6(g)}: lam={a}, complement lam={b}")
    return checked, bad


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_distinguishing_set(rng: random.Random, g: Graph) -> VertexSet:
    """A random set of 1 to n - 1 vertices, redrawn until it distinguishes.

    Any n - 1 vertices distinguish, so this ends with probability 1, after
    about two draws on the suites' graphs.  Raises ValueError when n < 2.
    """
    if g.n < 2:
        raise ValueError(f"a distinguishing set of 1 to n - 1 vertices needs n >= 2, got {g.n}")
    verts = list(range(g.n))
    while True:
        s = VertexSet.of(rng.sample(verts, rng.randint(1, g.n - 1)))
        if is_distinguishing(g, s):
            return s


# smallest order each random suite draws: parity from 4 up, cactus from 6 up
# (see _two_per_label_instance)
PARITY_MIN_N = 4
CACTUS_MIN_N = 6


def _check_random_params(suite: str, trials: int, max_n: int, min_n: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if max_n < min_n:
        raise ValueError(f"the {suite} suite needs max_n >= {min_n}, got {max_n}")
    _check_order(max_n)


def _random_instance(rng: random.Random, max_n: int) -> tuple[Graph, VertexSet, AssociatedGraph]:
    n = rng.randint(PARITY_MIN_N, max_n)
    g = random_graph(rng, n, rng.uniform(0.15, 0.85))
    s = random_distinguishing_set(rng, g)
    return g, s, build_associated(g, s)


def parity_suite(*, seed: int = SEED, trials: int = TRIALS,
                 max_n: int = RANDOM_MAX_N) -> tuple[int, list[str]]:
    """Structural properties of associated graphs on random (G, S) instances.

    Order, level-parity bipartiteness, incident-label distinctness, cycle
    label parity, equality with the complement's associated graph under level
    reversal, and the component-trace property for a random label subset.
    Raises ValueError when trials < 0 or max_n is outside [PARITY_MIN_N, MAX_ORDER].
    """
    _check_random_params("parity", trials, max_n, PARITY_MIN_N)
    rng = random.Random(seed)
    bad = []
    for t in range(trials):
        g, s, ag = _random_instance(rng, max_n)
        tag = f"trial {t} (n={g.n}, s={s.members()})"
        if len(ag.vertices) != g.n - len(s):
            bad.append(f"{tag}: vertex count {len(ag.vertices)} != n - k")
        if any(abs(ag.level[x] - ag.level[y]) != 1 for x, y, _ in ag.edges):
            bad.append(f"{tag}: an edge does not step one level")
        incident: dict[int, set[int]] = {}
        for x, y, lab in ag.edges:
            for v in (x, y):
                if lab in incident.setdefault(v, set()):
                    bad.append(f"{tag}: vertex {v} has two incident edges labeled {lab}")
                incident[v].add(lab)
        if not parity_audit(ag):
            bad.append(f"{tag}: cycle with odd label count")
        agc = build_associated(complement(g), s)
        if agc.vertices != ag.vertices or agc.edges != ag.edges:
            bad.append(f"{tag}: complement associated graph differs")
        elif any(agc.level[v] != ag.k - ag.level[v] for v in ag.vertices):
            bad.append(f"{tag}: complement levels are not reversed")
        sub = VertexSet.of(v for v in s if rng.random() < 0.5)
        if not sub:
            sub = VertexSet.single(rng.choice(s.members()))
        if not component_trace_check(label_subgraph(ag, sub)):
            bad.append(f"{tag}: component traces disagree for labels {sub.members()}")
    return trials, bad


def _two_per_label_instance(rng: random.Random, max_n: int):
    """Random associated graph plus a subgraph with exactly two edges per chosen label.

    Drawn trace-first.  The associated graph of S depends only on S and the
    traces N(v) & S of the vertices outside S, which S distinguishes exactly
    when they are distinct.  Any family of distinct traces is realised by the
    edges between S and V - S alone, and edges inside S or inside V - S change
    no trace, so drawing the traces reaches every associated graph that
    drawing a whole (G, S) does.  Seeding them with a, a + u, b and b + u
    (u in neither a nor b) gives label u two edges, so every draw is an
    instance that the lemma applies to and none is discarded.  Two edges with
    one label share no end, so n - k >= 4; with n - k <= 2^k that forces
    k >= 2 and n >= CACTUS_MIN_N.
    """
    n = rng.randint(CACTUS_MIN_N, max_n)
    # k starts at the least size with room for n - k distinct traces and grows
    # by one with probability 1/2 a step: every admissible k stays possible,
    # and the small ones, whose traces lie close enough to differ in a single
    # member, come most often
    k = next(k for k in range(2, n - 3) if n - k <= 1 << k)
    while k < n - 4 and rng.random() < 0.5:
        k += 1
    j = rng.randrange(k)
    low = (1 << j) - 1
    # label u is s[j]: a and b are two distinct (k-1)-bit masks, spread to k
    # bits with a zero at bit j
    a, b = ((x & ~low) << 1 | (x & low) for x in rng.sample(range(1 << (k - 1)), 2))
    traces = [a, a | 1 << j, b, b | 1 << j]
    seen = set(traces)
    while len(traces) < n - k:
        m = rng.getrandbits(k)
        if m not in seen:
            seen.add(m)
            traces.append(m)
    place = rng.sample(range(n), n)
    s, outside = place[:k], place[k:]
    edges = [(s[i], w) for w, m in zip(outside, traces) for i in range(k) if m >> i & 1]
    ag = build_associated(build_graph(n, edges), VertexSet.of(s))
    counts = label_multiplicity(ag)
    eligible = [u for u, c in counts.items() if c >= 2]
    chosen = [u for u in eligible if rng.random() < 0.6]
    if not chosen:
        chosen = [rng.choice(eligible)]
    picked = []
    for u in chosen:
        pool = [e for e in ag.edges if e[2] == u]
        picked.extend(rng.sample(pool, 2))
    return ag, chosen, edge_induced_subgraph(ag, picked)


def cactus_suite(*, seed: int = SEED, trials: int = TRIALS,
                 max_n: int = RANDOM_MAX_N) -> tuple[int, list[str]]:
    """Cactus structure and order bounds of two-edges-per-label subgraphs.

    Each trial draws one instance, trace-first (see _two_per_label_instance):
    the lemma concerns only the associated graph, which the traces of the
    vertices outside S determine, so drawing those traces directly tests the
    same statement as drawing a whole graph and keeping only the instances
    that have a label with two edges.  Also walks a random deletion chain
    from the full associated graph down through the subgraph, checking that
    |V| - cc never increases.  Raises ValueError when trials < 0 or max_n is
    outside [CACTUS_MIN_N, MAX_ORDER]; below CACTUS_MIN_N no label has two edges.
    """
    _check_random_params("cactus", trials, max_n, CACTUS_MIN_N)
    rng = random.Random(seed)
    bad = []
    for t in range(trials):
        ag, chosen, sub = _two_per_label_instance(rng, max_n)
        tag = f"trial {t} (labels {sorted(chosen)})"
        stats = cactus_stats(sub)
        verts = {v for x, y, _ in sub.edges for v in (x, y)}
        m = len(sub.edges)
        if not stats.is_cactus:
            bad.append(f"{tag}: component that is not a cactus")
        if 4 * len(verts) < 3 * m + 4 * stats.cc or stats.cc < 1:
            bad.append(f"{tag}: order bound |V| >= 3/4|E| + cc fails")
        if 2 * len(verts) < 3 * len(chosen) + 2:
            bad.append(f"{tag}: order bound |V| >= 3/2 r' + 1 fails")
        # deletion chain: associated graph -> label subgraph -> random erosions
        chain = [
            (ag.vertices, ag.edges),
            (ag.vertices, sub.edges),
            (verts, sub.edges),
        ]
        cur_v, cur_e = set(verts), list(sub.edges)
        while cur_e or len(cur_v) > 1:
            if cur_e and rng.random() < 0.5:
                cur_e = cur_e[:]
                cur_e.pop(rng.randrange(len(cur_e)))
            elif cur_v:
                drop = rng.choice(sorted(cur_v))
                cur_v = cur_v - {drop}
                cur_e = [e for e in cur_e if drop not in (e[0], e[1])]
            chain.append((cur_v, cur_e))
        # |V| - cc is the number of spanning-forest edges
        ranks = [len(_forest(v, e)) for v, e in chain]
        if any(a < b for a, b in zip(ranks, ranks[1:])):
            bad.append(f"{tag}: |V| - cc increased along a deletion chain")
    return trials, bad


# every suite by name, in the order the command line lists them
SUITES = {"table1": table1_suite, "thm3": thm3_suite, "cactus": cactus_suite,
          "parity": parity_suite}
