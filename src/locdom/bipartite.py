"""Characterization of connected bipartite graphs whose complement needs one more vertex.

For a connected bipartite graph with stable sides U, W (|U| = r <= s = |W|,
3 <= r < s) the complement's minimum LD size exceeds the graph's by one
exactly when: W has no twins, some w in W sees all of U, and every u in U
labels at least two edges of the U-associated graph.  The third condition has
an equivalent twin form: deleting u creates at least two twin pairs inside W.
Both forms are computed by independent routes and are defined (false) even
when U fails to distinguish W, i.e. when W has twins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator

from .associated import build_associated, label_multiplicity
from .graphs import (
    Bipartition,
    Graph,
    VertexSet,
    bipartition,
    build_graph,
    complement,
    twin_pairs,
)
from .ld import ORACLE_CAP, is_ld_set, lambda_bounded, lambda_bruteforce, ld_codes


@dataclass(frozen=True)
class ConditionTriple:
    """The three characterization conditions plus the twin-form cross-check.

    c3 counts edge labels in the U-associated graph; c3_twin_form counts twin
    pairs of W in each vertex-deleted graph.  On the characterization domain
    the two are provably equal; both are false when W has twins (then U does
    not distinguish and neither count is meaningful).
    """

    c1: bool
    c2: bool
    c3: bool
    c3_twin_form: bool

    def all_hold(self) -> bool:
        return self.c1 and self.c2 and self.c3


@dataclass(frozen=True)
class ClassificationReport:
    r: int
    s: int
    lambda_g: int | None
    lambda_gbar: int | None
    relation: int | None
    conditions: ConditionTriple
    predicted_plus_one: bool
    witness_g: VertexSet | None
    witness_gbar: VertexSet | None
    partial: bool = False


def _validate_sides(g: Graph, bp: Bipartition) -> None:
    if (bp.U & bp.W) or (bp.U | bp.W) != g.vertices():
        raise ValueError("bipartition sides must partition the vertex set")
    for side in (bp.U, bp.W):
        for v in side:
            if g.adj[v].bits & side.bits:
                raise ValueError(f"side containing vertex {v} is not stable; input is not bipartite")


def condition_triple(g: Graph, bp: Bipartition) -> ConditionTriple:
    """Evaluate the characterization conditions for a connected bipartite graph."""
    _validate_sides(g, bp)
    u_side, w_side = bp.U, bp.W
    c1 = not twin_pairs(g, w_side)
    c2 = any(g.adj[w].bits == u_side.bits for w in w_side)
    if not c1:
        return ConditionTriple(c1, c2, False, False)
    counts = label_multiplicity(build_associated(g, u_side))
    c3 = all(counts[u] >= 2 for u in u_side)
    c3_twin = True
    w_verts = w_side.members()
    for u in u_side:
        drop = ~(1 << u)
        pairs = 0
        for a in range(len(w_verts)):
            for b in range(a + 1, len(w_verts)):
                if g.adj[w_verts[a]].bits & drop == g.adj[w_verts[b]].bits & drop:
                    pairs += 1
        if pairs < 2:
            c3_twin = False
            break
    return ConditionTriple(c1, c2, c3, c3_twin)


def classify(g: Graph) -> ClassificationReport:
    """Full comparison of a connected bipartite graph against its complement.

    Both values are exact up to ``ORACLE_CAP`` vertices.  Above it the search only
    asks for LD-sets of size at most r+1, and the report is marked partial
    when either graph has none.
    """
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    conds = condition_triple(g, bp)
    predicted = 3 <= bp.r < bp.s and conds.all_hold()
    sols = []
    for h in (g, complement(g)):
        if g.n <= ORACLE_CAP:
            rep = lambda_bruteforce(h)
            sols.append((rep.lam, rep.witness))
        else:
            res = lambda_bounded(h, bp.r + 1)
            if not res.found:
                return ClassificationReport(bp.r, bp.s, None, None, None, conds,
                                            predicted, None, None, partial=True)
            sols.append((res.size, res.witness))
    (lam_g, wit_g), (lam_gb, wit_gb) = sols
    return ClassificationReport(bp.r, bp.s, lam_g, lam_gb, lam_gb - lam_g, conds,
                                predicted, wit_g, wit_gb)


def feasibility_window(r: int, s: int) -> bool:
    """True iff ceil(3r/2 + 1) <= s <= 2^r - 1; requires r >= 3."""
    if r < 3:
        raise ValueError(f"feasibility window is defined for r >= 3, got r={r}")
    return -(-3 * r // 2) + 1 <= s <= 2**r - 1


def corollary16_audit(g: Graph) -> bool:
    """For a plus-one graph: 3 <= r < s <= 2^r - 1 and U is the unique minimum LD-set."""
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    if not (3 <= bp.r < bp.s <= 2**bp.r - 1):
        return False
    return ld_codes(g) == [bp.U]


def lemma13_audit(g: Graph, code: VertexSet) -> bool:
    """Mixed-side codes (and the other two triggers) force relation <= 0.

    Vacuously true when no trigger applies.  Raises when ``code`` is not a
    minimum LD-set of g.
    """
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    rep = lambda_bruteforce(g)
    if len(code) != rep.lam or not is_ld_set(g, code):
        raise ValueError("code is not a minimum LD-set of the graph")
    triggers = (
        (code & bp.U and code & bp.W)
        or (bp.r < bp.s and code == bp.W)
        or 2**bp.r <= bp.s
    )
    if not triggers:
        return True
    lam_bar = lambda_bruteforce(complement(g)).lam
    return lam_bar <= rep.lam


# --- census of connected bipartite graphs by trace multisets ---------------

# r! relabeling tables of 2^r entries each: r = 8 takes seconds and about
# 100 MB, r = 9 would take several GB.
PERM_TABLE_MAX_R = 8


@lru_cache(maxsize=8)
def _perm_tables(r: int) -> list[list[int]]:
    if r > PERM_TABLE_MAX_R:
        raise ValueError(f"relabeling tables stop at r <= {PERM_TABLE_MAX_R}, got r = {r}")
    tables = []
    for perm in permutations(range(r)):
        table = [0] * (1 << r)
        for m in range(1 << r):
            t = 0
            x = m
            while x:
                low = x & -x
                t |= 1 << perm[low.bit_length() - 1]
                x ^= low
            table[m] = t
        tables.append(table)
    return tables


def canonical_traces(r: int, traces: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least relabeling of a trace multiset under permutations of U."""
    best = None
    for table in _perm_tables(r):
        cand = tuple(sorted(table[m] for m in traces))
        if best is None or cand < best:
            best = cand
    return best


def graph_from_traces(r: int, traces: tuple[int, ...]) -> Graph:
    """Bipartite graph with U = 0..r-1 and one s-side vertex per trace mask."""
    edges = []
    for wi, mask in enumerate(traces):
        v = r + wi
        while mask:
            low = mask & -mask
            edges.append((low.bit_length() - 1, v))
            mask ^= low
    return build_graph(r + len(traces), edges)


def _is_canonical_prefix(tables: list[list[int]], prefix: list[int]) -> bool:
    """True when no relabeling of U sends the prefix to a lex-smaller sorted tuple."""
    for table in tables:
        if sorted([table[m] for m in prefix]) < prefix:
            return False
    return True


def _traces_connected(full: int, traces: list[int]) -> bool:
    """Whether the bipartite graph with these (nonempty) s-side traces is connected.

    Every s-side vertex hangs off U, so the graph is connected exactly when
    the traces, merged along shared members, reach all of U.
    """
    reach = traces[0]
    while True:
        grown = reach
        for m in traces:
            if m & grown:
                grown |= m
        if grown == reach:
            return reach == full
        reach = grown


def connected_bipartite_graphs(r: int, s: int) -> Iterator[tuple[tuple[int, ...], Graph]]:
    """All connected bipartite graphs with stable sides r < s, one per isomorphism class.

    With the smaller side fixed, such a graph is determined by the multiset of
    s-side neighborhoods (nonempty subsets of U); isomorphism is exactly
    relabeling U plus permuting the multiset, so canonical multisets enumerate
    the class exactly.

    The multisets come from orderly generation (Read 1978; McKay 1998): a
    sorted trace tuple grows one mask at a time, never below its last mask,
    and a prefix is dropped as soon as some relabeling of U sends it to a
    lex-smaller sorted tuple.  That is sound because the first j entries of
    sorted(pi T) are elementwise at most sorted(pi T[:j]), so a beaten prefix
    has only beaten completions.  The depth-first walk over ascending masks
    visits multisets in ``combinations_with_replacement`` order, so the
    (canonical trace multiset, graph) pairs come in canonical order.
    Connectivity is read off the masks, so only connected graphs are built.
    """
    if not r < s:
        raise ValueError(f"census enumeration requires r < s, got ({r}, {s})")
    tables = _perm_tables(r)[1:]  # the first table is the identity
    full = (1 << r) - 1
    prefix: list[int] = []

    def extend(lo: int) -> Iterator[tuple[tuple[int, ...], Graph]]:
        for m in range(lo, full + 1):
            prefix.append(m)
            if _is_canonical_prefix(tables, prefix):
                if len(prefix) < s:
                    yield from extend(m)
                elif _traces_connected(full, prefix):
                    traces = tuple(prefix)
                    yield traces, graph_from_traces(r, traces)
            prefix.pop()

    yield from extend(1)


@dataclass(frozen=True)
class CensusEntry:
    r: int
    s: int
    traces: tuple[int, ...]
    graph: Graph
    report: ClassificationReport
    equivalence_ok: bool
    twin_form_ok: bool
    cor16_ok: bool
    window_ok: bool

    def ok(self) -> bool:
        return self.equivalence_ok and self.twin_form_ok and self.cor16_ok and self.window_ok


def census_pairs(max_n: int) -> list[tuple[int, int]]:
    return [(r, s) for r in range(3, max_n) for s in range(r + 1, max_n - r + 1)]


def check_census_graph(r: int, s: int, traces: tuple[int, ...], g: Graph) -> CensusEntry:
    """Verify the characterization and its corollaries on census graph ``g``,
    the graph of ``traces``."""
    report = classify(g)
    conds = report.conditions
    plus_one = report.relation == 1
    equivalence_ok = conds.all_hold() == plus_one
    twin_form_ok = conds.c3 == conds.c3_twin_form
    cor16_ok = corollary16_audit(g) if plus_one else True
    window_ok = feasibility_window(r, s) if plus_one else True
    return CensusEntry(r, s, traces, g, report, equivalence_ok, twin_form_ok,
                       cor16_ok, window_ok)


def run_census(max_n: int, jobs: int = 1) -> list[CensusEntry]:
    """Check every connected bipartite graph with 3 <= r < s and order <= max_n.

    Entries come back in (r, s, trace multiset) order whatever the job count:
    ``census_pairs`` lists (r, s) in increasing order, each enumeration yields
    sorted trace tuples in increasing order, and ``pool.starmap`` keeps the
    order of its input just as the serial loop does.  Orders above
    ``ORACLE_CAP`` are refused before anything is enumerated: classify gives
    exact values only up to that order.  So are orders that reach a small
    side above ``PERM_TABLE_MAX_R``, whose relabeling tables do not fit.
    """
    if max_n > ORACLE_CAP:
        raise ValueError(f"census order {max_n} exceeds the exact solver's cap "
                         f"of {ORACLE_CAP} vertices")
    top_r = (max_n - 1) // 2
    if top_r > PERM_TABLE_MAX_R:
        raise ValueError(f"census order {max_n} reaches a small side of r = {top_r}, but "
                         f"the enumerator's relabeling tables stop at r <= {PERM_TABLE_MAX_R} "
                         f"(census order {2 * PERM_TABLE_MAX_R + 2} at most)")
    work = [
        (r, s, traces, g)
        for r, s in census_pairs(max_n)
        for traces, g in connected_bipartite_graphs(r, s)
    ]
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            return pool.starmap(check_census_graph, work, chunksize=16)
    return [check_census_graph(*item) for item in work]
