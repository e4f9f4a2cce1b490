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
from typing import Iterator, Sequence

from .associated import build_associated, label_multiplicity
from .graphs import (
    Bipartition,
    Graph,
    VertexSet,
    _bits,
    bipartition,
    build_graph,
    complement,
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
    u, w = bp.U.bits, bp.W.bits
    if u & w or u | w != (1 << g.n) - 1:
        raise ValueError("bipartition sides must partition the vertex set")
    for v, row in enumerate(g.adj):
        if row & (u if u >> v & 1 else w):
            raise ValueError(f"side containing vertex {v} is not stable; input is not bipartite")


def _sides(g: Graph) -> Bipartition:
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    return bp


def condition_triple(g: Graph, bp: Bipartition) -> ConditionTriple:
    """Evaluate the characterization conditions for a connected bipartite graph.

    c1, c2 and the twin form of c3 read W's rows; c3 reads the U-associated graph.
    """
    _validate_sides(g, bp)
    u_side = bp.U
    w_rows = [g.adj[w] for w in bp.W]
    # W is stable, so no two of its vertices are closed twins: W has no twins
    # exactly when its rows are distinct
    c1 = len(set(w_rows)) == len(w_rows)
    c2 = u_side.bits in w_rows
    if not c1:
        return ConditionTriple(c1, c2, False, False)
    counts = label_multiplicity(build_associated(g, u_side))
    c3 = all(counts[u] >= 2 for u in u_side)
    # c1 holds, so W's rows are distinct and clearing bit u can only merge
    # them in pairs: each row lost from the set is one twin pair of G - u
    c3_twin = all(
        len(w_rows) - len({row & ~(1 << u) for row in w_rows}) >= 2 for u in u_side
    )
    return ConditionTriple(c1, c2, c3, c3_twin)


def classify(g: Graph) -> ClassificationReport:
    """Full comparison of a connected bipartite graph against its complement.

    Both values are exact up to ``ORACLE_CAP`` vertices.  Above it the search only
    asks for LD-sets of size at most r+1, and the report is marked partial
    when either graph has none.
    """
    return _classify(g, _sides(g))


def _classify(g: Graph, bp: Bipartition) -> ClassificationReport:
    """:func:`classify` for a graph whose sides ``bp`` are already known."""
    conds = condition_triple(g, bp)
    predicted = 3 <= bp.r < bp.s and conds.all_hold()
    sols = []
    floor = 0
    for h in (g, complement(g)):
        if g.n <= ORACLE_CAP:
            rep = lambda_bruteforce(h, floor=floor)
            sols.append((rep.lam, rep.witness))
        else:
            res = lambda_bounded(h, bp.r + 1, floor=floor)
            if not res.found:
                return ClassificationReport(bp.r, bp.s, None, None, None, conds,
                                            predicted, None, None, partial=True)
            sols.append((res.size, res.witness))
        # an LD-set of the complement plus its one undominated vertex is an
        # LD-set of g, so lambda(complement) >= lambda(g) - 1
        floor = max(sols[0][0] - 1, 0)
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
    bp = _sides(g)
    if not (3 <= bp.r < bp.s <= 2**bp.r - 1):
        return False
    return ld_codes(g) == [bp.U]


def lemma13_audit(g: Graph, code: VertexSet) -> bool:
    """Mixed-side codes (and the other two triggers) force relation <= 0.

    Vacuously true when no trigger applies.  Raises when ``code`` is not a
    minimum LD-set of g.
    """
    bp = _sides(g)
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
        # masks with top bit i are those below it with bit perm[i] added
        table = [0]
        for i in range(r):
            table += [t | 1 << perm[i] for t in table]
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


def graph_from_traces(r: int, traces: Sequence[int]) -> Graph:
    """Bipartite graph with U = 0..r-1 and one s-side vertex per trace mask."""
    edges = [(u, r + wi) for wi, mask in enumerate(traces) for u in _bits(mask)]
    return build_graph(r + len(traces), edges)


def _is_canonical_prefix(tables: list[list[int]], prefix: list[int]) -> bool:
    """True when no relabeling of U sends the prefix to a lex-smaller sorted tuple."""
    for table in tables:
        if sorted([table[m] for m in prefix]) < prefix:
            return False
    return True


def _traces_connected(full: int, traces: tuple[int, ...]) -> bool:
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


def _canonical_tuples(tables: list[list[int]], full: int, prefix: list[int],
                      length: int) -> Iterator[tuple[int, ...]]:
    """The canonical sorted tuples of ``length`` masks that extend the canonical
    ``prefix``, in increasing order.  ``prefix`` is grown in place and restored."""
    if len(prefix) == length:
        yield tuple(prefix)
        return
    last = len(prefix) + 1 == length
    for m in range(prefix[-1] if prefix else 1, full + 1):
        prefix.append(m)
        if _is_canonical_prefix(tables, prefix):
            if last:
                yield tuple(prefix)
            else:
                yield from _canonical_tuples(tables, full, prefix, length)
        prefix.pop()


# Masks in a census task's prefix.  With two, the largest task holds 21% of
# the 98,726 (5,7) graphs and 40% of the 14,549 at (4,8); with three, 7% and
# 17%.  Smaller tasks balance the workers, and the pool buffers fewer
# finished entries while the oldest task still runs.
TASK_PREFIX_LENGTH = 3


def _prefixes(r: int, s: int) -> Iterator[tuple[int, ...]]:
    """The canonical prefixes of the (r, s) trace multisets that root the
    census tasks, in increasing order."""
    return _canonical_tuples(_perm_tables(r)[1:], (1 << r) - 1, [],
                             min(TASK_PREFIX_LENGTH, s))


def connected_bipartite_graphs(r: int, s: int, prefix: tuple[int, ...] = ()
                               ) -> Iterator[tuple[tuple[int, ...], Graph]]:
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

    A nonempty ``prefix`` restricts the walk to the multisets that start with
    it, which must be a canonical sorted prefix; the walks from the prefixes
    of one length, taken in increasing order, together give the whole walk.
    """
    if not r < s:
        raise ValueError(f"census enumeration requires r < s, got ({r}, {s})")
    tables = _perm_tables(r)[1:]  # the first table is the identity
    full = (1 << r) - 1
    start = list(prefix)
    if start and not (len(start) <= s and start == sorted(start) and 1 <= start[0]
                      and start[-1] <= full and _is_canonical_prefix(tables, start)):
        raise ValueError(f"{prefix} is not a canonical prefix of the ({r}, {s}) census")
    for traces in _canonical_tuples(tables, full, start, s):
        if _traces_connected(full, traces):
            yield traces, graph_from_traces(r, traces)


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
    # a connected graph has one pair of sides, and U = 0..r-1 is the smaller
    u_side = VertexSet((1 << r) - 1)
    report = _classify(g, Bipartition(u_side, g.vertices() - u_side, r, s))
    conds = report.conditions
    plus_one = report.relation == 1
    equivalence_ok = conds.all_hold() == plus_one
    twin_form_ok = conds.c3 == conds.c3_twin_form
    cor16_ok = corollary16_audit(g) if plus_one else True
    window_ok = feasibility_window(r, s) if plus_one else True
    return CensusEntry(r, s, traces, g, report, equivalence_ok, twin_form_ok,
                       cor16_ok, window_ok)


class CensusError(RuntimeError):
    """A census task failed; the message names the task and the original error."""


def _census_task(task: tuple[int, int, tuple[int, ...]]) -> list[CensusEntry]:
    """Check every graph of one (r, s, prefix) subtree, in enumeration order."""
    r, s, prefix = task
    try:
        return [check_census_graph(r, s, traces, g)
                for traces, g in connected_bipartite_graphs(r, s, prefix)]
    except Exception as exc:
        # re-raised in the parent for any job count, and pickled intact from a
        # worker, so every task failure reaches the command line the same way
        raise CensusError(f"census task (r, s) = ({r}, {s}), prefix {list(prefix)} "
                          f"failed: {type(exc).__name__}: {exc}") from exc


def run_census(max_n: int, jobs: int = 1) -> Iterator[CensusEntry]:
    """Check every connected bipartite graph with 3 <= r < s and order <= max_n.

    Returns an iterator over the entries; the tasks enumerate the graphs, so
    no list of graphs or entries is built.  Each (r, s) is split into one task
    per canonical prefix of ``TASK_PREFIX_LENGTH`` masks (see
    :func:`connected_bipartite_graphs`), and one task function enumerates and
    checks a prefix's subtree.  The tasks run through ``map`` for one job and
    through a process pool's ``map`` for more; both return results in task
    order, and ``census_pairs`` lists (r, s) in increasing order, so entries
    come in (r, s, trace multiset) order whatever the job count.  A failing
    task, or a worker process that dies, raises :class:`CensusError`.

    The arguments are checked when this is called, before anything is
    enumerated.  Orders above ``ORACLE_CAP`` are refused: classify gives
    exact values only up to that order.  So are orders that reach a small
    side above ``PERM_TABLE_MAX_R``, whose relabeling tables do not fit.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if max_n > ORACLE_CAP:
        raise ValueError(f"census order {max_n} exceeds the exact solver's cap "
                         f"of {ORACLE_CAP} vertices")
    top_r = (max_n - 1) // 2
    if top_r > PERM_TABLE_MAX_R:
        raise ValueError(f"census order {max_n} reaches a small side of r = {top_r}, but "
                         f"the enumerator's relabeling tables stop at r <= {PERM_TABLE_MAX_R} "
                         f"(census order {2 * PERM_TABLE_MAX_R + 2} at most)")
    return _stream_census(max_n, jobs)


def _stream_census(max_n: int, jobs: int) -> Iterator[CensusEntry]:
    tasks = ((r, s, prefix) for r, s in census_pairs(max_n) for prefix in _prefixes(r, s))
    if jobs == 1:
        for batch in map(_census_task, tasks):
            yield from batch
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # map submits every task and cancels those pending when a result raises;
    # a worker that dies breaks the pool, where multiprocessing.Pool would hang
    with ProcessPoolExecutor(jobs) as pool:
        try:
            for batch in pool.map(_census_task, tasks):
                yield from batch
        except BrokenProcessPool as exc:
            raise CensusError(f"a census worker process died: {exc}") from exc
