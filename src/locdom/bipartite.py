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

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from typing import Iterator, Sequence

from .associated import build_associated, label_multiplicity
from .graphs import (
    Bipartition,
    Graph,
    VertexSet,
    _bits,
    bipartition,
    complement,
)
from .ld import ORACLE_CAP, lambda_bounded, lambda_bruteforce, ld_codes


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


def _least_split(r: int, s: int, ta: int, tb: int, fits) -> int:
    """The least a + b over ta <= a <= r and tb <= b <= s with ``fits(a, b)``.

    ``fits`` must stay true as a or b grows, so the least b that fits does
    not grow with a, and one pointer moving down from s serves every a."""
    best = r + s
    b = s
    for a in range(ta, r + 1):
        if fits(a, b):
            while b > tb and fits(a, b - 1):
                b -= 1
            best = min(best, a + b)
    return best


@lru_cache(maxsize=1024)
def _side_floors(r: int, s: int, ta: int, tb: int) -> tuple[int, int]:
    """Lower bounds on lambda for a bipartite graph with sides of sizes r and
    s, and for its complement, from a count of the traces each side can
    carry, when ta rows of U and tb rows of W repeat an earlier row of their
    side.

    Let S be an LD-set with a members in U and b in W.  In G the sides are
    stable, so W - S carries distinct nonempty subsets of S & U, and U - S
    of S & W: s - b <= 2^a - 1 and r - a <= 2^b - 1.  In the complement the
    sides are cliques, so a vertex of W - S sees all of S & W and differs
    from the rest of W - S only inside S & U, where it must see something
    when b = 0: W - S has room for 2^a - [b = 0] traces, and likewise U - S
    for 2^b - [a = 0].  The two families share one trace, S itself, so the
    outside vertices together fit in the sum of the two rooms less one.

    Twins add a count of their own.  Two vertices of one side with equal
    rows have equal traces in every set that holds neither, in G and in the
    complement alike, where they are closed twins.  So S holds all but one
    vertex of each class of equal rows.  A class of c vertices puts c - 1 in
    S, and the classes of U together put their excess over one each, the ta
    rows that repeat an earlier one: a >= ta, and likewise b >= tb.  Each
    floor is the least a + b these counts allow."""
    def stable(a: int, b: int) -> bool:
        return s - b < 1 << a and r - a < 1 << b

    def clique(a: int, b: int) -> bool:
        w_room = (1 << a) - (b == 0)
        u_room = (1 << b) - (a == 0)
        return s - b <= w_room and r - a <= u_room and r - a + s - b < w_room + u_room

    return _least_split(r, s, ta, tb, stable), _least_split(r, s, ta, tb, clique)


def _repeats(g: Graph, side: VertexSet) -> int:
    """How many rows of ``side`` repeat an earlier one: the side's vertex
    count less its number of distinct rows."""
    rows = [g.adj[v] for v in side]
    return len(rows) - len(set(rows))


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
    # the sides and their twins bound both searches from below (see
    # _side_floors); sizes under a proven floor have no LD-set, so skipping
    # them changes no result
    floor, clique_floor = _side_floors(bp.r, bp.s, _repeats(g, bp.U), _repeats(g, bp.W))
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
        floor = max(sols[0][0] - 1, clique_floor)
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


def _lemma13_fires(bp: Bipartition, code: VertexSet) -> bool:
    """Whether a minimum LD-set ``code`` meets a hypothesis of Lemma 13: it
    has members on both sides, or it is W and r < s, or 2^r <= s.  Each
    forces lambda(complement) <= lambda(G)."""
    return (bool(code & bp.U and code & bp.W)
            or (bp.r < bp.s and code == bp.W)
            or 1 << bp.r <= bp.s)


# --- census of connected bipartite graphs by trace multisets ---------------

# r! relabeling tables of 2^r entries each: r = 8 takes seconds and about
# 100 MB, r = 9 would take several GB.  The census walk adds as much again
# for the tables' preimages (see _relabelings).
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


def graph_from_traces(r: int, traces: Sequence[int]) -> Graph:
    """Bipartite graph with U = 0..r-1 and one s-side vertex per trace mask.

    Each mask must lie in [0, 2^r); the zero mask gives an isolated vertex."""
    rows = [0] * r
    for wi, mask in enumerate(traces):
        if not 0 <= mask < 1 << r:
            raise ValueError(f"trace mask {mask} is outside [0, 2^{r})")
        for u in _bits(mask):
            rows[u] |= 1 << r + wi
    return Graph(r + len(traces), (*rows, *traces))


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


class _Relabelings:
    """The non-identity relabeling tables of U, by index k, with what the
    orderly walk looks up in them: ``drops[k]``, the mask with bit x set when
    table k sends x below x, and ``preimage[k][v]``, the x that table k sends
    to v."""

    def __init__(self, r: int):
        self.full = (1 << r) - 1
        self.tables = _perm_tables(r)[1:]  # the first table is the identity
        self.drops = [sum(1 << x for x, v in enumerate(table) if v < x)
                      for table in self.tables]
        self.preimage = []
        for table in self.tables:
            pre = [0] * len(table)
            for x, v in enumerate(table):
                pre[v] = x
            self.preimage.append(pre)


@lru_cache(maxsize=8)
def _relabelings(r: int) -> _Relabelings:
    return _Relabelings(r)


def _below(pre: list[int], p: int) -> int:
    """The mask of the masks that the table with preimages ``pre`` sends below p."""
    mask = 0
    for v in range(p):
        mask |= 1 << pre[v]
    return mask


# The verdicts of the relabeling tables on a canonical sorted prefix P, as
# (ties, blocked, recheck).  A table pi either ties, sorted(pi P) = P, or
# loses: sorted(pi P) first differs from P at some index i and is larger
# there, and its mark is P[i].  ``ties`` lists the tying tables; ``blocked``
# holds the masks that some losing table sends below its mark; ``recheck``
# maps a mask x to the losing tables that send x to their mark.  ``blocked``
# keeps the bits a table set under an earlier verdict, and they reject
# nothing wrongly.  Such a bit x >= P[-1] was sent below an earlier mark
# q <= P[-1].  If the table loses now, its mark is at least q; if it ties,
# it rejects every x >= P[-1] that it sends below x.
_Verdicts = tuple[list[int], int, dict[int, tuple[int, ...]]]


def _rejected(rel: _Relabelings, verdicts: _Verdicts) -> int:
    """The mask of the masks m whose appending to P some table beats.

    Let v = pi(m) for m >= P[-1].  A tie is beaten when v < m.  A loser with
    mark p = P[i] is beaten when v < p: the image gains v before index i and
    sorts below P there.  When v > p it loses again with the same mark, for
    the image still agrees with P before i and exceeds p at i.  Only v = p
    leaves the verdict open; those tables are in ``recheck[m]``."""
    ties, blocked, _ = verdicts
    drops = rel.drops
    for k in ties:
        blocked |= drops[k]
    return blocked


def _extend(rel: _Relabelings, prefix: list[int], verdicts: _Verdicts) -> _Verdicts | None:
    """The verdicts at ``prefix`` from those at ``prefix[:-1]``, or None when
    a table beats ``prefix``.  Its last mask m must not be :func:`_rejected`.

    A tie with pi(m) = m ties again, and one with pi(m) > m loses with mark
    m.  The tables in ``recheck[m]`` re-sort their image of ``prefix``; every
    other verdict, and so every other mark, carries over as it is."""
    tables, preimage = rel.tables, rel.preimage
    ties, blocked, recheck = verdicts
    m = prefix[-1]
    new_ties, marked = [], []
    recheck = dict(recheck)
    for k in recheck.pop(m, ()):
        image = sorted([tables[k][x] for x in prefix])
        diff = next(((v, p) for v, p in zip(image, prefix) if v != p), None)
        if diff is None:
            new_ties.append(k)
        elif diff[0] < diff[1]:
            return None
        else:
            marked.append((k, diff[1]))
    for k in ties:
        if tables[k][m] == m:
            new_ties.append(k)
        else:
            marked.append((k, m))
    for k, p in marked:
        pre = preimage[k]
        blocked |= _below(pre, p)
        if pre[p] >= m:
            recheck[pre[p]] = recheck.get(pre[p], ()) + (k,)
    return new_ties, blocked, recheck


def _root_verdicts(rel: _Relabelings, prefix: Sequence[int]) -> _Verdicts | None:
    """The verdicts at ``prefix``, or None when it is not a sorted tuple of
    masks in [1, full] that no relabeling beats.  Every table ties on the
    empty prefix, and each mask is appended as the walk appends it."""
    verdicts = (list(range(len(rel.tables))), 0, {})
    for j, m in enumerate(prefix):
        if not (prefix[j - 1] if j else 1) <= m <= rel.full:
            return None
        if _rejected(rel, verdicts) >> m & 1:
            return None
        verdicts = _extend(rel, list(prefix[:j + 1]), verdicts)
        if verdicts is None:
            return None
    return verdicts


def _canonical_tuples(rel: _Relabelings, prefix: list[int], verdicts: _Verdicts,
                      length: int) -> Iterator[tuple[int, ...]]:
    """The canonical sorted tuples of ``length`` masks that extend the canonical
    ``prefix``, whose verdicts are given, in increasing order.  ``prefix`` is
    grown in place and restored."""
    if len(prefix) == length:
        yield tuple(prefix)
        return
    tables = rel.tables
    recheck = verdicts[2]
    rejected = _rejected(rel, verdicts)
    last = len(prefix) + 1 == length
    for m in range(prefix[-1] if prefix else 1, rel.full + 1):
        if rejected >> m & 1:
            continue
        prefix.append(m)
        if last:
            # a leaf needs only the yes or no of _extend
            if not any(sorted([tables[k][x] for x in prefix]) < prefix
                       for k in recheck.get(m, ())):
                yield tuple(prefix)
        else:
            child = _extend(rel, prefix, verdicts)
            if child is not None:
                yield from _canonical_tuples(rel, prefix, child, length)
        prefix.pop()


# Masks in a census task's prefix.  With two, the largest task holds 21% of
# the 98,726 (5,7) graphs and 40% of the 14,549 at (4,8); with three, 7% and
# 17%.  Smaller tasks balance the workers, and the pool buffers fewer
# finished entries while the oldest task still runs.
TASK_PREFIX_LENGTH = 3
# From this order on a pair's tasks take one mask more.  With three, the
# largest (6,7) task holds 76,901 multisets and the largest (5,8) one
# 41,506; with four, 10,874 and 10,633, and a worker and the parent each
# hold a few such tasks' entries at a time.
LONG_PREFIX_ORDER = 13


def _prefix_length(r: int, s: int) -> int:
    """The number of masks in the prefixes of the (r, s) census tasks."""
    return min(TASK_PREFIX_LENGTH + (r + s >= LONG_PREFIX_ORDER), s)


def _prefixes(r: int, s: int) -> Iterator[tuple[int, ...]]:
    """The canonical prefixes of the (r, s) trace multisets that root the
    census tasks, in increasing order."""
    rel = _relabelings(r)
    return _canonical_tuples(rel, [], _root_verdicts(rel, ()), _prefix_length(r, s))


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

    The test is incremental: each accepted prefix carries every non-identity
    relabeling's verdict down the walk, a tie or a loss with a mark (see
    :func:`_rejected`).  Appending m decides each verdict from pi(m) alone,
    except for the losers that send m to their mark, which re-sort their
    image.  No table is ever dropped: a table that loses on a prefix can
    still beat an extension of it.

    A nonempty ``prefix`` restricts the walk to the multisets that start with
    it, which must be a canonical sorted prefix; the walks from the prefixes
    of one length, taken in increasing order, together give the whole walk.
    """
    if not r < s:
        raise ValueError(f"census enumeration requires r < s, got ({r}, {s})")
    rel = _relabelings(r)
    verdicts = _root_verdicts(rel, prefix) if len(prefix) <= s else None
    if verdicts is None:
        raise ValueError(f"{prefix} is not a canonical prefix of the ({r}, {s}) census")
    for traces in _canonical_tuples(rel, list(prefix), verdicts, s):
        if _traces_connected(rel.full, traces):
            yield traces, graph_from_traces(r, traces)


# The census checks, in the order a report names the ones that fail.
CENSUS_CHECKS = ("equivalence", "twin_form", "cor16", "window", "lemma13")


@dataclass(frozen=True)
class CensusEntry:
    """A census graph, its report, and the ``CENSUS_CHECKS`` it fails, in order."""
    traces: tuple[int, ...]
    graph: Graph
    report: ClassificationReport
    failed: tuple[str, ...]


def census_pairs(max_n: int) -> list[tuple[int, int]]:
    return [(r, s) for r in range(3, max_n) for s in range(r + 1, max_n - r + 1)]


def check_census_graph(traces: tuple[int, ...], g: Graph) -> CensusEntry:
    """Verify the characterization and its corollaries on census graph ``g``,
    the graph of ``traces``: one W vertex per trace, after U = 0..r-1."""
    s = len(traces)
    r = g.n - s
    # a connected graph has one pair of sides, and U = 0..r-1 is the smaller
    u_side = VertexSet((1 << r) - 1)
    bp = Bipartition(u_side, g.vertices() - u_side, r, s)
    report = _classify(g, bp)
    conds = report.conditions
    plus_one = report.relation == 1
    holds = (plus_one == report.predicted_plus_one,
             conds.c3 == conds.c3_twin_form,
             not plus_one or corollary16_audit(g),
             not plus_one or feasibility_window(r, s),
             report.relation <= 0 or not _lemma13_fires(bp, report.witness_g))
    return CensusEntry(traces, g, report,
                       tuple(name for name, ok in zip(CENSUS_CHECKS, holds) if not ok))


class CensusError(RuntimeError):
    """A census task failed; the message names the task and the original error."""


def _census_task(task: tuple[int, int, tuple[int, ...]]) -> list[CensusEntry]:
    """Check every graph of one (r, s, prefix) subtree, in enumeration order."""
    r, s, prefix = task
    try:
        return [check_census_graph(traces, g)
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
    per canonical prefix of ``TASK_PREFIX_LENGTH`` masks, one more from order
    ``LONG_PREFIX_ORDER`` on (see :func:`connected_bipartite_graphs`), and
    one task function enumerates and checks a prefix's subtree.  The tasks
    run through ``map`` for one job and through a process pool for more,
    with at most ``2 * jobs`` in flight; both collect results in task order,
    and ``census_pairs`` lists (r, s) in increasing order, so entries come
    in (r, s, trace multiset) order whatever the job count.  A failing task,
    or a worker process that dies, raises :class:`CensusError`.

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

    # at most 2 * jobs tasks are in flight, taken in task order, so the parent
    # holds the entries of that many finished tasks at most; a worker that
    # dies breaks the pool, where multiprocessing.Pool would hang
    with ProcessPoolExecutor(jobs) as pool:
        pending = deque()
        try:
            for task in islice(tasks, 2 * jobs):
                pending.append(pool.submit(_census_task, task))
            while pending:
                batch = pending.popleft().result()
                for task in islice(tasks, 1):
                    pending.append(pool.submit(_census_task, task))
                yield from batch
        except BrokenProcessPool as exc:
            raise CensusError(f"a census worker process died: {exc}") from exc
        finally:
            for future in pending:
                future.cancel()
