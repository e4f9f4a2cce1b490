"""The benchmark's workloads: their inputs, their CLI commands and their checks.

Every operation is one ``locdom.cli.main(argv)`` call with ``--jobs 1``; a
pass runs all of a workload's operations once, in order.  The program sees
only the generated inputs: command-line arguments and graph6 text on
standard input.
"""

from __future__ import annotations

import json
import os
import random

import checks
import plain

CENSUS_MAX_N = 9
COUNTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_counts.json")


class Op:
    """One CLI call; its output is stdout, or the file named by ``out``.

    ``stdin`` is the text the call reads as standard input (``FILE`` = ``-``).
    """

    def __init__(self, label: str, argv: list[str], out: str | None = None,
                 stdin: str | None = None, item=None):
        self.label = label
        self.argv = argv
        self.out = out
        self.stdin = stdin
        self.item = item


class Workload:
    name = ""

    def layer_extras(self, per_op_calls: dict) -> dict[str, float]:
        """Per-layer metrics that need per-operation call counts."""
        return {}


class Census(Workload):
    """`locdom census` over every connected bipartite graph with n <= CENSUS_MAX_N.

    The only workload where enumeration does real work beside classification;
    the command and its input do not depend on the seed, which picks the rows
    that are re-solved by a naive scan.
    """

    name = "census"

    def setup(self, locdom, seed: int, work_dir: str) -> list[Op]:
        out = os.path.join(work_dir, "census.json")
        argv = ["census", "--max-n", str(CENSUS_MAX_N), "--jobs", "1", "--out", out]
        return [Op("census", argv, out=out)]

    def check(self, ops: list[Op], outputs: list[str], seed: int, locdom) -> list[str]:
        if not outputs:
            return []
        with open(COUNTS_FILE, encoding="ascii") as fh:
            counts = json.load(fh)
        if counts["max_n"] < CENSUS_MAX_N:
            return [f"census_counts.json covers n <= {counts['max_n']} only"]
        return checks.check_census(outputs[0], CENSUS_MAX_N, counts["counts"], seed)


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _random_connected_bipartite(rng: random.Random, r: int, s: int, p: float):
    """U = 0..r-1, then s W vertices with seeded random neighbourhoods; connected."""
    while True:
        subsets = [frozenset(u for u in range(r) if rng.random() < p) for _ in range(s)]
        n, edges = plain.graph_from_subsets(r, subsets)
        if all(subsets) and plain.bipartition(plain.adjacency(n, edges)) is not None:
            return n, edges


def _extremal(rng: random.Random, r: int, s: int):
    """The paper's G(r, s), extension subsets and W order drawn from the seed."""
    subsets = plain.extremal_subsets(r, s, rng.sample)
    rng.shuffle(subsets)
    return plain.graph_from_subsets(r, subsets)


def lambda_items(seed: int) -> list[dict]:
    """The `lambda` workload's inputs.

    Paths and cycles (and complements) of order 16..20 take the exhaustive
    scan below the 20-vertex cap; path(22) with K = 9 and the graphs above 20
    vertices take the pruned bounded search.  The seed draws the random
    graphs and G(r, s)'s extension subsets; the heavy, fixed part (paths,
    cycles, path(22)) does not depend on it, so a pass costs about the same
    on every seed.
    """
    rng = random.Random(seed)
    items = []
    for n in range(16, 21):
        lam, lam_bar = _ceil(2 * n, 5), _ceil(2 * n - 2, 5)
        path = [(i, i + 1) for i in range(n - 1)]
        cycle = path + [(n - 1, 0)]
        for name, edges in (("path", path), ("cycle", cycle)):
            items.append(dict(label=f"{name}({n})", cmd="lambda", n=n, edges=edges,
                              closed=(lam, None)))
            items.append(dict(label=f"{name}({n}) complement", cmd="lambda", n=n,
                              edges=plain.complement_edges(n, edges), closed=(lam_bar, None)))
    for r, s in ((3, 6), (3, 7), (4, 7), (4, 10), (4, 15), (5, 9), (5, 12), (5, 15),
                 (5, 31), (6, 16), (6, 20)):
        n, edges = _extremal(rng, r, s)
        items.append(dict(label=f"G({r},{s})", cmd="classify", n=n, edges=edges,
                          closed=(r, r + 1)))
    for r, s in ((5, 10), (6, 10), (6, 11), (7, 11), (7, 12), (8, 12),
                 (6, 16), (7, 17), (8, 18), (9, 17), (8, 16)):
        n, edges = _random_connected_bipartite(rng, r, s, 0.5)
        items.append(dict(label=f"random bipartite ({r},{s})", cmd="classify", n=n,
                          edges=edges))
    items.append(dict(label="path(22) --bounded 9", cmd="bounded", n=22, bound=9,
                      edges=[(i, i + 1) for i in range(21)], closed=(9, None)))
    return items


class Lambda(Workload):
    """`locdom lambda` / `classify` / `lambda --bounded K` on single graph6 graphs.

    Each graph reaches the command on standard input, as in
    ``locdom family ... | locdom lambda -``, so no file is read or written.
    """

    name = "lambda"

    def setup(self, locdom, seed: int, work_dir: str) -> list[Op]:
        ops = []
        for item in lambda_items(seed):
            if item["cmd"] == "bounded":
                argv = ["lambda", "-", "--bounded", str(item["bound"])]
            else:
                argv = [item["cmd"], "-"]
            text = plain.to_graph6(item["n"], item["edges"]) + "\n"
            ops.append(Op(item["label"], argv, stdin=text, item=item))
        return ops

    def check(self, ops: list[Op], outputs: list[str], seed: int, locdom) -> list[str]:
        bad = []
        for op, text in zip(ops, outputs):
            bad += checks.check_lambda_item(op.item, text)
        return bad


class Suites(Workload):
    """`locdom verify` for thm3 (n <= 7), table1, parity and cactus.

    The randomized suites run with the acceptance configuration (seed 2024,
    500 trials, n <= 14) on every benchmark seed: their instance count, and so
    their cost, moves by up to 10% between suite seeds.  The benchmark seed
    draws the associated-graph instances that are rebuilt independently.
    """

    name = "suites"

    def setup(self, locdom, seed: int, work_dir: str) -> list[Op]:
        # verify --suite thm3 ingests the networkx atlas on every call; one
        # ingest here puts the import and the data read into set-up time too.
        locdom.suites.connected_atlas_graphs(7)
        p = checks.RANDOM_SUITE_PARAMS
        rand = ["--seed", str(p["seed"]), "--trials", str(p["trials"]), "--max-n", str(p["max_n"])]
        return [
            Op("thm3", ["verify", "--suite", "thm3", "--max-n", "7"]),
            Op("table1", ["verify", "--suite", "table1"]),
            Op("parity", ["verify", "--suite", "parity", *rand]),
            Op("cactus", ["verify", "--suite", "cactus", *rand]),
        ]

    def check(self, ops: list[Op], outputs: list[str], seed: int, locdom) -> list[str]:
        bad = []
        for op, text in zip(ops, outputs):
            bad += checks.check_suite_report(op.label, text)
        return bad + checks.check_associated_sample(locdom, seed)

    def layer_extras(self, per_op_calls: dict) -> dict[str, float]:
        cactus = per_op_calls["cactus"].get("suites.random_graph", 0)
        trials = checks.RANDOM_SUITE_PARAMS["trials"]
        return {"suites.cactus.trials_per_instance": trials / cactus if cactus else 0.0}


WORKLOADS = {w.name: w for w in (Census(), Lambda(), Suites())}
