"""Command-line surface: lambda, classify, assoc, family, census, verify.

Exit codes: 0 success, 1 property violation (verify/census found a
counterexample), 2 usage or input error.  Reports are JSON with a fixed key
order; the timing field stays null unless --timing is given so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from typing import Iterable

from . import suites
from .associated import build_associated, cactus_stats, component_trace_check, \
    label_multiplicity, label_subgraph
from .bipartite import CensusError, ClassificationReport, classify, run_census
from .families import KINDS, generate
from .graphio import export_dot, parse_documents, to_edge_list, to_graph6
from .graphs import Graph, VertexSet
from .ld import lambda_bounded, lambda_bruteforce, ld_codes

SCHEMA = "locdom-report/1"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graphs(path: str) -> list[Graph]:
    return parse_documents(_read_text(path))


def _emit(obj) -> None:
    # json.dump streams the encoder's chunks; json.dumps would hold them all at once
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _vs(v: VertexSet | None):
    return None if v is None else list(v)


def _parse_vertex_list(text: str) -> VertexSet:
    try:
        items = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated vertex indices, got {text!r}") from None
    return VertexSet.of(items)


def cmd_lambda(args) -> int:
    reports = []
    for g in _load_graphs(args.file):
        if args.bounded is not None:
            rep = lambda_bounded(g, args.bounded)
            lam, wit = rep or (None, None)
            reports.append({"bounded": args.bounded, "found": rep is not None,
                            "size": lam, "witness": _vs(wit)})
        elif args.all_codes:
            codes = ld_codes(g)
            reports.append({"lambda": len(codes[0]), "witness": _vs(codes[0]),
                            "all_codes": [_vs(c) for c in codes]})
        else:
            rep = lambda_bruteforce(g)
            reports.append({"lambda": rep.lam, "witness": _vs(rep.witness)})
    _emit(reports[0] if len(reports) == 1 else reports)
    return 0


def cmd_classify(args) -> int:
    # every report is laid out before anything is written, so an input that
    # classify refuses writes nothing.  The rows sit at the census entries'
    # depth (the input holds at least one graph): one report alone drops four
    # spaces a line, the items of a list two.
    rows = ["{\n" + _report_json(classify(g)) + "\n    }" for g in _load_graphs(args.file)]
    if len(rows) == 1:
        text = rows[0].replace("\n    ", "\n")
    else:
        text = ("[\n    " + ",\n    ".join(rows) + "\n  ]").replace("\n  ", "\n")
    sys.stdout.write(text + "\n")
    return 0


def cmd_assoc(args) -> int:
    graphs = _load_graphs(args.file)
    if len(graphs) != 1:
        raise ValueError("assoc expects exactly one input graph")
    ag = build_associated(graphs[0], _parse_vertex_list(args.set))
    report = {
        "n": graphs[0].n,
        "set": list(ag.s),
        "k": ag.k,
        "vertices": list(ag.vertices),
        "levels": [[v, ag.level[v]] for v in ag.vertices],
        "edges": [list(e) for e in ag.edges],
    }
    if args.labels:
        report["label_multiplicity"] = {str(u): c for u, c in
                                        sorted(label_multiplicity(ag).items())}
    if args.subgraph is not None:
        sel = _parse_vertex_list(args.subgraph)
        ls = label_subgraph(ag, sel)
        st = cactus_stats(ls)
        report["subgraph"] = {
            "labels": list(sel),
            "edges": [list(e) for e in ls.edges],
            "components": [list(c) for c in ls.components],
            "component_traces_ok": component_trace_check(ls),
            "cactus": {"cc": st.cc, "cy": st.cy, "ex": st.ex,
                       "is_cactus": st.is_cactus},
        }
    if args.dot is not None:
        with open(args.dot, "w", encoding="ascii") as fh:
            fh.write(export_dot(ag))
    _emit(report)
    return 0


def cmd_family(args) -> int:
    g = generate(args.kind, n=args.n, r=args.r, s=args.s)
    if args.emit == "edges":
        sys.stdout.write(to_edge_list(g))
    else:
        sys.stdout.write(to_graph6(g) + "\n")
    return 0


_CENSUS_CSV_COLUMNS = ("key", "r", "s", "lambda", "lambda_bar", "relation",
                       "c1", "c2", "c3", "c3_twin_form", "predicted_plus_one", "ok")


def _json_int(x: int | None) -> str:
    return "null" if x is None else str(x)


def _json_bool(b: bool) -> str:
    return "true" if b else "false"


def _json_list(items: Iterable[str]) -> str:
    """A nonempty list of encoded items, as the value of a row's field."""
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _json_witness(v: VertexSet | None) -> str:
    if v is None:
        return "null"
    if not v:
        return "[]"
    return _json_list(map(str, v))


def _report_json(rep: ClassificationReport) -> str:
    """The fields of a classification report, ``"r"`` to ``"partial"``, laid
    out as ``json.dump(indent=2)`` lays them out in a census entry, without
    the cost of the pure-Python encoder: one field a line at six spaces, with
    no braces around them.  A census row wraps them with ``"key"`` first and
    ``"ok"`` last; ``classify`` wraps them alone and takes the spaces off
    each line to bring them to its own depth.  The fields hold only ints,
    bools, null and int lists, so no newline falls inside a value."""
    c = rep.conditions
    return (
        f'      "r": {rep.r},\n'
        f'      "s": {rep.s},\n'
        f'      "lambda": {_json_int(rep.lambda_g)},\n'
        f'      "lambda_bar": {_json_int(rep.lambda_gbar)},\n'
        f'      "relation": {_json_int(rep.relation)},\n'
        '      "conditions": {\n'
        f'        "c1": {_json_bool(c.c1)},\n'
        f'        "c2": {_json_bool(c.c2)},\n'
        f'        "c3": {_json_bool(c.c3)},\n'
        f'        "c3_twin_form": {_json_bool(c.c3_twin_form)}\n'
        "      },\n"
        f'      "predicted_plus_one": {_json_bool(rep.predicted_plus_one)},\n'
        f'      "witness": {_json_witness(rep.witness_g)},\n'
        f'      "witness_bar": {_json_witness(rep.witness_gbar)},\n'
        f'      "partial": {_json_bool(rep.partial)}'
    )


def _census_row_json(key: str, rep: ClassificationReport, failed: tuple[str, ...]) -> str:
    """One census entry as ``json.dump(indent=2)`` lays it out in the report's
    entries list: ``"key"``, the report's fields (:func:`_report_json`),
    ``"ok"`` (no check failed), and ``"failed_checks"`` when some did."""
    checks = f',\n      "failed_checks": {_json_list(map(json.dumps, failed))}' if failed else ""
    return (f'{{\n      "key": {json.dumps(key)},\n{_report_json(rep)},\n'
            f'      "ok": {_json_bool(not failed)}{checks}\n    }}')


@contextlib.contextmanager
def _sigterm_exits():
    """While the block runs in the main thread, SIGTERM (from ``kill`` or
    ``timeout``) raises SystemExit, so cleanup code runs; the default action
    would end the process without it.  A handler set by anyone else is left
    alone.  A process forked inside the block, such as a census worker, still
    dies by SIGTERM: a worker that caught SystemExit in a task would keep
    running."""
    if (signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
            or threading.current_thread() is not threading.main_thread()):
        yield
        return
    owner = os.getpid()

    def stop(signum, frame):
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _written_in_place(target: str) -> bool:
    """Whether a resolved report path exists and is not a regular file, such
    as /dev/null, which is written in place: renaming over it would replace
    the device."""
    return os.path.exists(target) and not os.path.isfile(target)


@contextlib.contextmanager
def _replace_on_success(path: str):
    """A text file that takes the place of ``path`` only if the block succeeds.

    The file is written as a sibling temporary file and renamed over the
    target at the end, so a failed run never leaves a truncated report, and
    one ended by SIGTERM leaves no temporary file either.  A path that is
    not a regular file is written in place (see :func:`_written_in_place`).
    """
    target = os.path.realpath(path)
    if _written_in_place(target):
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    with _sigterm_exits():
        try:
            fh = open(tmp, "x", encoding="ascii")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None  # the path as given
        except BaseException:
            # a signal is handled once open returns, before fh is bound
            os.unlink(tmp)
            raise
        try:
            with fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            # or once os.replace returns, when tmp is already gone
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise


def cmd_census(args) -> int:
    start = time.monotonic()
    if args.out and args.csv:
        # both writers would open the same temporary file
        target = os.path.realpath(args.out)
        if target == os.path.realpath(args.csv) and not _written_in_place(target):
            raise ValueError(f"--out and --csv name the same file {args.out!r}; "
                             "give the report and the CSV different paths")
    entries = run_census(args.max_n, jobs=args.jobs)
    by_relation: dict[str, int] = {"-1": 0, "0": 0, "1": 0}
    graphs = 0
    counterexamples = []
    with contextlib.ExitStack() as stack:
        # a report bound for stdout is spooled and copied out once it is
        # whole, so a failed run writes nothing there, as with --out
        out = stack.enter_context(_replace_on_success(args.out) if args.out else
                                  tempfile.TemporaryFile("w+", encoding="ascii"))
        csv = stack.enter_context(_replace_on_success(args.csv)) if args.csv else None
        head = json.dumps({
            "schema": SCHEMA,
            "command": ["census", "--max-n", str(args.max_n), "--jobs", str(args.jobs)],
            "entries": [],
        }, indent=2)
        out.write(head[:-len("]\n}")])  # up to and including the entries' "["
        if csv is not None:
            csv.write(",".join(_CENSUS_CSV_COLUMNS) + "\n")
        sep = "\n    "
        for e in entries:
            rep = e.report
            key = to_graph6(e.graph)
            graphs += 1
            rel = str(rep.relation)
            by_relation[rel] = by_relation.get(rel, 0) + 1
            if e.failed:
                counterexamples.append(key)
            out.write(sep + _census_row_json(key, rep, e.failed))
            sep = ",\n    "
            if csv is not None:
                c = rep.conditions
                csv.write(f"{key},{rep.r},{rep.s},{rep.lambda_g},{rep.lambda_gbar},"
                          f"{rep.relation},{c.c1},{c.c2},{c.c3},{c.c3_twin_form},"
                          f"{rep.predicted_plus_one},{not e.failed}\n")
        tail = json.dumps({
            "summary": {
                "graphs": graphs,
                "by_relation": by_relation,
                "counterexamples": counterexamples,
            },
            "timing": round(time.monotonic() - start, 3) if args.timing else None,
        }, indent=2)
        out.write(("\n  ]," if graphs else "],") + tail[1:] + "\n")
        if not args.out:
            out.seek(0)
            shutil.copyfileobj(out, sys.stdout)
    return 1 if counterexamples else 0


def cmd_verify(args) -> int:
    start = time.monotonic()
    run = suites.SUITES[args.suite]
    # the options a suite reads are its keyword-only parameters; any other
    # is refused when given and null in the report
    defaults = run.__kwdefaults__ or {}
    params = {name: getattr(args, name) for name in ("seed", "trials", "max_n")}
    for name, value in params.items():
        if name in defaults:
            params[name] = defaults[name] if value is None else value
        elif value is not None:
            raise ValueError(f"the {args.suite} suite does not read --{name.replace('_', '-')}")
    checked, bad = run(**{name: params[name] for name in defaults})
    report = {
        "schema": SCHEMA,
        "command": ["verify", "--suite", args.suite],
        "suite": args.suite,
        "params": params,
        "checked": checked,
        "violations": bad,
        "timing": round(time.monotonic() - start, 3) if args.timing else None,
    }
    _emit(report)
    return 1 if bad else 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    p = argparse.ArgumentParser(
        prog="locdom",
        description="Exact toolkit for locating-dominating sets, associated "
                    "graphs, and the bipartite complement characterization.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    lam = sub.add_parser("lambda", help="minimum LD-set size of each input graph")
    lam.add_argument("file", help="graph file (graph6 or edge list), or - for stdin")
    mode = lam.add_mutually_exclusive_group()
    mode.add_argument("--all-codes", action="store_true", help="enumerate every minimum LD-set")
    mode.add_argument("--bounded", type=int, metavar="K", default=None,
                     help="bounded search: decide existence of an LD-set of size <= K")
    lam.set_defaults(func=cmd_lambda)

    cls = sub.add_parser("classify", help="bipartite complement classification report")
    cls.add_argument("file")
    cls.set_defaults(func=cmd_classify)

    asc = sub.add_parser("assoc", help="associated graph of a distinguishing set")
    asc.add_argument("file")
    asc.add_argument("--set", required=True, metavar="V,V,...",
                     help="distinguishing set, comma-separated vertex indices")
    asc.add_argument("--dot", metavar="OUT", default=None, help="write DOT rendering")
    asc.add_argument("--labels", action="store_true", help="include label multiplicities")
    asc.add_argument("--subgraph", metavar="V,V,...", default=None,
                     help="report the subgraph induced by these labels")
    asc.set_defaults(func=cmd_assoc)

    fam = sub.add_parser("family", help="generate a named family graph")
    fam.add_argument("kind", choices=KINDS)
    fam.add_argument("--n", type=int, default=None)
    fam.add_argument("--r", type=int, default=None)
    fam.add_argument("--s", type=int, default=None)
    fam.add_argument("--emit", choices=["graph6", "edges"], default="graph6")
    fam.set_defaults(func=cmd_family)

    cen = sub.add_parser("census", help="exhaustive bipartite characterization check")
    cen.add_argument("--max-n", type=int, required=True)
    cen.add_argument("--jobs", type=int, default=1)
    cen.add_argument("--out", default=None, help="write the JSON report to a file")
    cen.add_argument("--csv", default=None, help="also write a one-line-per-graph CSV summary")
    cen.add_argument("--timing", action="store_true",
                     help="include wall time (breaks byte-reproducibility)")
    cen.set_defaults(func=cmd_census)

    ver = sub.add_parser("verify", help="run a property suite; exit 1 on any violation")
    ver.add_argument("--suite", required=True, choices=list(suites.SUITES))
    ver.add_argument("--seed", type=int, default=None,
                     help=f"parity/cactus only (default: {suites.SEED})")
    ver.add_argument("--trials", type=int, default=None,
                     help=f"parity/cactus only (default: {suites.TRIALS})")
    ver.add_argument("--max-n", type=int, default=None,
                     help=f"graph order ceiling (default: {suites.ATLAS_MAX_N} for thm3, "
                          f"{suites.RANDOM_MAX_N} for parity/cactus)")
    ver.add_argument("--timing", action="store_true")
    ver.set_defaults(func=cmd_verify)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, suites.AtlasError, CensusError) as exc:
        print(f"locdom: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("locdom: error: out of memory; try a smaller input or bound", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
