"""Benchmark for locdom: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {census,lambda,suites} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a locdom checkout: the program is imported from
./src, in this one process, and every command runs with --jobs 1.  Set-up
(a cold import of locdom plus building the workload's inputs) is timed in
fresh child processes (setup_probe.py), at least SETUP_REPEATS times and for
at least SETUP_SECONDS.  Then whole passes over the workload's operations
run until S seconds have gone by, and the outputs are checked (see
checks.py).

--trace 0 prints the end-to-end metrics: pass_rel, the median time of one
pass divided by the interleaved reference loop's time (refclock.py),
setup_s and peak_rss_mb.  --trace 1 alternates untraced and traced passes
and prints the per-layer metrics (tracing.py), with the tracing overhead
as traced minus untraced pass_rel; it also writes the per-pass layer table
to .perfbench_run/.  The last line of stdout is one JSON object; raw seconds
and quartiles go to stderr.  Exit code 0 when the run completed, 2 on a
usage error or when ./src/locdom is missing.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from refclock import REF_SECONDS, PassTimer
from tracing import Tracer
from workloads import WORKLOADS

# Set-up is timed in at least SETUP_REPEATS fresh processes, and in more until
# SETUP_SECONDS have gone by: one cold import of locdom alone (about 20 ms)
# varies by 17% (interquartile range) from process to process.
SETUP_REPEATS = 15
SETUP_SECONDS = 6.0
RUN_DIR = ".perfbench_run"
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

SELF_TIMES = (
    "graphs.build_graph", "graphs.complement", "graphs.bipartition",
    "graphs.connected_components",
    "ld.lambda_bruteforce", "ld.ld_codes", "ld.lambda_bounded",
    "associated.build_associated", "associated.label_subgraph",
    "associated.edge_induced_subgraph", "associated.cactus_stats", "associated.parity_audit",
    "bipartite.connected_bipartite_graphs", "bipartite.canonical_traces",
    "bipartite.classify", "bipartite.condition_triple",
    "suites.connected_atlas_graphs", "suites.random_graph", "suites.random_distinguishing_set",
    "graphio.parse_documents", "graphio.to_graph6", "cli.main",
)
CALL_COUNTS = (
    "graphs.build_graph", "ld.lambda_bruteforce", "ld.lambda_bounded",
    "associated.build_associated", "bipartite.canonical_traces", "bipartite.graph_from_traces",
    "suites.random_graph",
)


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def load_program(root: str):
    """Import locdom from root/src and make sure that copy is the one loaded."""
    importlib.import_module("locdom.cli")
    locdom = sys.modules["locdom"]
    expected = os.path.join(root, "src", "locdom")
    if os.path.dirname(os.path.abspath(locdom.__file__)) != expected:
        raise RuntimeError(f"imported locdom from {locdom.__file__}, not {expected}")
    return locdom


def probe_setup(workload: str, seed: int, work_dir: str) -> tuple[float, float]:
    """Time one set-up in a fresh process; return (raw seconds, reference-loop units)."""
    proc = subprocess.run([sys.executable, PROBE, workload, str(seed), work_dir],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["raw_s"], out["rel"]


def run_pass(locdom, ops, tracer: Tracer | None):
    """Run every operation once; return (stdout texts, failures, calls per op)."""
    texts, failures, per_op = [], [], {}
    for op in ops:
        before = dict(tracer.calls) if tracer else {}
        buf = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(op.stdin or "")
        try:
            with contextlib.redirect_stdout(buf):
                rc = locdom.cli.main(op.argv)
        except Exception:
            rc = traceback.format_exc()
        finally:
            sys.stdin = stdin
        if rc != 0:
            failures.append((op.label, rc))
        texts.append(buf.getvalue())
        if tracer:
            per_op[op.label] = {k: v - before.get(k, 0) for k, v in tracer.calls.items()}
    return texts, failures, per_op


def layer_table(tracer: Tracer, scale: float) -> dict:
    """Counts and self times of one traced pass, times scaled to the reference speed."""
    return {"calls": dict(tracer.calls), "yields": dict(tracer.yields),
            "self_s": {k: v * scale for k, v in tracer.self_s.items()}}


def per_layer_metrics(tables, extras, traced_rel, plain_rel) -> dict:
    def med(fn):
        return statistics.median(fn(t) for t in tables)

    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (med(lambda t: t["self_s"].get(name, 0.0)), "s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (med(lambda t: t["calls"].get(name, 0)), "count")
    out["bipartite.graphs_yielded"] = (
        med(lambda t: t["yields"].get("bipartite.connected_bipartite_graphs", 0)), "count")
    ratio = statistics.median(e.get("suites.cactus.trials_per_instance", 0.0) for e in extras)
    out["suites.cactus.trials_per_instance"] = (ratio, "ratio")
    out["trace.overhead_rel"] = (statistics.median(traced_rel) - statistics.median(plain_rel), "ref")
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="locdom benchmark: one workload, checked")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "locdom", "cli.py")):
        print("perfbench: run from the root of a locdom checkout (no src/locdom here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(root, RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(args, root, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, root: str, workload, work_dir: str) -> int:
    # Write locdom's bytecode caches even under PYTHONDONTWRITEBYTECODE, so no
    # probe pays compilation, as no user of an installed package does.
    compileall.compile_dir(os.path.join(root, "src", "locdom"), quiet=1)
    locdom = load_program(root)
    ops = workload.setup(locdom, args.seed, work_dir)
    setup_raw, setup_rel = [], []
    start = time.perf_counter()
    while len(setup_raw) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        raw_s, rel_s = probe_setup(args.workload, args.seed, work_dir)
        setup_raw.append(raw_s)
        setup_rel.append(rel_s)

    timer = PassTimer()

    tracer = Tracer() if args.trace else None
    first = None
    problems = []
    rel = {False: [], True: []}
    raw = []
    tables, extras = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(raw) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(locdom)
        try:
            (texts, failures, per_op), work_s, pass_rel = timer.measure(
                lambda: run_pass(locdom, ops, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tables.append(layer_table(tracer, pass_rel / work_s * REF_SECONDS))
            extras.append(workload.layer_extras(per_op))
        rel[traced].append(pass_rel)
        raw.append(work_s)
        attempted += len(ops)
        failed += len(failures)
        for label, rc in failures:
            print(f"perfbench: {label} failed: {rc}", file=sys.stderr)
        outputs = []
        for op, text in zip(ops, texts):
            if op.out:
                with open(op.out, encoding="ascii") as fh:
                    text = fh.read()
            outputs.append(text)
        if first is None:
            first = (outputs, {label for label, _ in failures})
        elif outputs != first[0]:
            problems.append(f"pass {len(raw)} output differs from pass 1")
        if time.perf_counter() - start >= args.seconds and (not tracer or len(raw) % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs, failed_labels = first
    ok = [(op, text) for op, text in zip(ops, outputs) if op.label not in failed_labels]
    problems += workload.check([op for op, _ in ok], [text for _, text in ok], args.seed, locdom)
    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    q_raw, q_rel, q_setup = _quartiles(raw), _quartiles(rel[False]), _quartiles(setup_raw)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(raw)} passes; raw pass seconds "
          f"q1/median/q3 {q_raw[0]:.4f}/{q_raw[1]:.4f}/{q_raw[2]:.4f}; untraced pass_rel "
          f"{q_rel[0]:.3f}/{q_rel[1]:.3f}/{q_rel[2]:.3f}; {len(setup_raw)} set-ups, raw seconds "
          f"q1/median/q3 {q_setup[0]:.4f}/{q_setup[1]:.4f}/{q_setup[2]:.4f}", file=sys.stderr)

    if tracer:
        metrics = per_layer_metrics(tables, extras, rel[True], rel[False])
        trace_path = os.path.join(root, RUN_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="ascii") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": tables,
                       "traced_pass_rel": rel[True], "untraced_pass_rel": rel[False]},
                      fh, indent=1, sort_keys=True)
    else:
        metrics = {
            "pass_rel": (statistics.median(rel[False]), "ref"),
            "setup_s": (statistics.median(setup_rel) * REF_SECONDS, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
