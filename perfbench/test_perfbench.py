"""Self-tests of the benchmark: each output check rejects a deliberately wrong answer.

    PYTHONPATH=src python3 -m pytest -q perfbench

Run from the root of the checkout; locdom is imported from ./src.  The ILP
check needs scipy and the count and cactus checks need networkx.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import plain  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import locdom  # noqa: E402
from locdom import cli  # noqa: E402


def run(capsys, *argv) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def graph_file(tmp_path, item) -> str:
    f = tmp_path / "g.g6"
    f.write_text(plain.to_graph6(item["n"], item["edges"]) + "\n")
    return str(f)


def altered(text: str, **changes) -> str:
    rep = json.loads(text)
    rep.update(changes)
    return json.dumps(rep)


def test_ilp_and_naive_scan_agree():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(3, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        adj = plain.adjacency(n, edges)
        assert plain.ilp_lambda(adj) == plain.naive_lambda(adj)


def test_graph6_codec_matches_locdom():
    rng = random.Random(3)
    for n in (1, 5, 12, 36):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        text = plain.to_graph6(n, edges)
        assert text == locdom.to_graph6(locdom.build_graph(n, edges))
        assert plain.from_graph6(text) == (n, sorted(edges, key=lambda e: (e[1], e[0])))


def test_lambda_check_rejects_lambda_off_by_one(tmp_path, capsys):
    item = dict(label="path(12)", cmd="lambda", n=12, closed=(5, None),
                edges=[(i, i + 1) for i in range(11)])
    out = run(capsys, "lambda", graph_file(tmp_path, item))
    assert checks.check_lambda_item(item, out) == []
    lam = json.loads(out)["lambda"]
    assert checks.check_lambda_item(item, altered(out, **{"lambda": lam + 1}))
    assert checks.check_lambda_item(item, altered(out, **{"lambda": lam - 1}))
    assert checks.check_lambda_item(item, altered(out, witness=[0, 1, 2, 3, 4]))


def test_bounded_check_rejects_wrong_size(tmp_path, capsys):
    item = dict(label="path(12) --bounded 5", cmd="bounded", n=12, bound=5,
                edges=[(i, i + 1) for i in range(11)])
    out = run(capsys, "lambda", graph_file(tmp_path, item), "--bounded", "5")
    assert checks.check_lambda_item(item, out) == []
    assert checks.check_lambda_item(item, altered(out, size=4))
    assert checks.check_lambda_item(item, altered(out, found=False, size=None, witness=None))


def test_classify_check_rejects_wrong_values(tmp_path, capsys):
    item = next(i for i in workloads.lambda_items(5) if i["label"] == "G(4,7)")
    out = run(capsys, "classify", graph_file(tmp_path, item))
    assert checks.check_lambda_item(item, out) == []
    rep = json.loads(out)
    assert checks.check_lambda_item(item, altered(out, lambda_bar=rep["lambda_bar"] - 1))
    assert checks.check_lambda_item(item, altered(out, relation=0))
    assert checks.check_lambda_item(item, altered(out, partial=True))
    assert checks.check_lambda_item(
        item, altered(out, conditions=dict(rep["conditions"], c2=False)))


def census_report(capsys, tmp_path, max_n: int) -> str:
    out = tmp_path / "census.json"
    run(capsys, "census", "--max-n", str(max_n), "--jobs", "1", "--out", str(out))
    return out.read_text()


def counts() -> dict:
    with open(workloads.COUNTS_FILE, encoding="ascii") as fh:
        return json.load(fh)["counts"]


def test_census_check_rejects_dropped_or_changed_row(tmp_path, capsys):
    text = census_report(capsys, tmp_path, 8)
    assert checks.check_census(text, 8, counts(), seed=1) == []
    rep = json.loads(text)

    dropped = json.loads(text)
    dropped["entries"].pop(17)
    dropped["summary"]["graphs"] -= 1
    assert checks.check_census(json.dumps(dropped), 8, counts(), seed=1)

    doubled = json.loads(text)
    doubled["entries"][17] = rep["entries"][16]
    assert checks.check_census(json.dumps(doubled), 8, counts(), seed=1)

    # no graph of order <= 8 lies in the feasibility window, so none is plus-one
    flipped = json.loads(text)
    row = flipped["entries"][40]
    row["relation"], row["lambda_bar"] = 1, row["lambda"] + 1
    assert checks.check_census(json.dumps(flipped), 8, counts(), seed=1)


def test_suite_check_rejects_injected_thm3_violation(capsys):
    out = run(capsys, "verify", "--suite", "thm3", "--max-n", "7")
    assert checks.check_suite_report("thm3", out) == []
    assert checks.check_suite_report("thm3", altered(out, violations=["F?~v_: lam=3, complement lam=5"]))
    assert checks.check_suite_report("thm3", altered(out, checked=995))


def test_associated_sample_rejects_a_dropped_edge():
    assert checks.check_associated_sample(locdom, seed=2, count=12) == []

    def lossy_build(g, s):
        ag = locdom.build_associated(g, s)
        return locdom.AssociatedGraph(ag.graph, ag.s, ag.vertices, ag.edges[1:], ag.level, ag.k)

    broken = types.SimpleNamespace(**{k: getattr(locdom, k) for k in dir(locdom)
                                      if not k.startswith("_")})
    broken.build_associated = lossy_build
    assert checks.check_associated_sample(broken, seed=2, count=12)


def test_tracer_replaces_every_binding_and_restores_it(tmp_path, capsys):
    original = locdom.ld.lambda_bruteforce
    tracer = Tracer()
    tracer.install(locdom)
    try:
        assert locdom.bipartite.lambda_bruteforce is not original
        assert locdom.suites.lambda_bruteforce is locdom.ld.lambda_bruteforce
        item = next(i for i in workloads.lambda_items(5) if i["label"] == "G(4,7)")
        run(capsys, "classify", graph_file(tmp_path, item))
    finally:
        tracer.uninstall()
    assert locdom.bipartite.lambda_bruteforce is original
    assert locdom.ld.lambda_bruteforce is original
    assert tracer.calls["ld.lambda_bruteforce"] == 2
    assert tracer.calls["bipartite.classify"] == 1
    assert tracer.self_s["bipartite.classify"] >= 0


def test_pass_timer_reports_reference_units():
    _, work_s, rel = refclock.PassTimer().measure(lambda: refclock.ref_loop(refclock.REF_ROUNDS))
    assert work_s > 0
    assert 0.5 < rel < 2.0


def bench_run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_metrics_benchmark_json_names(tmp_path):
    # Run in a copy of the program, so the run's files stay out of the checkout.
    root = os.path.dirname(HERE)
    shutil.copytree(os.path.join(root, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench_run(str(tmp_path), "--workload", "census", "--seed", "4",
                         "--seconds", "0", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in bench[section]}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = bench_run(str(tmp_path), "--workload", "census", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
