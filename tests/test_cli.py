import hashlib
import json
import os
import sys

import pytest

from locdom import bipartite, cli, suites
from locdom.bipartite import ClassificationReport, ConditionTriple, run_census
from locdom.cli import _census_row_json, main
from locdom.families import path
from locdom.graphio import to_edge_list, to_graph6
from locdom.graphs import VertexSet


ATLAS = os.path.join(os.path.dirname(cli.__file__), "data", "connected7.g6")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_pipe_lambda(tmp_path, capsys):
    code, out, _ = run(capsys, "family", "path", "--n", "7")
    assert code == 0
    g6 = out.strip()
    f = tmp_path / "p7.g6"
    f.write_text(g6 + "\n")
    code, out, _ = run(capsys, "lambda", str(f))
    assert code == 0
    rep = json.loads(out)
    assert rep["lambda"] == 3


def test_lambda_stdin_edge_list(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(to_edge_list(path(4))))
    code, out, _ = run(capsys, "lambda", "-")
    assert code == 0
    assert json.loads(out)["lambda"] == 2


def test_lambda_all_codes_and_bounded(tmp_path, capsys):
    from locdom.families import cycle
    f = tmp_path / "c4.g6"
    f.write_text(to_graph6(cycle(4)) + "\n")
    code, out, _ = run(capsys, "lambda", str(f), "--all-codes")
    rep = json.loads(out)
    assert code == 0 and len(rep["all_codes"]) == 4
    code, out, _ = run(capsys, "lambda", str(f), "--bounded", "1")
    rep = json.loads(out)
    assert code == 0 and rep == {"bounded": 1, "found": False, "size": None, "witness": None}


def test_bounded_lambda_of_a_long_path_is_refuted_by_its_floor(capsys, monkeypatch):
    """family path --n 1500 | lambda - --bounded 1: the degree floor, 600,
    settles it at once."""
    import io
    code, out, _ = run(capsys, "family", "path", "--n", "1500")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "lambda", "-", "--bounded", "1")
    assert code == 0
    assert json.loads(out) == {"bounded": 1, "found": False, "size": None, "witness": None}


def test_lambda_bounded_and_all_codes_are_exclusive(tmp_path, capsys):
    f = tmp_path / "p7.g6"
    f.write_text(to_graph6(path(7)) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["lambda", str(f), "--bounded", "3", "--all-codes"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --all-codes: not allowed with argument --bounded" in out.err


def test_classify_command(tmp_path, capsys):
    from locdom.families import extremal
    f = tmp_path / "g.g6"
    f.write_text(to_graph6(extremal(3, 6)) + "\n")
    code, out, _ = run(capsys, "classify", str(f))
    rep = json.loads(out)
    assert code == 0
    assert rep["relation"] == 1 and rep["predicted_plus_one"] is True
    assert rep["conditions"] == {"c1": True, "c2": True, "c3": True, "c3_twin_form": True}


def test_classify_writes_nothing_when_a_later_graph_is_refused(tmp_path, capsys):
    """Every report is built before any is written: K2 and P3 classify, then
    the triangle is not bipartite, so the run prints nothing and exits with
    code 2."""
    from locdom.families import cycle
    f = tmp_path / "g.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in (path(2), path(3), cycle(3))))
    code, out, err = run(capsys, "classify", str(f))
    assert code == 2 and out == ""
    assert err == "locdom: error: graph is not bipartite\n"


def test_assoc_command(tmp_path, capsys):
    from conftest import trace_gadget
    g, s = trace_gadget()
    f = tmp_path / "g.g6"
    f.write_text(to_graph6(g) + "\n")
    dot_path = tmp_path / "out.dot"
    code, out, _ = run(capsys, "assoc", str(f), "--set", "0,1,2,3,4",
                       "--labels", "--subgraph", "0,1", "--dot", str(dot_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 5 and len(rep["edges"]) == 8
    assert rep["label_multiplicity"] == {"0": 4, "1": 2, "2": 0, "3": 2, "4": 0}
    assert rep["subgraph"]["components"] == [[5, 6, 7, 8], [9, 10], [11, 12]]
    assert rep["subgraph"]["component_traces_ok"] is True
    assert rep["subgraph"]["cactus"] == {"cc": 3, "cy": 1, "ex": 2, "is_cactus": True}
    assert dot_path.read_text().count("rank=same") == 6


def test_assoc_rejects_non_distinguishing(tmp_path, capsys):
    from locdom.families import complete_bipartite
    f = tmp_path / "k23.g6"
    f.write_text(to_graph6(complete_bipartite(2, 3)) + "\n")
    code, _, err = run(capsys, "assoc", str(f), "--set", "0,1")
    assert code == 2
    assert "does not distinguish" in err


@pytest.mark.parametrize("graphs, argv, message", [
    ("C~\nA_\n", ["--set", "0"], "assoc expects exactly one input graph"),
    # a token that is not an int makes a malformed list; an int outside
    # [0, 65536) keeps VertexSet's range message
    ("C~\n", ["--set", "0,x"], "expected comma-separated vertex indices, got '0,x'"),
    ("C~\n", ["--set", "70000"], "vertex index must be in [0, 65536), got 70000"),
    ("C~\n", ["--set", "0,1,2", "--subgraph", "x"],
     "expected comma-separated vertex indices, got 'x'"),
    ("C~\n", ["--set", "0,1,2", "--subgraph", "70000"],
     "vertex index must be in [0, 65536), got 70000"),
])
def test_assoc_input_errors_name_their_fault(tmp_path, capsys, graphs, argv, message):
    f = tmp_path / "in.g6"
    f.write_text(graphs)
    code, out, err = run(capsys, "assoc", str(f), *argv)
    assert (code, out, err) == (2, "", f"locdom: error: {message}\n")


def test_family_emit_edges(capsys):
    code, out, _ = run(capsys, "family", "bistar", "--r", "3", "--s", "3", "--emit", "edges")
    assert code == 0
    assert out.splitlines()[0] == "6 5"


def test_family_bad_parameters(capsys):
    code, _, err = run(capsys, "family", "cycle", "--n", "2")
    assert code == 2 and "n >= 3" in err


@pytest.mark.parametrize("argv, name", [
    (["banner", "--n", "7"], "n"),
    (["path", "--n", "5", "--r", "3"], "r"),
    (["banner", "--s", "3"], "s"),
    (["star", "--n", "5", "--s", "3"], "s"),
    (["extremal", "--n", "9", "--r", "3", "--s", "6"], "n"),
])
def test_family_refuses_an_option_the_kind_does_not_read(capsys, argv, name):
    code, out, err = run(capsys, "family", *argv)
    assert code == 2 and out == ""
    assert err == f"locdom: error: family {argv[0]!r} does not read parameter {name}\n"


def test_out_of_memory_exits_2_with_a_message(tmp_path, capsys, monkeypatch):
    """A MemoryError, such as the seal index of a long path raises under an
    address-space limit, ends in exit 2, not in a traceback and exit 1."""
    from locdom import ld

    def exhausted(adj):
        raise MemoryError

    monkeypatch.setattr(ld, "_seal_index", exhausted)
    f = tmp_path / "p7.g6"
    f.write_text(to_graph6(path(7)) + "\n")
    code, out, err = run(capsys, "lambda", str(f), "--bounded", "3")
    assert code == 2 and out == ""
    assert err.startswith("locdom: error: out of memory") and "Traceback" not in err


@pytest.mark.parametrize("bound, report", [
    (5, {"bounded": 5, "found": True, "size": 5, "witness": [0, 1, 2, 3, 4]}),
    (4, {"bounded": 4, "found": False, "size": None, "witness": None}),
])
def test_bounded_lambda_report_of_a_disconnected_graph(tmp_path, capsys, bound, report):
    """The complement of star(6) is K5 plus an isolated vertex, so lambda = 5:
    the exact --bounded JSON at K = lambda and K = lambda - 1."""
    from locdom.families import star
    from locdom.graphs import complement
    f = tmp_path / "k5k1.g6"
    f.write_text(to_graph6(complement(star(6))) + "\n")
    code, out, _ = run(capsys, "lambda", str(f), "--bounded", str(bound))
    assert code == 0
    assert out == json.dumps(report, indent=2) + "\n"


def test_census_command(tmp_path, capsys):
    out_file = tmp_path / "census.json"
    csv_file = tmp_path / "census.csv"
    code, _, _ = run(capsys, "census", "--max-n", "8", "--out", str(out_file),
                     "--csv", str(csv_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["summary"]["counterexamples"] == []
    assert rep["summary"]["by_relation"]["1"] == 0
    assert rep["timing"] is None
    lines = csv_file.read_text().splitlines()
    assert lines[0].startswith("key,r,s,lambda")
    assert len(lines) == rep["summary"]["graphs"] + 1


def test_census_byte_identical_reruns(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "census", "--max-n", "8", "--out", str(a))
    run(capsys, "census", "--max-n", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    # a different worker count changes only the echoed command line
    c = tmp_path / "c.json"
    run(capsys, "census", "--max-n", "8", "--jobs", "2", "--out", str(c))
    da, dc = json.loads(a.read_text()), json.loads(c.read_text())
    assert da["entries"] == dc["entries"] and da["summary"] == dc["summary"]
    assert c.read_text().replace('"--jobs",\n    "2"', '"--jobs",\n    "1"') == a.read_text()
    # the CSV does not echo the command, so it is byte-identical across job counts
    for jobs in ("1", "2"):
        run(capsys, "census", "--max-n", "8", "--jobs", jobs, "--csv", str(tmp_path / f"{jobs}.csv"))
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
    # stdout carries the same bytes as the --out file
    for jobs, report in (("1", a), ("2", c)):
        code, out, _ = run(capsys, "census", "--max-n", "8", "--jobs", jobs)
        assert code == 0 and out == report.read_text()


def test_census_rows_match_the_json_encoder(capsys):
    """The fixed-layout row writer gives json.dumps(row, indent=2) at the
    entries' depth, and the streamed report re-encodes to itself."""
    def encoded(key, rep, failed):
        # the row as a dict, for the pure-Python encoder to lay out
        c = rep.conditions
        row = {
            "key": key,
            "r": rep.r,
            "s": rep.s,
            "lambda": rep.lambda_g,
            "lambda_bar": rep.lambda_gbar,
            "relation": rep.relation,
            "conditions": {"c1": c.c1, "c2": c.c2, "c3": c.c3,
                           "c3_twin_form": c.c3_twin_form},
            "predicted_plus_one": rep.predicted_plus_one,
            "witness": None if rep.witness_g is None else list(rep.witness_g),
            "witness_bar": None if rep.witness_gbar is None else list(rep.witness_gbar),
            "partial": rep.partial,
            "ok": not failed,
        }
        if failed:
            row["failed_checks"] = failed
        return json.dumps(row, indent=2).replace("\n", "\n    ")

    relations = set()
    for e in run_census(10):
        key = to_graph6(e.graph)
        assert _census_row_json(key, e.report, e.failed) == encoded(key, e.report, e.failed)
        relations.add(e.report.relation)
    # 0 must print as 0, not as false
    assert relations == {-1, 0, 1}
    conds = ConditionTriple(c1=False, c2=True, c3=False, c3_twin_form=False)
    partial = ClassificationReport(3, 5, None, None, None, conds, False, None, None,
                                   partial=True)
    empty_witness = ClassificationReport(3, 4, 0, 1, 1, conds, False, VertexSet(),
                                         VertexSet.of([3, 5]))
    # graph6 bytes run from 63 to 126, and JSON escapes 92, the backslash
    for key, rep, failed in (("G\\?", partial, ("equivalence", "lemma13")),
                             ("~\\", empty_witness, ()), ("E?~o", empty_witness, ("window",))):
        assert _census_row_json(key, rep, failed) == encoded(key, rep, failed)
    code, out, _ = run(capsys, "census", "--max-n", "8")
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    # the empty census, as the whole-report encoder wrote it
    code, out, _ = run(capsys, "census", "--max-n", "6")
    assert code == 0 and out == json.dumps({
        "schema": "locdom-report/1",
        "command": ["census", "--max-n", "6", "--jobs", "1"],
        "entries": [],
        "summary": {"graphs": 0, "by_relation": {"-1": 0, "0": 0, "1": 0},
                    "counterexamples": []},
        "timing": None,
    }, indent=2) + "\n"


def test_census_rows_name_their_failed_checks(capsys, monkeypatch):
    """A failing check turns its rows into counterexamples that name it, and
    the run exits with 1; the report is still what the JSON encoder writes."""
    monkeypatch.setattr(bipartite, "feasibility_window", lambda r, s: False)
    code, out, _ = run(capsys, "census", "--max-n", "9", "--jobs", "1")
    assert code == 1
    rep = json.loads(out)
    failing = [row for row in rep["entries"] if not row["ok"]]
    assert len(failing) == 2 and all(row["relation"] == 1 for row in failing)
    assert [row["failed_checks"] for row in failing] == [["window"], ["window"]]
    assert rep["summary"]["counterexamples"] == [row["key"] for row in failing]
    assert rep["summary"]["by_relation"]["1"] == 2
    assert all("failed_checks" not in row for row in rep["entries"] if row["ok"])
    assert list(failing[0])[-2:] == ["ok", "failed_checks"]
    assert out == json.dumps(rep, indent=2) + "\n"


def test_census_counts_a_relation_above_one_under_its_own_key(capsys, monkeypatch):
    """A +2 row fails the gap check and is counted under key "2", after the
    three keys every summary holds; the run exits with 1 and no traceback."""
    honest = bipartite._classify

    def skewed(g, bp):
        rep = honest(g, bp)
        return rep._replace(relation=2) if rep.relation == 1 else rep

    monkeypatch.setattr(bipartite, "_classify", skewed)
    code, out, err = run(capsys, "census", "--max-n", "9", "--jobs", "1")
    assert code == 1 and err == ""
    rep = json.loads(out)
    failing = [row for row in rep["entries"] if not row["ok"]]
    assert len(failing) == 2 and all(row["relation"] == 2 for row in failing)
    assert [row["failed_checks"] for row in failing] == [["equivalence", "gap"]] * 2
    assert rep["summary"]["counterexamples"] == [row["key"] for row in failing]
    by_relation = rep["summary"]["by_relation"]
    assert list(by_relation) == ["-1", "0", "1", "2"]
    assert by_relation["1"] == 0 and by_relation["2"] == 2
    assert out == json.dumps(rep, indent=2) + "\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_task_failure_is_a_usage_error_and_writes_no_file(tmp_path, capsys,
                                                                monkeypatch, jobs):
    """Any exception in a census task ends in exit code 2 with a message, and
    the report files are left as they were: forked workers inherit the patch."""
    def fail(traces, g):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(bipartite, "check_census_graph", fail)
    out_file, csv_file = tmp_path / "census.json", tmp_path / "census.csv"
    out_file.write_text("an earlier report\n")
    code, out, err = run(capsys, "census", "--max-n", "8", "--jobs", jobs,
                         "--out", str(out_file), "--csv", str(csv_file))
    assert code == 2 and out == ""
    assert err == ("locdom: error: census task (r, s) = (3, 4), prefix [1, 1, 1] failed: "
                   "RuntimeError: injected failure\n")
    assert os.listdir(tmp_path) == ["census.json"]
    assert out_file.read_text() == "an earlier report\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_to_stdout_writes_nothing_when_a_task_fails(capsys, monkeypatch, jobs):
    """A report bound for stdout is all or nothing: when the fifth graph's
    check raises, after four rows are done, the run exits 2 with a message
    and stdout stays empty, with no traceback."""
    check = bipartite.check_census_graph
    seen = []

    def fail_fifth(traces, g):
        seen.append(traces)
        if len(seen) == 5:
            raise RuntimeError("injected failure")
        return check(traces, g)

    monkeypatch.setattr(bipartite, "check_census_graph", fail_fifth)
    code, out, err = run(capsys, "census", "--max-n", "8", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err.startswith("locdom: error: census task (r, s) = (3, 4), prefix [")
    assert err.endswith("failed: RuntimeError: injected failure\n")
    assert "Traceback" not in err


_KILL_WORKERS = """
import os, signal, sys
from locdom import bipartite, cli

parent = os.getpid()
check = bipartite.check_census_graph

def check_or_die(traces, g):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return check(traces, g)

bipartite.check_census_graph = check_or_die
sys.exit(cli.main(sys.argv[1:]))
"""


def test_census_worker_killed_by_a_signal_exits_2(tmp_path):
    """A census worker that dies (the OOM killer, say) ends the run with exit
    code 2 and a message instead of a hang; forked workers inherit the patch
    that kills them, and no report is written."""
    import subprocess

    out_file = tmp_path / "census.json"
    src = os.path.dirname(os.path.dirname(bipartite.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _KILL_WORKERS, "census", "--max-n", "7",
                           "--jobs", "2", "--out", str(out_file)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("locdom: error: a census worker process died: ")
    assert "Traceback" not in proc.stderr
    assert not out_file.exists() and os.listdir(tmp_path) == []


def test_sigterm_handler_spares_forked_children():
    """A process forked while a report's SIGTERM handler is in place, such as
    a census worker, still dies by SIGTERM.  A worker that raised SystemExit
    instead would catch it in its task loop and live on, and a pool ending
    its workers after one of them died would wait for it forever."""
    import signal
    import time

    from locdom.cli import _sigterm_exits

    ready_r, ready_w = os.pipe()
    with _sigterm_exits():
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                os.write(ready_w, b"x")
                time.sleep(30)
            except BaseException:
                code = 3
            finally:
                os._exit(code)
        os.read(ready_r, 1)
        os.kill(pid, signal.SIGTERM)
        _, status = os.waitpid(pid, 0)
    os.close(ready_r)
    os.close(ready_w)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGTERM


def test_census_stopped_by_sigterm_leaves_no_files(tmp_path):
    """SIGTERM (from kill or timeout) in the middle of a census that writes
    --out ends the run with a non-zero code and no traceback, and leaves
    neither the report nor its temporary file."""
    import signal
    import subprocess
    import time

    out_file = tmp_path / "census.json"
    src = os.path.dirname(os.path.dirname(bipartite.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "locdom.cli", "census", "--max-n", "10",
                             "--out", str(out_file)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    # the temporary file appears once the handler is in place
    deadline = time.monotonic() + 30
    while not list(tmp_path.glob("census.json.*.tmp")):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.005)
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode != 0 and stdout == ""
    assert "Traceback" not in stderr
    assert os.listdir(tmp_path) == []


def test_census_output_paths(tmp_path, capsys):
    """A report sent to a device is written to it, not renamed over it, so
    --out and --csv may both name it, and an unwritable path is named as
    given, not as its temporary sibling."""
    code, out, _ = run(capsys, "census", "--max-n", "7", "--out", os.devnull,
                       "--csv", os.devnull)
    assert code == 0 and out == ""
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    missing = str(tmp_path / "missing" / "census.json")
    code, out, err = run(capsys, "census", "--max-n", "7", "--out", missing)
    assert code == 2 and out == ""
    assert err == f"locdom: error: [Errno 2] No such file or directory: {missing!r}\n"


def test_census_refuses_one_file_for_report_and_csv(tmp_path, capsys, monkeypatch):
    """--out and --csv naming one regular file, directly or through a link,
    are refused before the census starts, and the file is left as it was.
    A device can take both (test_census_output_paths)."""
    def refuse(*args, **kwargs):
        raise AssertionError("the census started")

    target = tmp_path / "census.out"
    link = tmp_path / "link.out"
    link.symlink_to(target)
    monkeypatch.setattr(cli, "run_census", refuse)
    for exists in (False, True):
        if exists:
            target.write_text("an earlier report\n")
        for other in (target, link):
            code, out, err = run(capsys, "census", "--max-n", "7", "--out", str(target),
                                 "--csv", str(other))
            assert code == 2 and out == ""
            assert err == (f"locdom: error: --out and --csv name the same file "
                           f"{str(target)!r}; give the report and the CSV different paths\n")
        assert sorted(os.listdir(tmp_path)) == (["census.out", "link.out"] if exists
                                                else ["link.out"])
    assert target.read_text() == "an earlier report\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_census_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, "census", "--max-n", "6", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"locdom: error: jobs must be >= 1, got {jobs}\n"


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_census_pool_is_sized_by_the_cores_not_by_jobs(capsys, monkeypatch, cpus, workers):
    """--jobs 10**6 at order 8 gets a pool of min(jobs, cores) workers and at
    most twice that many tasks in flight; the report is the one-job report,
    echoing --jobs.  The pool is an inline stand-in, so no process starts."""
    from concurrent.futures import Future

    seen = {"workers": [], "outstanding": 0, "peak": 0}

    class Task(Future):
        def result(self, timeout=None):
            seen["outstanding"] -= 1
            return super().result(timeout)

    class InlinePool:
        def __init__(self, max_workers):
            seen["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            task = Task()
            task.set_result(fn(*args))
            seen["outstanding"] += 1
            seen["peak"] = max(seen["peak"], seen["outstanding"])
            return task

    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, err = run(capsys, "census", "--max-n", "8", "--jobs", str(10**6))
    assert code == 0 and err == ""
    assert seen["workers"] == [workers] and seen["peak"] == 2 * workers
    assert seen["outstanding"] == 0
    code, one, _ = run(capsys, "census", "--max-n", "8")
    assert code == 0
    assert f'"{10**6}"' in out and out.replace(f'"{10**6}"', '"1"', 1) == one


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_census_order_below_one_is_a_usage_error(capsys, max_n):
    """An order below 1 is refused; order 1, like 2 to 6, is the empty census."""
    code, out, err = run(capsys, "census", "--max-n", max_n)
    assert code == 2 and out == ""
    assert err == f"locdom: error: census order must be >= 1, got {max_n}\n"
    code, out, err = run(capsys, "census", "--max-n", "1")
    assert code == 0 and err == "" and json.loads(out)["entries"] == []


def test_census_over_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "census", "--max-n", "21")
    assert code == 2 and out == ""
    assert err.startswith("locdom: error:") and "cap of 20" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_n", ["19", "20"])
def test_census_beyond_the_relabeling_tables_is_a_usage_error(capsys, monkeypatch, max_n):
    """Orders that reach r = 9 are refused before any relabeling table is built."""
    def refuse(r):
        raise AssertionError(f"_Relabelings({r}) was called")

    bipartite._relabelings.cache_clear()
    monkeypatch.setattr(bipartite, "_Relabelings", refuse)
    code, out, err = run(capsys, "census", "--max-n", max_n)
    assert code == 2 and out == ""
    assert err.startswith("locdom: error:") and "r = 9" in err and "r <= 8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, stdin, message", [
    (["lambda", "-"], f"{10**12} 0\n", f"order {10**12} exceeds"),
    (["classify", "-"], f"{10**12} 1\n0 1\n", f"order {10**12} exceeds"),
    (["family", "path", "--n", str(10**12)], "", f"order {10**12} exceeds"),
    (["family", "complete_bipartite", "--r", "3", "--s", str(10**12)], "",
     f"order {10**12 + 3} exceeds"),
    (["assoc", "-", "--set", str(10**12)], "3 0\n",
     f"vertex index must be in [0, 65536), got {10**12}"),
    # the header declares 70,000 vertices; the order is refused before the
    # missing body is measured
    (["lambda", "-"], "~PDo\n", "order 70000 exceeds the largest supported order 65536"),
])
def test_huge_order_is_refused_before_allocation(argv, stdin, message):
    """An order of 10**12, or of 70,000 in a graph6 header with no body,
    exits 2 with a message, in a child capped at 1 GiB of
    address space, so a list of that length would end it with MemoryError."""
    import resource
    import subprocess

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(bipartite.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "locdom.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, preexec_fn=cap)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("locdom: error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_lambda_over_cap_names_the_bounded_option(tmp_path, capsys):
    f = tmp_path / "p21.g6"
    f.write_text(to_graph6(path(21)) + "\n")
    code, out, err = run(capsys, "lambda", str(f))
    assert code == 2 and out == ""
    assert err.startswith("locdom: error:") and "locdom lambda --bounded K" in err
    code, out, _ = run(capsys, "lambda", str(f), "--bounded", "9")
    assert code == 0 and json.loads(out)["size"] == 9


def test_lambda_all_codes_over_cap_names_the_enumeration_cap(tmp_path, capsys):
    """Over the cap, lambda points to --bounded K, which finds one witness;
    --all-codes, which argparse refuses beside --bounded, says that minimum
    LD-sets are enumerated only up to the cap."""
    f = tmp_path / "p21.g6"
    f.write_text(to_graph6(path(21)) + "\n")
    code, out, err = run(capsys, "lambda", str(f))
    assert code == 2 and out == ""
    assert err == ("locdom: error: graph order 21 exceeds the oracle cap 20; use lambda_bounded "
                   "instead (on the command line: locdom lambda --bounded K)\n")
    code, out, err = run(capsys, "lambda", str(f), "--all-codes")
    assert code == 2 and out == ""
    assert err == ("locdom: error: graph order 21 exceeds the oracle cap 20; minimum LD-sets "
                   "are enumerated only up to it\n")


def test_lambda_bounded_above_a_graphs_order_answers_at_its_order(capsys):
    """--bounded 3 over the atlas file, whose graphs of order 1 and 2 lie below
    K, gives one report a graph, each agreeing with plain lambda; only a
    negative K is refused."""
    code, out, _ = run(capsys, "lambda", ATLAS, "--bounded", "3")
    assert code == 0
    bounded = json.loads(out)
    code, out, _ = run(capsys, "lambda", ATLAS)
    assert code == 0
    exact = json.loads(out)
    assert len(bounded) == len(exact) == 996
    for b, e in zip(bounded, exact):
        found = e["lambda"] <= 3
        assert b == {"bounded": 3, "found": found, "size": e["lambda"] if found else None,
                     "witness": e["witness"] if found else None}
    code, out, err = run(capsys, "lambda", ATLAS, "--bounded", "-1")
    assert code == 2 and out == ""
    assert err == "locdom: error: kmax must be >= 0, got -1\n"


def test_verify_command_parity(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "parity", "--trials", "25")
    assert code == 0
    rep = json.loads(out)
    assert rep["checked"] == 25 and rep["violations"] == []


def test_verify_command_thm3_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm3", "--max-n", "5")
    assert code == 0
    assert json.loads(out)["checked"] == 31


def test_verify_thm3_runs_without_networkx(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)
    code, out, _ = run(capsys, "verify", "--suite", "thm3", "--max-n", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["checked"] == 996 and rep["violations"] == []


@pytest.mark.parametrize("suite, args, message", [
    ("cactus", ["--max-n", "5"], "the cactus suite needs max_n >= 6, got 5"),
    ("cactus", ["--max-n", "3"], "the cactus suite needs max_n >= 6, got 3"),
    ("parity", ["--max-n", "3"], "the parity suite needs max_n >= 4, got 3"),
    ("parity", ["--trials", "-3"], "trials must be >= 0, got -3"),
    ("thm3", ["--max-n", "0"], "the thm3 suite needs max_n >= 1, got 0"),
    ("thm3", ["--seed", "5"], "the thm3 suite does not read --seed"),
    ("thm3", ["--trials", "9"], "the thm3 suite does not read --trials"),
    ("table1", ["--max-n", "3", "--seed", "5", "--trials", "9"],
     "the table1 suite does not read --seed"),
    ("table1", ["--trials", "500"], "the table1 suite does not read --trials"),
    ("table1", ["--max-n", "7"], "the table1 suite does not read --max-n"),
    # refused before a graph of that order is drawn
    ("parity", ["--max-n", "70000", "--trials", "1"],
     "order 70000 exceeds the largest supported order 65536"),
    ("cactus", ["--max-n", "70000", "--trials", "1"],
     "order 70000 exceeds the largest supported order 65536"),
])
def test_verify_random_suite_out_of_range_is_a_usage_error(capsys, suite, args, message):
    code, out, err = run(capsys, "verify", "--suite", suite, *args)
    assert code == 2 and out == ""
    assert err == f"locdom: error: {message}\n"


@pytest.mark.parametrize("argv", [["census", "--max-n", "7"], ["verify", "--suite", "table1"]])
def test_timing_adds_wall_time_and_changes_nothing_else(capsys, argv):
    """--timing fills the report's timing field with the seconds taken; every
    other byte is what the run without the flag writes."""
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and json.loads(plain)["timing"] is None
    code, timed, _ = run(capsys, *argv, "--timing")
    timing = json.loads(timed)["timing"]
    assert code == 0 and type(timing) in (int, float) and timing >= 0
    assert timed == plain.replace('"timing": null', f'"timing": {json.dumps(timing)}')


def test_verify_thm3_on_a_damaged_atlas_is_a_usage_error(tmp_path, capsys, monkeypatch):
    lines = suites._ATLAS_FILE.read_text(encoding="ascii").splitlines()
    short = tmp_path / "short.g6"
    short.write_text("".join(line + "\n" for line in lines[:500]))
    monkeypatch.setattr(suites, "_ATLAS_FILE", short)
    code, out, err = run(capsys, "verify", "--suite", "thm3", "--max-n", "7")
    assert code == 2 and out == ""
    assert err == "locdom: error: atlas anomaly: 357 connected graphs of order 7, expected 853\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lambda"])  # missing file argument
    assert exc.value.code == 2
    code, _, err = run(capsys, "lambda", "/nonexistent/file")
    assert code == 2 and "error" in err


# sha256 digests of reports that are part of the behaviour contract: the
# census through orders 10 and 12 (the JSON report and the CSV), and each
# verify suite at its default parameters.  They were taken before the exact
# solve gained its connected-graph path, its inline two-slot level and the
# twin floors, none of which may change a byte.  thm3 and table1 were taken
# again when their reports began to write null for the seed and the trials
# they do not read.
CENSUS_DIGESTS = {
    ("10", "1"): ("1da257172fa13294f24c7e55b259875759c3ada67d67bc12e57947e9418e0648",
                  "337a4a96d63f592b314e93b55f6234ffeef8d2709b7435f5e67aae0eb69511e6"),
    ("12", "2"): ("0a63b9a8d5d1a7dd61321fcaf06ed9f93110e45d29d9474d21c58c7effc33865",
                  "54e5cc1aaa938707f59b8e2cf5c49c7377145120314a8a89360d5b1eac6e490d"),
}
VERIFY_DIGESTS = {
    "thm3": "a68081f316c9ffcfc9b217e1925376e3a134f98126f8d82297e64946dafdaa0c",
    "table1": "e86f14fee829d88396383ed40d918fb8cbe7e1d5457f69f2f1ee9059de7c4601",
    "parity": "ec084511a20a71f514414e473f2c3d306bac2d1258c78cfb3bb3b56d1a499e20",
    "cactus": "9c67bbeb03932bfbfd4550af683505ca243ad6338c71b283c8c97d6ab8230d6a",
}

# the lambda layer's reports on the atlas file: plain, with --all-codes, and
# with --bounded 3 over its 853 graphs of order 7 (graph6 lines starting
# with "F"), taken before the walk lost its one-slot scan and ld_codes
# became the one route to every minimum LD-set
LAMBDA_DIGESTS = {
    (): "efb4f5f4e1f76a04fc66156f02683a45d1a4efcbfc8ca53528bc962edafa84a5",
    ("--all-codes",): "052d6b5c66e5efb31405e277f806b6120e5a6c09cc53b3f552f2d1dda2d097b6",
    ("--bounded", "3"): "05ba58e3b07a84e176669806b886550bd10b44b386002aa6698029244f9611fc",
}

# classify's reports: every census graph of order 8 or less, then K2 and
# extremal(3, 6), as one list (relations -1, 0 and +1), and one at a time
# K2 (+1 outside the characterization's domain), extremal(3, 6) and K(3, 19)
# (order 22, above the exact cap: a partial report with nulls); taken before
# classify wrote its reports through the census rows' layout
CLASSIFY_DIGESTS = {
    "census-8": "cfa3ed02bf60ebae20d7f78ef145d16dfd53f8a04bb2cf8f176089caf7f377a2",
    "K2": "5d498dfa540d3a780076283e31e87a930805f9aaf2947300cb5d39d5b166f0d5",
    "extremal(3, 6)": "e4e0c5f230e2bbfa91a655a398ab36b29393006205b052d75be98503700f85bd",
    "K(3, 19)": "f24db01afedb754fe0c4a71160eead3ba9ffc6dce68a2c44ae97556d4139823b",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _census_digests(capsys, tmp_path, max_n, jobs):
    out, csv = tmp_path / "census.json", tmp_path / "census.csv"
    code, _, _ = run(capsys, "census", "--max-n", max_n, "--jobs", jobs,
                     "--out", str(out), "--csv", str(csv))
    assert code == 0
    return _sha256(out.read_bytes()), _sha256(csv.read_bytes())


def test_reports_match_their_pinned_digests(tmp_path, capsys):
    """The order-10 census report and CSV, byte for byte."""
    assert _census_digests(capsys, tmp_path, "10", "1") == CENSUS_DIGESTS["10", "1"]


@pytest.mark.parametrize("suite", list(suites.SUITES))
def test_verify_at_its_defaults_echoes_the_suites_keyword_defaults(capsys, suite):
    """Each verify report at its defaults, byte for byte.  Its params are the
    suite's keyword defaults, with null for the options it does not read."""
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0 and _sha256(out.encode("ascii")) == VERIFY_DIGESTS[suite]
    defaults = suites.SUITES[suite].__kwdefaults__ or {}
    assert json.loads(out)["params"] == {name: defaults.get(name)
                                         for name in ("seed", "trials", "max_n")}


def test_verify_offers_the_suites_table_in_its_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--suite {" + ",".join(suites.SUITES) + "}" in capsys.readouterr().out
    assert set(VERIFY_DIGESTS) == set(suites.SUITES)


def test_lambda_reports_match_their_pinned_digests(tmp_path, capsys):
    """The three lambda reports on the atlas file, byte for byte."""
    order7 = tmp_path / "order7.g6"
    with open(ATLAS, encoding="ascii") as fh:
        order7.write_text("".join(line for line in fh if line.startswith("F")))
    for flags, digest in LAMBDA_DIGESTS.items():
        source = str(order7) if flags == ("--bounded", "3") else ATLAS
        code, out, _ = run(capsys, "lambda", source, *flags)
        assert code == 0 and _sha256(out.encode("ascii")) == digest, flags


def test_classify_reports_match_their_pinned_digests(tmp_path, capsys):
    """classify's reports, one graph and a list of them, byte for byte."""
    from locdom.families import complete_bipartite, extremal
    extremal36 = extremal(3, 6)
    inputs = {
        "census-8": [e.graph for e in run_census(8)] + [path(2), extremal36],
        "K2": [path(2)],
        "extremal(3, 6)": [extremal36],
        "K(3, 19)": [complete_bipartite(3, 19)],
    }
    f = tmp_path / "graphs.g6"
    outs = {}
    for name, digest in CLASSIFY_DIGESTS.items():
        f.write_text("".join(to_graph6(g) + "\n" for g in inputs[name]))
        code, outs[name], _ = run(capsys, "classify", str(f))
        assert code == 0 and _sha256(outs[name].encode("ascii")) == digest, name
    assert {row["relation"] for row in json.loads(outs["census-8"])} == {-1, 0, 1}


def test_every_json_report_re_encodes_to_itself(tmp_path, capsys):
    """Each command's JSON report is what json.dumps(indent=2) makes of its
    own parse, so a hand-laid writer that drifts from the encoder's layout
    fails here.  (The census report is checked in
    test_census_rows_match_the_json_encoder.)"""
    from conftest import trace_gadget
    from locdom.families import complete_bipartite, cycle, extremal
    files = {
        "one": [extremal(3, 6)],
        "several": [path(2), cycle(4), path(5), extremal(3, 6)],
        "partial": [path(5), complete_bipartite(3, 19)],
        "gadget": [trace_gadget()[0]],
    }
    for name, graphs in files.items():
        (tmp_path / name).write_text("".join(to_graph6(g) + "\n" for g in graphs))
    one, several, partial, gadget = (str(tmp_path / name) for name in files)
    for argv in (
        ["lambda", one], ["lambda", several], ["lambda", several, "--all-codes"],
        ["lambda", partial, "--bounded", "3"],
        ["classify", one], ["classify", several], ["classify", partial],
        ["assoc", gadget, "--set", "0,1,2,3,4", "--labels", "--subgraph", "0,1"],
        ["verify", "--suite", "table1"],
        ["verify", "--suite", "thm3", "--max-n", "5"],
        ["verify", "--suite", "parity", "--trials", "20", "--max-n", "6"],
        ["verify", "--suite", "cactus", "--trials", "20", "--max-n", "7"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n", argv


@pytest.mark.slow
def test_order_12_census_matches_its_pinned_digests(tmp_path, capsys):
    """Opt-in (pytest -m slow): the order-12 census on two workers, report
    and CSV, byte for byte."""
    assert _census_digests(capsys, tmp_path, "12", "2") == CENSUS_DIGESTS["12", "2"]
