import json
import sys

import pytest

from locdom import bipartite
from locdom.cli import main
from locdom.families import path
from locdom.graphio import to_edge_list, to_graph6


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


def test_classify_command(tmp_path, capsys):
    from locdom.families import extremal
    f = tmp_path / "g.g6"
    f.write_text(to_graph6(extremal(3, 6).graph) + "\n")
    code, out, _ = run(capsys, "classify", str(f))
    rep = json.loads(out)
    assert code == 0
    assert rep["relation"] == 1 and rep["predicted_plus_one"] is True
    assert rep["conditions"] == {"c1": True, "c2": True, "c3": True, "c3_twin_form": True}


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


def test_family_emit_edges(capsys):
    code, out, _ = run(capsys, "family", "bistar", "--r", "3", "--s", "3", "--emit", "edges")
    assert code == 0
    assert out.splitlines()[0] == "6 5"


def test_family_bad_parameters(capsys):
    code, _, err = run(capsys, "family", "cycle", "--n", "2")
    assert code == 2 and "n >= 3" in err


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


def test_census_over_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "census", "--max-n", "21")
    assert code == 2 and out == ""
    assert err.startswith("locdom: error:") and "cap of 20" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_n", ["19", "20"])
def test_census_beyond_the_relabeling_tables_is_a_usage_error(capsys, monkeypatch, max_n):
    """Orders that reach r = 9 are refused before any relabeling table is built."""
    def refuse(r):
        raise AssertionError(f"_perm_tables({r}) was called")

    monkeypatch.setattr(bipartite, "_perm_tables", refuse)
    code, out, err = run(capsys, "census", "--max-n", max_n)
    assert code == 2 and out == ""
    assert err.startswith("locdom: error:") and "r = 9" in err and "r <= 8" in err
    assert "Traceback" not in err


def test_lambda_over_cap_names_the_bounded_option(tmp_path, capsys):
    f = tmp_path / "p21.g6"
    f.write_text(to_graph6(path(21)) + "\n")
    code, out, err = run(capsys, "lambda", str(f))
    assert code == 2 and out == ""
    assert err.startswith("locdom: error:") and "locdom lambda --bounded K" in err
    code, out, _ = run(capsys, "lambda", str(f), "--bounded", "9")
    assert code == 0 and json.loads(out)["size"] == 9


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
])
def test_verify_random_suite_out_of_range_is_a_usage_error(capsys, suite, args, message):
    code, out, err = run(capsys, "verify", "--suite", suite, *args)
    assert code == 2 and out == ""
    assert err == f"locdom: error: {message}\n"


def test_verify_thm3_on_a_damaged_atlas_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from locdom import suites
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
