import types

import locdom


def test_public_names_are_pinned():
    """The names the package exports, modules aside; removing or adding one
    is an API change and updates this list."""
    names = sorted(n for n in dir(locdom) if not n.startswith("_")
                   and not isinstance(getattr(locdom, n), types.ModuleType))
    assert names == [
        "AssociatedGraph", "Bipartition", "CactusStats", "CensusEntry",
        "ClassificationReport", "ConditionTriple", "Graph", "Graph6Error", "LDReport",
        "LabelSubgraph", "VertexSet", "banner", "bipartition", "bistar", "build_associated",
        "build_graph", "cactus_stats", "classify", "complement",
        "complete_bipartite", "component_trace_check", "condition_triple",
        "connected_bipartite_graphs", "connected_components", "corollary16_audit", "cycle",
        "delete_vertex", "edge_induced_subgraph", "export_dot", "extremal",
        "feasibility_window", "generate", "graph_from_traces", "induced_subgraph",
        "is_connected", "is_distinguishing", "is_dominating", "is_ld_set",
        "label_multiplicity", "label_subgraph", "lambda_bounded", "lambda_bruteforce",
        "ld_codes", "parity_audit", "parse_documents", "parse_edge_list", "parse_graph6",
        "path", "run_census", "star", "table1_expected", "to_edge_list", "to_graph6",
        "undominated_vertex",
    ]


def test_import_adds_only_locdom_and_standard_library_modules():
    """Importing the package and its command line, in a fresh interpreter,
    loads no third-party module: the package declares no dependencies.  Nor
    does it load dataclasses or the inspect module it pulls in, which were
    two thirds of the import's cost."""
    import json
    import os
    import subprocess
    import sys

    script = ("import json, sys; before = set(sys.modules); import locdom, locdom.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(locdom.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    added = json.loads(proc.stdout)
    assert "locdom.cli" in added
    assert [m for m in added if m != "locdom" and not m.startswith("locdom.")
            and m.partition(".")[0] not in sys.stdlib_module_names] == []
    assert "dataclasses" not in added and "inspect" not in added
