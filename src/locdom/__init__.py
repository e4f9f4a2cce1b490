"""Exact toolkit for locating-dominating sets and bipartite complement analysis."""

from .associated import (
    AssociatedGraph,
    CactusStats,
    LabelSubgraph,
    build_associated,
    cactus_stats,
    component_trace_check,
    edge_induced_subgraph,
    label_multiplicity,
    label_subgraph,
    parity_audit,
)
from .bipartite import (
    CensusEntry,
    ClassificationReport,
    ConditionTriple,
    classify,
    condition_triple,
    connected_bipartite_graphs,
    corollary16_audit,
    feasibility_window,
    graph_from_traces,
    run_census,
)
from .families import (
    banner,
    bistar,
    complete_bipartite,
    cycle,
    extremal,
    generate,
    path,
    star,
    table1_expected,
)
from .graphio import (
    Graph6Error,
    export_dot,
    parse_documents,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)
from .graphs import (
    Bipartition,
    Graph,
    VertexSet,
    bipartition,
    build_graph,
    complement,
    connected_components,
    delete_vertex,
    induced_subgraph,
    is_connected,
)
from .ld import (
    LDReport,
    is_distinguishing,
    is_dominating,
    is_ld_set,
    lambda_bounded,
    lambda_bruteforce,
    ld_codes,
    undominated_vertex,
)

__version__ = "0.1.0"
