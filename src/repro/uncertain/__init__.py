"""Uncertain graph substrate: data structure, construction, operations, I/O."""

from .builder import UncertainGraphBuilder, from_edge_triples, from_skeleton
from .graph import UncertainGraph, validate_probability
from .io import (
    from_json,
    from_networkx,
    read_edge_list,
    read_json,
    to_json,
    to_networkx,
    write_edge_list,
    write_json,
)
from .operations import (
    connected_components,
    filter_edges,
    largest_component,
    neighborhood_subgraph,
    prune_edges_below_alpha,
    prune_isolated_vertices,
)
from .statistics import (
    GraphSummary,
    degree_histogram,
    expected_degree_by_vertex,
    global_clustering_coefficient,
    probability_histogram,
    summarize,
)

__all__ = [
    "UncertainGraph",
    "validate_probability",
    "UncertainGraphBuilder",
    "from_skeleton",
    "from_edge_triples",
    "prune_edges_below_alpha",
    "prune_isolated_vertices",
    "filter_edges",
    "neighborhood_subgraph",
    "connected_components",
    "largest_component",
    "write_edge_list",
    "read_edge_list",
    "to_json",
    "from_json",
    "write_json",
    "read_json",
    "to_networkx",
    "from_networkx",
    "GraphSummary",
    "summarize",
    "degree_histogram",
    "probability_histogram",
    "expected_degree_by_vertex",
    "global_clustering_coefficient",
]
