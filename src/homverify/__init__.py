"""Exact homomorphism counting and inequality verification for colorings,
independent sets and Widom-Rowlinson configurations on small graphs."""

from .graphs import (
    Bipartition,
    Graph,
    ParseError,
    TargetGraph,
    bipartition,
    complete_bipartite,
    complete_graph,
    complete_target,
    connected_components,
    cube_graph,
    cycle_graph,
    empty_graph,
    girth,
    greedy_cycle_packing,
    hard_core_target,
    identify_vertices,
    parse_graph,
    parse_target,
    path_graph,
    to_edgelist,
    to_graph6,
    widom_rowlinson_target,
)
from .counting import (
    ChromPoly,
    ListConstraint,
    SizeGuardError,
    SpectralData,
    chrom_eval,
    chrom_poly,
    cycle_chrom_formula,
    cycle_hom_spectral,
    hom_count,
    ind_count,
    path_ind_fib,
    spectral_data,
    tree_hom_lower_bound,
    wr_count,
)
from .verify import Report, check_edge_ratio, check_sidorenko_bound, free_energy_gap
from .search import Counterexample, ScanResult, edge_mono_scan, enumerate_graphs, find_counterexample

__version__ = "0.1.0"
