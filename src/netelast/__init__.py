"""Network elasticity toolkit.

Measures how gracefully a network's shortest-path throughput degrades as
nodes or links are removed (targeted or random, seeded), and provides the
companion diagnostics used to contextualize that score: Laplacian spectra
and algebraic connectivity, degree assortativity, and degree distributions.
"""

from .attacks import (
    STRATEGIES,
    AttackPlan,
    plan_random_links,
    plan_random_nodes,
    plan_targeted_degree,
)
from .engine import (
    DEFAULT_MAX_REMOVAL,
    DEFAULT_STEPS,
    DEFAULT_TRIALS,
    AveragedSweep,
    ElasticityResult,
    ThroughputCurve,
    area_under_curve,
    averaged_elasticity,
    elasticity,
    sweep,
)
from .generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    generate,
    grid_graph,
    parse_generator_spec,
    path_graph,
    scale_free_ba,
    star_graph,
    wheel_graph,
)
from .graph import (
    ComponentLabeling,
    EdgeListParseError,
    Graph,
    connected_components,
    dump_edge_list,
    load_edge_list,
    make_graph,
    remove_links,
    remove_nodes,
)
from .metrics import (
    DegreeHistogram,
    MetricsSummary,
    assortativity,
    degree_histogram,
    summarize,
)
from .routing import (
    DEFAULT_MODE,
    MODES,
    FlowAssignment,
    normalized_throughput,
    route_all_pairs,
    throughput,
)
from .spectral import (
    DEFAULT_SIZE_GUARD,
    SizeGuardError,
    SpectralSummary,
    algebraic_connectivity,
    eigenvalues,
    laplacian,
)

__version__ = "0.1.0"

__all__ = [
    "AttackPlan",
    "AveragedSweep",
    "ComponentLabeling",
    "DEFAULT_MAX_REMOVAL",
    "DEFAULT_MODE",
    "DEFAULT_SIZE_GUARD",
    "DEFAULT_STEPS",
    "DEFAULT_TRIALS",
    "DegreeHistogram",
    "EdgeListParseError",
    "ElasticityResult",
    "FlowAssignment",
    "Graph",
    "MODES",
    "MetricsSummary",
    "STRATEGIES",
    "SizeGuardError",
    "SpectralSummary",
    "ThroughputCurve",
    "algebraic_connectivity",
    "area_under_curve",
    "assortativity",
    "averaged_elasticity",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "degree_histogram",
    "dump_edge_list",
    "eigenvalues",
    "elasticity",
    "erdos_renyi",
    "generate",
    "grid_graph",
    "laplacian",
    "load_edge_list",
    "make_graph",
    "normalized_throughput",
    "parse_generator_spec",
    "path_graph",
    "plan_random_links",
    "plan_random_nodes",
    "plan_targeted_degree",
    "remove_links",
    "remove_nodes",
    "route_all_pairs",
    "scale_free_ba",
    "star_graph",
    "summarize",
    "sweep",
    "throughput",
    "wheel_graph",
]
