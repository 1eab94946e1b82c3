"""Online graph exploration, light spanners, generators and oracles."""

from .core import (
    EdgeSubset,
    Graph,
    as_fraction,
    fundamental_cycle,
    minimum_spanning_tree,
    mst_maximizing_overlap,
    restrict,
)
from .errors import (
    DegenerateCombWarning,
    DegenerateInstanceError,
    GenerationError,
    GraphStructureError,
    InvariantViolation,
    OnlinePurityError,
    ParseError,
    ResourceGuardError,
    StateError,
)
from .instances import (
    BuiltInstance,
    InstanceSpec,
    build_instance,
    gen_comb_lower_bound,
    gen_erdos_renyi,
    gen_grid,
    gen_random_planar,
    gen_random_tree,
    gen_toroidal_grid,
    graph_to_text,
    read_graph,
    write_graph,
)
from .exploration import (
    ExplorationParams,
    ExplorationState,
    TraversalLog,
    TraversalStep,
    TraversalSteps,
    run_blocking,
    run_nearest_neighbor,
    taken_union_mst,
    verify_blocking_cycle_property,
    verify_cost_chain,
)
from .spanner import (
    SpannerResult,
    greedy_spanner,
    lightness,
    verify_mst_containment,
    verify_spanner_minimality,
    verify_spanner_stretch,
)
from .oracle import (
    TourResult,
    brute_force_exploration,
    brute_force_optspan,
    brute_force_optspan_edges,
    enumerate_cycles_check,
    exact_tsp,
    is_blocked,
    mst_bounds,
    reference_blocking,
)
from .experiments import (
    AlgorithmSpec,
    ExperimentConfig,
    competitive_bound,
    dyadic_log2,
    lightness_bound,
    resolve_delta,
    run_explore,
    run_spanner,
    run_verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
