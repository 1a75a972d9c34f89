"""districter: balanced, contiguous, compact partitioning of spatial
contiguity graphs, with a population-based solver, local-search baselines
and flip-chain samplers."""

from .errors import (ConfigError, DistricterError, EvaluationError,
                     GeometryError, InstanceError, InternalError,
                     NoFeasibleFlip)
from .geometry import (Polygon, ShapeStats, dissolve, point_in_polygon,
                       polsby_popper, polygon_area, polygon_perimeter,
                       unit_square)
from .graph import (LEVELS, ContiguityGraph, Plan, ValidationResult,
                    connected_components, is_connected, repair, validate_plan)
from .growth import guided_growth, init_population
from .instances import (Instance, build_instance, generate_grid_instance,
                        load_instance, load_plan, save_instance, save_plan)
from .local_search import (ChainSummary, FlipProposal, SearchConfig, Walk,
                           apply_flip, adjacent_territory_pairs,
                           flip_candidates, flip_is_feasible,
                           local_improvement_pass, propose_flip, run_chain)
from .memetic import (MemeticConfig, SpatialResult, SwapMove, mate_wheel,
                      recombine, select_mate, spatial_run)
from .objective import (ObjectiveConfig, PlanningReport, fitness,
                        objective_terms, objective_value, planning_report)
from .oracle import OracleResult, enumerate_feasible_plans, exhaustive_optimum

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DistricterError", "EvaluationError", "GeometryError",
    "InstanceError", "InternalError", "NoFeasibleFlip",
    "Polygon", "ShapeStats", "dissolve", "point_in_polygon", "polsby_popper",
    "polygon_area", "polygon_perimeter", "unit_square",
    "LEVELS", "ContiguityGraph", "Plan", "ValidationResult",
    "connected_components", "is_connected", "validate_plan",
    "guided_growth", "init_population",
    "Instance", "build_instance", "generate_grid_instance", "load_instance",
    "load_plan", "save_instance", "save_plan",
    "ChainSummary", "FlipProposal", "SearchConfig", "Walk", "apply_flip",
    "adjacent_territory_pairs", "flip_candidates", "flip_is_feasible",
    "local_improvement_pass", "propose_flip", "run_chain",
    "MemeticConfig", "SpatialResult", "SwapMove", "mate_wheel", "recombine",
    "repair", "select_mate", "spatial_run",
    "ObjectiveConfig", "PlanningReport", "fitness", "objective_terms",
    "objective_value", "planning_report",
    "OracleResult", "enumerate_feasible_plans", "exhaustive_optimum",
    "cli",
]
