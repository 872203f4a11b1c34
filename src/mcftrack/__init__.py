"""Multi-object tracking by sliding-window min-cost multi-commodity flow.

Data association over each window is solved by column generation on the
path-flow master problem, with a sub-optimality certificate per window;
appearance similarity is a bilinear form learned online with
passive-aggressive updates.
"""

from .colgen import (
    CGResult,
    ColgenError,
    PathColumn,
    PricingTables,
    column_generation,
    extract_integer,
    lagrangian_lower_bound,
    optimality_check,
    price,
)
from .costs import (
    CostConfig,
    CostVector,
    assemble_cost_vector,
    assemble_cost_vectors,
    iou,
    predict_box,
)
from .graph import (
    Box,
    Detection,
    EdgeKind,
    FlowNetwork,
    GatingConfig,
    build_network,
    network_from_parts,
    permissible_transitions,
)
from .io import (
    ParseError,
    Scenario,
    ScenarioError,
    extract_feature,
    load_instance,
    parse_scenario,
    read_detections,
    read_tracks,
    save_instance,
    synth_generate,
    write_detections,
    write_tracks,
)
from .lp import LPProblem, LPSolution, solve_lp
from .metrics import MetricsReport, clear_mot
from .oracle import OracleLimitError, brute_force_ilp, enumerate_paths
from .simlearn import (
    DegenerateTripletError,
    SimilarityModel,
    Triplet,
    TripletSet,
    build_triplets,
    hinge_loss,
    load_model,
    pa_update,
    save_model,
    similarity,
    update_model,
)
from .tracker import (
    CommitRecord,
    ConfigError,
    OnlineTracker,
    TrackerConfig,
    Trajectory,
    WindowDiagnostics,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CGResult",
    "ColgenError",
    "CommitRecord",
    "ConfigError",
    "CostConfig",
    "CostVector",
    "DegenerateTripletError",
    "Detection",
    "EdgeKind",
    "FlowNetwork",
    "GatingConfig",
    "LPProblem",
    "LPSolution",
    "MetricsReport",
    "OnlineTracker",
    "OracleLimitError",
    "ParseError",
    "PathColumn",
    "PricingTables",
    "Scenario",
    "ScenarioError",
    "SimilarityModel",
    "TrackerConfig",
    "Trajectory",
    "Triplet",
    "TripletSet",
    "WindowDiagnostics",
    "assemble_cost_vector",
    "assemble_cost_vectors",
    "brute_force_ilp",
    "build_network",
    "build_triplets",
    "clear_mot",
    "column_generation",
    "extract_feature",
    "extract_integer",
    "hinge_loss",
    "iou",
    "lagrangian_lower_bound",
    "load_instance",
    "load_model",
    "network_from_parts",
    "optimality_check",
    "pa_update",
    "parse_scenario",
    "permissible_transitions",
    "predict_box",
    "price",
    "read_detections",
    "read_tracks",
    "run",
    "save_instance",
    "save_model",
    "similarity",
    "solve_lp",
    "synth_generate",
    "update_model",
    "write_detections",
    "write_tracks",
    "__version__",
]
