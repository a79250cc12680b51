"""polylearn: learning polytopes from approximate optimization oracles.

Library layout:

    geometry   hull distances, Hausdorff distance, diameters, separation
    oracles    direction-query oracles (exact, noisy, subset smoothing, needle)
    rsh        random separating hyperplanes and separation-from-optimization
    learner    random probes, hull learning, vertex list learning
    softhull   soft convex hulls and envelope extraction
    kolp       SVD projection and the full prune-to-k pipeline
    datagen    synthetic latent-polytope instances and fixed fixtures
    cli        file formats and the command-line interface
"""

from .config import DEFAULT_CONSTANTS, Constants, parse_constants
from .datagen import (
    LkpInstance,
    example1_segment,
    example2_sphere,
    fixtures,
    gen_lkp,
    gen_two_gaussian_mixture,
    gen_well_separated_polytope,
    spectral_norm,
)
from .geometry import (
    PointMatrix,
    SimplexCoeffs,
    VPolytope,
    as_point_matrix,
    diameter,
    dist_to_hull,
    hausdorff,
    hull_membership,
    well_separation,
)
from .kolp import (
    KolpOutput,
    ProjectedOracleAudit,
    PruneError,
    SvdProjection,
    audit_projected_oracle,
    kolp_run,
    prune_to_k,
    svd_project,
)
from .learner import (
    LearnReport,
    ProbeSet,
    hausdorff_learn,
    list_learn,
    random_probes,
    recommended_probe_count,
)
from .oracles import (
    ExactOracle,
    NeedleOracle,
    NoisyOracle,
    OptOracle,
    OracleAudit,
    SubsetSmoothingOracle,
    audit_answer,
    exact_oracle,
    find_consistent_needles,
    needle_oracle,
    noisy_oracle,
    subset_smoothing_oracle,
)
from .rsh import (
    RshEstimate,
    SeparationResult,
    SeparationVerdict,
    estimate_rsh_probability,
    margin,
    margin_threshold_factor,
    normalized_margin_samples,
    recommended_query_budget,
    rsh_lower_bound,
    separate_via_opt,
)
from .softhull import (
    EnvelopeParams,
    EnvelopeResult,
    find_soft_envelope,
    in_soft_hull,
    is_env,
    is_eps_delta_env,
)

__version__ = "0.1.0"

__all__ = [
    "Constants",
    "DEFAULT_CONSTANTS",
    "parse_constants",
    "PointMatrix",
    "VPolytope",
    "SimplexCoeffs",
    "as_point_matrix",
    "diameter",
    "dist_to_hull",
    "hull_membership",
    "hausdorff",
    "well_separation",
    "OptOracle",
    "ExactOracle",
    "NoisyOracle",
    "SubsetSmoothingOracle",
    "NeedleOracle",
    "OracleAudit",
    "exact_oracle",
    "noisy_oracle",
    "subset_smoothing_oracle",
    "needle_oracle",
    "audit_answer",
    "find_consistent_needles",
    "RshEstimate",
    "SeparationVerdict",
    "SeparationResult",
    "margin",
    "margin_threshold_factor",
    "rsh_lower_bound",
    "estimate_rsh_probability",
    "normalized_margin_samples",
    "separate_via_opt",
    "recommended_query_budget",
    "ProbeSet",
    "LearnReport",
    "random_probes",
    "hausdorff_learn",
    "list_learn",
    "recommended_probe_count",
    "EnvelopeParams",
    "EnvelopeResult",
    "in_soft_hull",
    "is_env",
    "is_eps_delta_env",
    "find_soft_envelope",
    "SvdProjection",
    "KolpOutput",
    "PruneError",
    "ProjectedOracleAudit",
    "svd_project",
    "prune_to_k",
    "kolp_run",
    "audit_projected_oracle",
    "LkpInstance",
    "spectral_norm",
    "gen_well_separated_polytope",
    "gen_lkp",
    "gen_two_gaussian_mixture",
    "fixtures",
    "example1_segment",
    "example2_sphere",
]
