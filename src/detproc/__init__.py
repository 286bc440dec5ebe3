"""Exact determinantal point processes on finite ground sets.

Density evaluation, exact sampling, Hellinger geometry with verified
distance inequalities, and robust-test model selection, all at desk scale
(2^p enumeration) so every approximate route has an exact oracle.
"""

__version__ = "0.1.0"

from .core import (
    Config,
    DensityTable,
    DppDensity,
    GroundSet,
    KernelMatrix,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    correlation,
    density_table,
    dpp_density_eval,
    gaussian,
    haar_orthonormal,
    haar_orthonormal_many,
    inclusion_probabilities,
    kernel_from_params,
    l_ensemble_oracle,
    mixture_weight,
    normalization_check,
    projection_density_eval,
    random_spectrum,
)
from .hellinger import (
    BoundReport,
    bernoulli_weight_hellinger,
    check_bound_dpp,
    check_bound_mixture,
    check_bound_projection,
    gplus_delta,
    hellinger,
    wedge_coords,
)
from .rng import SeededRng
from .sampling import (
    SampleSet,
    empirical_table,
    sample_dpp,
    sample_table,
    total_variation,
)
from .estimator import (
    CandidateCaps,
    CandidateFamily,
    SelectionResult,
    SphereNet,
    SubspaceModel,
    build_candidates,
    nearest_orthonormal,
    oracle_bound,
    select,
    sphere_approx,
    sphere_net,
    test_statistic,
)
from .experiments import (
    BoundsSweepConfig,
    IsometrySweepConfig,
    RiskCurveConfig,
    SamplerCheckConfig,
    run_bounds_sweep,
    run_isometry_sweep,
    run_risk_curve,
    run_sampler_check,
)
