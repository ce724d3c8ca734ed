"""Numerical laboratory for Gibbs posterior excess-risk bounds.

The package evaluates every computable quantity of the distribution-
dependent excess-risk theory for Gibbs learners — effective dimensions,
Taylor error envelopes, minima distributions, ellipsoid masses, localized
and global bounds — on analytic non-convex landscapes, and checks each
formula against independent quadrature and Monte-Carlo oracles.
"""

from .bounds import (
    BoundReport,
    ComplementMassBound,
    EllipsoidMassBounds,
    GibbsConfig,
    MinimaDistribution,
    complement_mass_bound,
    effective_dimension,
    ellipsoid_mass_bounds,
    generalization_bound,
    global_excess_bound,
    local_excess_bound,
    minima_distribution,
    pseudo_excess_bound,
    taylor_approximation_error,
    tune_radius,
)
from .errors import (
    ArgumentError,
    ConditioningError,
    ConfigError,
    ContractError,
    DegenerateCurvatureError,
    DivergenceError,
    DomainError,
    GibbslabError,
    LandscapeDefinitionError,
    RadiusError,
    ResolutionError,
    SamplerKindError,
)
from .landscapes import (
    BUILTIN_DATA_MODELS,
    BUILTIN_LANDSCAPES,
    DataModel,
    EllipsoidSpec,
    Landscape,
    MinimumDescriptor,
    RiskJet,
    constant_loss_data_model,
    disjoint_radius,
    double_well_landscape,
    empirical_landscape,
    enumerate_minima,
    lipschitz_estimate,
    make_data_model,
    make_landscape,
    quadratic_landscape,
    risk_jet,
    rls_data_model,
    spline_double_well_landscape,
)
from .oracles import (
    DerivativeCheckReport,
    Estimate,
    QuadratureGrid,
    QuadratureMeasure,
    derivative_check,
    empirical_excess_risk,
    empirical_generalization_gap,
    irm_objective,
    quadrature_measure,
    tensor_gauss_legendre,
)
from .samplers import (
    CHAIN_KINDS,
    ChainBatch,
    GibbsTarget,
    chain_seed,
    condition_on_region,
    default_step_size,
    sample_chain,
    target_from_landscape,
)
from .specfun import (
    ball_mass_rate,
    chi2_cdf,
    chi2_cdf_ratio,
    gaussian_region_integral,
    regularized_gamma_P,
    regularized_gamma_lower,
    truncated_quadratic_moment,
)

__version__ = "0.1.0"
