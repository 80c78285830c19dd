"""priorlab: a simulation and verification workbench for minimax prior
estimation over finite VC concept classes, with an Empirical-Bayes
preference-elicitation simulator on top."""

__version__ = "0.1.0"

from .concepts import (
    Concept,
    ConceptSpace,
    DataDistribution,
    enumerate_concepts,
    rho,
    uniform_distribution,
    verify_vc_dimension,
)
from .priors import (
    CoverFamily,
    PartitionSmoothedPrior,
    SmoothPriorParams,
    TabularPrior,
    cover_of_family,
    cover_priors,
    density,
    holder_check,
    reference_prior,
    smooth_prior,
    smooth_projection,
    parity_family,
    total_variation,
)
from .outcomes import (
    OutcomeDistribution,
    exact_outcome_dist,
    label_conditional_tv,
    tv,
    verify_lemma_chain,
    verify_sqrt_bound,
    verify_tree_inequality,
)
from .estimators import (
    ReductionEstimate,
    SkeletonEstimator,
    coin_floor,
    exact_bayes_error,
    majority_rule,
    reduce_to_signs,
)
from .ratelab import (
    ExperimentConfig,
    RateCurve,
    coin_bound_table,
    fit_rate_exponent,
    run_lower_experiment,
    run_upper_experiment,
)
from .elicitation import (
    FamilyOutcomeModel,
    Menu,
    SatisfactionFunction,
    ScheduleRDelta,
    ValuationPriorFamily,
    calibrate_schedule,
    estimate_Q,
    method_A,
    method_A_prime,
    presence_family,
    run_algorithm1,
)
