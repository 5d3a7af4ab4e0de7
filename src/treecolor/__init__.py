"""Colorings of complete trees: exact root marginals, broadcast sampling,
couplings, unbiasing classification, and heat-bath block dynamics."""
from __future__ import annotations

__version__ = "0.1.0"

from .broadcast_sampler import (
    sample_block_counts,
    sample_down_up,
    sample_full,
    sample_leaf_rows,
    sample_leaves_given_root,
)
from .couplings import (
    BetaTvReport,
    CouplingPair,
    channel_tv_bound,
    check_concentration_reduction,
    concentration_tail,
    coupled_leaf_rows,
    disagreement_counts,
    downward_couple,
    estimate_alpha,
    estimate_beta_tv,
    estimate_hamming,
    hamming_tail,
    interpolation_path,
    interpolation_tv_report,
    single_disagreement_report,
    upward_channel_tv,
)
from .dynamics import (
    DynamicsState,
    TransitionMatrix,
    build_transition_matrix,
    conditional_entropy,
    entropy_functional,
    entropy_ratio_report,
    heat_bath_block,
    initial_state,
    local_entropy_sum,
    mixing_time_exact,
    run_chain,
    stationary_and_gap,
    state_space_size,
    step,
)
from .errors import (
    CapacityError,
    InfeasibleBoundaryError,
    InfeasibleChannelError,
    NonErgodicChainError,
    RegimeError,
    TreecolorError,
    ValidationError,
)
from .estimators import Estimate, TailEstimate, wilson95
from .exact_engine import (
    BiasReport,
    ColorDistribution,
    count_extensions,
    down_up_matrix,
    exact_bias,
    root_marginal,
    root_marginal_bruteforce,
    tv_distance,
    tv_root,
    vertex_conditional_marginal,
)
from .harness import ExperimentConfig, RunRecord, emit_decay_curve, run_experiment
from .rng import RandomSource
from .tree_model import (
    FullColoring,
    PartialLeafColoring,
    TreeShape,
    children,
    is_allowed,
    is_allowed_batch,
    is_proper,
    restrict_to_subtree,
)
from .unbiasing import (
    UnbiasingParams,
    epsilon_from,
    estimate_q,
    is_highly_unbiasing,
    is_unbiasing,
    star_out,
)

__all__ = [
    "sample_block_counts", "sample_down_up", "sample_full", "sample_leaf_rows",
    "sample_leaves_given_root",
    "BetaTvReport", "CouplingPair", "channel_tv_bound", "check_concentration_reduction",
    "concentration_tail", "coupled_leaf_rows", "disagreement_counts", "downward_couple",
    "estimate_alpha", "estimate_beta_tv", "estimate_hamming", "hamming_tail",
    "interpolation_path", "interpolation_tv_report", "single_disagreement_report",
    "upward_channel_tv",
    "DynamicsState", "TransitionMatrix", "build_transition_matrix",
    "conditional_entropy", "entropy_functional", "entropy_ratio_report",
    "heat_bath_block", "initial_state", "local_entropy_sum", "mixing_time_exact",
    "run_chain", "stationary_and_gap", "state_space_size", "step",
    "CapacityError", "InfeasibleBoundaryError", "InfeasibleChannelError",
    "NonErgodicChainError", "RegimeError", "TreecolorError", "ValidationError",
    "Estimate", "TailEstimate", "wilson95",
    "BiasReport", "ColorDistribution", "count_extensions", "down_up_matrix",
    "exact_bias", "root_marginal", "root_marginal_bruteforce", "tv_distance", "tv_root",
    "vertex_conditional_marginal",
    "ExperimentConfig", "RunRecord", "emit_decay_curve", "run_experiment",
    "RandomSource",
    "FullColoring", "PartialLeafColoring", "TreeShape", "children", "is_allowed",
    "is_allowed_batch", "is_proper", "restrict_to_subtree",
    "UnbiasingParams", "epsilon_from", "estimate_q", "is_highly_unbiasing",
    "is_unbiasing", "star_out",
]
