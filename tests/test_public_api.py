"""The public names of the package, pinned.

Adding or removing a public name must edit this list, and a removal must be
recorded in CHANGES.md.  `__all__` is written out by hand, so it lists
neither the submodules the package imports nor `annotations`.
"""
from __future__ import annotations

import treecolor

PUBLIC_NAMES = [
    "BetaTvReport", "BiasReport", "CapacityError", "ColorDistribution",
    "CouplingPair", "DynamicsState", "Estimate", "ExperimentConfig",
    "FullColoring", "InfeasibleBoundaryError", "InfeasibleChannelError",
    "NonErgodicChainError", "PartialLeafColoring", "RandomSource", "RegimeError",
    "RunRecord", "TailEstimate", "TransitionMatrix", "TreeShape",
    "TreecolorError", "UnbiasingParams", "ValidationError",
    "build_transition_matrix", "channel_tv_bound",
    "check_concentration_reduction", "children", "concentration_tail",
    "conditional_entropy", "count_extensions", "coupled_leaf_rows",
    "disagreement_counts", "down_up_matrix", "downward_couple",
    "emit_decay_curve", "entropy_functional", "entropy_ratio_report",
    "epsilon_from", "estimate_alpha", "estimate_beta_tv",
    "estimate_hamming", "estimate_q", "exact_bias",
    "hamming_tail", "heat_bath_block", "initial_state",
    "interpolation_path", "interpolation_tv_report", "is_allowed",
    "is_allowed_batch", "is_highly_unbiasing", "is_proper", "is_unbiasing",
    "local_entropy_sum", "mixing_time_exact", "restrict_to_subtree",
    "root_marginal", "root_marginal_bruteforce", "run_chain", "run_experiment",
    "sample_down_up", "sample_full", "sample_leaf_rows",
    "sample_leaves_given_root", "single_disagreement_report", "star_out",
    "state_space_size", "stationary_and_gap", "step",
    "tv_distance", "tv_root", "upward_channel_tv",
    "vertex_conditional_marginal", "wilson95",
]


def test_public_names_are_pinned():
    assert sorted(treecolor.__all__) == PUBLIC_NAMES
    assert all(hasattr(treecolor, name) for name in treecolor.__all__)
