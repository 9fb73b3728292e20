"""Thermal operations with a single-mode bosonic bath.

Construct energy-conserving system+mode unitaries as shell blocks, trace the
thermally occupied mode out into certified Kraus channels, and test the
resulting coherence limits and population cones.
"""

from .core import (
    BathSpec,
    DensityMatrix,
    ModeSet,
    SystemSpec,
    gibbs_state,
    mode_decompose,
    populations,
    renyi_divergence,
    time_translate,
    trace_distance,
)
from .channels import (
    AVectors,
    BlockUnitary,
    KrausChannel,
    TransitionMatrix,
    a_vectors,
    beta_swap_qubit,
    choi_distance,
    coherence_transfer,
    cptp_deviation,
    exto_optimal_channel,
    identity_blocks,
    qubit_optimal_sto,
    random_blocks,
    shell_sto_channel,
    simultaneous_beta_swap_kraus,
    simultaneous_beta_swap_sto,
    sto_channel,
    sto_population_matrix,
    transition_matrix,
    verify_covariant,
    verify_gibbs_preserving,
)
from .bounds import (
    decoupling_witness,
    merge_down_bound,
    merge_up_bound,
    overlap_merge_bounds,
    qubit_damping_bound,
    saturation_check,
    symmetric_bound,
)
from .cones import (
    ConeApprox,
    cone_from_json,
    elto_cone_sample,
    hull_margin,
    qubit_cto_check,
    qubit_to_segment,
    solve_lp,
    sto_cone_sample,
    to_membership,
    to_support,
    two_level_gibbs_stochastic,
)

__version__ = "0.1.0"
