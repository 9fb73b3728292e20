"""Thermal operations with a single-mode bosonic bath.

Construct energy-conserving system+mode unitaries as shell blocks, trace the
thermally occupied mode out into certified Kraus channels, and test the
resulting coherence limits and population cones.
"""

from .core import (
    BathSpec,
    SystemSpec,
    gibbs_state,
    renyi_divergence,
    trace_distance,
)
from .channels import (
    BlockUnitary,
    KrausChannel,
    a_vectors,
    choi_distance,
    cptp_deviation,
    exto_optimal_channel,
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
    elto_cone_sample,
    hull_margin,
    qubit_cto_check,
    qubit_to_segment,
    sto_cone_sample,
    to_membership,
    to_support,
    two_level_gibbs_stochastic,
)

__version__ = "0.1.0"
