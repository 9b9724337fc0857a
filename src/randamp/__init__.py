"""Randomness amplification from weak sources via a four-party Bell test.

Library layout: `boxes` (inequality and no-signaling geometry), `quantum`
(the algebraically violating realization), `sv` (adversarial weak sources),
`lp`/`simplex` (predictability certification), `definetti` (product-closeness
on small systems), `devices`/`protocol` (the protocol itself and its bounds),
`cli` (command-line front end).
"""

__version__ = "0.1.0"

from .boxes import (
    BELL_FUNCTIONAL,
    INEQUALITY_SETTINGS,
    U0,
    U1,
    BoxValidationError,
    NsBox,
    algebraic_violation_box,
    bell_functional,
    bell_value,
    enumerate_local_deterministic_boxes,
    is_no_signaling,
    lhv_minimum,
    local_deterministic_box,
    mixed_with_uniform,
    parity_box,
    uniform_box,
)
from .definetti import (
    DeFinettiReport,
    JointBoxSystem,
    block_sizes,
    definetti_check,
    definetti_rhs,
    exchangeable_mixture,
    iid_system,
    pinsker_gap,
    t_statistic,
    t_statistic_levels,
)
from .devices import (
    DeviceError,
    IidDevice,
    MixtureDevice,
    SequenceDevice,
    TimeOrderedDevice,
    ZeroProbabilityHistoryError,
    condition_device,
)
from .lp import (
    CertificationError,
    CertificationReport,
    LpInstance,
    LpSolution,
    adversarial_box,
    analytic_bound,
    certify_bound,
    solve,
)
from .protocol import (
    DistanceReport,
    EmpiricalBiasReport,
    ProtocolParams,
    ProtocolResult,
    RunTranscript,
    acceptance_threshold,
    azuma_rejection_bound,
    distance_d,
    estimate_output_bias,
    proposition_bound,
    robustness_acceptance_bound,
    robustness_threshold,
    run_protocol,
    xor_bias_bound,
)
from .quantum import NoiseSpec, born_box, build_state, noisy_box, xz_bases
from .sv import (
    ConstantBias,
    GreedyTowardString,
    HonestBits,
    SettingSteering,
    StrategyViolationError,
    SvTranscript,
    draw_index,
    draw_setting,
    exact_bitstring_distribution,
)
