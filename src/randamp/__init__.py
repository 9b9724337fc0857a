"""Randomness amplification from weak sources via a four-party Bell test.

Library layout: `boxes` (inequality and no-signaling geometry), `quantum`
(the algebraically violating realization), `sv` (adversarial weak sources),
`lp`/`simplex` (predictability certification), `definetti` (product-closeness
of exchangeable mixtures, summed over type classes), `devices` (i.i.d. and
mixture devices; any custom `TimeOrderedDevice` runs on the general engine),
`protocol` (the protocol itself, its bounds and the output-bias audit), `cli`
(command-line front end).  Only what the CLI and the demos use lives here;
test fixtures and reference oracles live in the test suite.
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
    ExchangeableMixture,
    block_sizes,
    definetti_check,
    definetti_rhs,
)
from .devices import (
    DeviceError,
    IidDevice,
    MixtureDevice,
    TimeOrderedDevice,
    ZeroProbabilityHistoryError,
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
    bit_probabilities,
    code_law,
    draw_index,
    draw_setting,
)
