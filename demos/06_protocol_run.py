"""
Running the full protocol, honestly and adversarially
=====================================================

One run: k devices each produce n kept uses; every use consumes one
source-drawn inequality setting; the score z_k averages the functional hits;
accept if z_k stays under the threshold; the source then selects one use per
device and the output bit is the XOR of the majority bits there.

Estimated acceptance rates below come with ~0.5% Monte Carlo error.
"""

import numpy as np

from randamp.boxes import algebraic_violation_box, bell_value, mixed_with_uniform
from randamp.devices import IidDevice
from randamp.lp import analytic_bound
from randamp.protocol import (
    ProtocolParams,
    acceptance_threshold,
    estimate_output_bias,
    run_protocol,
    xor_bias_bound,
)
from randamp.quantum import born_box, build_state, xz_bases
from randamp.sv import GreedyTowardString, HonestBits

params = ProtocolParams(epsilon=0.1, delta=0.8, mu=0.9, k=50)
print(f"eps=0.1, delta=0.8, mu=0.9, k=50:"
      f" acceptance threshold {acceptance_threshold(params):.6f}")

rng = np.random.default_rng(1)
qbox = born_box(build_state(), xz_bases())

# a single run, in full detail
result, transcript = run_protocol(
    params, [IidDevice(qbox)] * params.k, GreedyTowardString((0,), 0.1), rng
)
print(f"one honest run: z_k={result.z_k}, accepted={result.accepted},"
      f" output bit={result.output_bit}")

# honest devices pass essentially always; devices at the local bound fail
trials = 10_000
for label, box in [
    ("honest quantum ", qbox),
    ("Bell value 0.8 ", mixed_with_uniform(algebraic_violation_box(), 0.2)),
    ("classical noise", mixed_with_uniform(algebraic_violation_box(), 1.0)),
]:
    adversary = [(1.0, lambda: [IidDevice(box)] * params.k, HonestBits())]
    rate = estimate_output_bias(params, adversary, trials, seed=2).acceptance_rate
    print(f"{label} (B={bell_value(box):.1f}): acceptance {rate:.4f}")

# output-bit audit against the greedy source: distance from a fair bit.  On
# i.i.d. devices the audit draws its counts as one multinomial, so 10^9 runs
# cost no more than ten; the XOR-composed per-device guessing bound is far
# below what even that many runs resolve.
report = estimate_output_bias(
    params,
    [(1.0, lambda: [IidDevice(qbox)] * params.k, GreedyTowardString((0,), 0.1))],
    10**9,
    seed=3,
)
bound = xor_bias_bound([analytic_bound(0.0)] * params.k)
print()
print(f"output bit over {report.per_symbol[0][1]:,} accepted runs:"
      f" d = {report.d:.2e} +- {report.d_std_error:.1e}"
      f" (composable d_c = {report.d_c:.2e});"
      f" XOR bound 2^{params.k - 1} (11/32)^{params.k} = {bound:.2e}")
print("the same numbers are available from the command line:")
print("  randamp simulate --config sim.json --out runs/")
print("  randamp certify --config cert.json")
