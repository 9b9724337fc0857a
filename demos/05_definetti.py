"""
Why reused devices look independent after enough conditioning
=============================================================

A device reused n times can correlate its uses arbitrarily, as long as later
inputs cannot reach earlier outputs.  The statistic T measures how far the
pair of boxes actually selected sits from the product of its marginals, after
conditioning on everything that came before the selected uses.  For an
exchangeable device (a mixture of i.i.d. behaviours) the early uses reveal
the mixture component, so T dies off as the selected use moves deeper.

Such a device is summed over the type classes of its realized uses, the
(output, input) counts, so n2 = 32 is as easy as n2 = 8.
"""

import numpy as np

from randamp.definetti import (
    ExchangeableMixture,
    block_sizes,
    definetti_check,
    definetti_rhs,
)
from randamp.sv import GreedyTowardString, HonestBits

# two opposite mostly-deterministic behaviours, mixed 50/50, shared by a
# single-use device and an n-use device
q0 = np.array([[0.9, 0.7], [0.1, 0.3]])
q1 = np.array([[0.1, 0.3], [0.9, 0.7]])

print("T at the deepest selection, by uses available for conditioning:")
for n2 in (1, 2, 4, 8, 16, 32):
    sweep = definetti_check(ExchangeableMixture((1, n2), [q0, q1], (0.5, 0.5)), HonestBits(), 0.0, [2.0])
    t_deepest = {sel: t_val for sel, _, t_val, _ in sweep.selections}[(1, n2)]
    print(f"  n2={n2:>2}:  T = {t_deepest:.3e}")

# the concentration threshold the protocol compares against, and the Markov
# budget for how much selection weight may exceed it
rhs = definetti_rhs((1, 8), (2.0,), 0.1, 2)
print()
print(f"threshold at n=(1,8), t=2, eps=0.1: {rhs.threshold:.4f}"
      f"  (budget for exceeding it: {rhs.probability_bound:.2f})")

system = ExchangeableMixture((1, 8), [q0, q1], (0.5, 0.5))
report = definetti_check(system, GreedyTowardString((0,), 0.1), 0.1, [2.0], pinsker=True)
print(f"swept {len(report.selections)} selections: max T {report.max_t:.4f},"
      f" weight above threshold {report.weighted_exceed_fraction:.4f}")
print(f"worst Pinsker slack over all conditionals: {report.pinsker_worst_slack:.2e}"
      " (<= 0 means it held everywhere)")

# baseline: a device that never mixes has nothing to reveal, so every
# selection is already an exact product
baseline = definetti_check(ExchangeableMixture((1, 8), [q0], (1.0,)), GreedyTowardString((0,), 0.1), 0.1, [2.0])
print(f"i.i.d. baseline (q0 alone): max T over {len(baseline.selections)} selections"
      f" {baseline.max_t:.4f}")

# the block-size recursion that makes the full-scale argument work; sizes
# explode quickly, which is why desk-scale checks stop at toy n
print()
for k, t in [(2, 2.0), (3, 1.0)]:
    print(f"recursion at eps=0, k={k}, t={t}: block sizes {block_sizes(0.0, k, t)}")
