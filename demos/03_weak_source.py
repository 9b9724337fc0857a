"""
What an epsilon-biased source can and cannot do
===============================================

Every bit may lean on the full history, but never further than epsilon from
fair.  The library enforces that promise when it reads a source's per-bit
law: a strategy asking for more is rejected, not clamped.
"""

import numpy as np

from randamp.sv import (
    ConstantBias,
    GreedyTowardString,
    HonestBits,
    SettingSteering,
    StrategyViolationError,
    bit_probabilities,
    code_law,
    string_probability_bounds,
)

eps = 0.1

lo, hi = string_probability_bounds(eps, 4)
print(f"any 4-bit string at eps={eps}: probability in [{lo:.4f}, {hi:.4f}]")
print(f"(a fair source would give {2**-4:.4f} always)")

# hardest push toward 0000: each bit takes the full allowance; these biases
# depend on position only, so the bits are independent
dist = code_law(bit_probabilities(GreedyTowardString((0,), eps), 4, eps))
print(f"greedy strategy hits P(0000) = {dist[0]:.4f}  (= 0.6^4, the upper bound)")

# the four-bit groups feed the Bell test as one setting (u^1 .. u^4) per
# party; a steering source makes its target the likeliest draw
steered = code_law(bit_probabilities(SettingSteering((1, 0, 0, 0), eps), 4, eps))
code = int(np.argmax(steered))
print(f"steered toward 1000: likeliest draw {code:04b} with P = {steered[code]:.4f}"
      f" (uniform {2**-4:.4f})")

# over-reaching strategies are refused outright
class TooGreedy:
    period = 1

    def bias(self, history):
        return 0.3  # exceeds the promised envelope

try:
    bit_probabilities(TooGreedy(), 4, eps)
except StrategyViolationError as e:
    print("over-biased strategy rejected:", e)

# honest and constant-bias sources for comparison
for name, s in [("honest", HonestBits()), ("constant +0.1", ConstantBias(eps))]:
    d = code_law(bit_probabilities(s, 2, eps))
    print(f"{name:>14}: two-bit distribution {np.round(d, 3)}")
