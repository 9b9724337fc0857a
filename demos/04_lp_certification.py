"""
Certifying the guessing bound by linear programming
===================================================

How well can an eavesdropper, who prepared the box, guess the majority of
three output bits at one inequality setting — given that the box stays
no-signaling and keeps its Bell value below delta?  The answer is a linear
program over the 256 box entries.  Two independent solution routes (the
HiGHS library solver and a plain tableau simplex) must agree before a bound
is trusted.  Each route reads its dual certificate off its own optimum, and
the certificate is checked before the bound counts.
"""

from randamp.boxes import bell_value
from randamp.lp import LpInstance, adversarial_box, analytic_bound, certify_bound, certify_grid, solve

# One solver per symmetry orbit walks the grid; each delta after the first
# is re-solved from the previous optimal basis.  An entry is the report, or
# the error that certifying its delta raised.
deltas = (0.0, 0.2, 0.8)
for delta, report in zip(deltas, certify_grid(deltas, method="highs")):
    if isinstance(report, Exception):
        raise report
    print(
        f"delta={delta}: max guessing advantage {report.max_optimum:.6f}"
        f"  (closed-form ceiling {analytic_bound(delta):.6f})"
        f"  certified: {report.passed}"
    )

# At delta = 1/3 the ceiling is tight: the optimum is (11 + 7/3)/32 = 5/12.
# certify_bound checks one delta and raises if the ceiling fails there.
tight = certify_bound(1 / 3)
print(f"delta=1/3: max guessing advantage {tight.max_optimum:.12f}  (5/12 = {5 / 12:.12f})")

# the two routes, side by side, on one instance
inst = LpInstance(u_star=(0, 0, 0, 1), delta=0.2, guess=0)
a = solve(inst, method="highs")
b = solve(inst, method="simplex")
print()
print(f"library route : {a.value:.12f}")
print(f"tableau route : {b.value:.12f}")
print(f"dual value    : {a.dual_value:.12f}  (weak duality check passed at solve time)")

# the optimizer is an actual box; inspect what it gives up to guess better
box = adversarial_box(0.2, (0, 0, 0, 1), 0)
print()
print(f"adversarial box Bell value: {bell_value(box):.6f} (allowed up to 0.2)")
p = box.outcome_distribution((0, 0, 0, 1))
maj0 = sum(p[x] for x in range(16) if bin(x & 0b111).count("1") < 2)
print(f"P(majority = 0 | that setting) = {maj0:.6f} = 1/2 + advantage")
