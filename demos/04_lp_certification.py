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
from randamp.lp import LpInstance, adversarial_box, analytic_bound, certify_bound, solve

for delta in (0.0, 0.2, 0.8):
    report = certify_bound(delta, method="highs")
    print(
        f"delta={delta}: max guessing advantage {report.max_optimum:.6f}"
        f"  (closed-form ceiling {analytic_bound(delta):.6f})"
        f"  certified: {report.passed}"
    )

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
