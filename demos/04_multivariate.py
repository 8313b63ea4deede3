"""
Any number of variables: the simplex chain
==========================================

The one- and two-variable families are the first rungs of a ladder.
Each extra variable adds one more factor to the product formula, with
parameters that absorb everything accumulated so far.  This script
walks the d = 3 family and checks that it collapses back onto the
smaller ones.
"""
from hahnkit.hahn_bi import BiParams, bigLambda
from hahnkit.hahn_multi import (
    MultiParams,
    mv_lambda,
    mv_p_eval,
    mv_weight,
    verify_mv,
)
from hahnkit.numeric import Rat, format_rational
from hahnkit.simplex import simplex_points

p = MultiParams((Rat(1, 2), Rat(0), Rat(3), Rat(7, 3)), 3)
print("parameters:", p.echo())

# Points and degrees both live on the same lattice simplex.
pts = list(simplex_points(p.N, p.d))
print(f"\nsimplex has {len(pts)} points at N = {p.N}, d = {p.d}:")
print("  first five:", pts[:5])

# The weight is a ratio of binomial products and sums to one exactly.
total = sum(mv_weight(i, p) for i in pts)
print("\nweight total:", format_rational(total))

# A fully exact Gram check over every degree pair on the simplex, and the
# generating function, one Jacobi factor per variable, for every degree.
report = verify_mv(p)
for check in report.checks:
    print(f"{check.name}:", "pass" if check.passed else "FAIL",
          f"({len(pts)} degrees, residual {check.max_residual})")

# Degenerate cases reproduce the dedicated implementations verbatim.
q2 = MultiParams((Rat(1, 2), Rat(0), Rat(3)), 4)
b = BiParams(Rat(1, 2), Rat(0), Rat(3), 4)
agree = all(
    mv_lambda((m, n), q2) == bigLambda((m, n), b)
    for (m, n) in simplex_points(4, 2)
)
print("\nd = 2 norms equal the bivariate ones:", agree)

# At symmetric parameters the first nontrivial polynomial is just the
# difference of the first two coordinates.
sym = MultiParams((Rat(0),) * 4, 2)
print("\nP_(1,0,0) at alpha = 0, N = 2:")
for i in simplex_points(2, 3):
    value = mv_p_eval((1, 0, 0), i, sym)
    print(f"  i = {i}: {format_rational(value)}  (i1 - i2 = {i[0] - i[1]})")
